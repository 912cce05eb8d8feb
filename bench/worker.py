"""One workload in one process: set up, time the cases, check every output.

Run by run.py, once per set-up sample and once for the measured run:

    python3 bench/worker.py --workload lfd-sweep --seed 1 --seconds 25 --trace 0
    python3 bench/worker.py --workload lfd-sweep --seed 1 --setup-only

Set-up ends when the untimed warm-up case returns; the monotonic time of
that moment is reported as "ready", and run.py subtracts the time it
started the process. The last stdout line is one JSON object.

Every run executes whole rounds of the same cases, about --seconds worth
(see timed_cases), so every run measures the same mix and the share of
failed calls is the same in every run. Traced runs report each per-layer
metric per round; all rounds are the same work, so counts repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_CASES = 120  # so that at least ten cases lie beyond the 90th percentile


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def import_program():
    """Import qlfd from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import qlfd

    if Path(qlfd.__file__).resolve().parent != src / "qlfd":
        raise ImportError(f"qlfd imported from {qlfd.__file__}, not {src}")
    return qlfd


def timed_cases(cases, seconds):
    """Run whole rounds of the cases.

    Another round starts while it would end within half a round of the
    time box, and until MIN_CASES cases have run. Returns the wall seconds
    of every call, the calls that raised, the first output of each case
    (summarized), the cases whose later outputs differed from their first,
    and the number of rounds.
    """
    times, failures, first, differs = [], [], {}, set()
    rounds = 0
    start = time.perf_counter()
    while True:
        for i, case in enumerate(cases):
            t0 = time.perf_counter()
            try:
                out = case.run()
            except Exception as exc:  # a failed operation, counted in `failed`
                times.append(time.perf_counter() - t0)
                failures.append(exc)
                continue
            times.append(time.perf_counter() - t0)
            result = case.summarize(out)
            if i not in first:
                first[i] = result
            elif result != first[i]:
                differs.add(i)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 0.5 / rounds) >= seconds and len(times) >= MIN_CASES:
            return times, failures, first, differs, rounds


def timed_part(case_times, wall_s, cpu_s, peak_rss_kb):
    """The end-to-end metrics of one run's timed part (all but setup_s).

    case_times: wall seconds of each timed case; wall_s: wall seconds of the
    timed part; cpu_s: process CPU seconds of one round of the workload
    (the timed part runs whole rounds of the same cases, so CPU time per
    round is a fixed amount of work, where the total would restate the run
    length).
    """
    if not case_times:
        raise ValueError("no timed cases")
    p50, p90 = np.percentile(case_times, [50, 90])
    return {
        "cases_per_s": len(case_times) / wall_s,
        "case_s_p50": float(p50),
        "case_s_p90": float(p90),
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


def check_outputs(cases, first, differs):
    """Check the first output of every case; later ones must equal it."""
    problems = [f"{cases[i].label}: output differs between rounds" for i in sorted(differs)]
    for i, result in first.items():
        try:
            cases[i].check(result)
        except Exception as exc:  # a wrong output or a checker that cannot read it
            problems.append(f"{cases[i].label}: {type(exc).__name__}: {exc}")
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import spans
    import workloads

    if args.workload not in workloads.BUILDERS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.BUILDERS)}")
    workdir = BENCH / "out" / f"work-{os.getpid()}"
    try:
        work = workloads.BUILDERS[args.workload](args.seed, ROOT, workdir)
        tracer = spans.Tracer()
        if args.trace:
            tracer.install()
        work.warmup.check(work.warmup.summarize(work.warmup.run()))
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0

        tracer.recording = True
        wall0, cpu0 = time.perf_counter(), time.process_time()
        times, failures, first, differs, rounds = timed_cases(work.cases, args.seconds)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        tracer.recording = False
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        check0 = time.perf_counter()
        problems = check_outputs(work.cases, first, differs)
        check_s = time.perf_counter() - check0
        info = {"workload": args.workload, "seed": args.seed, "cases": len(times),
                "checked_cases": len(first), "round_size": len(work.cases),
                "rounds": rounds,
                "wall_s": wall, "check_s": check_s, "problems": problems[:10],
                "failures": sorted({f"{type(e).__name__}: {e}" for e in failures})}
        if args.trace:
            (BENCH / "out").mkdir(exist_ok=True)
            tracer.dump(BENCH / "out" / f"trace-{args.workload}-seed{args.seed}.npz")
            metrics = tracer.metrics(rounds)
        else:
            metrics = timed_part(times, wall, cpu / rounds, peak_kb)
        print(json.dumps(info), file=sys.stderr)
        print(json.dumps({"ready": ready, "correct": not problems,
                          "attempted": len(times), "failed": len(failures),
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
