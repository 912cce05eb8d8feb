"""Steadiness check: two sets of runs of the same code, compared to the bounds.

    python3 bench/steady.py --runs 10

Each run of every workload is `python3 bench/run.py --workload W --seed S
--seconds N`, with N the run_seconds of BENCHMARK.json and another seed for
every run: set 1 uses seeds FIRST_SEED .. FIRST_SEED + runs - 1, set 2 the next `runs`
seeds. The sets are interleaved: for each run index and workload the set-1
run and the set-2 run follow each other, and which goes first alternates,
so that a slow phase of a shared machine lands on both sets alike.

For every pairing of end-to-end metric and workload the table gives each
set's median and spread (interquartile distance over the median, from
statistics.quantiles(values, n=4)) and the drift |second - first| / first
of the medians. A pairing passes when both spreads and the drift are within
the metric's bound, setup_s included, and the share of failed operations is
the same in every run. Raw results go to bench/out/steady-<stamp>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import summary
from run import WORKLOADS

BENCH = Path(__file__).resolve().parent
FIRST_SEED = 101
RUN_SECONDS = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]


def one_run(workload, seed):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=200, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["workload"], result["seed"] = workload, seed
    result["elapsed_s"] = time.monotonic() - started
    return result


def drift(first, second):
    """How far the second median is from the first, as a share of the first."""
    return abs(second - first) / first


def compare(first, second):
    """One row per pairing of workload and end-to-end metric."""
    rows = []
    for workload in sorted({r["workload"] for r in first + second}):
        runs = [[r for r in s if r["workload"] == workload] for s in (first, second)]
        fail_share = {r["failed"] / r["attempted"] for s in runs for r in s}
        for metric, (unit, _, bound) in summary.END_TO_END.items():
            values = [[r["metrics"][metric]["value"] for r in s] for s in runs]
            medians = [statistics.median(v) for v in values]
            spreads = [summary.spread(v) for v in values]
            moved = drift(*medians)
            rows.append({"workload": workload, "metric": metric, "unit": unit,
                         "medians": medians, "spreads": spreads, "drift": moved,
                         "bound": bound,
                         "ok": moved <= bound and max(spreads) <= bound
                         and len(fail_share) == 1,
                         "third_of_bound": max(spreads + [moved]) <= bound / 3,
                         "quartiles": [statistics.quantiles(v, n=4) for v in values],
                         "fail_share": sorted(fail_share)})
    return rows


def print_table(rows, out=sys.stdout):
    print(f"{'workload':14} {'metric':12} {'median(s)':>22} {'spread(s)':>12} "
          f"{'drift':>6} {'bound':>6}  verdict", file=out)
    for r in rows:
        med = " ".join(f"{m:.4g}" for m in r["medians"])
        spr = " ".join(f"{s:.3f}" for s in r["spreads"])
        verdict = "ok" if r["ok"] else "FAIL"
        if r["ok"] and not r["third_of_bound"]:
            verdict = "ok (above a third of the bound)"
        print(f"{r['workload']:14} {r['metric']:12} {med:>22} {spr:>12} "
              f"{r['drift']:6.3f} {r['bound']:6.2f}  {verdict}", file=out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2 for a spread")
    sets = ([], [])
    for i in range(args.runs):
        for workload in WORKLOADS:
            for s in ((0, 1) if i % 2 == 0 else (1, 0)):
                seed = FIRST_SEED + s * args.runs + i
                sets[s].append(one_run(workload, seed))
                print(f"set {s + 1} {workload} seed {seed}: "
                      f"{sets[s][-1]['elapsed_s']:.1f} s", file=sys.stderr, flush=True)
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    path = out / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps({"seconds": RUN_SECONDS, "sets": sets}))
    print(f"raw results: {path}")
    rows = compare(*sets)
    print_table(rows)
    bad = [r for s in sets for r in s if not r["correct"]]
    for r in bad:
        print(f"incorrect output: {r['workload']} seed {r['seed']}")
    return 0 if all(r["ok"] for r in rows) and not bad else 1


if __name__ == "__main__":
    sys.exit(main())
