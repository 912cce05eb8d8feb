"""Benchmark entry point: one workload, its set-up samples and one measured run.

    python3 bench/run.py --workload lfd-sweep --seed 1 --seconds 25 --trace 0

Each workload runs in processes of its own, one after another, each
single-threaded. With --trace 0 the command first starts SETUP_SAMPLES - 1
processes that only set up (import qlfd, generate the inputs from the
seed, run one untimed warm-up case), then the measured process, which sets
up the same way and times cases for --seconds. setup_s is the median of
all these set-ups, each measured from the start of its process. With
--trace 1 only the measured process runs, with tracing on.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. A worker that fails, or a checkout without the
program, makes the command exit 1 without printing one.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import summary

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("lfd-sweep", "lfd-large", "degrees", "cli-structure")
SETUP_SAMPLES = 7
TIME_LIMIT_S = 170  # the whole command, set-ups and checks included
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_worker(args, deadline, setup_only):
    """Start one worker; return (seconds from start to ready, its last line)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **SINGLE_THREAD)
    started = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                          timeout=max(1.0, deadline - started), check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    result = json.loads(lines[-1])
    return result["ready"] - started, result


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_worker(args, deadline, setup_only=True)[0])
        setup, result = run_worker(args, deadline, setup_only=False)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    metrics = result["metrics"]
    if args.trace:
        from spans import per_layer_names

        units = {name: unit for name, unit, _ in per_layer_names()}
    else:
        setups.append(setup)
        metrics = dict(setup_s=statistics.median(setups), **metrics)
        units = {name: unit for name, (unit, _, _) in summary.END_TO_END.items()}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": summary.with_units(metrics, units)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
