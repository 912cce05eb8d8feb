"""The end-to-end metric table and the spread of a set of runs; standard library only.

The orchestrator (run.py) and the steadiness check (steady.py) import this
module without importing numpy or qlfd, so a failing import of the program
cannot be mistaken for a failing summary.
"""

from __future__ import annotations

import statistics

# Unit, direction and bound of every end-to-end metric; BENCHMARK.json
# repeats them. Wall and CPU times get the largest bound allowed: on the
# 2-vCPU machine the benchmark was tuned on, the same runs drift by up to
# a fifth over a few minutes (see README.md), while peak memory does not.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "cases_per_s": ("1/s", "higher", 0.25),
    "case_s_p50": ("s", "lower", 0.25),
    "case_s_p90": ("s", "lower", 0.25),
    "cpu_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}


def spread(values) -> float:
    """Interquartile distance over the median, as statistics.quantiles gives it."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def with_units(values: dict, units: dict) -> dict:
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}
