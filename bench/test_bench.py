"""Tests of the benchmark's own code: summary helpers, tracing arithmetic,
the benchmark's own F_p arithmetic, and checkers that must reject wrong
outputs. Run with `python -m pytest bench -q`."""

import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import steady  # noqa: E402
import summary  # noqa: E402
import worker  # noqa: E402
from checks import Mismatch  # noqa: E402


# -- summary helpers ------------------------------------------------------------------


def test_spread_matches_statistics_quantiles():
    xs = [1, 2, 3, 4, 5]
    assert summary.spread(xs) == pytest.approx((4.5 - 1.5) / 3)


def test_timed_part_metrics():
    m = worker.timed_part([0.1, 0.2, 0.3, 0.4], wall_s=2.0, cpu_s=0.8,
                          peak_rss_kb=2048)
    assert m["cases_per_s"] == 2.0
    assert m["case_s_p50"] == pytest.approx(0.25)
    assert m["case_s_p90"] == pytest.approx(0.37)
    assert m["cpu_s"] == 0.8
    assert m["peak_rss_mb"] == 2.0
    with pytest.raises(ValueError):
        worker.timed_part([], 1.0, 1.0, 1)


def test_drift_counts_both_directions():
    assert steady.drift(10.0, 11.0) == pytest.approx(0.1)
    assert steady.drift(10.0, 9.0) == pytest.approx(0.1)


def _result(workload, value, failed=0):
    metrics = {k: {"value": value, "unit": u} for k, (u, _, _) in summary.END_TO_END.items()}
    return {"workload": workload, "attempted": 100, "failed": failed,
            "correct": True, "metrics": metrics}


def test_compare_flags_drift_spread_and_fail_share():
    steady_set = [_result("w", v) for v in (1.0, 1.01, 0.99, 1.0, 1.02)]
    assert all(r["ok"] for r in steady.compare(steady_set, steady_set))
    for factor in (1.5, 0.6):  # worse or better, a moved median fails either way
        moved = [_result("w", factor * v) for v in (1.0, 1.01, 0.99, 1.0, 1.02)]
        assert not any(r["ok"] for r in steady.compare(steady_set, moved))
    noisy = [_result("w", v) for v in (1.0, 2.0, 0.5, 1.0, 3.0)]
    rows = {r["metric"]: r for r in steady.compare(steady_set, noisy)}
    assert not rows["cpu_s"]["ok"] and not rows["setup_s"]["ok"]
    mixed = steady_set[:4] + [_result("w", 1.0, failed=1)]
    assert not any(r["ok"] for r in steady.compare(steady_set, mixed))


# -- tracing arithmetic -------------------------------------------------------------------


def _span(tracer, name, start, end, parent):
    tracer.name_id.append(tracer.ids[name])
    tracer.start.append(start)
    tracer.end.append(end)
    tracer.parent.append(parent)


def test_self_time_subtracts_children():
    t = spans.Tracer()
    _span(t, "saito.lfd_verdict", 0.0, 10.0, -1)
    _span(t, "saito.det_at", 2.0, 5.0, 0)
    _span(t, "matrix.det", 3.0, 4.0, 1)
    _span(t, "saito.det_at", 6.0, 7.0, 0)
    times = t.self_times()
    assert times["saito.lfd_verdict"] == (1, pytest.approx(6.0))
    assert times["saito.det_at"] == (2, pytest.approx(3.0))
    assert times["matrix.det"] == (1, pytest.approx(1.0))
    per_round = t.metrics(rounds=2)
    assert per_round["saito.det_at.calls"] == 1.0
    assert per_round["saito.lfd_verdict.self_s"] == pytest.approx(3.0)


def test_every_per_layer_metric_is_reported():
    names = {n for n, _, _ in spans.per_layer_names()}
    assert set(spans.Tracer().metrics(rounds=1)) == names
    assert len(names) == 2 * len(spans.TRACED) + len(spans.COUNTS) + 1


# -- the benchmark's own arithmetic ------------------------------------------------------------


def test_second_prime_is_prime_below_2_31():
    p = checks.SECOND_PRIME
    assert p < 2**31 - 1
    assert all(p % k for k in range(2, int(p ** 0.5) + 1))


def test_det_mod_and_lagrange():
    p = 101
    assert checks.det_mod([[2, 1], [1, 3]], p) == 5
    assert checks.det_mod([[1, 2], [2, 4]], p) == 0
    coeffs = [3, 0, 5, 7]  # 3 + 5 t^2 + 7 t^3
    xs = list(range(6))
    ys = [sum(c * x**i for i, c in enumerate(coeffs)) % p for x in xs]
    assert checks.lagrange(xs, ys, p) == coeffs


def test_squarefree_mod():
    p = 101
    assert checks.is_squarefree_mod([2, 101 - 3, 1], p)            # (t-1)(t-2)
    assert not checks.is_squarefree_mod([101 - 2, 5, 101 - 4, 1], p)  # (t-1)^2 (t-2)


def test_root_counts_by_type():
    import workloads

    for shape, count in (("A5", 15), ("D5", 20), ("E6", 36), ("E7", 63), ("E8", 120)):
        assert len(workloads.roots_of(shape)) == count, shape


def test_own_saito_test_on_known_pairs():
    rng = random.Random(3)
    d4 = ((0, 3), (1, 3), (2, 3))
    assert checks.own_reducedness(d4, (1, 1, 1, 2), checks.SECOND_PRIME, rng) == (6, True)
    star = ((1, 0), (1, 2), (1, 3), (4, 1))
    degree, squarefree = checks.own_reducedness(star, (1, 2, 1, 1, 2),
                                                checks.SECOND_PRIME, rng)
    assert degree == 10 and not squarefree


# -- checkers reject wrong outputs -------------------------------------------------------------


class _Pair:
    def __init__(self, arrows, d, expect=None):
        self.label, self.arrows, self.d, self.seed, self.expect = "p", arrows, d, 1, expect


A3 = _Pair(((0, 1), (1, 2)), (1, 1, 1))
D4 = _Pair(((0, 3), (1, 3), (2, 3)), (1, 1, 1, 2), [2, 2, 2])


def test_checker_rejects_wrong_verdict():
    checks.check_linear_free(A3, ("linear_free", 2, 1, 2, ()))
    with pytest.raises(Mismatch):
        checks.check_linear_free(A3, ("not_linear_free", 2, 1, 2, ()))
    with pytest.raises(Mismatch):
        checks.check_linear_free(A3, ("linear_free", 3, 1, 2, ()))
    with pytest.raises(Mismatch):
        checks.check_own_verdict(A3, "not_linear_free", random.Random(1))
    with pytest.raises(Mismatch):
        checks.check_not_reduced(A3, ("linear_free", 2, 1, 2, ()),
                                 lambda p, s: "linear_free")


def _d4_report(degrees):
    return {"certified": True, "degrees": degrees, "side": "left",
            "vectors": [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1]]}


def test_checker_rejects_wrong_degree_list():
    def probe(vectors, side, top):
        return [2, 2, 2], [5, 10, 15], [1, 2, 3]

    checks.check_degrees(D4, _d4_report([2, 2, 2]), probe)
    for wrong in ([2, 2, 3], [2, 4], [1, 2, 3]):
        with pytest.raises(Mismatch):
            checks.check_degrees(D4, _d4_report(wrong), probe)
    with pytest.raises(Mismatch):  # line degrees disagree with the report
        checks.check_degrees(D4, _d4_report([2, 2, 2]),
                             lambda v, s, t: ([1, 2, 3], [5, 10, 15], [1, 2, 3]))
    with pytest.raises(Mismatch):  # product not proportional to f
        checks.check_degrees(D4, _d4_report([2, 2, 2]),
                             lambda v, s, t: ([2, 2, 2], [5, 10, 16], [1, 2, 3]))


def test_checker_rejects_wrong_period_list(tmp_path):
    import json

    import workloads

    delta = workloads.DELTA["E~6"]
    pair = workloads.Pair("E~6", workloads.SHAPES["E~6"][1], delta, 0)
    path = tmp_path / "e6.json"
    path.write_text(json.dumps(pair.to_json()))
    inv = workloads.Invocation("tubes E~6", ("tubes", str(path)), "tubes",
                               pair.arrows, delta, kind="tame", delta=delta,
                               periods=(3, 3, 2))
    code, stdout, stderr = workloads.CliCase(inv).run()
    checks.check_cli(inv, (code, stdout, stderr))
    report = json.loads(stdout)
    for periods in ([3, 2, 2], [4, 3, 2], [3, 3]):
        with pytest.raises(Mismatch):
            checks.check_cli(inv, (code, json.dumps(dict(report, periods=periods)), ""))
    report["tubes"][0]["simples"][0] = [0] * len(delta)
    with pytest.raises(Mismatch):  # simples no longer sum to delta
        checks.check_cli(inv, (code, json.dumps(report), ""))


def test_checker_rejects_an_error_invocation_that_exits_zero():
    import workloads

    inv = workloads.Invocation("--prime 9", (), "error")
    checks.check_cli(inv, (1, "", '{"error": "prime must be an odd prime, got 9"}\n'))
    with pytest.raises(Mismatch):
        checks.check_cli(inv, (0, '{"command": "analyze"}', ""))
