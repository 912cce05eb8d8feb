"""Command-line front end.

All commands read the quiver JSON format
{"vertices": [...], "arrows": [[s, t], ...], "dim": {v: n, ...}} and print a
JSON report to stdout (``--format text`` gives a short summary). Exit codes:
0 for definitive verdicts, 2 for inconclusive ones, 1 for input errors.
Identical input and configuration (including the seed) produce byte-identical
reports.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .config import Config
from .errors import CyclicQuiver, QuiverInputError, StepLimit
from .quiver import (Quiver, cartan_matrix, classify_graph, euler_form,
                     euler_matrix, is_sincere, is_tree, quiver_from_json,
                     quiver_to_json, rep_dimension, sinks, sources, stages,
                     tits_form)
from .reflections import bipartite_normal_form, reflect_pair
from .roots import _tubes
from .saito import (component_degrees_report, euler_homogeneity_witness,
                    lfd_verdict, quasihom_certificate)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INCONCLUSIVE = 2


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise QuiverInputError(f"cannot read quiver JSON: {exc}") from exc
    return quiver_from_json(data)


def _need_dim(d):
    if d is None:
        raise QuiverInputError("this command needs a \"dim\" entry in the input")
    return d


def _parse_vector(q: Quiver, text: str):
    parts = text.split(",")
    if len(parts) != q.n_vertices:
        raise QuiverInputError(
            f"vector {text!r} has {len(parts)} entries, expected {q.n_vertices}")
    try:
        return tuple(int(x) for x in parts)
    except ValueError as exc:
        raise QuiverInputError(f"bad vector {text!r}") from exc


def cmd_analyze(q: Quiver, d, config: Config, args):
    report = {
        "command": "analyze",
        "quiver": quiver_to_json(q, d),
        "euler_matrix": euler_matrix(q),
        "cartan_matrix": cartan_matrix(q),
        "is_tree": is_tree(q),
        "sources": sources(q),
        "sinks": sinks(q),
    }
    gc = classify_graph(q)
    report["graph_class"] = gc.to_json()
    if gc.kind == "tame":
        report["delta"] = list(gc.delta)
    try:
        report["stages"] = stages(q).to_json()
    except CyclicQuiver:
        report["stages"] = None
    if d is not None:
        report["q_value"] = tits_form(q, d)
        report["dim_rep"] = rep_dimension(q, d)
        report["sincere"] = is_sincere(d)
        if gc.kind == "tame":
            report["defect"] = euler_form(q, gc.delta, d)
    return report, EXIT_OK


def cmd_lfd(q: Quiver, d, config: Config, args):
    rep = lfd_verdict(q, _need_dim(d), config)
    out = {"command": "lfd", "quiver": quiver_to_json(q, d)}
    out.update(rep.to_json())
    code = EXIT_INCONCLUSIVE if rep.verdict == "inconclusive" else EXIT_OK
    return out, code


def cmd_degrees(q: Quiver, d, config: Config, args):
    rep = component_degrees_report(q, _need_dim(d), config)
    out = {"command": "degrees", "quiver": quiver_to_json(q, d)}
    out.update(rep)
    return out, EXIT_OK if rep.get("certified") else EXIT_INCONCLUSIVE


def cmd_tubes(q: Quiver, d, config: Config, args):
    gc = classify_graph(q)
    tubes = _tubes(q, gc)
    out = {
        "command": "tubes",
        "quiver": quiver_to_json(q, d),
        "delta": list(gc.delta),
        "periods": [t.period for t in tubes],
        "tubes": [dict(t.to_json(), sum_is_delta=(t.delta == gc.delta))
                  for t in tubes],
    }
    return out, EXIT_OK


def cmd_reflect(q: Quiver, d, config: Config, args):
    q_new, d_new = reflect_pair(q, args.vertex, _need_dim(d))
    out = {
        "command": "reflect",
        "vertex": args.vertex,
        "before": quiver_to_json(q, d),
        "after": quiver_to_json(q_new, d_new),
    }
    return out, EXIT_OK


def cmd_normal_form(q: Quiver, d, config: Config, args):
    q_new, d_new, trace = bipartite_normal_form(q, _need_dim(d), args.max_steps)
    out = {
        "command": "normal-form",
        "before": quiver_to_json(q, d),
        "after": quiver_to_json(q_new, d_new),
        "steps": [s.to_json() for s in trace],
        "stage_count": stages(q_new).top + 1,
    }
    return out, EXIT_OK


def cmd_homogeneity(q: Quiver, d, config: Config, args):
    d = _need_dim(d)
    out = {"command": "homogeneity", "quiver": quiver_to_json(q, d)}
    if args.split is not None:
        texts = args.split.split(":")
        if len(texts) != 2:
            raise QuiverInputError("--split needs the form m1,m2,...:n1,n2,...")
        m, n = (_parse_vector(q, t) for t in texts)
        found = euler_homogeneity_witness(q, d, (m, n))
        out.update({"split": [list(m), list(n)], "euler_witness": found})
        return out, EXIT_OK
    if args.parts is not None:
        vectors = [_parse_vector(q, t) for t in args.parts.split(":")]
        cert = quasihom_certificate(q, d, vectors)
        out.update({"parts": [list(v) for v in vectors]})
        out.update(cert.to_json())
        code = EXIT_OK if cert.value != "none_found" else EXIT_INCONCLUSIVE
        return out, code
    raise QuiverInputError("homogeneity needs --split or --parts")


def _emit(report, fmt):
    if fmt == "json":
        sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")
        return
    lines = [f"{report['command']}:"]
    for key in sorted(report):
        if key in ("command", "quiver", "before", "after", "euler_matrix",
                   "cartan_matrix", "steps", "tubes", "stages"):
            continue
        lines.append(f"  {key}: {report[key]}")
    sys.stdout.write("\n".join(lines) + "\n")


class UsageError(Exception):
    """A command line that argparse rejects."""


class _Parser(argparse.ArgumentParser):
    """Raises UsageError in place of printing the usage text and exiting 2,
    which the CLI reserves for inconclusive verdicts; subparsers share the
    class. Help still prints and exits 0."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


@functools.cache
def build_parser():
    """The argument parser, built once per process; each subcommand sets
    `run` to its cmd_* function."""
    ap = _Parser(
        prog="qlfd",
        description="linear free divisor analysis for quiver representation spaces")
    ap.add_argument("--prime", type=int, default=Config.prime)
    ap.add_argument("--seed", type=int, default=Config.seed)
    ap.add_argument("--trials", type=int, default=Config.trials)
    ap.add_argument("--entry-bound", type=int, default=Config.entry_bound,
                    help="largest root entry that degrees searches; the root "
                         "box grows from 1 and the search stops at the first "
                         "box that certifies")
    ap.add_argument("--format", choices=("json", "text"), default="json")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, run in (("analyze", cmd_analyze), ("lfd", cmd_lfd),
                      ("degrees", cmd_degrees), ("tubes", cmd_tubes),
                      ("normal-form", cmd_normal_form), ("reflect", cmd_reflect),
                      ("homogeneity", cmd_homogeneity)):
        p = sub.add_parser(name)
        p.add_argument("path")
        p.set_defaults(run=run)
    sub.choices["reflect"].add_argument("vertex")
    sub.choices["normal-form"].add_argument("--max-steps", type=int, default=64)
    given = sub.choices["homogeneity"].add_mutually_exclusive_group()
    given.add_argument("--split", default=None,
                       help="two comma-separated vectors 'm1,..:n1,..'")
    given.add_argument("--parts", default=None,
                       help="colon-separated list of comma-separated vectors")
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = Config(prime=args.prime, seed=args.seed, trials=args.trials,
                        entry_bound=args.entry_bound)
        q, d = _load(args.path)
        report, code = args.run(q, d, config, args)
    except (ValueError, StepLimit, UsageError) as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return EXIT_INPUT
    _emit(report, args.format)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
