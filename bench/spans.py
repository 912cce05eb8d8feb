"""Spans and counts recorded around qlfd's public functions.

Each traced function is wrapped where its callers look it up: in every
qlfd module namespace that holds it (saito imports build_c_matrix by
name, cli imports lfd_verdict by name, ...) and, for methods, on the class.
A span is (name, start, end, parent); spans are kept in flat arrays in
memory and written out once, when the run ends. Self time is a span's
duration minus the time its child spans cover. Recording is switched on
only around the timed cases, so set-up, warm-up and output checks leave
no spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# (layer name, module, attribute, owning class or None)
TRACED = (
    ("cli.main", "qlfd.cli", "main", None),
    ("saito.lfd_verdict", "qlfd.saito", "lfd_verdict", None),
    ("saito.component_degrees_report", "qlfd.saito", "component_degrees_report", None),
    ("saito.build_saito_matrix", "qlfd.saito", "build_saito_matrix", None),
    ("saito.det_at", "qlfd.saito", "det_at", "SaitoMatrix"),
    ("saito.reducedness_test", "qlfd.saito", "reducedness_test", None),
    ("saito.degree_sum_check", "qlfd.saito", "degree_sum_check", None),
    ("saito.quasihom_certificate", "qlfd.saito", "quasihom_certificate", None),
    ("reps.hom_ext", "qlfd.reps", "hom_ext", None),
    ("reps.build_c_matrix", "qlfd.reps", "build_c_matrix", None),
    ("reps.rep_from_coords", "qlfd.reps", "rep_from_coords", None),
    ("reps.sample_representation", "qlfd.reps", "sample_representation", None),
    ("reps.is_schur_root", "qlfd.reps", "is_schur_root", None),
    ("reps.perp_candidates", "qlfd.reps", "perp_candidates", None),
    ("matrix.det", "qlfd.matrix", "det", "ExactMatrix"),
    ("matrix.rref", "qlfd.matrix", "rref", "ExactMatrix"),
    ("matrix.gf_rank", "qlfd.matrix", "gf_rank", None),
    ("poly.interpolate", "qlfd.poly", "interpolate", None),
    ("poly.is_squarefree", "qlfd.poly", "is_squarefree", "UnivariatePoly"),
    ("quiver.classify_graph", "qlfd.quiver", "classify_graph", None),
    ("quiver.stages", "qlfd.quiver", "stages", None),
    ("roots.positive_real_roots", "qlfd.roots", "positive_real_roots", None),
    ("roots.find_tubes", "qlfd.roots", "find_tubes", None),
    ("roots.coxeter_matrix", "qlfd.roots", "coxeter_matrix", None),
    ("reflections.bipartite_normal_form", "qlfd.reflections", "bipartite_normal_form", None),
)

# Counts that repeat exactly for a given seed, beyond calls per function.
COUNTS = (
    "saito.det_at.n3",
    "reps.build_c_matrix.n3",
    "saito.reducedness_test.trials",
    "poly.interpolate.points",
    "roots.positive_real_roots.roots",
    "reps.perp_candidates.kept",
    "saito.component_degrees_report.scored",
    "fields.element.calls",
)


def per_layer_names():
    """Every per-layer metric with its unit and better direction."""
    out = []
    for name, *_ in TRACED:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    out.extend((c, "count", "lower") for c in COUNTS)
    out.append(("reps.is_schur_root.trials_per_yes", "count", "lower"))
    return out


class Tracer:
    def __init__(self):
        self.names = [name for name, *_ in TRACED]
        self.ids = {name: i for i, name in enumerate(self.names)}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.recording = False
        self.counts = dict.fromkeys(COUNTS, 0)
        self.schur_trials = 0
        self.schur_yes = 0
        self._last_c = None  # the c-matrix built last, whose det is a c-matrix det

    # -- installation ---------------------------------------------------------

    def install(self):
        """Replace each traced function by a recording wrapper, everywhere."""
        modules = [m for k, m in sys.modules.items()
                   if k == "qlfd" or k.startswith("qlfd.")]
        for name, modname, attr, owner in TRACED:
            mod = sys.modules[modname]
            if owner is not None:
                cls = getattr(mod, owner)
                setattr(cls, attr, self._wrap(name, getattr(cls, attr)))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(name, orig)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)
        fields = sys.modules["qlfd.fields"]
        element = fields.PrimeField.element
        tracer = self

        def counted_element(field, x):
            if tracer.recording:
                tracer.counts["fields.element.calls"] += 1
            return element(field, x)

        fields.PrimeField.element = counted_element

    def _wrap(self, name, fn):
        sid = self.ids[name]
        count = getattr(self, "_count_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_id.append(sid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.start.append(time.perf_counter())
            self.end.append(0.0)
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.end[idx] = time.perf_counter()
            if count is not None:
                count(args, kwargs, result)
            return result

        return wrapper

    # -- counts attached to single layers ---------------------------------------

    def _count_saito_det_at(self, args, kwargs, result):
        self.counts["saito.det_at.n3"] += args[0].n ** 3

    def _count_reps_build_c_matrix(self, args, kwargs, result):
        self._last_c = result

    def _count_matrix_det(self, args, kwargs, result):
        if args[0] is self._last_c:
            self.counts["reps.build_c_matrix.n3"] += args[0].nrows ** 3

    def _count_saito_reducedness_test(self, args, kwargs, result):
        self.counts["saito.reducedness_test.trials"] += result.trials

    def _count_poly_interpolate(self, args, kwargs, result):
        points = args[1] if len(args) > 1 else kwargs["points"]
        self.counts["poly.interpolate.points"] += len(points)

    def _count_roots_positive_real_roots(self, args, kwargs, result):
        self.counts["roots.positive_real_roots.roots"] += len(result)

    def _count_reps_perp_candidates(self, args, kwargs, result):
        self.counts["reps.perp_candidates.kept"] += len(result)

    def _count_saito_component_degrees_report(self, args, kwargs, result):
        self.counts["saito.component_degrees_report.scored"] += \
            result.get("candidates_considered", 0)

    def _count_reps_is_schur_root(self, args, kwargs, result):
        self.schur_trials += result.trials
        self.schur_yes += result.value == "yes"

    # -- results --------------------------------------------------------------

    def self_times(self):
        """(calls, self seconds) per layer name."""
        n_spans = len(self.start)
        child = [0.0] * n_spans
        calls = [0] * len(self.names)
        own = [0.0] * len(self.names)
        for i in range(n_spans - 1, -1, -1):
            dur = self.end[i] - self.start[i]
            p = self.parent[i]
            if p >= 0:
                child[p] += dur
            sid = self.name_id[i]
            calls[sid] += 1
            own[sid] += dur - child[i]
        return {name: (calls[i], own[i]) for i, name in enumerate(self.names)}

    def metrics(self, rounds: int) -> dict:
        """Every per-layer metric, per round of the workload."""
        out = {}
        for name, (calls, own) in self.self_times().items():
            out[f"{name}.calls"] = calls / rounds
            out[f"{name}.self_s"] = own / rounds
        for key, val in self.counts.items():
            out[key] = val / rounds
        out["reps.is_schur_root.trials_per_yes"] = (
            self.schur_trials / self.schur_yes if self.schur_yes else 0.0)
        return out

    def dump(self, path):
        """Write every span (name, start, end, parent) as one .npz file."""
        import numpy as np

        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))
