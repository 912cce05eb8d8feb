"""The four workloads: inputs generated from the seed, the timed call of each
case, and how each output is summarized and checked.

A quiver is given by vertex-index arrows over one of the fixed shapes below;
a shape lists its undirected edges and an orientation picks a direction per
edge. Roots are enumerated by the benchmark's own code (checks.real_roots).
Every case owns its Config seed, drawn from the workload seed, so repeating
a round repeats its work exactly.
"""

from __future__ import annotations

import io
import itertools
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import qlfd
import qlfd.cli
from qlfd.matrix import ExactMatrix
from qlfd.reps import Representation

import checks
from checks import SECOND_PRIME, rep_dim


def _path(n):
    return tuple((i, i + 1) for i in range(n - 1))


def _d(n):
    return ((0, 2), (1, 2)) + tuple((i, i + 1) for i in range(2, n - 1))


def _e(n):
    return _path(n - 1) + ((2, n - 1),)


def _d_affine(n):
    """D~n on n + 1 vertices: leaves 0, 1 on 2; path 2..n-2; leaves n-1, n."""
    return ((0, 2), (1, 2)) + tuple((i, i + 1) for i in range(2, n - 2)) + \
        ((n - 2, n - 1), (n - 2, n))


SHAPES = {f"A{n}": (n, _path(n)) for n in range(1, 7)}
SHAPES.update({f"D{n}": (n, _d(n)) for n in range(4, 8)})
SHAPES.update({f"E{n}": (n, _e(n)) for n in (6, 7, 8)})
SHAPES.update({f"D~{n}": (n + 1, _d_affine(n)) for n in range(4, 9)})
SHAPES.update({
    "E~6": (7, ((0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (5, 6))),
    "E~7": (8, _path(7) + ((3, 7),)),
    "E~8": (9, _path(8) + ((2, 8),)),
    "T223": (8, ((0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (5, 6), (6, 7))),
    "T134": (9, ((0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (5, 6), (6, 7), (7, 8))),
    "star5": (6, tuple((0, i) for i in range(1, 6))),
})

# Primitive radical vectors of the affine shapes in the labelling above.
DELTA = {f"D~{n}": (1, 1) + (2,) * (n - 3) + (1, 1) for n in range(4, 9)}
DELTA.update({"E~6": (1, 2, 3, 2, 1, 2, 1), "E~7": (1, 2, 3, 4, 3, 2, 1, 2),
              "E~8": (2, 4, 6, 5, 4, 3, 2, 1, 3)})
# Exceptional tube periods by affine type, largest first.
PERIODS = {f"D~{n}": (n - 2, 2, 2) for n in range(4, 9)}
PERIODS["D~4"] = (2, 2, 2)
PERIODS.update({"E~6": (3, 3, 2), "E~7": (4, 3, 2), "E~8": (5, 3, 2)})


def orient(edges, bits):
    return tuple((u, v) if b else (v, u) for (u, v), b in zip(edges, bits))


def random_orientation(edges, rng):
    return orient(edges, [rng.randrange(2) for _ in edges])


_ROOTS = {}


def roots_of(shape):
    """Positive real roots of a tree shape (they do not depend on orientation)."""
    if shape not in _ROOTS:
        n, edges = SHAPES[shape]
        _ROOTS[shape] = checks.real_roots(n, edges, 6)
    return _ROOTS[shape]


@dataclass(frozen=True)
class Pair:
    label: str
    arrows: tuple  # vertex-index pairs
    d: tuple
    seed: int      # Config seed of the timed call
    expect: object = None

    @property
    def names(self):
        return tuple(str(i + 1) for i in range(len(self.d)))

    def quiver(self):
        names = self.names
        return qlfd.Quiver(names, tuple((names[s], names[t]) for s, t in self.arrows))

    def to_json(self, d=None):
        names = self.names
        d = self.d if d is None else d
        return {"vertices": list(names),
                "arrows": [[names[s], names[t]] for s, t in self.arrows],
                "dim": {v: x for v, x in zip(names, d)}}


def load_pair(root, name, seed, expect=None):
    with open(root / "tests" / "data" / f"{name}.json", encoding="utf-8") as fh:
        data = json.load(fh)
    index = {v: i for i, v in enumerate(data["vertices"])}
    arrows = tuple((index[s], index[t]) for s, t in data["arrows"])
    d = tuple(data["dim"][v] for v in data["vertices"])
    return Pair(f"{name}.json", arrows, d, seed, expect)


# -- cases -------------------------------------------------------------------------


class LfdCase:
    """lfd_verdict on one pair; expect is 'linear_free' or 'not_reduced'."""

    def __init__(self, pair, oracle=False):
        self.pair = pair
        self.label = pair.label
        self.oracle = oracle
        self._q = pair.quiver()
        self._config = qlfd.Config(seed=pair.seed)

    def run(self):
        return qlfd.lfd_verdict(self._q, self.pair.d, self._config)

    @staticmethod
    def summarize(report):
        return (report.verdict, report.degree, report.q_value, report.dim_rep,
                tuple(report.reasons))

    def check(self, summary):
        pair = self.pair
        if pair.expect == "linear_free":
            checks.check_linear_free(pair, summary)
        else:
            checks.check_not_reduced(
                pair, summary,
                lambda p, s: qlfd.lfd_verdict(self._q, pair.d,
                                              qlfd.Config(prime=p, seed=s)).verdict)
        if self.oracle:
            checks.check_own_verdict(pair, summary[0], random.Random(pair.seed))


class DegreesCase:
    """component_degrees_report on one certified tree pair."""

    def __init__(self, pair):
        self.pair = pair
        self.label = pair.label
        self._q = pair.quiver()
        self._config = qlfd.Config(seed=pair.seed)

    def run(self):
        return qlfd.component_degrees_report(self._q, self.pair.d, self._config)

    @staticmethod
    def summarize(report):
        return report

    def check(self, report):
        checks.check_degrees(self.pair, report, self._probe)

    def _probe(self, vectors, side, top_degree):
        """Degrees on a fresh line, then invariant products and f at fresh points."""
        q, d = self._q, self.pair.d
        field = qlfd.GF(SECOND_PRIME)
        p = field.p
        rng = random.Random(self.pair.seed + 2)
        invariants = [qlfd.relative_invariant_det(
            q, d, qlfd.sample_representation(q, m, field, rng), side)
            for m in vectors]
        a = qlfd.sample_representation(q, d, field, rng)
        b = qlfd.sample_representation(q, d, field, rng)

        def on_line(t):
            mats = tuple(ExactMatrix(field, [[(x + t * y) % p for x, y in zip(ra, rb)]
                                             for ra, rb in zip(ma.rows, mb.rows)],
                                     shape=ma.shape)
                         for ma, mb in zip(a.mats, b.mats))
            return Representation(q, d, mats, field)

        # Two nodes beyond the largest reported degree expose a higher one.
        nodes = list(range(top_degree + 3))
        line = [on_line(t) for t in nodes]
        measured = [len(checks.lagrange(nodes, [ev(x) for x in line], p)) - 1
                    for ev in invariants]
        saito = qlfd.build_saito_matrix(q, d)
        points = [qlfd.sample_representation(q, d, field, rng) for _ in range(3)]
        products = []
        for x in points:
            prod = 1
            for ev in invariants:
                prod = prod * ev(x) % p
            products.append(prod)
        fvalues = [qlfd.evaluate_f(saito, x) for x in points]
        return measured, products, fvalues


@dataclass(frozen=True)
class Invocation:
    label: str
    argv: tuple
    command: str          # analyze | tubes | normal-form | reflect | split | parts | error
    arrows: tuple = ()
    d: tuple = None
    kind: str = None      # dynkin | tame | wild
    delta: tuple = None
    periods: tuple = None
    vertex: int = None
    split: tuple = None
    parts: tuple = None


class CliCase:
    """One call of qlfd.cli.main in-process, stdout and stderr captured."""

    def __init__(self, inv):
        self.inv = inv
        self.label = inv.label

    def run(self):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = qlfd.cli.main(list(self.inv.argv))
            except SystemExit as exc:  # argparse rejecting the arguments
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    @staticmethod
    def summarize(out):
        return out

    def check(self, out):
        checks.check_cli(self.inv, out)


# -- workloads ----------------------------------------------------------------------


@dataclass
class Workload:
    """The cases of one round, in the order every round runs them."""

    cases: list
    warmup: object


def _seed(rng):
    return rng.randrange(2**31)


def shuffled(cases, rng, warmup):
    rng.shuffle(cases)
    return Workload(cases, warmup)


def lfd_sweep(seed, root, workdir):
    """Every orientation of A1-A6, D4-D6, E6 with every positive real root."""
    rng = random.Random(f"lfd-sweep/{seed}")
    pool = []
    for shape in ("A1", "A2", "A3", "A4", "A5", "A6", "D4", "D5", "D6", "E6"):
        n, edges = SHAPES[shape]
        for bits in itertools.product((0, 1), repeat=len(edges)):
            arrows = orient(edges, bits)
            tag = "".join(map(str, bits))
            for r in roots_of(shape):
                pool.append(Pair(f"{shape}/{tag}/{r}", arrows, r, _seed(rng),
                                 "linear_free"))
    small = [i for i, p in enumerate(pool) if 4 <= rep_dim(p.arrows, p.d) <= 12]
    oracle = set(rng.sample(small, 60))
    cases = [LfdCase(p, oracle=i in oracle) for i, p in enumerate(pool)]
    warm = LfdCase(Pair("warm-up", SHAPES["E6"][1], (1, 2, 2, 1, 1, 1), 1, "linear_free"))
    return shuffled(cases, rng, warm)


def _leaf_pair(rng, lo, hi):
    """A Dynkin root with a leaf of equal dimension (>= 2) attached: q stays 1,
    and the Saito determinant is not reduced."""
    for _ in range(10000):
        shape = rng.choice(("E6", "E7", "E8"))
        n, edges = SHAPES[shape]
        r = rng.choice([x for x in roots_of(shape) if max(x) >= 2 and min(x) >= 1])
        v = rng.choice([i for i, x in enumerate(r) if x >= 2])
        leaf = (n, v) if rng.randrange(2) else (v, n)
        arrows = random_orientation(edges, rng) + (leaf,)
        d = r + (r[v],)
        if lo <= rep_dim(arrows, d) < hi:
            return Pair(f"{shape}+leaf@{v}/{d}", arrows, d, _seed(rng), "not_reduced")
    raise RuntimeError(f"no non-reduced pair with dim Rep in [{lo}, {hi})")


def lfd_large(seed, root, workdir):
    """Dynkin roots of rank 7 and 8, the affine test pairs, non-reduced trees."""
    rng = random.Random(f"lfd-large/{seed}")
    pairs = []
    for shape in ("E7", "E8"):
        edges = SHAPES[shape][1]
        for r in roots_of(shape):
            n = rep_dim(edges, r)
            if not 30 <= n <= 120:
                continue
            # More orientations of the smaller roots: a round of 86 cases.
            for copy in range(3 if n <= 45 else 2 if n <= 60 else 1):
                pairs.append(Pair(f"{shape}/{r}#{copy}", random_orientation(edges, rng),
                                  r, _seed(rng), "linear_free"))
    pairs.append(load_pair(root, "e7", _seed(rng), "linear_free"))
    pairs.append(load_pair(root, "e8", _seed(rng), "linear_free"))
    for lo in range(30, 90, 10):
        pairs.append(_leaf_pair(rng, lo, lo + 10))
    star = Pair("star(2->1,2->3,2->4,5->2)", ((1, 0), (1, 2), (1, 3), (4, 1)),
                (1, 2, 1, 1, 2), _seed(rng), "not_reduced")
    pairs.append(star)
    # The benchmark's own determinant is pure Python: only the smallest pairs.
    own = {star.label} | {p.label for p in sorted(
        pairs, key=lambda p: rep_dim(p.arrows, p.d))[:2]}
    cases = [LfdCase(p, oracle=p.label in own) for p in pairs]
    warm = LfdCase(Pair("warm-up", SHAPES["E7"][1], (1, 2, 3, 2, 1, 1, 2), 1,
                        "linear_free"))
    return shuffled(cases, rng, warm)


# Fixed tame and wild pairs, found by screening random orientations and
# roots: random tame and wild pairs mostly either fail to certify or take
# many seconds, which would make a round's cost depend on the seed.
DEGREES_CATALOG = (
    ("D~5", (1, 0, 0, 0, 1), (1, 2, 3, 2, 1, 1)),
    ("D~5", (1, 1, 0, 1, 0), (1, 1, 2, 3, 1, 2)),
    ("D~6", (1, 1, 1, 1, 0, 0), (1, 1, 2, 2, 1, 1, 1)),
    ("D~6", (0, 0, 0, 0, 1, 1), (1, 1, 2, 1, 1, 1, 1)),
    ("D~6", (1, 0, 0, 1, 0, 1), (1, 1, 2, 3, 2, 1, 1)),
    ("E~6", (1, 1, 0, 1, 0, 1), (1, 2, 4, 2, 1, 2, 1)),
    ("E~8", (0, 0, 0, 1, 1, 1, 1, 1), (1, 2, 2, 1, 1, 1, 1, 1, 1)),
)
# Pairs with many orthogonal candidates (20 to 56 on affine types, and the
# cheapest certified wild pair the screen found). They take the path that
# dominates degrees on larger pairs: a degree probe and four relative-
# invariant values per candidate. Orientations of D~5 and E~6 with 80 and
# 123 candidates take 6 s and 9 s for one case, a quarter of a run or more,
# and are left out so that every run holds the same mix.
DEGREES_MANY_CANDIDATES = (
    ("D~5", (0, 1, 0, 0, 0), (1, 1, 1, 2, 1, 1)),
    ("E~6", (0, 0, 0, 0, 0, 1), (1, 1, 2, 1, 1, 1, 1)),
    ("E~7", (1, 0, 0, 0, 0, 0, 0), (1, 1, 1, 2, 2, 1, 1, 1)),
    ("E~8", (0, 0, 1, 1, 0, 1, 1, 0), (1, 1, 1, 1, 1, 1, 1, 1, 1)),
    ("D~6", (1, 1, 1, 1, 1, 1), (1, 2, 3, 2, 2, 1, 1)),
    ("T223", (1, 0, 1, 0, 0, 1, 0), (1, 1, 2, 1, 1, 2, 1, 1)),
)


def degrees(seed, root, workdir):
    """Certified tree pairs: Dynkin, tame and wild, and the test data."""
    rng = random.Random(f"degrees/{seed}")

    def fixed(entries):
        # The default Config seed: their cost depends on it (the wild pair
        # takes 2 s or 3.4 s), and must not vary with the workload seed.
        return [Pair(f"{s}/{''.join(map(str, b))}/{d}", orient(SHAPES[s][1], b), d,
                     qlfd.Config.seed) for s, b, d in entries]

    pairs = [load_pair(root, "a2", _seed(rng), [1]),
             load_pair(root, "d4", _seed(rng), [2, 2, 2])]
    pairs += fixed(DEGREES_CATALOG)
    # Every sincere root with 8 <= dim Rep <= 60; the seed picks orientations.
    for shape, copies in (("D5", 3), ("D6", 3), ("D7", 3), ("E6", 3), ("E7", 1)):
        edges = SHAPES[shape][1]
        for r in roots_of(shape):
            if min(r) >= 1 and 8 <= rep_dim(edges, r) <= 60:
                for _ in range(copies):
                    arrows = random_orientation(edges, rng)
                    pairs.append(Pair(f"{shape}/{arrows}/{r}", arrows, r, _seed(rng)))
    pairs += fixed(DEGREES_MANY_CANDIDATES)
    warm = DegreesCase(load_pair(root, "d4", 1, [2, 2, 2]))
    return shuffled([DegreesCase(p) for p in pairs], rng, warm)


def cli_structure(seed, root, workdir):
    """analyze, tubes, normal-form, reflect and homogeneity through cli.main."""
    rng = random.Random(f"cli-structure/{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    invs = []
    written = itertools.count()

    def write(pair, d=None):
        path = workdir / f"{next(written)}.json"
        path.write_text(json.dumps(pair.to_json(d)))
        return str(path)

    def data(name):
        return load_pair(root, name, 0), str(root / "tests" / "data" / f"{name}.json")

    def add(label, argv, command, pair, **kw):
        invs.append(Invocation(label, tuple(argv), command, pair.arrows,
                               kw.pop("d", pair.d), **kw))

    def source_or_sink(pair):
        ends = [v for v in range(len(pair.d))
                if all(v != t for _, t in pair.arrows) or all(v != s for s, _ in pair.arrows)]
        return rng.choice(ends)

    def add_split(pair, path):
        """homogeneity --split with a random split of d into two positive parts."""
        m = tuple(rng.randint(0, x) for x in pair.d)
        if not any(m):
            m = (1,) + m[1:]
        if m == pair.d:
            m = (m[0] - 1,) + m[1:] if m[0] > 1 else (0,) + m[1:]
        n = tuple(x - y for x, y in zip(pair.d, m))
        text = ":".join(",".join(map(str, v)) for v in (m, n))
        add(f"split {pair.label}", ["homogeneity", path, "--split", text], "split",
            pair, split=(m, n))

    def dynkin_commands(pair, path):
        add(f"analyze {pair.label}", ["analyze", path], "analyze", pair, kind="dynkin")
        add(f"normal-form {pair.label}", ["normal-form", path], "normal-form", pair)
        k = source_or_sink(pair)
        add(f"reflect {pair.label} at {k + 1}", ["reflect", path, str(k + 1)],
            "reflect", pair, vertex=k)
        add_split(pair, path)

    # A fixed list of shapes per round keeps its cost independent of the seed;
    # the seed picks orientations, roots and dimension vectors.
    for shape in ("A5", "D6", "E6", "E8"):
        edges = SHAPES[shape][1]
        r = rng.choice([x for x in roots_of(shape) if min(x) >= 1])
        pair = Pair(f"{shape}/{r}", random_orientation(edges, rng), r, 0)
        dynkin_commands(pair, write(pair))

    for shape in ("D~5", "D~7", "E~6", "E~8"):
        delta = DELTA[shape]
        pair = Pair(shape, random_orientation(SHAPES[shape][1], rng), delta, 0)
        path = write(pair)
        common = dict(kind="tame", delta=delta, periods=PERIODS[shape])
        add(f"analyze {shape}", ["analyze", path], "analyze", pair, **common)
        add(f"tubes {shape}", ["tubes", path], "tubes", pair, **common)
        parts = _tube_parts(pair, rng)
        d = tuple(map(sum, zip(*parts)))
        text = ":".join(",".join(map(str, m)) for m in parts)
        add(f"parts {shape}", ["homogeneity", write(pair, d), "--parts", text],
            "parts", pair, d=d, parts=parts)

    for shape in ("T223", "T134", "star5"):
        n, edges = SHAPES[shape]
        d = tuple(rng.randint(1, 3) for _ in range(n))
        pair = Pair(f"{shape}/{d}", random_orientation(edges, rng), d, 0)
        path = write(pair)
        add(f"analyze {pair.label}", ["analyze", path], "analyze", pair, kind="wild")
        add_split(pair, path)

    a2, a2_path = data("a2")
    add("analyze a2.json", ["analyze", a2_path], "analyze", a2, kind="dynkin")
    add("reflect a2.json at 1", ["reflect", a2_path, "1"], "reflect", a2, vertex=0)
    add("split a2.json", ["homogeneity", a2_path, "--split", "1,0:0,1"], "split", a2,
        split=((1, 0), (0, 1)))
    d4, d4_path = data("d4")
    add("analyze d4.json", ["analyze", d4_path], "analyze", d4, kind="dynkin")
    add("normal-form d4.json", ["normal-form", d4_path], "normal-form", d4)
    cyc, cyc_path = data("cycle3")
    add("analyze cycle3.json", ["analyze", cyc_path], "analyze", cyc, kind="tame",
        delta=(1, 1, 1))
    for name, shape in (("e7", "E~7"), ("e8", "E~8")):
        pair, path = data(name)
        add(f"tubes {name}.json", ["tubes", path], "tubes", pair, delta=DELTA[shape],
            periods=PERIODS[shape])
        add(f"normal-form {name}.json", ["normal-form", path], "normal-form", pair)
    e7, e7_path = data("e7")
    parts = ((1, 1, 1, 2, 1, 1, 1, 1), (0, 1, 1, 1, 1, 1, 0, 0))
    add("parts e7.json", ["homogeneity", e7_path, "--parts",
                          "1,1,1,2,1,1,1,1:0,1,1,1,1,1,0,0"], "parts", e7, parts=parts)
    # Config is built outside cli.main's try block: these raise today.
    add("--prime 9", ["--prime", "9", "analyze", a2_path], "error", a2)
    add("--trials 0", ["--trials", "0", "lfd", a2_path], "error", a2)
    warm = CliCase(Invocation("warm-up", ("analyze", e7_path), "analyze",
                              e7.arrows, e7.d, kind="tame", delta=DELTA["E~7"]))
    return shuffled([CliCase(i) for i in invs], rng, warm)


def _tube_parts(pair, rng):
    """Two neighbouring regular simples of a tube of period >= 3.

    The tubes come from the program (qlfd.find_tubes); the parts are checked
    here to be real roots of defect zero, so the input is what it claims.
    """
    tube = next(t for t in qlfd.find_tubes(pair.quiver()) if t.period >= 3)
    j = rng.randrange(tube.period)
    parts = (tube.simples[j], tube.simples[(j + 1) % tube.period])
    delta = pair.d
    for m in parts:
        if checks.tits(pair.arrows, m) != 1 or checks.euler_form(pair.arrows, delta, m):
            raise RuntimeError(f"{pair.label}: {m} is not a regular simple")
    return parts


BUILDERS = {
    "lfd-sweep": lfd_sweep,
    "lfd-large": lfd_large,
    "degrees": degrees,
    "cli-structure": cli_structure,
}
