"""Closed-form verification suite.

Each check compares solver output against a documented expectation (a family
closed form, a known exact value, or an internal consistency law) and reports
pass/fail with its runtime.  The quick level stays within order 12; the full
level adds the order-14 double-jump realization and the exhaustive tree sweep.

A family closed form is one table row: a list of instances, each solved at
every level 1..stable_level and compared with families.predict_outcome.  The
predictors alone say which (instance, level) pairs a closed form covers: a
level whose predictor raises NotCoveredError is skipped, and a row that
checks no pair fails.

Record-style checks (values with no confirmed closed form) always pass and
carry the computed value so runs archive the data.
"""

from __future__ import annotations

import random
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, TextIO

from . import graphio
from .errors import MBResolveError, NotCoveredError
from .families import (
    FamilySpec,
    all_free_trees,
    classify_tree,
    connected_graph_atlas,
    gen_family,
    predict_outcome,
    predict_tree_outcome,
    predicted_counts,
    random_connected_graph,
)
from .game import (
    Certificate,
    GameOutcome,
    GameSolver,
    MoveCounts,
    OutcomeSymbol,
    certificate_fast_path,
    jump_report,
    outcome,
)
from .graph import Graph, all_pairs_distances, truncated_distance
from .resolve import GapProfile, cycle_gap_check, is_resolving, metric_dimension_k

PROPERTY_SEED = 20240811
PROPERTY_SAMPLE = 500


@dataclass
class CheckResult:
    check_id: str
    expected: str
    actual: str
    passed: bool
    seconds: float


@dataclass
class SuiteResult:
    level: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass
class _PropertyRecord:
    graph: Graph
    ks: list[int]
    outcomes: dict[int, GameOutcome]
    counts: dict[int, MoveCounts]
    dims: dict[int, int]
    certs: dict[int, Certificate | None]
    stable_level: int


class _Context:
    """The property dataset, built by the first check that needs it and shared by the rest.

    The ``properties.dataset`` check runs ahead of the other ``properties.*``
    checks, so in a full run it alone pays for the build.
    """

    def __init__(self):
        self._property_data: list[_PropertyRecord] | None = None

    def property_data(self) -> list[_PropertyRecord]:
        if self._property_data is not None:
            return self._property_data
        rng = random.Random(PROPERTY_SEED)
        graphs: list[Graph] = []
        for _ in range(PROPERTY_SAMPLE):
            n = rng.randint(2, 7)
            p = rng.uniform(0.25, 0.85)
            graphs.append(random_connected_graph(n, p, rng))
        for n in range(2, 8):
            graphs.extend(all_free_trees(n))
        records = []
        for g in graphs:
            dm = all_pairs_distances(g)
            ks = list(range(1, dm.stable_level + 2))  # one level past stabilization
            outcomes: dict[int, GameOutcome] = {}
            counts: dict[int, MoveCounts] = {}
            dims: dict[int, int] = {}
            certs: dict[int, Certificate | None] = {}
            for k in ks:
                solver = GameSolver(g, dm, k)
                out = solver.outcome()
                outcomes[k] = out
                counts[k] = solver.move_counts(out)
                dims[k] = metric_dimension_k(dm, k).value
                certs[k] = certificate_fast_path(g, dm, k)
            records.append(
                _PropertyRecord(
                    graph=g, ks=ks, outcomes=outcomes, counts=counts,
                    dims=dims, certs=certs, stable_level=dm.stable_level,
                )
            )
        self._property_data = records
        return records


Check = Callable[[_Context], tuple[str, str, bool]]
_REGISTRY: list[tuple[str, str, Check]] = []


def _check(check_id: str, level: str = "quick"):
    def wrap(fn: Check) -> Check:
        _REGISTRY.append((check_id, level, fn))
        return fn
    return wrap


def _closed_form(check_id: str, expected: str, specs) -> None:
    """Register a table row: every spec against its closed form at levels 1..stable_level."""
    specs = tuple(specs)

    def check(ctx: _Context) -> tuple[str, str, bool]:
        checked = skipped = 0
        bad = []
        for spec in specs:
            g = gen_family(spec)
            dm = all_pairs_distances(g)
            for k in range(1, dm.stable_level + 1):
                try:
                    allowed = predict_outcome(spec, k)
                except NotCoveredError:
                    skipped += 1
                    continue
                symbol = outcome(g, dm, k).symbol
                checked += 1
                if symbol not in allowed:
                    bad.append(f"{spec.describe()} k={k}:{symbol.letter}")
        actual = (f"{checked} (instance, level) pairs checked, {skipped} without a closed form; "
                  f"mismatches: {', '.join(bad) if bad else 'none'}")
        return expected, actual, checked > 0 and not bad

    _REGISTRY.append((check_id, "quick", check))


# -- known exact values --------------------------------------------------------


@_check("petersen.outcome-and-counts")
def _petersen(ctx: _Context):
    expected = "outcome M at k=1 and k=2; winner counts 3 and 3 in both games"
    spec = FamilySpec.make("petersen")
    g = gen_family(spec)
    dm = all_pairs_distances(g)
    out1 = outcome(g, dm, 1)
    out2 = outcome(g, dm, 2)
    counts = GameSolver(g, dm, 1).move_counts().defined()
    actual = (f"k=1:{out1.symbol.letter} k=2:{out2.symbol.letter} "
              + " ".join(f"{name}={value}" for name, value in counts.items()))
    ok = (out1.symbol is OutcomeSymbol.M and out2.symbol is OutcomeSymbol.M
          and counts == predicted_counts(spec, 1))
    return expected, actual, ok


def _partitions_up_to(total: int):
    def gen(rest: int, mx: int):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, mx), 0, -1):
            for tail in gen(rest - first, first):
                yield (first,) + tail
    for tot in range(2, total + 1):
        for parts in gen(tot, tot):
            if len(parts) >= 2:
                yield parts


_MULTIPARTITE = tuple(FamilySpec.make("multipartite", parts=parts) for parts in _partitions_up_to(10))

_closed_form(
    "multipartite.outcome-table",
    "every complete multipartite graph of order <= 10 matches the closed-form case table",
    _MULTIPARTITE,
)


@_check("multipartite.move-counts")
def _multipartite_counts(ctx: _Context):
    expected = ("multipartite counts: breaker-win pairs (2,2); first-player-win pairs "
                "(dimension, 2); maker-win pairs (dimension, dimension)")
    bad = []
    count = 0
    for spec in _MULTIPARTITE:
        g = gen_family(spec)
        dm = all_pairs_distances(g)
        solver = GameSolver(g, dm, 1)
        counts = solver.move_counts(solver.outcome()).defined()
        dim = metric_dimension_k(dm, 1).value
        count += 1
        if counts != predicted_counts(spec, 1, dim_value=dim):
            bad.append((spec.get("parts"), counts))
    actual = f"{count} part profiles checked; mismatches: {bad if bad else 'none'}"
    return expected, actual, not bad


_closed_form(
    "cycles.closed-form",
    "cycle outcomes for 3 <= n <= 11 at every covered level: N at n=3; M for even n; M for "
    "odd n >= 5 (the closed form covers level 1 only up to n=9)",
    (FamilySpec.make("cycle", n=n) for n in range(3, 12)),
)
_closed_form(
    "cycles.level1-small-odd",
    "outcome M on the odd cycles of order 5, 7 and 9 at every level, level 1 included",
    (FamilySpec.make("cycle", n=n) for n in (5, 7, 9)),
)


@_check("cycles.level1-odd-records")
def _cycles_odd_records(ctx: _Context):
    expected = "record: level-1 outcomes on the odd cycles of order 11, 13 and 15 (no closed form)"
    found = []
    for n in (11, 13, 15):
        g = gen_family(FamilySpec.make("cycle", n=n))
        found.append(f"C{n}:{outcome(g, all_pairs_distances(g), 1).symbol.letter}")
    return expected, f"computed outcomes {' '.join(found)}", True


_closed_form(
    "wheels.small",
    "wheel outcomes: B on the 3-wheel; M for rim orders 4..8",
    (FamilySpec.make("wheel", n=n) for n in range(3, 9)),
)


@_check("wheels.rim9-bound")
def _wheel9(ctx: _Context):
    expected = "9-rim wheel outcome within {M, N}; value recorded"
    g = gen_family(FamilySpec.make("wheel", n=9))
    symbol = outcome(g, all_pairs_distances(g), 1).symbol
    return expected, f"computed outcome {symbol.letter}", symbol in (OutcomeSymbol.M, OutcomeSymbol.N)


# -- realization families --------------------------------------------------------


_closed_form("realizations.thm_a", "subdivided star, alpha=3: outcome M at every level",
             [FamilySpec.make("thm_a", alpha=3)])
_closed_form("realizations.thm_b", "triple-leaf subdivided star, alpha=4: outcome N at every level",
             [FamilySpec.make("thm_b", alpha=4)])
_closed_form("realizations.star4", "star with 4 leaves: outcome B at every level",
             [FamilySpec.make("star", beta=4)])
_closed_form("realizations.thm_d", "twin-leaf 3-spine: N at level 1, then M",
             [FamilySpec.make("thm_d")])
_closed_form("realizations.thm_e", "twin-leaf spine with a triple end, alpha=3: B at level 1, then N",
             [FamilySpec.make("thm_e", alpha=3)])
_closed_form("realizations.thm_f", "twin-leaf spine, alpha=4: B at level 1, then M",
             [FamilySpec.make("thm_f", alpha=4)])


@_check("realizations.jumps")
def _jumps(ctx: _Context):
    expected = "transition levels: twin-leaf 3-spine jumps (2, N->M); twin-leaf spine alpha=4 jumps (2, B->M)"
    results = []
    ok = True
    for fam, kw, want in (
        ("thm_d", {}, ((2, OutcomeSymbol.N, OutcomeSymbol.M),)),
        ("thm_f", {"alpha": 4}, ((2, OutcomeSymbol.B, OutcomeSymbol.M),)),
    ):
        g = gen_family(FamilySpec.make(fam, **kw))
        report = jump_report(g, all_pairs_distances(g))
        results.append(f"{fam}:{[(k, a.letter, b.letter) for k, a, b in report.jumps]}")
        if report.jumps != want:
            ok = False
    return expected, " ".join(results), ok


@_check("realizations.fig1", level="full")
def _fig1(ctx: _Context):
    expected = ("branched gadget, alpha=2: outcomes B, N, M, M over levels 1..4 with "
                "jumps (2, B->N) and (3, N->M)")
    spec = FamilySpec.make("fig1", alpha=2)
    g = gen_family(spec)
    report = jump_report(g, all_pairs_distances(g))
    symbols = [(k, out.symbol.letter) for k, out in report.outcomes]
    jumps = tuple((k, a, b) for k, a, b in report.jumps)
    ok = (
        symbols == [(1, "B"), (2, "N"), (3, "M"), (4, "M")]
        and jumps == ((2, OutcomeSymbol.B, OutcomeSymbol.N), (3, OutcomeSymbol.N, OutcomeSymbol.M))
    )
    actual = f"outcomes {symbols}; jumps {[(k, a.letter, b.letter) for k, a, b in jumps]}"
    return expected, actual, ok


@_check("thm_d.dimension")
def _thm_d_dim(ctx: _Context):
    expected = "twin-leaf 3-spine: level-1 dimension 5"
    g = gen_family(FamilySpec.make("thm_d"))
    value, witness = metric_dimension_k(all_pairs_distances(g), 1)
    return expected, f"dim={value} witness={list(witness)}", value == 5


@_check("thm_d.quasi-pairing")
def _thm_d_quasi(ctx: _Context):
    expected = ("twin-leaf 3-spine: pairs {v2,v3},{l1,l1p},{l2,l2p},{l3,l3p} form a "
                "quasi-pairing with completion vertex v1")
    from .resolve import check_pair_system, PairSystemKind

    g = gen_family(FamilySpec.make("thm_d"))
    dm = all_pairs_distances(g)
    check = check_pair_system(dm, 1, [(1, 2), (3, 4), (5, 6), (7, 8)])
    actual = f"classification {check.kind.value}; witnesses {list(check.witnesses)}"
    ok = check.kind is PairSystemKind.QUASI_PAIRING and 0 in check.witnesses
    return expected, actual, ok


# -- generator integrity ---------------------------------------------------------


@_check("families.generator-integrity")
def _generators(ctx: _Context):
    expected = ("every family generator yields a valid connected graph with frozen vertex "
                "and edge counts, and both file formats round-trip it")
    frozen = {
        ("path", (("n", 6),)): (6, 5),
        ("cycle", (("n", 5),)): (5, 5),
        ("complete", (("n", 6),)): (6, 15),
        ("star", (("beta", 4),)): (5, 4),
        ("multipartite", (("parts", (3, 3)),)): (6, 9),
        ("wheel", (("n", 6),)): (7, 12),
        ("petersen", ()): (10, 15),
        ("thm_a", (("alpha", 3),)): (5, 4),
        ("thm_b", (("alpha", 4),)): (6, 5),
        ("thm_d", ()): (9, 8),
        ("thm_e", (("alpha", 3),)): (10, 9),
        ("thm_f", (("alpha", 4),)): (12, 11),
        ("fig1", (("alpha", 2),)): (14, 16),
    }
    bad = []
    for (family, params), (n, edges) in frozen.items():
        spec = FamilySpec(family=family, params=params)
        g = gen_family(spec)
        if (g.n, g.edge_count) != (n, edges):
            bad.append(f"{spec.describe()}: got ({g.n},{g.edge_count}) want ({n},{edges})")
            continue
        for text in (graphio.dumps_text(g), graphio.dumps_json(g)):
            back = graphio.loads(text)
            if (back.n, back.edges, back.labels) != (g.n, g.edges, g.labels):
                bad.append(f"{spec.describe()}: round-trip changed the graph")
    actual = f"{len(frozen)} generators checked; problems: {bad if bad else 'none'}"
    return expected, actual, not bad


# -- structural property sweeps ---------------------------------------------------


@_check("properties.dataset")
def _prop_dataset(ctx: _Context):
    expected = ("record: the dataset of the properties.* checks, every sampled and tree graph "
                "of order <= 7 solved, counted, dimensioned and certified at every level up "
                "to one past stabilization")
    records = ctx.property_data()
    return expected, f"{len(records)} graphs, {sum(len(rec.ks) for rec in records)} solves", True


@_check("properties.outcome-monotone")
def _prop_outcome_monotone(ctx: _Context):
    expected = ("outcome symbol never decreases with the level and is stable from "
                "level diameter-1 upward (sampled + tree graphs of order <= 7)")
    bad = 0
    total = 0
    for rec in ctx.property_data():
        total += 1
        seq = [rec.outcomes[k].symbol for k in rec.ks]
        if any(a > b for a, b in zip(seq, seq[1:])):
            bad += 1
            continue
        stable = {rec.outcomes[k].symbol for k in rec.ks if k >= rec.stable_level}
        if len(stable) != 1:
            bad += 1
    return expected, f"{total} graphs checked; violations: {bad}", bad == 0


@_check("properties.extra-move")
def _prop_extra_move(ctx: _Context):
    expected = "no graph lets the games' winners be Breaker first-game but Maker second-game"
    bad = 0
    total = 0
    for rec in ctx.property_data():
        for k in rec.ks:
            total += 1
            out = rec.outcomes[k]
            if out.m_game_winner.value == "Breaker" and out.b_game_winner.value == "Maker":
                bad += 1
    return expected, f"{total} solves checked; violations: {bad}", bad == 0


@_check("properties.dimension-monotone")
def _prop_dim_monotone(ctx: _Context):
    expected = "distance-k dimension never increases with the level"
    bad = 0
    total = 0
    for rec in ctx.property_data():
        total += 1
        seq = [rec.dims[k] for k in rec.ks]
        if any(a < b for a, b in zip(seq, seq[1:])):
            bad += 1
    return expected, f"{total} graphs checked; violations: {bad}", bad == 0


@_check("properties.dimension-stabilizes")
def _prop_dim_stable(ctx: _Context):
    expected = "distance-k dimension equals the untruncated dimension from level diameter-1 upward"
    bad = 0
    total = 0
    for rec in ctx.property_data():
        total += 1
        values = {rec.dims[k] for k in rec.ks if k >= rec.stable_level}
        if len(values) != 1:
            bad += 1
    return expected, f"{total} graphs checked; violations: {bad}", bad == 0


@_check("properties.certificates-sound")
def _prop_certs(ctx: _Context):
    expected = "structural certificates never contradict the exhaustive solver"
    bad = 0
    found = 0
    for rec in ctx.property_data():
        for k in rec.ks:
            cert = rec.certs[k]
            if cert is None:
                continue
            found += 1
            if rec.outcomes[k].symbol not in cert.allowed_symbols:
                bad += 1
    return expected, f"{found} certificates found; contradictions: {bad}", bad == 0


@_check("properties.count-bounds")
def _prop_count_bounds(ctx: _Context):
    expected = ("maker wins: dim <= first-game count <= second-game count <= floor(n/2), "
                "counts non-increasing in the level; breaker wins: second-game count <= "
                "first-game count <= floor(n/2), counts non-decreasing in the level")
    bad = 0
    total = 0
    for rec in ctx.property_data():
        half = rec.graph.n // 2
        for k in rec.ks:
            total += 1
            sym = rec.outcomes[k].symbol
            counts = rec.counts[k]
            if sym is OutcomeSymbol.M:
                if not (rec.dims[k] <= counts.mrk <= counts.mprime_rk <= half):
                    bad += 1
                nxt = rec.counts.get(k + 1)
                if nxt is not None and rec.outcomes[k + 1].symbol is OutcomeSymbol.M:
                    if nxt.mrk > counts.mrk or nxt.mprime_rk > counts.mprime_rk:
                        bad += 1
            elif sym is OutcomeSymbol.B:
                if not (counts.bprime_rk <= counts.brk <= half):
                    bad += 1
                nxt = rec.counts.get(k + 1)
                if nxt is not None and rec.outcomes[k + 1].symbol is OutcomeSymbol.B:
                    if nxt.brk < counts.brk or nxt.bprime_rk < counts.bprime_rk:
                        bad += 1
    return expected, f"{total} solves checked; violations: {bad}", bad == 0


@_check("properties.gap-conditions-sound")
def _prop_gaps(ctx: _Context):
    expected = ("random landmark sets on cycles of order <= 15 that satisfy the gap "
                "conditions always resolve (levels 1..3)")
    rng = random.Random(PROPERTY_SEED + 1)
    sound = True
    confirmed = 0
    sampled = 0
    for n in range(5, 16):
        g = gen_family(FamilySpec.make("cycle", n=n))
        dm = all_pairs_distances(g)
        for k in (1, 2, 3):
            if n < 2 * k + 3:
                continue
            for _ in range(25):
                size = rng.randint(1, n - 1)
                marks = rng.sample(range(n), size)
                sampled += 1
                profile = GapProfile.from_landmarks(n, marks)
                if cycle_gap_check(profile, k):
                    confirmed += 1
                    if not is_resolving(dm, k, marks).ok:
                        sound = False
    actual = f"{sampled} sets sampled, {confirmed} satisfied the conditions; soundness {'held' if sound else 'FAILED'}"
    return expected, actual, sound and sampled >= 200 and confirmed >= 50


@_check("oracle.resolving-vs-direct")
def _oracle_equiv(ctx: _Context):
    expected = ("pair-mask resolving test agrees with direct code injectivity on "
                "every landmark subset of every connected graph of order <= 6")
    mismatches = 0
    checked = 0
    for g in connected_graph_atlas(max_n=6):
        dm = all_pairs_distances(g)
        for k in range(1, max(1, dm.diameter) + 1):
            for subset in range(1 << g.n):
                landmarks = [v for v in range(g.n) if subset >> v & 1]
                resolving = is_resolving(dm, k, landmarks).ok
                codes = {
                    tuple(truncated_distance(dm, k, v, u) for u in landmarks)
                    for v in range(g.n)
                }
                checked += 1
                if resolving != (len(codes) == g.n):
                    mismatches += 1
    return expected, f"{checked} subset checks; mismatches: {mismatches}", mismatches == 0


@_check("trees.exhaustive", level="full")
def _trees_exhaustive(ctx: _Context):
    expected = ("every eligible tree of order <= 12 (no degree-two vertices, no "
                "zero-terminal majors, not a path) matches the closed-form outcome at every level")
    bad = []
    eligible = 0
    for n in range(4, 13):
        for g in all_free_trees(n):
            profile = classify_tree(g)
            if not profile.eligible:
                continue
            eligible += 1
            dm = all_pairs_distances(g)
            for k in range(1, dm.stable_level + 1):
                predicted = predict_tree_outcome(profile, k)
                symbol = outcome(g, dm, k).symbol
                if symbol is not predicted:
                    bad.append((n, sorted(g.edges), k, symbol.letter, predicted.letter))
    actual = f"{eligible} eligible trees solved; mismatches: {bad if bad else 'none'}"
    return expected, actual, not bad


# -- suite driver -----------------------------------------------------------------


def run_suite(
    level: str = "quick",
    *,
    only: list[str] | None = None,
    progress: TextIO | None = None,
) -> SuiteResult:
    """Run the registered checks of a level; a check that raises fails alone.

    Raises MBResolveError when ``only`` is empty, holds an empty prefix (it
    would match every check) or a prefix that matches no check id of the
    level, so a mistyped filter is not read as a passing suite.
    """
    if level not in ("quick", "full"):
        raise ValueError(f"level must be quick or full, got {level!r}")
    checks = [(check_id, fn) for check_id, check_level, fn in _REGISTRY if level == "full" or check_level == "quick"]
    if only is not None:
        if not only or "" in only:
            raise MBResolveError(f"empty check id prefix in {only!r}; give non-empty prefixes")
        unmatched = [prefix for prefix in only if not any(check_id.startswith(prefix) for check_id, _ in checks)]
        if unmatched:
            groups = sorted({check_id.split(".")[0] for check_id, _ in checks})
            raise MBResolveError(
                f"no {level}-level check id starts with {', '.join(map(repr, unmatched))}; "
                f"check ids start with one of: {', '.join(groups)}"
            )
        checks = [(check_id, fn) for check_id, fn in checks if any(check_id.startswith(prefix) for prefix in only)]
    ctx = _Context()
    suite = SuiteResult(level=level)
    for check_id, fn in checks:
        start = time.perf_counter()
        try:
            expected, actual, passed = fn(ctx)
        except Exception as exc:  # a check that raises is a failed check, not a failed suite
            expected, actual, passed = "completes without raising", f"raised {type(exc).__name__}: {exc}", False
            if progress is not None:
                traceback.print_exception(exc, file=progress)
        seconds = time.perf_counter() - start
        suite.checks.append(CheckResult(check_id, expected, actual, passed, seconds))
        if progress is not None:
            status = "PASS" if passed else "FAIL"
            print(f"[{status}] {check_id} ({seconds:.2f}s)", file=progress)
    return suite


def format_table(suite: SuiteResult) -> str:
    lines = [f"verification suite ({suite.level} level)", ""]
    width = max((len(c.check_id) for c in suite.checks), default=10)
    for c in suite.checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(f"{status}  {c.check_id:<{width}}  {c.seconds:7.2f}s  {c.actual}")
        if not c.passed:
            lines.append(f"      expected: {c.expected}")
    lines.append("")
    passed = sum(1 for c in suite.checks if c.passed)
    lines.append(f"{passed}/{len(suite.checks)} checks passed")
    return "\n".join(lines)


def suite_to_dict(suite: SuiteResult) -> dict:
    return {
        "level": suite.level,
        "all_passed": suite.all_passed,
        "checks": [
            {
                "id": c.check_id,
                "expected": c.expected,
                "actual": c.actual,
                "passed": c.passed,
                "seconds": round(c.seconds, 4),
            }
            for c in suite.checks
        ],
    }
