"""Closed-form verification suite.

Each check compares solver output against a documented expectation (a family
closed form, a known exact value, or an internal consistency law) and reports
pass/fail with its runtime.  The quick level reaches order 21 (the cycle C21);
the full level adds the exhaustive tree sweep.

Most checks are rows of two tables.  A family row solves each of its
instances at every level 1..stable_level with one GameSolver per (instance,
level), under the instance's own order as size cap, so an outcome that falls
with the level fails it, and compares each level with
families.predict_outcome; a row that states a count law also compares the
winner move counts, taken from the same solver, with
families.predicted_counts.  The predictors alone say which levels a closed
form covers, and a row that checks no level fails.  The result lists the
row's jumps and records the computed symbol wherever the closed form leaves
it open.  A property row counts the violations of one law over the shared
property dataset, which ``properties.dataset`` records, and also fails if it
checks nothing.
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
    GameSolver,
    JumpReport,
    MoveCounts,
    OutcomeSymbol,
    certificate_fast_path,
    outcome,
)
from .graph import Graph, all_pairs_distances, truncated_distance
from .resolve import GapProfile, PairSystemKind, check_pair_system, cycle_gap_check, is_resolving, metric_dimension_k

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
    symbols: dict[int, OutcomeSymbol]
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
            symbols: dict[int, OutcomeSymbol] = {}
            counts: dict[int, MoveCounts] = {}
            dims: dict[int, int] = {}
            certs: dict[int, Certificate | None] = {}
            for k in ks:
                solver = GameSolver(g, dm, k)
                out = solver.outcome()
                symbols[k] = out.symbol
                counts[k] = solver.move_counts(out)
                dims[k] = metric_dimension_k(dm, k).value
                certs[k] = certificate_fast_path(g, dm, k)
            records.append(
                _PropertyRecord(
                    graph=g, ks=ks, symbols=symbols, counts=counts,
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


def _closed_form(check_id: str, expected: str, specs, *, counts: bool = False) -> None:
    """Register a family row (see the module docstring); ``counts`` adds the count law."""
    specs = tuple(specs)

    def check(ctx: _Context) -> tuple[str, str, bool]:
        checked = skipped = 0
        bad, jumps, recorded = [], [], []
        for spec in specs:
            name = spec.describe()
            g = gen_family(spec)
            dm = all_pairs_distances(g)
            solvers = [GameSolver(g, dm, k, size_cap=g.n) for k in range(1, dm.stable_level + 1)]
            report = JumpReport.from_outcomes((k, solver.outcome()) for k, solver in enumerate(solvers, 1))
            if report.jumps:
                jumps.append(name + " " + " ".join(f"({k}, {a.letter}->{b.letter})" for k, a, b in report.jumps))
            for solver, (k, out) in zip(solvers, report.outcomes):
                try:
                    allowed = predict_outcome(spec, k)
                except NotCoveredError:
                    allowed = frozenset()
                    skipped += 1
                else:
                    checked += 1
                    if out.symbol not in allowed:
                        bad.append(f"{name} k={k}:{out.symbol.letter}")
                if len(allowed) != 1:
                    recorded.append(f"{name} k={k}:{out.symbol.letter}")
                if counts:
                    found = solver.move_counts(out).defined()
                    dim_value = metric_dimension_k(dm, k, size_cap=g.n).value
                    if found != predicted_counts(spec, k, dim_value=dim_value):
                        bad.append(f"{name} k={k} counts {found}")
        actual = f"{checked} (instance, level) pairs checked, {skipped} without a closed form"
        if counts:
            actual += f", {checked + skipped} with move counts"
        actual += (f"; mismatches: {', '.join(bad) or 'none'}; jumps: {', '.join(jumps) or 'none'}; "
                   f"recorded: {', '.join(recorded) or 'none'}")
        return expected, actual, checked > 0 and not bad

    _check(check_id)(check)


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

# -- family rows -----------------------------------------------------------------

_closed_form(
    "petersen.outcome-and-counts",
    "outcome M at every level (the diameter is 2, so level 1 is untruncated); winner counts 3 "
    "and 3 in both games",
    [FamilySpec.make("petersen")],
    counts=True,
)
_closed_form(
    "multipartite.outcome-and-counts",
    "every complete multipartite graph of order <= 10 matches the closed-form case table; counts: "
    "breaker-win pairs (2,2); first-player-win pairs (dimension, 2); maker-win pairs (dimension, dimension)",
    _MULTIPARTITE,
    counts=True,
)
_closed_form(
    "cycles.closed-form",
    "cycle outcomes for 3 <= n <= 17 and n = 21 at every level: N at n=3; M for even n; M for odd "
    "n >= 5 from level 2 upward, and at level 1 up to n=9; level 1 of odd n >= 11 has no closed "
    "form and is recorded",
    (FamilySpec.make("cycle", n=n) for n in (*range(3, 18), 21)),
)
_closed_form(
    "wheels.closed-form",
    "wheel outcomes for rim orders 3..9: B on the 3-wheel; M for rim orders 4..6; from rim order 7 "
    "the rim cycle's level-1 outcome, M up to rim order 9",
    (FamilySpec.make("wheel", n=n) for n in range(3, 10)),
)
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
_closed_form("realizations.fig1", "branched gadget, alpha=2: B at level 1, N at level 2, then M",
             [FamilySpec.make("fig1", alpha=2)])


# -- known exact values --------------------------------------------------------


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


def _property(check_id: str, expected: str, unit: str, violated) -> None:
    """Register a property row: ``violated(record)`` yields one flag per checked unit, True on a violation."""

    def check(ctx: _Context) -> tuple[str, str, bool]:
        flags = [flag for rec in ctx.property_data() for flag in violated(rec)]
        bad = sum(flags)
        return expected, f"{len(flags)} {unit} checked; violations: {bad}", bool(flags) and bad == 0

    _check(check_id)(check)


def _steps(rec: _PropertyRecord, values: dict) -> list[tuple]:
    """(value at k, value at k+1) over the record's levels."""
    seq = [values[k] for k in rec.ks]
    return list(zip(seq, seq[1:]))


def _unstable(rec: _PropertyRecord, values: dict) -> bool:
    """Whether the values differ between levels from stable_level upward."""
    return len({values[k] for k in rec.ks if k >= rec.stable_level}) != 1


def _game_counts(counts: MoveCounts) -> tuple[int | None, ...]:
    """Winner counts as (Maker's M-game, Maker's B-game, Breaker's M-game, Breaker's B-game), None where that side loses."""
    return (counts.mrk if counts.mrk is not None else counts.nrk, counts.mprime_rk,
            counts.brk, counts.bprime_rk if counts.bprime_rk is not None else counts.nprime_rk)


def _count_bounds_broken(rec: _PropertyRecord):
    # dim <= mrk <= m'rk and b'rk <= brk are inputs to the count search (GameSolver.winner_move_count), so this
    # check cannot catch a violation of them: the naive count oracle of the tests and the answer digest carry
    # that guarantee.  It still tests each count against the claims its side gets in its game (ceil(n/2) as
    # first player, floor(n/2) as second) and monotonicity in k: a set that resolves at level k resolves at
    # level k+1, so a side that wins a game at both levels needs no more claims (Maker) or no fewer (Breaker)
    # at k+1.
    n = rec.graph.n
    claims = ((n + 1) // 2, n // 2, n // 2, (n + 1) // 2)  # in _game_counts' order
    for k in rec.ks:
        maker_m, maker_b, breaker_m, breaker_b = counts = _game_counts(rec.counts[k])
        ok = all(c is None or c <= most for c, most in zip(counts, claims))
        ok = ok and (maker_m is None or rec.dims[k] <= maker_m and (maker_b is None or maker_m <= maker_b))
        ok = ok and (breaker_m is None or breaker_b <= breaker_m)
        if k + 1 in rec.counts:
            for side, (now, then) in enumerate(zip(counts, _game_counts(rec.counts[k + 1]))):
                if now is not None and then is not None:
                    ok = ok and (then <= now if side < 2 else then >= now)  # the first two are Maker's
        yield not ok


_property(
    "properties.outcome-monotone",
    "outcome symbol never decreases with the level and is stable from level diameter-1 upward "
    "(sampled + tree graphs of order <= 7)",
    "graphs",
    lambda rec: [any(a > b for a, b in _steps(rec, rec.symbols)) or _unstable(rec, rec.symbols)],
)
_property(
    "properties.dimension-monotone",
    "distance-k dimension never increases with the level",
    "graphs",
    lambda rec: [any(a < b for a, b in _steps(rec, rec.dims))],
)
_property(
    "properties.dimension-stabilizes",
    "distance-k dimension equals the untruncated dimension from level diameter-1 upward",
    "graphs",
    lambda rec: [_unstable(rec, rec.dims)],
)
_property(
    "properties.certificates-sound",
    "structural certificates never contradict the exhaustive solver",
    "certificates",
    lambda rec: (rec.symbols[k] not in cert.allowed_symbols
                 for k, cert in rec.certs.items() if cert is not None),
)
_property(
    "properties.count-bounds",
    "maker wins: dim <= first-game count <= second-game count <= floor(n/2); breaker wins: "
    "second-game count <= first-game count <= floor(n/2); first player wins: dim <= maker count "
    "<= ceil(n/2), breaker count <= ceil(n/2); a side that wins a game at levels k and k+1 needs "
    "no more claims there at k+1 (maker) or no fewer (breaker)",
    "solves",
    _count_bounds_broken,
)


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
