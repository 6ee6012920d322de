"""Acceptance: every check of the verify-paper suite, plus an oracle criterion.

The paper's results live once, in the ``verify`` registry; one test per check
id runs them all at the full level.  Every expected value is exact
(combinatorial equality, tolerance zero).  Each test prints a single summary
line; pytest failure output carries the details when an assertion trips.
"""

import dataclasses
import time

import pytest

from mbresolve import families, verify
from mbresolve.errors import InvariantError, NotCoveredError
from mbresolve.families import connected_graph_atlas
from mbresolve.game import Certificate, CertificateKind, GameSolver, MoveCounts, OutcomeSymbol
from mbresolve.graph import all_pairs_distances
from mbresolve.resolve import is_resolving

from oracles import direct_is_resolving

CHECK_IDS = [check_id for check_id, _, _ in verify._REGISTRY]
FAMILY_IDS = [
    "petersen.outcome-and-counts", "multipartite.outcome-and-counts", "cycles.closed-form", "wheels.closed-form",
    "realizations.thm_a", "realizations.thm_b", "realizations.star4", "realizations.thm_d", "realizations.thm_e",
    "realizations.thm_f", "realizations.fig1",
]
PROPERTY_IDS = [
    "properties.outcome-monotone", "properties.dimension-monotone", "properties.dimension-stabilizes",
    "properties.certificates-sound", "properties.count-bounds",
]


def report(criterion: str, detail: str):
    print(f"ACCEPTANCE {criterion}: PASS — {detail}")


@pytest.fixture(scope="module")
def full_suite():
    """One full-level run, so the property dataset is built once."""
    return verify.run_suite(level="full")


@pytest.mark.parametrize("check_id", CHECK_IDS)
def test_verify_check(full_suite, check_id):
    assert [c.check_id for c in full_suite.checks] == CHECK_IDS
    result = next(c for c in full_suite.checks if c.check_id == check_id)
    assert result.passed, f"expected: {result.expected}; actual: {result.actual}"
    ceiling = 1 if check_id.startswith("thm_d.") else 60
    assert result.seconds < ceiling, f"{result.seconds:.2f}s over the {ceiling}s ceiling"
    report(check_id, result.actual)


def test_check_ids_are_unique():
    assert len(set(CHECK_IDS)) == len(CHECK_IDS)


def test_raising_check_fails_alone(monkeypatch):
    def planted(ctx):
        raise InvariantError("planted")

    kept = [entry for entry in verify._REGISTRY if entry[0].startswith("thm_d.")]
    monkeypatch.setattr(verify, "_REGISTRY", [kept[0], ("planted.raises", "quick", planted)] + kept[1:])
    suite = verify.run_suite(level="quick")
    assert [c.check_id for c in suite.checks] == [kept[0][0], "planted.raises"] + [e[0] for e in kept[1:]]
    planted_result = suite.checks[1]
    assert not planted_result.passed
    assert planted_result.actual == "raised InvariantError: planted"
    assert all(c.passed for c in suite.checks if c is not planted_result)
    assert not suite.all_passed


def _not_covered(spec, k):
    raise NotCoveredError("planted")


@pytest.mark.parametrize("predictor, passing", [
    (lambda spec, k: frozenset({OutcomeSymbol.B}), ["realizations.star4"]),  # the star's closed form is B
    (lambda spec, k: frozenset(OutcomeSymbol) - families.predict_outcome(spec, k), []),
    (_not_covered, []),  # a row that checks no pair fails
], ids=["always-B", "complement", "not-covered"])
def test_closed_form_rows_follow_the_predictor(monkeypatch, predictor, passing):
    monkeypatch.setattr(verify, "predict_outcome", predictor)
    suite = verify.run_suite(level="full", only=FAMILY_IDS)
    assert [c.check_id for c in suite.checks] == FAMILY_IDS
    assert [c.check_id for c in suite.checks if c.passed] == passing


def test_family_rows_follow_the_count_law(monkeypatch):
    def off_by_one(spec, k, dim_value=None):
        law = families.predicted_counts(spec, k, dim_value=dim_value)
        return {name: value + 1 for name, value in law.items()}

    monkeypatch.setattr(verify, "predicted_counts", off_by_one)
    suite = verify.run_suite(level="full", only=FAMILY_IDS)
    assert [c.check_id for c in suite.checks if not c.passed] == [
        "petersen.outcome-and-counts", "multipartite.outcome-and-counts",
    ]


def test_count_row_builds_one_solver_per_level(monkeypatch):
    # the outcome, the jumps and the move counts of each (instance, level) come from one solver
    built = []
    init = GameSolver.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(GameSolver, "__init__", counting_init)
    suite = verify.run_suite(level="quick", only=["multipartite."])
    assert [c.check_id for c in suite.checks] == ["multipartite.outcome-and-counts"] and suite.all_passed
    assert len(built) == len(verify._MULTIPARTITE) == 128  # diameter <= 2: level 1 only


# A record of a 4-vertex graph that keeps every property: outcome M at each
# level, dimension 1, counts 2 and 2 (= floor(4/2)), one certificate of {M, N}.
_SOUND = verify._PropertyRecord(
    graph=families.gen_family(families.FamilySpec.make("path", n=4)),
    ks=[1, 2, 3],
    symbols={1: OutcomeSymbol.M, 2: OutcomeSymbol.M, 3: OutcomeSymbol.M},
    counts={k: MoveCounts(mrk=2, mprime_rk=2) for k in (1, 2, 3)},
    dims={1: 1, 2: 1, 3: 1},
    certs={1: Certificate(CertificateKind.M_OR_N, "planted"), 2: None, 3: None},
    stable_level=2,
)


@pytest.mark.parametrize("planted, failing", [
    ({}, []),
    ({"symbols": {1: OutcomeSymbol.M, 2: OutcomeSymbol.M, 3: OutcomeSymbol.N}}, ["properties.outcome-monotone"]),
    ({"symbols": {1: OutcomeSymbol.N, 2: OutcomeSymbol.N, 3: OutcomeSymbol.M}}, ["properties.outcome-monotone"]),
    ({"dims": {1: 1, 2: 2, 3: 2}}, ["properties.dimension-monotone"]),
    ({"dims": {1: 2, 2: 2, 3: 1}}, ["properties.dimension-stabilizes"]),
    ({"certs": {1: Certificate(CertificateKind.FORCED_B, "planted"), 2: None, 3: None}},
     ["properties.certificates-sound"]),
    ({"counts": {1: MoveCounts(mrk=2, mprime_rk=3), 2: MoveCounts(mrk=2, mprime_rk=2),
                 3: MoveCounts(mrk=2, mprime_rk=2)}}, ["properties.count-bounds"]),
    ({"counts": {1: MoveCounts(mrk=1, mprime_rk=1), 2: MoveCounts(mrk=1, mprime_rk=1),
                 3: MoveCounts(mrk=2, mprime_rk=2)}}, ["properties.count-bounds"]),
    ({"certs": {1: None, 2: None, 3: None}}, ["properties.certificates-sound"]),  # checks nothing
    ({"symbols": dict.fromkeys((1, 2, 3), OutcomeSymbol.N),
      "counts": dict.fromkeys((1, 2, 3), MoveCounts(nrk=3, nprime_rk=2))}, ["properties.count-bounds"]),
    ({"symbols": dict.fromkeys((1, 2, 3), OutcomeSymbol.N),
      "counts": {1: MoveCounts(nrk=1, nprime_rk=2), 2: MoveCounts(nrk=1, nprime_rk=1),
                 3: MoveCounts(nrk=1, nprime_rk=1)}}, ["properties.count-bounds"]),
    ({"symbols": {1: OutcomeSymbol.N, 2: OutcomeSymbol.M, 3: OutcomeSymbol.M},
      "counts": {1: MoveCounts(nrk=1, nprime_rk=2), 2: MoveCounts(mrk=2, mprime_rk=2),
                 3: MoveCounts(mrk=2, mprime_rk=2)}}, ["properties.count-bounds"]),
], ids=["sound", "outcome-falls", "outcome-unstable", "dimension-rises", "dimension-unstable",
        "certificate-contradicts", "count-above-half", "count-rises", "no-certificate",
        "first-player-count-above-half", "first-player-breaker-count-falls", "first-player-maker-count-rises"])
def test_property_rows_catch_their_violation(monkeypatch, planted, failing):
    record = dataclasses.replace(_SOUND, **planted)
    monkeypatch.setattr(verify._Context, "property_data", lambda self: [record])
    suite = verify.run_suite(level="quick", only=PROPERTY_IDS)
    assert [c.check_id for c in suite.checks] == PROPERTY_IDS
    assert [c.check_id for c in suite.checks if not c.passed] == failing


def test_criterion_9_oracle_equivalence():
    started = time.perf_counter()
    mismatches = 0
    checked = 0
    for g in connected_graph_atlas(max_n=6):
        dm = all_pairs_distances(g)
        for k in range(1, max(1, dm.diameter) + 1):
            for subset in range(1 << g.n):
                landmarks = [v for v in range(g.n) if subset >> v & 1]
                checked += 1
                if is_resolving(dm, k, landmarks).ok != direct_is_resolving(dm, k, landmarks):
                    mismatches += 1
    assert mismatches == 0
    elapsed = time.perf_counter() - started
    report("9 oracle equivalence", f"{checked} subset checks across all {len(connected_graph_atlas(max_n=6))} "
                                   f"connected graphs of order <= 6, zero mismatches; {elapsed:.1f}s")
