import random

import pytest

from mbresolve import resolve
from mbresolve.errors import (
    CycleTooSmallError,
    InvariantError,
    PairsOverlapError,
    SameVertexError,
    SizeCapError,
    TooManyPairsError,
    VertexRangeError,
)
from mbresolve.families import FamilySpec, connected_graph_atlas, gen_family
from mbresolve.graph import all_pairs_distances, build_graph
from mbresolve.resolve import (
    GapProfile,
    PairSystemKind,
    check_pair_system,
    cycle_gap_check,
    is_resolving,
    metric_dimension_k,
    minimal_pair_masks,
    pair_resolver_set,
    search_pair_system,
)

from oracles import brute_force_dim, direct_code, direct_is_resolving, naive_pair_system_kind


def family_dm(family, **kw):
    g = gen_family(FamilySpec.make(family, **kw))
    return g, all_pairs_distances(g)


class TestIsResolving:
    def test_c4_transversals(self):
        # one vertex from each antipodal twin pair resolves at every level;
        # a full twin pair never does
        _, dm = family_dm("cycle", n=4)
        for k in (1, 2, 3):
            for transversal in ({0, 1}, {0, 3}, {2, 1}, {2, 3}):
                assert is_resolving(dm, k, transversal).ok
            assert not is_resolving(dm, k, {0, 2}).ok

    def test_full_vertex_set_always_resolves(self):
        for family, kw in [("petersen", {}), ("thm_e", {"alpha": 3}), ("complete", {"n": 5})]:
            g, dm = family_dm(family, **kw)
            assert is_resolving(dm, 1, range(g.n)).ok

    def test_thm_d_leaf_set_fails_with_witness(self):
        _, dm = family_dm("thm_d")
        check = is_resolving(dm, 1, {3, 5, 7})
        assert not check.ok
        assert check.unresolved == (4, 6)  # the two lexicographically least co-coded leaves

    def test_agrees_with_direct_injectivity(self):
        g, dm = family_dm("thm_e", alpha=3)
        for subset in range(0, 1 << g.n, 7):  # strided sample
            landmarks = [v for v in range(g.n) if subset >> v & 1]
            assert is_resolving(dm, 2, landmarks).ok == direct_is_resolving(dm, 2, landmarks)

    @pytest.mark.parametrize("landmarks", [{-1}, {0, 5}], ids=["negative", "too-large"])
    def test_vertex_out_of_range(self, landmarks):
        _, dm = family_dm("path", n=5)
        with pytest.raises(VertexRangeError):
            is_resolving(dm, 4, landmarks)

    def test_superset_monotone(self):
        g, dm = family_dm("cycle", n=7)
        assert is_resolving(dm, 1, {0, 2, 4}).ok
        assert is_resolving(dm, 1, {0, 2, 4, 5}).ok


class TestPairResolverSet:
    def test_thm_d_outer_leaf_pair(self):
        _, dm = family_dm("thm_d")
        # second leaves of spine ends: separated only by their own stems
        assert pair_resolver_set(dm, 1, 4, 6) == {0, 4, 1, 6}

    def test_fig1_branch_pairs(self):
        _, dm = family_dm("fig1", alpha=2)
        assert pair_resolver_set(dm, 1, 2, 4) == {2, 4, 5}
        assert pair_resolver_set(dm, 2, 2, 4) == {2, 4, 5, 12}
        assert pair_resolver_set(dm, 3, 2, 4) >= {2, 4, 5, 12, 13}

    def test_same_vertex_rejected(self):
        _, dm = family_dm("cycle", n=4)
        with pytest.raises(SameVertexError):
            pair_resolver_set(dm, 1, 2, 2)

    def test_matches_single_landmark_codes(self):
        g, dm = family_dm("cycle", n=6)
        for x in range(g.n):
            for y in range(x + 1, g.n):
                expected = {
                    z for z in range(g.n)
                    if direct_code(dm, 1, (z,), x) != direct_code(dm, 1, (z,), y)
                }
                assert pair_resolver_set(dm, 1, x, y) == expected

    def test_resolving_iff_hits_every_pair_set(self):
        g, dm = family_dm("thm_a", alpha=3)
        for subset in range(1 << g.n):
            landmarks = {v for v in range(g.n) if subset >> v & 1}
            hits_all = all(
                landmarks & pair_resolver_set(dm, 1, x, y)
                for x in range(g.n) for y in range(x + 1, g.n)
            )
            assert is_resolving(dm, 1, landmarks).ok == hits_all


class TestMinimalMasks:
    def test_masks_are_minimal_and_equivalent(self):
        g, dm = family_dm("thm_b", alpha=4)
        masks = minimal_pair_masks(dm, 1)
        for i, m in enumerate(masks):
            for j, other in enumerate(masks):
                if i != j:
                    assert not (other & ~m == 0), "kept mask contained in another"
        for subset in range(1 << g.n):
            hits = all(m & subset for m in masks)
            landmarks = [v for v in range(g.n) if subset >> v & 1]
            assert hits == direct_is_resolving(dm, 1, landmarks)

    def test_twin_pairs_are_two_element_masks(self):
        _, dm = family_dm("star", beta=4)
        masks = minimal_pair_masks(dm, 1)
        two = sorted(m for m in masks if m.bit_count() == 2)
        # all six leaf pairs of the 4-leaf twin class
        assert len(two) == 6


class TestMetricDimension:
    def test_thm_d_level1(self):
        _, dm = family_dm("thm_d")
        assert metric_dimension_k(dm, 1) == (5, (0, 1, 3, 5, 7))

    def test_complete_needs_all_but_one(self):
        for n in (2, 4, 6):
            _, dm = family_dm("complete", n=n)
            value, witness = metric_dimension_k(dm, 3)
            assert value == n - 1
            assert witness == tuple(range(n - 1))

    def test_petersen_dimension_three(self):
        _, dm = family_dm("petersen")
        for k in (1, 2):
            assert metric_dimension_k(dm, k).value == 3

    def test_matches_brute_force(self):
        for family, kw, k in [
            ("cycle", {"n": 6}, 1),
            ("cycle", {"n": 7}, 2),
            ("thm_a", {"alpha": 3}, 1),
            ("thm_b", {"alpha": 4}, 2),
            ("wheel", {"n": 5}, 1),
            ("star", {"beta": 4}, 1),
        ]:
            _, dm = family_dm(family, **kw)
            assert metric_dimension_k(dm, k) == brute_force_dim(dm, k)

    def test_missed_witness_raises(self, monkeypatch):
        monkeypatch.setattr(resolve, "_lex_min_hitting", lambda masks, n, size: None)
        _, dm = family_dm("thm_d")
        with pytest.raises(InvariantError):
            metric_dimension_k(dm, 1)

    def test_size_cap(self):
        _, dm = family_dm("path", n=6)
        with pytest.raises(SizeCapError):
            metric_dimension_k(dm, 1, size_cap=5)

    def test_single_vertex(self):
        dm = all_pairs_distances(build_graph(1, []))
        assert metric_dimension_k(dm, 1) == (0, ())


class TestPairSystems:
    def test_c4_pairing(self):
        _, dm = family_dm("cycle", n=4)
        for k in (1, 2):
            assert check_pair_system(dm, k, [(0, 2), (1, 3)]).kind is PairSystemKind.PAIRING

    def test_thm_a_pairing(self):
        _, dm = family_dm("thm_a", alpha=3)
        # hub leaves paired, subdivided arm paired stem-to-leaf
        for k in (1, 2, 3):
            assert check_pair_system(dm, k, [(3, 4), (1, 2)]).kind is PairSystemKind.PAIRING

    def test_thm_b_quasi_pairing_with_witness(self):
        _, dm = family_dm("thm_b", alpha=4)
        for k in (1, 2):
            check = check_pair_system(dm, k, [(4, 5), (1, 2)])
            assert check.kind is PairSystemKind.QUASI_PAIRING
            assert check.witnesses == (3,)  # the remaining hub leaf completes every transversal

    def test_thm_d_quasi_pairing_witness_is_spine_end(self):
        _, dm = family_dm("thm_d")
        check = check_pair_system(dm, 1, [(1, 2), (3, 4), (5, 6), (7, 8)])
        assert check.kind is PairSystemKind.QUASI_PAIRING
        assert check.witnesses == (0,)

    def test_neither(self):
        _, dm = family_dm("star", beta=4)
        assert check_pair_system(dm, 1, [(1, 2)]).kind is PairSystemKind.NEITHER

    def test_overlap_rejected(self):
        _, dm = family_dm("cycle", n=5)
        with pytest.raises(PairsOverlapError):
            check_pair_system(dm, 1, [(0, 2), (2, 4)])

    def test_vertex_out_of_range(self):
        _, dm = family_dm("path", n=5)
        with pytest.raises(VertexRangeError):
            check_pair_system(dm, 1, [(0, 9)])

    def test_matches_naive_oracle_on_atlas(self):
        rng = random.Random(6)
        cases = 0
        for g in connected_graph_atlas(max_n=6, min_n=2):
            dm = all_pairs_distances(g)
            for k in range(1, dm.stable_level + 1):
                for _ in range(4):
                    a = rng.randint(1, g.n // 2)
                    vs = rng.sample(range(g.n), 2 * a)
                    pairs = [(vs[2 * i], vs[2 * i + 1]) for i in range(a)]
                    check = check_pair_system(dm, k, pairs)
                    assert (check.kind.value, check.witnesses) == naive_pair_system_kind(dm, k, pairs), (sorted(g.edges), k, pairs)
                    cases += 1
        assert cases == 848

    def test_pair_cap(self):
        pairs = [(2 * i, 2 * i + 1) for i in range(resolve.MAX_PAIR_SYSTEM + 1)]
        _, dm = family_dm("path", n=2 * len(pairs))
        with pytest.raises(TooManyPairsError):
            check_pair_system(dm, 1, pairs)

    def test_search_finds_pairing_for_even_cycles(self):
        _, dm = family_dm("cycle", n=8)
        found = search_pair_system(dm, 1)
        assert found is not None
        system, check = found
        assert check.kind is PairSystemKind.PAIRING
        assert check_pair_system(dm, 1, system).kind is PairSystemKind.PAIRING

    def test_search_finds_quasi_for_thm_b(self):
        _, dm = family_dm("thm_b", alpha=4)
        found = search_pair_system(dm, 1)
        assert found is not None
        system, check = found
        assert check.kind is PairSystemKind.QUASI_PAIRING
        confirm = check_pair_system(dm, 1, system)
        assert confirm.kind is PairSystemKind.QUASI_PAIRING
        assert confirm.witnesses == check.witnesses


class TestGapConditions:
    def test_c5_small_gaps_pass(self):
        profile = GapProfile.from_landmarks(5, [0, 2])
        assert profile.gaps == (1, 2)
        assert cycle_gap_check(profile, 1)

    def test_single_landmark_fails(self):
        profile = GapProfile.from_landmarks(9, [0])
        assert profile.gaps == (8,)
        assert not cycle_gap_check(profile, 1)

    def test_c7_big_gap_next_to_medium_gap_fails(self):
        profile = GapProfile.from_landmarks(7, [0, 4])
        assert profile.gaps == (3, 2)
        assert not cycle_gap_check(profile, 1)

    def test_two_maximal_gaps_fail(self):
        profile = GapProfile.from_landmarks(10, [0, 4, 5, 9])
        assert profile.gaps.count(3) == 2
        assert not cycle_gap_check(profile, 1)

    def test_landmark_out_of_range(self):
        with pytest.raises(VertexRangeError):
            GapProfile.from_landmarks(9, [0, 9])

    def test_cycle_too_small(self):
        with pytest.raises(CycleTooSmallError):
            cycle_gap_check(GapProfile.from_landmarks(6, [0, 3]), 2)

    def test_gap_sum_invariant(self):
        profile = GapProfile.from_landmarks(11, [0, 3, 4, 8])
        assert sum(profile.gaps) + len(profile.landmarks) == 11
