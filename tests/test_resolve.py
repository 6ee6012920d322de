import gc
import math
import random
from itertools import combinations

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
from mbresolve.game import certificate_fast_path
from mbresolve.graph import all_pairs_distances, build_graph, truncated_distance, twin_partition
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

from oracles import brute_force_dim, direct_code, direct_is_resolving, naive_least_cover, naive_pair_system_kind


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

    @pytest.mark.parametrize("pair", [(-1, 2), (0, 9), (2, 5)], ids=["negative", "too-large", "just-past-end"])
    def test_vertex_out_of_range(self, pair):
        # a negative id must not wrap around to the last vertex
        _, dm = family_dm("path", n=5)
        with pytest.raises(VertexRangeError):
            pair_resolver_set(dm, 1, *pair)

    def test_matches_single_landmark_codes(self):
        # every k up to one past the diameter: the k >= 2 sphere blocks, and k past the stable level
        levels = 0
        for g in connected_graph_atlas(max_n=6):
            dm = all_pairs_distances(g)
            for k in range(1, dm.diameter + 2):
                table = resolve._pair_table(dm, k)
                assert list(table) == list(combinations(range(g.n), 2))
                for x, y in table:
                    expected = {
                        z for z in range(g.n)
                        if truncated_distance(dm, k, x, z) != truncated_distance(dm, k, y, z)
                    }
                    assert pair_resolver_set(dm, k, x, y) == expected, (sorted(g.edges), k, x, y)
                levels += 1
        assert levels == 492

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

    def test_twin_classes_from_masks_match_twin_partition(self):
        levels = 0
        for g in connected_graph_atlas(max_n=7):
            dm = all_pairs_distances(g)
            want = [0] * g.n
            for cls in twin_partition(g).classes:
                for v in cls:
                    want[v] = sum(1 << w for w in cls)
            for k in range(1, dm.stable_level + 1):
                masks = minimal_pair_masks(dm, k)
                assert list(masks) == sorted(masks, key=lambda m: (m.bit_count(), m))
                assert resolve._twin_masks(masks, g.n) == tuple(want), (sorted(g.edges), k)
                levels += 1
        assert levels == 1648

    def test_wheel_level1_masks_are_the_rim_cycles(self):
        # W_n has diameter 2 and rim distances min(d_C, 2), which is C_n's truncated distance at k = 1;
        # the hub sees every rim vertex at distance 1, so from rim order 7 up (and at 4) it lies in no
        # minimal mask and W_n's masks are C_n's.  At rims 5 and 6 a minimal mask holds the hub.
        def oracle_masks(dm):
            sets = {frozenset(v for v in range(dm.n) if direct_code(dm, 1, [v], x) != direct_code(dm, 1, [v], y))
                    for x, y in combinations(range(dm.n), 2)}
            return {sum(1 << v for v in s) for s in sets if not any(t < s for t in sets)}

        for n in range(4, 26):
            _, wheel = family_dm("wheel", n=n)
            _, cycle = family_dm("cycle", n=n)
            wheel_masks, cycle_masks = minimal_pair_masks(wheel, 1), minimal_pair_masks(cycle, 1)
            assert set(wheel_masks) == oracle_masks(wheel), n
            assert set(cycle_masks) == oracle_masks(cycle), n
            hub = 1 << n
            if n in (5, 6):
                assert wheel_masks != cycle_masks and any(m & hub for m in wheel_masks), n
            else:
                assert wheel_masks == cycle_masks and not any(m & hub for m in wheel_masks), n


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
        # value and lexicographically least witness on every small graph and level
        for g in connected_graph_atlas(max_n=6):
            dm = all_pairs_distances(g)
            for k in range(1, max(1, dm.diameter) + 1):
                assert metric_dimension_k(dm, k) == brute_force_dim(dm, k), (sorted(g.edges), k)

    def test_missed_witness_raises(self, monkeypatch):
        monkeypatch.setattr(resolve, "_least_hitting_set", lambda masks, budget: None)
        _, dm = family_dm("thm_d")
        with pytest.raises(InvariantError):
            metric_dimension_k(dm, 1)

    def test_size_cap(self):
        _, dm = family_dm("path", n=6)
        with pytest.raises(SizeCapError):
            metric_dimension_k(dm, 1, size_cap=5)

    @pytest.mark.parametrize("cap", [0, -3])
    def test_size_cap_below_one_rejected(self, cap):
        # a cap below 1 is a bad argument, not an oversize graph
        _, dm = family_dm("path", n=3)
        with pytest.raises(ValueError, match=f"size cap must be a positive integer, got {cap}"):
            metric_dimension_k(dm, 1, size_cap=cap)

    def test_search_leaves_nothing_to_the_cycle_collector(self):
        # the branch-and-bound recursion forms no reference cycle, so each
        # search's frames and lists go as soon as it returns
        g, dm = family_dm("cycle", n=9)
        gc.disable()
        try:
            gc.collect()
            metric_dimension_k(dm, 1)
            assert gc.collect() == 0
            certificate_fast_path(g, dm, 1)
            assert gc.collect() == 0
        finally:
            gc.enable()

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

    def test_search_matches_naive_oracle_on_atlas(self):
        # every system the search returns has the naive oracle's kind and witnesses, and the public check agrees
        found_kinds = []
        for g in connected_graph_atlas(max_n=6, min_n=2):
            dm = all_pairs_distances(g)
            for k in range(1, dm.stable_level + 1):
                found = search_pair_system(dm, k)
                if found is None:
                    continue
                system, check = found
                expected = naive_pair_system_kind(dm, k, system.pairs)
                assert (check.kind.value, check.witnesses) == expected, (sorted(g.edges), k, system.pairs)
                assert check_pair_system(dm, k, system) == check
                found_kinds.append(check.kind)
        assert found_kinds.count(PairSystemKind.PAIRING) == 167
        assert found_kinds.count(PairSystemKind.QUASI_PAIRING) == 32

    def test_pair_system_bounds_dimension_by_half_the_order(self):
        # p disjoint pairs: a pairing's transversals resolve with p <= n/2 vertices, a
        # quasi-pairing's plus the witness with p + 1 <= (n+1)/2; certificate_fast_path relies on it
        found = tight = 0
        for g in connected_graph_atlas(max_n=7):
            dm = all_pairs_distances(g)
            for k in range(1, dm.stable_level + 1):
                if search_pair_system(dm, k) is not None:
                    value = metric_dimension_k(dm, k).value
                    assert value <= math.ceil(g.n / 2), (sorted(g.edges), k)
                    found += 1
                    tight += value == math.ceil(g.n / 2)
        assert (found, tight) == (1591, 165)

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

    def test_search_skips_a_repeated_target(self, monkeypatch):
        # the hub of K1,4 lies in no minimal mask, so its target is the full mask list again
        _, dm = family_dm("star", beta=4)
        resolve._root_cover.cache_clear()  # else an earlier test's cached cover hides the first target
        targets = []
        cover = resolve._pair_cover
        monkeypatch.setattr(
            resolve, "_pair_cover", lambda target, *rest: targets.append(target) or cover(target, *rest)
        )
        assert search_pair_system(dm, 1) is None
        assert len(targets) == len(set(targets)) == 5

    def test_cached_cover_leaves_nothing_to_the_cycle_collector(self):
        # the empty board's cover is cached: it must keep a tuple of ints, not a closure of _pair_cover
        gc.disable()
        try:
            for n in (7, 12):  # C7 has only a quasi-pairing, C12 a pairing
                g, dm = family_dm("cycle", n=n)
                resolve._root_cover.cache_clear()
                gc.collect()
                certificate_fast_path(g, dm, 1)
                search_pair_system(dm, 1)
                assert gc.collect() == 0, n
            assert resolve._root_cover.cache_info().misses == 1
        finally:
            gc.enable()

    def test_search_classifies_each_offered_cover_once(self, monkeypatch):
        # thm_b has a quasi-pairing and no pairing: the accepted cover's
        # check is the one made when it was offered, not made again
        _, dm = family_dm("thm_b", alpha=4)
        classified, offered = [], []
        classify, cover = resolve._classify, resolve._pair_cover

        def offering(parts, left, accept=None, **kw):
            if accept is None:
                return cover(parts, left, **kw)
            return cover(parts, left, lambda pairs: offered.append(pairs) or accept(pairs), **kw)

        monkeypatch.setattr(resolve, "_classify", lambda masks, pairs: classified.append(pairs) or classify(masks, pairs))
        monkeypatch.setattr(resolve, "_pair_cover", offering)
        system, check = search_pair_system(dm, 1)
        assert check.kind is PairSystemKind.QUASI_PAIRING
        assert offered and classified == offered

    def test_search_finds_quasi_for_thm_b(self):
        _, dm = family_dm("thm_b", alpha=4)
        found = search_pair_system(dm, 1)
        assert found is not None
        system, check = found
        assert check.kind is PairSystemKind.QUASI_PAIRING
        confirm = check_pair_system(dm, 1, system)
        assert confirm.kind is PairSystemKind.QUASI_PAIRING
        assert confirm.witnesses == check.witnesses


class TestPairCover:
    def test_matches_naive_least_cover(self):
        rng = random.Random(14)
        found = refused = missed = 0
        for _ in range(1500):
            n = rng.randint(2, 8)
            sizes = [rng.randint(2, min(n, 5)) for _ in range(rng.randint(1, 6))]
            parts = [sum(1 << v for v in rng.sample(range(n), size)) for size in sizes]
            left = rng.randint(0, 4)
            least = naive_least_cover(parts)
            pairs = resolve._pair_cover(parts, left)
            # no backtracking: a greedy descent may miss a cover, but what it returns is one
            greedy = resolve._pair_cover(parts, left, budget=0)
            if least is None or least > left:
                assert pairs is None and greedy is None, (parts, left)
                refused += 1
                continue
            assert pairs is not None, (parts, left)
            for cover in [c for c in (pairs, greedy) if c is not None]:
                assert len(cover) <= left, (parts, left, cover)
                assert all(p.bit_count() == 2 for p in cover) and sum(cover).bit_count() == 2 * len(cover), (parts, cover)
                assert all(any(part & p == p for p in cover) for part in parts), (parts, cover)
            found += 1
            missed += greedy is None
        assert found > 300 and refused > 300 and missed > 0

    def test_finds_a_cover_the_greedy_misses(self):
        # smallest part first, two lowest unused vertices: such a greedy pairs {0,1}
        # in {0,1,2}, then {2,3} in {2,3,4}, and {0,2,5} keeps one unused vertex.
        # Branching on the part with the fewest unused vertices, {0,1} forces
        # {2,5} and then {3,4}; with two pairs left it takes {0,2} and {3,4}.
        parts = [0b111, 0b11100, 0b100101]
        assert resolve._pair_cover(parts, 3) == (0b11, 0b100100, 0b11000)
        assert resolve._pair_cover(parts, 2) == (0b101, 0b11000)
        assert resolve._pair_cover(parts, 1) is None
        # budget 0, no backtracking: {0,1}, then the forced {2,5} and {3,4}; with
        # two pairs left it misses the cover {0,2}, {3,4} that backtracking finds
        assert resolve._pair_cover(parts, 3, budget=0) == (0b11, 0b100100, 0b11000)
        assert resolve._pair_cover(parts, 2, budget=0) is None

    def test_accept_refuses_covers(self):
        # accept sees every cover the search meets until it takes one
        seen = []
        assert resolve._pair_cover([0b1111], 2, lambda pairs: seen.append(pairs) or len(seen) == 3) == (0b1001,)
        assert seen == [(0b11,), (0b101,), (0b1001,)]


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
