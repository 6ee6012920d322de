import itertools

import pytest

from mbresolve import graph
from mbresolve.errors import DisconnectedError, LoopEdgeError, VertexRangeError
from mbresolve.families import FamilySpec, connected_graph_atlas, gen_family
from mbresolve.graph import (
    TwinClassKind,
    _vertex_orbits,
    all_pairs_distances,
    are_twins,
    build_graph,
    truncated_distance,
    twin_partition,
)

from oracles import naive_automorphisms, naive_orbits


def petersen():
    return gen_family(FamilySpec.make("petersen"))


class TestBuildGraph:
    def test_triangle(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        assert g.n == 3
        assert g.edge_count == 3
        assert g.neighbors(0) == {1, 2}

    def test_path_p4(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        assert g.degree(0) == 1
        assert g.degree(1) == 2
        assert g.is_tree()

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedError):
            build_graph(4, [(0, 1), (2, 3)])

    def test_loop_rejected(self):
        with pytest.raises(LoopEdgeError):
            build_graph(2, [(0, 0), (0, 1)])

    def test_vertex_out_of_range(self):
        with pytest.raises(VertexRangeError):
            build_graph(3, [(0, 1), (1, 5)])

    def test_duplicates_tolerated_and_logged(self, caplog):
        with caplog.at_level("WARNING"):
            g = build_graph(3, [(0, 1), (1, 0), (1, 2)])
        assert g.edge_count == 2
        assert any("duplicate" in rec.message for rec in caplog.records)

    def test_single_vertex(self):
        g = build_graph(1, [])
        assert g.n == 1 and g.edge_count == 0

    def test_labels_length_checked(self):
        with pytest.raises(VertexRangeError):
            build_graph(2, [(0, 1)], labels=["a"])


class TestDistances:
    def test_p4_end_to_end(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        dm = all_pairs_distances(g)
        assert dm[0, 3] == 3
        assert dm.diameter == 3

    def test_petersen_diameter_two(self):
        dm = all_pairs_distances(petersen())
        assert dm.diameter == 2

    def test_complete_all_ones(self):
        g = gen_family(FamilySpec.make("complete", n=5))
        dm = all_pairs_distances(g)
        assert all(dm[u, v] == 1 for u in range(5) for v in range(5) if u != v)
        assert dm.diameter == 1

    def test_symmetry_and_triangle_inequality(self):
        g = gen_family(FamilySpec.make("thm_e", alpha=3))
        dm = all_pairs_distances(g)
        for u, v, w in itertools.product(range(g.n), repeat=3):
            assert dm[u, v] == dm[v, u]
            assert dm[u, w] <= dm[u, v] + dm[v, w]
        assert all(dm[u, u] == 0 for u in range(g.n))


class TestTruncatedDistance:
    def test_p4_truncation(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        dm = all_pairs_distances(g)
        assert truncated_distance(dm, 1, 0, 3) == 2

    def test_identity_is_zero(self):
        dm = all_pairs_distances(petersen())
        assert all(truncated_distance(dm, k, v, v) == 0 for v in range(10) for k in (1, 2, 5))

    def test_equals_distance_beyond_diameter(self):
        g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        dm = all_pairs_distances(g)
        k = dm.diameter - 1
        for u in range(5):
            for v in range(5):
                assert truncated_distance(dm, k, u, v) == dm[u, v]

    def test_monotone_in_k_with_ceiling(self):
        g = gen_family(FamilySpec.make("cycle", n=9))
        dm = all_pairs_distances(g)
        for u in range(9):
            for v in range(9):
                values = [truncated_distance(dm, k, u, v) for k in range(1, 7)]
                assert values == sorted(values)
                assert all(val <= k + 1 for k, val in zip(range(1, 7), values))

    def test_k_zero_rejected(self):
        dm = all_pairs_distances(build_graph(2, [(0, 1)]))
        with pytest.raises(ValueError):
            truncated_distance(dm, 0, 0, 1)


class TestTwinPartition:
    def test_star_leaves_form_independent_class(self):
        g = gen_family(FamilySpec.make("star", beta=4))
        tp = twin_partition(g)
        assert ((1, 2, 3, 4) in tp.classes) and ((0,) in tp.classes)
        kinds = dict(zip(tp.classes, tp.kinds))
        assert kinds[(1, 2, 3, 4)] is TwinClassKind.INDEPENDENT
        assert kinds[(0,)] is TwinClassKind.SINGLETON

    def test_petersen_all_singletons(self):
        g = petersen()
        tp = twin_partition(g)
        assert len(tp.classes) == 10
        assert all(kind is TwinClassKind.SINGLETON for kind in tp.kinds)
        # oracle: direct pairwise neighborhood comparison
        assert not any(are_twins(g, u, w) for u in range(10) for w in range(u + 1, 10))

    def test_complete_single_clique_class(self):
        g = gen_family(FamilySpec.make("complete", n=6))
        tp = twin_partition(g)
        assert tp.classes == ((0, 1, 2, 3, 4, 5),)
        assert tp.kinds == (TwinClassKind.CLIQUE,)

    def test_classes_partition_vertices(self):
        for family, kw in [("thm_d", {}), ("fig1", {"alpha": 2}), ("wheel", {"n": 6})]:
            g = gen_family(FamilySpec.make(family, **kw))
            tp = twin_partition(g)
            seen = sorted(v for cls in tp.classes for v in cls)
            assert seen == list(range(g.n))

    def test_twin_swap_is_automorphism(self):
        # swapping two twins fixes the edge set; checked by explicit permutation
        for family, kw in [("thm_d", {}), ("star", {"beta": 4}), ("cycle", {"n": 4})]:
            g = gen_family(FamilySpec.make(family, **kw))
            tp = twin_partition(g)
            for cls in tp.classes_of_size(2):
                u, w = cls[0], cls[1]
                perm = list(range(g.n))
                perm[u], perm[w] = w, u
                swapped = {(min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in g.edges}
                assert swapped == g.edges


def cayley_graph(m, steps):
    """The Cayley graph of Z_m x Z_m whose edges join vertices that differ by one of the given steps."""
    return build_graph(m * m, [(a, b) for a, b in itertools.combinations(range(m * m), 2)
                               if ((b // m - a // m) % m, (b % m - a % m) % m) in steps])


# vertex-transitive graphs of order 18 made of twin classes: nine false-twin
# pairs, one true-twin class of 18, and the 3x3 rook's graph with every vertex
# doubled into a false-twin pair (vertex 2c + i is copy i of cell c)
TWIN_HEAVY = [
    ("K(2,2,2,2,2,2,2,2,2)", gen_family(FamilySpec.make("multipartite", parts=(2,) * 9))),
    ("K18", gen_family(FamilySpec.make("complete", n=18))),
    ("doubled 3x3 rook's graph", build_graph(18, [
        (2 * c + i, 2 * d + j) for c, d in itertools.combinations(range(9), 2)
        if c // 3 == d // 3 or c % 3 == d % 3 for i in (0, 1) for j in (0, 1)])),
]


def orbit_sets(g, fixed=-1):
    orbits = _vertex_orbits(all_pairs_distances(g), fixed)
    return tuple(frozenset(w for w in range(g.n) if orbits[v] >> w & 1) for v in range(g.n))


@pytest.fixture(scope="module")
def atlas_automorphisms():
    return [(g, naive_automorphisms(g.n, g.edges)) for g in connected_graph_atlas(max_n=6)]


class TestVertexOrbits:
    def test_match_brute_force_on_atlas(self, atlas_automorphisms):
        for g, autos in atlas_automorphisms:
            for fixed in range(-1, g.n):
                # the search bound is far above what these graphs need, so every search ends
                assert orbit_sets(g, fixed) == naive_orbits(autos, g.n, None if fixed < 0 else fixed), (sorted(g.edges), fixed)

    def test_a_search_cut_short_only_splits_orbits(self, atlas_automorphisms, monkeypatch):
        monkeypatch.setattr(graph, "_ORBIT_SEARCH_NODES", 1)
        cut = 0
        for g, autos in atlas_automorphisms:
            for fixed in range(-1, g.n):
                got = orbit_sets(g, fixed)
                want = naive_orbits(autos, g.n, None if fixed < 0 else fixed)
                assert all(a <= b for a, b in zip(got, want)), (sorted(g.edges), fixed)
                cut += got != want
        assert cut > 0

    @pytest.mark.parametrize("name, g", [
        ("C12", gen_family(FamilySpec.make("cycle", n=12))),
        ("Petersen", petersen()),
        ("Q3", build_graph(8, [(u, u ^ bit) for u in range(8) for bit in (1, 2, 4) if u < u ^ bit])),
        ("K(3,3,3)", gen_family(FamilySpec.make("multipartite", parts=(3, 3, 3)))),
        # diameter 2-3, so row sums and distances split nothing: the hardest inputs for the search
        ("Shrikhande", cayley_graph(4, {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)})),
        ("Paley(17)", build_graph(17, [(a, b) for a, b in itertools.combinations(range(17), 2)
                                       if (b - a) % 17 in {1, 2, 4, 8, 9, 13, 15, 16}])),
        ("4x4 rook's graph", cayley_graph(4, {(0, d) for d in (1, 2, 3)} | {(d, 0) for d in (1, 2, 3)})),
        # points 0-6 and lines 7-13 of the Fano plane, point i on line j iff i - j is 0, 1 or 3 mod 7
        ("Heawood", build_graph(14, [(i, 7 + j) for i in range(7) for j in range(7) if (i - j) % 7 in {0, 1, 3}])),
        *TWIN_HEAVY,
    ])
    def test_vertex_transitive_graphs_have_one_orbit(self, name, g):
        assert set(orbit_sets(g)) == {frozenset(range(g.n))}, name

    @pytest.mark.parametrize("name, g", TWIN_HEAVY)
    def test_twin_heavy_graphs_stay_far_below_the_search_bound(self, name, g, monkeypatch):
        # the search joins twins itself, one search per vertex it joins at
        # worst: K18 takes the most, 17 searches of 18 extension steps (306)
        monkeypatch.setattr(graph, "_ORBIT_SEARCH_NODES", 400)
        assert set(orbit_sets(g)) == {frozenset(range(g.n))}, name
