import logging
import random
import subprocess
import sys
from pathlib import Path

import pytest

import mbresolve

from mbresolve.errors import (
    FamilyParameterError,
    NotATreeError,
    NotCoveredError,
    TreeHypothesisError,
)
from mbresolve.families import (
    FamilySpec,
    all_free_trees,
    classify_tree,
    connected_graph_atlas,
    family_names,
    gen_family,
    predict_outcome,
    predict_tree_outcome,
    predicted_counts,
    random_connected_graph,
)
from mbresolve.game import OutcomeSymbol, outcome
from mbresolve.graph import all_pairs_distances

B, N, M = OutcomeSymbol.B, OutcomeSymbol.N, OutcomeSymbol.M


class TestGenerators:
    def test_cycle_edges(self):
        g = gen_family(FamilySpec.make("cycle", n=4))
        assert g.edges == {(0, 1), (1, 2), (2, 3), (0, 3)}

    def test_fig1_alpha2_shape(self):
        g = gen_family(FamilySpec.make("fig1", alpha=2))
        assert (g.n, g.edge_count) == (14, 16)
        assert g.labels[0] == "v1" and g.labels[6] == "v2"
        assert g.labels[5] == "x1" and g.labels[11] == "x2"
        assert g.labels[-2:] == ("y", "z")

    def test_thm_d_nine_vertices(self):
        g = gen_family(FamilySpec.make("thm_d"))
        assert g.n == 9
        assert g.labels == ("v1", "v2", "v3", "l1", "l1p", "l2", "l2p", "l3", "l3p")

    def test_petersen_three_regular(self):
        g = gen_family(FamilySpec.make("petersen"))
        assert g.n == 10 and g.edge_count == 15
        assert all(g.degree(v) == 3 for v in range(10))

    def test_every_family_generates_valid_graphs(self):
        samples = [
            FamilySpec.make("path", n=5),
            FamilySpec.make("cycle", n=7),
            FamilySpec.make("complete", n=4),
            FamilySpec.make("star", beta=3),
            FamilySpec.make("multipartite", parts=(2, 3, 1)),
            FamilySpec.make("wheel", n=5),
            FamilySpec.make("petersen"),
            FamilySpec.make("thm_a", alpha=4),
            FamilySpec.make("thm_b", alpha=5),
            FamilySpec.make("thm_d"),
            FamilySpec.make("thm_e", alpha=4),
            FamilySpec.make("thm_f", alpha=5),
            FamilySpec.make("fig1", alpha=3),
        ]
        assert {s.family for s in samples} == set(family_names())
        for spec in samples:
            g = gen_family(spec)
            assert g.n == len(g.labels)

    @pytest.mark.parametrize(
        "spec",
        [
            FamilySpec.make("cycle", n=2),
            FamilySpec.make("thm_a", alpha=2),
            FamilySpec.make("thm_b", alpha=3),
            FamilySpec.make("thm_e", alpha=2),
            FamilySpec.make("thm_f", alpha=3),
            FamilySpec.make("fig1", alpha=1),
            FamilySpec.make("multipartite", parts=(4,)),
            FamilySpec.make("star"),
            FamilySpec.make("nosuch", n=3),
        ],
    )
    def test_bad_parameters_rejected(self, spec):
        with pytest.raises(FamilyParameterError):
            gen_family(spec)

    def test_wheel_hub_connected_to_rim(self):
        g = gen_family(FamilySpec.make("wheel", n=6))
        assert g.neighbors(6) == frozenset(range(6))


class TestPredictors:
    def test_multipartite_table_cases(self):
        cases = [
            ((3, 3), B), ((4, 2), B), ((1, 1, 1, 1), B), ((1, 1, 1, 3), B),
            ((1, 1, 1), N), ((1, 3), N), ((2, 3), N), ((1, 1, 3), N),
            ((1, 1), M), ((2, 2), M), ((1, 2, 2), M), ((2, 2, 2, 2), M),
        ]
        for parts, want in cases:
            got = predict_outcome(FamilySpec.make("multipartite", parts=parts), 1)
            assert got == frozenset({want}), (parts, got, want)

    def test_cycle_cases(self):
        assert predict_outcome(FamilySpec.make("cycle", n=3), 5) == {N}
        assert predict_outcome(FamilySpec.make("cycle", n=6), 1) == {M}
        assert predict_outcome(FamilySpec.make("cycle", n=7), 2) == {M}
        assert predict_outcome(FamilySpec.make("cycle", n=9), 1) == {M}
        with pytest.raises(NotCoveredError):
            predict_outcome(FamilySpec.make("cycle", n=11), 1)
        assert predict_outcome(FamilySpec.make("cycle", n=11), 2) == {M}

    def test_wheel_cases(self):
        assert predict_outcome(FamilySpec.make("wheel", n=3), 1) == {B}
        for n in range(4, 9):
            assert predict_outcome(FamilySpec.make("wheel", n=n), 1) == {M}
        assert predict_outcome(FamilySpec.make("wheel", n=10), 1) == {M}
        # from rim 7 the rim cycle's level-1 closed form: exact through C9, the bound {M, N} above it
        assert predict_outcome(FamilySpec.make("wheel", n=9), 1) == {M}
        for n in (11, 13):
            assert predict_outcome(FamilySpec.make("wheel", n=n), 1) == {M, N}

    def test_realization_steps(self):
        # the paper's values, pinned apart from the predictors that verify-paper
        # compares the solver against
        rows = [
            (FamilySpec.make("thm_a", alpha=3), [M, M]),
            (FamilySpec.make("thm_b", alpha=4), [N, N]),
            (FamilySpec.make("star", beta=4), [B]),
            (FamilySpec.make("thm_d"), [N, M, M]),
            (FamilySpec.make("thm_e", alpha=3), [B, N]),
            (FamilySpec.make("thm_f", alpha=4), [B, M, M, M]),
            (FamilySpec.make("fig1", alpha=2), [B, N, M, M]),
        ]
        for spec, symbols in rows:
            for k, want in enumerate(symbols, start=1):
                assert predict_outcome(spec, k) == {want}, (spec.describe(), k)
        assert predict_outcome(FamilySpec.make("fig1", alpha=2), 9) == {M}

    def test_paths_not_covered(self):
        with pytest.raises(NotCoveredError):
            predict_outcome(FamilySpec.make("path", n=6), 1)

    def test_predictor_solver_triangle(self):
        # generator/predictor/solver agreement across covered families
        specs = [
            FamilySpec.make("cycle", n=6),
            FamilySpec.make("cycle", n=7),
            FamilySpec.make("star", beta=3),
            FamilySpec.make("complete", n=4),
            FamilySpec.make("multipartite", parts=(2, 2, 1)),
            FamilySpec.make("wheel", n=4),
            FamilySpec.make("petersen"),
            FamilySpec.make("thm_a", alpha=3),
            FamilySpec.make("thm_b", alpha=4),
            FamilySpec.make("thm_d"),
            FamilySpec.make("thm_e", alpha=3),
            FamilySpec.make("thm_f", alpha=4),
        ]
        for spec in specs:
            g = gen_family(spec)
            dm = all_pairs_distances(g)
            for k in range(1, max(1, dm.diameter - 1) + 1):
                try:
                    allowed = predict_outcome(spec, k)
                except NotCoveredError:
                    continue
                assert outcome(g, dm, k).symbol in allowed, (spec.describe(), k)

    def test_predicted_counts(self):
        assert predicted_counts(FamilySpec.make("petersen"), 1) == {"mrk": 3, "mprime_rk": 3}
        assert predicted_counts(FamilySpec.make("star", beta=4), 1) == {"brk": 2, "bprime_rk": 2}
        assert predicted_counts(FamilySpec.make("multipartite", parts=(2, 2)), 1, dim_value=2) == {
            "mrk": 2, "mprime_rk": 2,
        }
        assert predicted_counts(FamilySpec.make("star", beta=3), 1, dim_value=2) == {
            "nrk": 2, "nprime_rk": 2,
        }
        assert predicted_counts(FamilySpec.make("thm_d"), 1) is None


class TestTreeClassification:
    def test_star3_single_triple_major(self):
        g = gen_family(FamilySpec.make("star", beta=3))
        tp = classify_tree(g)
        assert tp.m3 == (0,) and tp.m2 == () and tp.m4 == ()
        assert tp.eligible

    def test_thm_f_profile(self):
        g = gen_family(FamilySpec.make("thm_f", alpha=4))
        tp = classify_tree(g)
        assert tp.m2 == (0, 1, 2, 3)
        assert tp.m3 == () and tp.m4 == ()
        assert not tp.has_degree_two_vertex
        assert tp.eligible

    def test_path_flagged(self):
        g = gen_family(FamilySpec.make("path", n=5))
        tp = classify_tree(g)
        assert tp.is_path and not tp.eligible
        with pytest.raises(TreeHypothesisError):
            predict_tree_outcome(tp, 1)

    def test_degree_two_flagged(self):
        g = gen_family(FamilySpec.make("thm_a", alpha=3))
        tp = classify_tree(g)
        assert tp.has_degree_two_vertex and not tp.eligible

    def test_interior_major_flagged(self):
        # center joins three twin-leaf majors; its own terminal degree is zero
        edges = [(0, 1), (0, 2), (0, 3)]
        nxt = 4
        for major in (1, 2, 3):
            edges += [(major, nxt), (major, nxt + 1)]
            nxt += 2
        from mbresolve.graph import build_graph

        g = build_graph(10, edges)
        tp = classify_tree(g)
        assert tp.has_zero_terminal_major and not tp.eligible

    def test_not_a_tree_rejected(self):
        g = gen_family(FamilySpec.make("cycle", n=5))
        with pytest.raises(NotATreeError):
            classify_tree(g)

    def test_case_table(self):
        g = gen_family(FamilySpec.make("star", beta=3))
        tp = classify_tree(g)  # |M3|=1, M2 empty
        assert predict_tree_outcome(tp, 1) is N
        assert predict_tree_outcome(tp, 2) is N
        g = gen_family(FamilySpec.make("thm_f", alpha=4))
        tp = classify_tree(g)  # |M2|=4
        assert predict_tree_outcome(tp, 1) is B
        assert predict_tree_outcome(tp, 2) is M
        g = gen_family(FamilySpec.make("thm_d"))
        tp = classify_tree(g)  # |M2|=3
        assert predict_tree_outcome(tp, 1) is N
        assert predict_tree_outcome(tp, 2) is M
        g = gen_family(FamilySpec.make("star", beta=4))
        tp = classify_tree(g)  # |M4|=1
        assert predict_tree_outcome(tp, 1) is B
        assert predict_tree_outcome(tp, 7) is B

    def test_two_leaf_pair_majors_maker_at_level_one(self):
        # |M2|=2 and k=1 is the only first-level Maker case in the table
        from mbresolve.graph import build_graph

        g = build_graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
        tp = classify_tree(g)
        assert len(tp.m2) == 2
        assert predict_tree_outcome(tp, 1) is M


class TestEnumeration:
    def test_free_tree_counts(self):
        known = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106, 11: 235, 12: 551}
        for n, count in known.items():
            assert sum(1 for _ in all_free_trees(n)) == count

    def test_atlas_counts(self):
        known = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
        for n, count in known.items():
            assert len(connected_graph_atlas(max_n=n, min_n=n)) == count

    def test_import_does_not_load_networkx(self):
        # only all_free_trees and connected_graph_atlas import it, when called
        src = str(Path(mbresolve.__file__).resolve().parents[1])
        code = (f"import sys; sys.path.insert(0, {src!r}); import mbresolve, mbresolve.cli, mbresolve.verify; "
                "print('networkx' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True)
        assert done.stdout.strip() == "False"

    def test_random_connected_graph_deterministic(self):
        a = random_connected_graph(7, 0.4, random.Random(99))
        b = random_connected_graph(7, 0.4, random.Random(99))
        assert a.edges == b.edges

    def test_random_connected_graph_sparse_fallback(self, caplog):
        g = random_connected_graph(9, 0.01, random.Random(5))
        assert g.n == 9  # connectivity guaranteed even at tiny densities
        # this draw samples a path edge again: it is skipped, not dropped as a duplicate with a warning
        with caplog.at_level(logging.WARNING):
            g = random_connected_graph(12, 0.01, random.Random(4))
        assert caplog.records == []
        assert g.edge_count == 12


class TestPinnedConstructions:
    """Vertex ids and labels of the theorem families, which reports and checks name."""

    @pytest.mark.parametrize("family, alpha, edges, labels", [
        ("thm_a", 3, "0-1 0-3 0-4 1-2", "v s1 l1 l2 l3"),
        ("thm_a", 4, "0-1 0-2 0-5 0-6 1-3 2-4", "v s1 s2 l1 l2 l3 l4"),
        ("thm_a", 5, "0-1 0-2 0-3 0-7 0-8 1-4 2-5 3-6", "v s1 s2 s3 l1 l2 l3 l4 l5"),
        ("thm_a", 6, "0-1 0-2 0-3 0-4 0-9 0-10 1-5 2-6 3-7 4-8", "v s1 s2 s3 s4 l1 l2 l3 l4 l5 l6"),
        ("thm_b", 4, "0-1 0-3 0-4 0-5 1-2", "v s1 l1 l2 l3 l4"),
        ("thm_b", 5, "0-1 0-2 0-5 0-6 0-7 1-3 2-4", "v s1 s2 l1 l2 l3 l4 l5"),
        ("thm_b", 6, "0-1 0-2 0-3 0-7 0-8 0-9 1-4 2-5 3-6", "v s1 s2 s3 l1 l2 l3 l4 l5 l6"),
        ("thm_e", 3, "0-1 0-3 0-4 1-2 1-5 1-6 2-7 2-8 2-9", "v1 v2 v3 l1a l1b l2a l2b l3a l3b l3c"),
        ("thm_e", 4, "0-1 0-4 0-5 1-2 1-6 1-7 2-3 2-8 2-9 3-10 3-11 3-12",
         "v1 v2 v3 v4 l1a l1b l2a l2b l3a l3b l4a l4b l4c"),
        ("thm_e", 5, "0-1 0-5 0-6 1-2 1-7 1-8 2-3 2-9 2-10 3-4 3-11 3-12 4-13 4-14 4-15",
         "v1 v2 v3 v4 v5 l1a l1b l2a l2b l3a l3b l4a l4b l5a l5b l5c"),
        ("thm_f", 4, "0-1 0-4 0-5 1-2 1-6 1-7 2-3 2-8 2-9 3-10 3-11",
         "v1 v2 v3 v4 l1a l1b l2a l2b l3a l3b l4a l4b"),
        ("thm_f", 5, "0-1 0-5 0-6 1-2 1-7 1-8 2-3 2-9 2-10 3-4 3-11 3-12 4-13 4-14",
         "v1 v2 v3 v4 v5 l1a l1b l2a l2b l3a l3b l4a l4b l5a l5b"),
        ("thm_f", 6, "0-1 0-6 0-7 1-2 1-8 1-9 2-3 2-10 2-11 3-4 3-12 3-13 4-5 4-14 4-15 5-16 5-17",
         "v1 v2 v3 v4 v5 v6 l1a l1b l2a l2b l3a l3b l4a l4b l5a l5b l6a l6b"),
    ])
    def test_edges_and_labels(self, family, alpha, edges, labels):
        g = gen_family(FamilySpec.make(family, alpha=alpha))
        assert g.edges == {tuple(map(int, e.split("-"))) for e in edges.split()}
        assert g.labels == tuple(labels.split())
