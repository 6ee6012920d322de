"""Invariant sweeps: seeded random graphs plus hypothesis-driven cases."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from mbresolve.families import FamilySpec, gen_family, random_connected_graph
from mbresolve.graph import all_pairs_distances, truncated_distance, twin_partition
from mbresolve.resolve import (
    _refine,
    GapProfile,
    cycle_gap_check,
    is_resolving,
    metric_dimension_k,
    minimal_pair_masks,
)

from oracles import direct_is_resolving


def graph_from(seed: int, max_n: int = 7):
    rng = random.Random(seed)
    return random_connected_graph(rng.randint(2, max_n), rng.uniform(0.25, 0.85), rng)


@given(seed=st.integers(0, 10**6), k=st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_truncated_distance_axioms(seed, k):
    g = graph_from(seed)
    dm = all_pairs_distances(g)
    for u in range(g.n):
        for v in range(g.n):
            d = truncated_distance(dm, k, u, v)
            assert d == truncated_distance(dm, k, v, u)
            assert (d == 0) == (u == v)
            assert d <= k + 1
            assert truncated_distance(dm, k + 1, u, v) >= d
    if k >= dm.diameter - 1:
        assert all(
            truncated_distance(dm, k, u, v) == dm[u, v]
            for u in range(g.n) for v in range(g.n)
        )


@given(seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_resolving_monotone_in_k_and_superset(seed):
    rng = random.Random(seed ^ 0x5EED)
    g = graph_from(seed)
    dm = all_pairs_distances(g)
    k = rng.randint(1, max(1, dm.diameter - 1))
    landmarks = set(rng.sample(range(g.n), rng.randint(1, g.n)))
    if is_resolving(dm, k, landmarks).ok:
        assert is_resolving(dm, k + 1, landmarks).ok
        extra = landmarks | {rng.randrange(g.n)}
        assert is_resolving(dm, k, extra).ok


@given(seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_refinement_agrees_with_direct_codes(seed):
    rng = random.Random(seed ^ 0xC0DE)
    g = graph_from(seed)
    dm = all_pairs_distances(g)
    for _ in range(10):
        k = rng.randint(1, max(1, dm.diameter))
        landmarks = rng.sample(range(g.n), rng.randint(0, g.n))
        assert is_resolving(dm, k, landmarks).ok == direct_is_resolving(dm, k, landmarks)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_partition_refinement_never_merges(seed):
    rng = random.Random(seed ^ 0xBEEF)
    g = graph_from(seed)
    dm = all_pairs_distances(g)
    k = rng.randint(1, max(1, dm.diameter - 1))
    landmarks = rng.sample(range(g.n), rng.randint(1, g.n - 1)) if g.n > 1 else [0]
    base = _refine(dm, k, landmarks)
    extra = rng.randrange(g.n)
    refined = _refine(dm, k, list(landmarks) + [extra])
    for block in refined:
        assert any(set(block) <= set(b) for b in base)


def test_twin_pairs_must_be_hit_by_resolving_sets():
    rng = random.Random(314)
    for _ in range(60):
        g = random_connected_graph(rng.randint(3, 7), rng.uniform(0.3, 0.9), rng)
        dm = all_pairs_distances(g)
        tp = twin_partition(g)
        k = rng.randint(1, max(1, dm.diameter))
        landmarks = set(rng.sample(range(g.n), rng.randint(1, g.n)))
        if is_resolving(dm, k, landmarks).ok:
            for cls in tp.classes_of_size(2):
                for i, u in enumerate(cls):
                    for w in cls[i + 1:]:
                        assert landmarks & {u, w}


def test_dimension_monotone_and_stabilizes():
    rng = random.Random(2718)
    for _ in range(40):
        g = random_connected_graph(rng.randint(2, 7), rng.uniform(0.3, 0.8), rng)
        dm = all_pairs_distances(g)
        top = max(1, dm.diameter - 1)
        dims = [metric_dimension_k(dm, k).value for k in range(1, top + 2)]
        assert dims == sorted(dims, reverse=True)
        assert dims[-1] == dims[-2] if len(dims) >= 2 else True


def test_minimal_masks_subset_free():
    rng = random.Random(99)
    for _ in range(30):
        g = random_connected_graph(rng.randint(3, 7), rng.uniform(0.3, 0.8), rng)
        dm = all_pairs_distances(g)
        k = rng.randint(1, max(1, dm.diameter))
        masks = minimal_pair_masks(dm, k)
        for i, m in enumerate(masks):
            for j, other in enumerate(masks):
                assert i == j or other & ~m != 0


def test_gap_conditions_imply_resolving_cycles_up_to_15():
    rng = random.Random(77)
    confirmed = 0
    for n in range(5, 16):
        g = gen_family(FamilySpec.make("cycle", n=n))
        dm = all_pairs_distances(g)
        for k in (1, 2, 3):
            if n < 2 * k + 3:
                continue
            for _ in range(20):
                marks = rng.sample(range(n), rng.randint(1, n - 1))
                if cycle_gap_check(GapProfile.from_landmarks(n, marks), k):
                    confirmed += 1
                    assert is_resolving(dm, k, marks).ok
    assert confirmed >= 200
