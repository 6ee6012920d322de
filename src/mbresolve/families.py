"""Graph family generators, closed-form outcome predictors, tree classification.

Every generator documents its vertex labeling through Graph.labels so named
vertices map to fixed integer ids.  Predictors return the set of outcome
symbols the closed form allows (usually a singleton); instances with no
closed form raise NotCoveredError.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator

from .errors import (
    DisconnectedError,
    FamilyParameterError,
    InvariantError,
    NotATreeError,
    NotCoveredError,
    TreeHypothesisError,
)
from .game import OutcomeSymbol
from .graph import Graph, all_pairs_distances, build_graph
from .resolve import pair_resolver_set

B, N, M = OutcomeSymbol.B, OutcomeSymbol.N, OutcomeSymbol.M


@dataclass(frozen=True)
class FamilySpec:
    """A family name plus its integer (or integer-tuple) parameters."""

    family: str
    params: tuple[tuple[str, object], ...] = ()

    @classmethod
    def make(cls, family: str, **params) -> "FamilySpec":
        return cls(family=family, params=tuple(sorted(params.items())))

    def get(self, name: str, default=None):
        for key, value in self.params:
            if key == name:
                return value
        return default

    def describe(self) -> str:
        if not self.params:
            return self.family
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.family}({inner})"


def _int_param(spec: FamilySpec, name: str, minimum: int) -> int:
    value = spec.get(name)
    if not isinstance(value, int) or value < minimum:
        raise FamilyParameterError(f"{spec.family} needs integer {name} >= {minimum}, got {value!r}")
    return value


# -- generators ---------------------------------------------------------------


def _gen_path(spec: FamilySpec) -> Graph:
    n = _int_param(spec, "n", 1)
    return build_graph(n, [(i, i + 1) for i in range(n - 1)], labels=[f"v{i + 1}" for i in range(n)])


def _gen_cycle(spec: FamilySpec) -> Graph:
    n = _int_param(spec, "n", 3)
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)], labels=[f"u{i + 1}" for i in range(n)])


def _gen_complete(spec: FamilySpec) -> Graph:
    n = _int_param(spec, "n", 1)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return build_graph(n, edges, labels=[f"v{i + 1}" for i in range(n)])


def _gen_star(spec: FamilySpec) -> Graph:
    beta = _int_param(spec, "beta", 1)
    return build_graph(
        beta + 1,
        [(0, i) for i in range(1, beta + 1)],
        labels=["c"] + [f"l{i}" for i in range(1, beta + 1)],
    )


def _multipartite_parts(spec: FamilySpec) -> tuple[int, ...]:
    parts = spec.get("parts")
    if (
        not isinstance(parts, tuple)
        or len(parts) < 2
        or not all(isinstance(a, int) and a >= 1 for a in parts)
    ):
        raise FamilyParameterError(f"multipartite needs a tuple of >= 2 part sizes >= 1, got {parts!r}")
    return parts


def _gen_multipartite(spec: FamilySpec) -> Graph:
    parts = _multipartite_parts(spec)
    offsets = [0]
    for a in parts:
        offsets.append(offsets[-1] + a)
    n = offsets[-1]
    edges = []
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            for u in range(offsets[i], offsets[i + 1]):
                for v in range(offsets[j], offsets[j + 1]):
                    edges.append((u, v))
    labels = [f"p{i + 1}_{j + 1}" for i, a in enumerate(parts) for j in range(a)]
    return build_graph(n, edges, labels=labels)


def _gen_wheel(spec: FamilySpec) -> Graph:
    n = _int_param(spec, "n", 3)
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, n) for i in range(n)]
    return build_graph(n + 1, edges, labels=[f"u{i + 1}" for i in range(n)] + ["hub"])


def _gen_petersen(spec: FamilySpec) -> Graph:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))          # outer 5-cycle
        edges.append((5 + i, 5 + (i + 2) % 5))  # inner pentagram
        edges.append((i, 5 + i))                # spokes
    labels = [f"o{i}" for i in range(5)] + [f"i{i}" for i in range(5)]
    return build_graph(10, edges, labels=labels)


def _subdivided_star(alpha: int, direct: int) -> Graph:
    # star on alpha leaves with all but `direct` edges subdivided once: hub 0;
    # subdivision vertices s_i = i (i in 1..alpha-direct) carrying leaf
    # l_i = alpha-direct+i; the last `direct` leaves hang on the hub directly
    subdivided = alpha - direct
    edges = []
    for i in range(1, subdivided + 1):
        edges += [(0, i), (i, subdivided + i)]
    edges += [(0, leaf) for leaf in range(2 * subdivided + 1, subdivided + alpha + 1)]
    labels = ["v"] + [f"s{i}" for i in range(1, subdivided + 1)] + [f"l{i}" for i in range(1, alpha + 1)]
    return build_graph(1 + subdivided + alpha, edges, labels=labels)


def _gen_thm_a(spec: FamilySpec) -> Graph:
    return _subdivided_star(_int_param(spec, "alpha", 3), direct=2)


def _gen_thm_b(spec: FamilySpec) -> Graph:
    return _subdivided_star(_int_param(spec, "alpha", 4), direct=3)


def _gen_thm_d(spec: FamilySpec) -> Graph:
    # 3-vertex spine, two leaves per spine vertex
    edges = [(0, 1), (1, 2)]
    labels = ["v1", "v2", "v3"]
    for i in range(3):
        a, b = 3 + 2 * i, 4 + 2 * i
        edges += [(i, a), (i, b)]
        labels += [f"l{i + 1}", f"l{i + 1}p"]
    return build_graph(9, edges, labels=labels)


def _leafy_spine(alpha: int, last_leaves: int) -> Graph:
    # alpha-vertex spine; two leaves per spine vertex, last_leaves on the last
    edges = [(i, i + 1) for i in range(alpha - 1)]
    labels = [f"v{i + 1}" for i in range(alpha)]
    nxt = alpha
    for i in range(alpha):
        leaves = last_leaves if i == alpha - 1 else 2
        for tag in "abc"[:leaves]:
            edges.append((i, nxt))
            labels.append(f"l{i + 1}{tag}")
            nxt += 1
    return build_graph(nxt, edges, labels=labels)


def _gen_thm_e(spec: FamilySpec) -> Graph:
    return _leafy_spine(_int_param(spec, "alpha", 3), last_leaves=3)


def _gen_thm_f(spec: FamilySpec) -> Graph:
    return _leafy_spine(_int_param(spec, "alpha", 4), last_leaves=2)


def _gen_fig1(spec: FamilySpec) -> Graph:
    # alpha branches on a spine; branch i carries paired leaves l_i,l_i',
    # paired supports s_i,s_i' and a hub x_i joining both supports; every hub
    # meets a shared vertex y whose pendant is z
    alpha = _int_param(spec, "alpha", 2)
    edges = []
    labels = []
    for i in range(alpha):
        base = 6 * i
        v, l1, l2, s1, s2, x = base, base + 1, base + 2, base + 3, base + 4, base + 5
        labels += [f"v{i + 1}", f"l{i + 1}", f"l{i + 1}p", f"s{i + 1}", f"s{i + 1}p", f"x{i + 1}"]
        edges += [(v, l1), (v, l2), (v, s1), (v, s2), (s1, x), (s2, x)]
        if i + 1 < alpha:
            edges.append((v, v + 6))
        edges.append((x, 6 * alpha))
    y, z = 6 * alpha, 6 * alpha + 1
    labels += ["y", "z"]
    edges.append((y, z))
    g = build_graph(6 * alpha + 2, edges, labels=labels)
    _check_fig1_structure(g, alpha)
    return g


def _check_fig1_structure(g: Graph, alpha: int) -> None:
    # guard against a mislabeled construction: each branch's second
    # leaf/support pair must be separated by exactly {pair, hub} at k=1,
    # plus y at k=2, plus z from k=3 on
    dm = all_pairs_distances(g)
    y, z = 6 * alpha, 6 * alpha + 1
    for i in range(alpha):
        l2, s2, x = 6 * i + 2, 6 * i + 4, 6 * i + 5
        if not (
            pair_resolver_set(dm, 1, l2, s2) == {l2, s2, x}
            and pair_resolver_set(dm, 2, l2, s2) == {l2, s2, x, y}
            and pair_resolver_set(dm, 3, l2, s2) >= {l2, s2, x, y, z}
        ):
            raise InvariantError(f"fig1(alpha={alpha}) branch {i + 1} has the wrong pair resolvers")


# -- outcome predictors --------------------------------------------------------


def _multipartite_symbol(parts: tuple[int, ...]) -> OutcomeSymbol:
    singles = sum(1 for a in parts if a == 1)
    if singles >= 4 or max(parts) >= 4:
        return B
    threes = sum(1 for a in parts if a == 3)
    if threes >= 2:
        return B
    if singles == 3:
        return B if threes == 1 else N
    if threes == 1:
        return N
    return M


def _predict_cycle(spec: FamilySpec, k: int) -> frozenset[OutcomeSymbol]:
    n = _int_param(spec, "n", 3)
    if n == 3:
        return frozenset({N})
    if n % 2 == 0 or k >= 2:
        return frozenset({M})
    # k == 1, odd n: verified for n in {5,7,9}; larger n has no closed form
    if n <= 9:
        return frozenset({M})
    raise NotCoveredError(f"level-1 outcome on the odd cycle of order {n} has no confirmed closed form")


def _predict_wheel(spec: FamilySpec, k: int) -> frozenset[OutcomeSymbol]:
    """Outcome of the wheel W_n (rim C_n plus a hub) at level k.

    W_n has diameter at most 2, so level 1 is its only level.  Lemma: for
    n >= 7 its level-1 minimal masks are C_n's, and the hub lies in none
    (tests/test_resolve.py checks this for rims 7..25).  Rim distances in
    W_n are min(d_C, 2), C_n's own at level 1, and the hub, at distance 1
    from every rim vertex, resolves no rim pair; so a rim pair has C_n's
    mask.  The mask of the hub and a rim vertex x holds the n - 3 rim
    vertices from x + 2 round to x - 2, and for n >= 7 four consecutive
    ones among them, the C_n mask of the middle two; so it is not minimal.
    A vertex in no minimal mask is dead: claiming it is a pass, which never
    helps its owner.  So W_n has C_n's level-1 outcome, and this defers to
    the cycle's closed form.  Odd rims from 11 up have none, and keep the
    bound {M, N}.
    """
    n = _int_param(spec, "n", 3)
    if n == 3:
        return frozenset({B})
    if n <= 6:
        return frozenset({M})
    try:
        return _predict_cycle(FamilySpec.make("cycle", n=n), 1)
    except NotCoveredError:
        return frozenset({M, N})


def _parts(spec: FamilySpec) -> tuple[int, ...] | None:
    """Part sizes of a complete multipartite family (stars and complete graphs too), else None."""
    if spec.family == "multipartite":
        return _multipartite_parts(spec)
    if spec.family == "star":
        return (1, _int_param(spec, "beta", 1))
    if spec.family == "complete":
        n = _int_param(spec, "n", 1)
        if n == 1:
            raise NotCoveredError("single-vertex graph has no closed form")
        return (1,) * n
    return None


def _predict_parts(spec: FamilySpec, k: int) -> frozenset[OutcomeSymbol]:
    return frozenset({_multipartite_symbol(_parts(spec))})


def _predict_petersen(spec: FamilySpec, k: int) -> frozenset[OutcomeSymbol]:
    return frozenset({M})


def _steps(k: int, at_1: OutcomeSymbol, later: OutcomeSymbol, at_2: OutcomeSymbol | None = None):
    if k == 1:
        return frozenset({at_1})
    if at_2 is not None and k == 2:
        return frozenset({at_2})
    return frozenset({later})


PREDICTORS: dict[str, Callable[[FamilySpec, int], frozenset[OutcomeSymbol]]] = {
    "cycle": _predict_cycle,
    "complete": _predict_parts,
    "star": _predict_parts,
    "multipartite": _predict_parts,
    "wheel": _predict_wheel,
    "petersen": _predict_petersen,
    "thm_a": lambda spec, k: frozenset({M}),
    "thm_b": lambda spec, k: frozenset({N}),
    "thm_d": lambda spec, k: _steps(k, N, M),
    "thm_e": lambda spec, k: _steps(k, B, N),
    "thm_f": lambda spec, k: _steps(k, B, M),
    "fig1": lambda spec, k: _steps(k, B, M, at_2=N),
}

GENERATORS: dict[str, Callable[[FamilySpec], Graph]] = {
    "path": _gen_path,
    "cycle": _gen_cycle,
    "complete": _gen_complete,
    "star": _gen_star,
    "multipartite": _gen_multipartite,
    "wheel": _gen_wheel,
    "petersen": _gen_petersen,
    "thm_a": _gen_thm_a,
    "thm_b": _gen_thm_b,
    "thm_d": _gen_thm_d,
    "thm_e": _gen_thm_e,
    "thm_f": _gen_thm_f,
    "fig1": _gen_fig1,
}

def family_names() -> tuple[str, ...]:
    return tuple(sorted(GENERATORS))


def gen_family(spec: FamilySpec) -> Graph:
    gen = GENERATORS.get(spec.family)
    if gen is None:
        raise FamilyParameterError(f"unknown family {spec.family!r}; known: {', '.join(family_names())}")
    return gen(spec)


def predict_outcome(spec: FamilySpec, k: int) -> frozenset[OutcomeSymbol]:
    """Closed-form outcome symbols for a covered family instance at level k."""
    if k < 1:
        raise ValueError(f"truncation parameter k must be >= 1, got {k}")
    predictor = PREDICTORS.get(spec.family)
    if predictor is None:
        raise NotCoveredError(f"family {spec.family!r} has no closed-form outcome")
    return predictor(spec, k)


def predicted_counts(spec: FamilySpec, k: int, dim_value: int | None = None) -> dict[str, int] | None:
    """Known exact move counts for the few families with closed forms."""
    if spec.family == "petersen":
        return {"mrk": 3, "mprime_rk": 3}
    parts = _parts(spec)
    if parts is None:
        return None
    symbol = _multipartite_symbol(parts)
    if symbol is B:
        return {"brk": 2, "bprime_rk": 2}
    if dim_value is None:
        return None
    if symbol is M:
        return {"mrk": dim_value, "mprime_rk": dim_value}
    return {"nrk": dim_value, "nprime_rk": 2}


# -- tree classification --------------------------------------------------------


@dataclass(frozen=True)
class TreeProfile:
    """Exterior major vertices grouped by terminal degree, plus eligibility flags."""

    m2: tuple[int, ...]
    m3: tuple[int, ...]
    m4: tuple[int, ...]  # terminal degree >= 4
    has_degree_two_vertex: bool
    has_zero_terminal_major: bool
    is_path: bool

    @property
    def eligible(self) -> bool:
        return not (self.is_path or self.has_degree_two_vertex or self.has_zero_terminal_major)


def classify_tree(g: Graph) -> TreeProfile:
    """Terminal-degree profile of a tree's major (degree >= 3) vertices."""
    if not g.is_tree():
        raise NotATreeError(f"graph with {g.edge_count} edges on {g.n} vertices is not a tree")
    degrees = [g.degree(v) for v in range(g.n)]
    majors = [v for v in range(g.n) if degrees[v] >= 3]
    leaves = [v for v in range(g.n) if degrees[v] == 1]
    dm = all_pairs_distances(g)
    ter = {v: 0 for v in majors}
    for leaf in leaves:
        if majors:
            closest = min(majors, key=lambda v: dm.dist[leaf][v])
            # in a tree the first major vertex on the walk from a leaf is
            # strictly closer than every other major vertex
            ter[closest] += 1
    buckets: dict[int, list[int]] = {2: [], 3: [], 4: []}
    for v in majors:
        t = min(ter[v], 4)
        if t >= 2:
            buckets[t].append(v)
    return TreeProfile(
        m2=tuple(buckets[2]),
        m3=tuple(buckets[3]),
        m4=tuple(buckets[4]),
        has_degree_two_vertex=any(d == 2 for d in degrees),
        has_zero_terminal_major=any(t == 0 for t in ter.values()),
        is_path=all(d <= 2 for d in degrees),
    )


def predict_tree_outcome(tp: TreeProfile, k: int) -> OutcomeSymbol:
    """Closed-form outcome for trees whose vertices are all leaves or exterior majors."""
    if k < 1:
        raise ValueError(f"truncation parameter k must be >= 1, got {k}")
    if not tp.eligible:
        raise TreeHypothesisError(
            "tree must avoid degree-two vertices and zero-terminal majors, and not be a path"
        )
    m2, m3, m4 = len(tp.m2), len(tp.m3), len(tp.m4)
    if m4 >= 1 or m3 >= 2:
        return B
    if m3 == 1:
        if k >= 2:
            return N
        return N if m2 <= 1 else B
    # no majors of terminal degree >= 3; eligibility forces m2 >= 2
    if k >= 2:
        return M
    if m2 == 2:
        return M
    if m2 == 3:
        return N
    return B


# -- enumeration and sampling helpers -------------------------------------------


def all_free_trees(n: int) -> Iterator[Graph]:
    """All free trees on n vertices, one per isomorphism class."""
    if n < 1:
        raise ValueError(f"tree order must be >= 1, got {n}")
    if n == 1:
        yield build_graph(1, [])
        return
    if n == 2:
        yield build_graph(2, [(0, 1)])
        return
    import networkx as nx  # imported here so that importing mbresolve does not load it

    for t in nx.nonisomorphic_trees(n):
        yield build_graph(n, list(t.edges()))


def connected_graph_atlas(max_n: int = 7, min_n: int = 1) -> list[Graph]:
    """All connected graphs with min_n <= order <= max_n, one per isomorphism class."""
    if not 1 <= min_n <= max_n <= 7:
        raise ValueError("atlas covers orders 1..7")
    import networkx as nx  # imported here so that importing mbresolve does not load it

    out = []
    for ag in nx.generators.atlas.graph_atlas_g():
        n = ag.number_of_nodes()
        if min_n <= n <= max_n and nx.is_connected(ag):
            out.append(build_graph(n, list(ag.edges())))
    return out


def random_connected_graph(n: int, p: float, rng: random.Random) -> Graph:
    """Uniform edge sampling with retry until connected; seeded and deterministic."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for _ in range(200):
        edges = [e for e in pairs if rng.random() < p]
        try:
            return build_graph(n, edges)
        except DisconnectedError:
            continue
    # dense fallback keeps the helper total for tiny p
    perm = list(range(n))
    rng.shuffle(perm)
    path = [(min(u, v), max(u, v)) for u, v in zip(perm, perm[1:])]
    # every pair still draws, so the sample is the same; a path edge drawn again is not added twice
    edges = path + [e for e in pairs if rng.random() < p and e not in path]
    return build_graph(n, edges)
