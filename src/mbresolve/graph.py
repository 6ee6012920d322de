"""Immutable graph core: construction, BFS distances, the truncated metric, twin classes.

Vertices are dense integers 0..n-1.  Graphs are simple, undirected and
connected; connectivity is checked at construction time.  All structures here
are frozen and safe to share between threads.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass
from enum import Enum

from .errors import DisconnectedError, LoopEdgeError, VertexRangeError

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Graph:
    """Simple connected undirected graph on vertices 0..n-1."""

    n: int
    edges: frozenset[tuple[int, int]]
    adjacency: tuple[frozenset[int], ...]
    labels: tuple[str, ...] | None = None

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> frozenset[int]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def is_tree(self) -> bool:
        # connectivity is a construction invariant
        return len(self.edges) == self.n - 1


def build_graph(n: int, edges, labels=None) -> Graph:
    """Validate and build a Graph; duplicate edges are dropped with a log line."""
    if n < 1:
        raise VertexRangeError(f"vertex count must be >= 1, got {n}")
    seen: set[tuple[int, int]] = set()
    adjacency: list[set[int]] = [set() for _ in range(n)]
    duplicates = 0
    for u, v in edges:
        if u == v:
            raise LoopEdgeError(f"loop edge at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise VertexRangeError(f"edge ({u},{v}) outside 0..{n - 1}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            duplicates += 1
            continue
        seen.add(key)
        adjacency[u].add(v)
        adjacency[v].add(u)
    if duplicates:
        log.warning("dropped %d duplicate edge(s)", duplicates)
    _check_connected(n, adjacency)
    if labels is not None:
        labels = tuple(str(x) for x in labels)
        if len(labels) != n:
            raise VertexRangeError(f"expected {n} labels, got {len(labels)}")
    return Graph(
        n=n,
        edges=frozenset(seen),
        adjacency=tuple(frozenset(a) for a in adjacency),
        labels=labels,
    )


def _check_connected(n: int, adjacency) -> None:
    reached = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for w in adjacency[u]:
            if w not in reached:
                reached.add(w)
                queue.append(w)
    if len(reached) != n:
        missing = sorted(set(range(n)) - reached)
        raise DisconnectedError(f"graph is disconnected; unreachable from 0: {missing}")


@dataclass(frozen=True)
class DistanceMatrix:
    """All-pairs hop counts with the graph diameter."""

    n: int
    dist: tuple[tuple[int, ...], ...]
    diameter: int

    def __getitem__(self, uv: tuple[int, int]) -> int:
        u, v = uv
        return self.dist[u][v]

    @property
    def stable_level(self) -> int:
        """Least level k from which truncation changes nothing: max(1, diameter - 1).

        At k = diameter - 1 the cap k + 1 already equals the diameter, so
        every distance stays distinct and resolving sets, dimensions and game
        outcomes no longer depend on k.
        """
        return max(1, self.diameter - 1)


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    """BFS from every vertex; exact hop counts."""
    rows = []
    diameter = 0
    for s in range(g.n):
        row = [-1] * g.n
        row[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            du = row[u]
            for w in g.adjacency[u]:
                if row[w] < 0:
                    row[w] = du + 1
                    queue.append(w)
        diameter = max(diameter, max(row))
        rows.append(tuple(row))
    return DistanceMatrix(n=g.n, dist=tuple(rows), diameter=diameter)


def truncated_distance(dm: DistanceMatrix, k: int, u: int, v: int) -> int:
    """min(d(u,v), k+1): distances beyond k are indistinguishable."""
    if k < 1:
        raise ValueError(f"truncation parameter k must be >= 1, got {k}")
    d = dm.dist[u][v]
    return d if d <= k else k + 1


class TwinClassKind(Enum):
    SINGLETON = "singleton"
    CLIQUE = "clique"
    INDEPENDENT = "independent"


@dataclass(frozen=True)
class TwinPartition:
    """Partition of V into twin classes, each tagged clique/independent/singleton."""

    classes: tuple[tuple[int, ...], ...]
    kinds: tuple[TwinClassKind, ...]

    def classes_of_size(self, minimum: int) -> tuple[tuple[int, ...], ...]:
        return tuple(c for c in self.classes if len(c) >= minimum)


def are_twins(g: Graph, u: int, w: int) -> bool:
    """True iff N(u)-{w} = N(w)-{u}."""
    return (g.adjacency[u] - {w}) == (g.adjacency[w] - {u})


def twin_partition(g: Graph) -> TwinPartition:
    """Group vertices by the twin equivalence relation.

    Nonadjacent twins share an open neighbourhood and adjacent twins a closed
    one; no vertex has a twin of each kind, so the nontrivial groups of the
    two kinds are disjoint.
    """
    groups: dict[tuple[TwinClassKind, frozenset[int]], list[int]] = {}
    for v in range(g.n):
        groups.setdefault((TwinClassKind.INDEPENDENT, g.adjacency[v]), []).append(v)
        groups.setdefault((TwinClassKind.CLIQUE, g.adjacency[v] | {v}), []).append(v)
    kind_of = {tuple(c): kind for (kind, _), c in groups.items() if len(c) > 1}
    paired = {v for c in kind_of for v in c}
    kind_of.update({(v,): TwinClassKind.SINGLETON for v in range(g.n) if v not in paired})
    classes = tuple(sorted(kind_of))
    return TwinPartition(classes=classes, kinds=tuple(kind_of[c] for c in classes))


# individualisations one orbit search may run; past the bound it returns the orbits found so far
_ORBIT_SEARCH_NODES = 2_000


def _vertex_orbits(g: Graph, dm: DistanceMatrix, twin_masks, fixed: int = -1) -> tuple[tuple[int, ...], bool]:
    """Orbits of a subgroup of Aut(g) that fixes the vertex fixed (-1: none), and whether it is all of it.

    Returns one bitmask per vertex, the orbit that holds it.  The search
    works on a collapsed graph, where each vertex stands for a module whose
    vertices any automorphism of the module's parts may permute:

    - twin_masks are g's twin classes as bitmasks; swapping two twins is an
      automorphism, so each class, fixed split off, is collapsed to one
      vertex, coloured by its size and kind, its distance row's sum and its
      distance to the fixed vertex;
    - classes of one colour that are twins once collapsed (the same
      neighbours outside the two), as the equal parts of a complete
      multipartite graph are, are collapsed once more, coloured by their
      number and kind.

    Individualising a collapsed vertex splits every colour by the distance
    to it, so individualising along a base makes every colour distinct.  A
    backtracking search over the images of the base then finds, level by
    level from the deepest, an automorphism for each orbit of the base
    vertex not yet joined (McKay and Piperno, J. Symbolic Comput. 60, 2014).
    Each permutation is checked against g's edges before its orbits are
    joined, so the result is exact whatever the search finds.  The search
    stops after _ORBIT_SEARCH_NODES individualisations; the orbits found by
    then are finer, still exact, and the flag is False.
    """
    n = g.n
    dist = dm.dist
    split = 1 << fixed if fixed >= 0 else 0
    classes = []
    covered = 0
    for twins in twin_masks:
        twins &= ~split
        if twins & (twins - 1):
            classes.append(twins)
            covered |= twins
    classes += [1 << v for v in range(n) if not covered >> v & 1]
    lows = [(c & -c).bit_length() - 1 for c in classes]
    width = n + 1  # more than any distance or class size
    keys = []
    for c, v in zip(classes, lows):
        row = dist[v]
        twin = c ^ (1 << v)
        clique = twin != 0 and row[(twin & -twin).bit_length() - 1] == 1
        keys.append(((sum(row) * width + (row[fixed] if fixed >= 0 else 0)) * width + c.bit_count()) * 2 + clique)
    by_key: dict[int, list[int]] = {}
    for j, key in enumerate(keys):
        by_key.setdefault(key, []).append(j)
    groups = []  # lists of class indices, each a module collapsed to one vertex
    for same in by_key.values():
        if len(same) == 1:
            groups.append(same)
            continue
        near = {j: sum(1 << w for w in g.adjacency[lows[j]]) for j in same}
        local: list[list[int]] = []
        for j in same:
            for group in local:
                first = group[0]
                if not (near[first] ^ near[j]) & ~(classes[first] | classes[j]):
                    group.append(j)
                    break
            else:
                local.append([j])
        groups += local
    colours = _ranks([
        (keys[group[0]] * width + len(group)) * 2 + (len(group) > 1 and lows[group[1]] in g.adjacency[lows[group[0]]])
        for group in groups
    ])
    modules = [sum(classes[j] for j in group) for group in groups]  # the classes are disjoint
    if len(set(colours)) == len(colours):
        return _per_vertex(n, modules, range(len(modules))), True
    search = _OrbitSearch(g, dist, [lows[group[0]] for group in groups], [
        [v for j in group for v in range(lows[j], classes[j].bit_length()) if classes[j] >> v & 1] for group in groups
    ], fixed)
    roots = search.run(colours)
    return _per_vertex(n, modules, roots), not search.exhausted


def _per_vertex(n: int, modules: list[int], roots) -> tuple[int, ...]:
    """Each vertex's orbit, from the modules and the orbit root of each."""
    orbits: dict[int, int] = {}
    for module, root in zip(modules, roots):
        orbits[root] = orbits.get(root, 0) | module
    per_vertex = [0] * n
    for module, root in zip(modules, roots):
        orbit = orbits[root]
        while module:
            low = module & -module
            per_vertex[low.bit_length() - 1] = orbit
            module ^= low
    return tuple(per_vertex)


def _ranks(signatures: list) -> list[int]:
    """Each signature's rank among the distinct ones."""
    names = {s: i for i, s in enumerate(sorted(set(signatures)))}
    return [names[s] for s in signatures]


class _OrbitSearch:
    """The backtracking search of _vertex_orbits over the collapsed graph; see there."""

    def __init__(self, g: Graph, dist, reps: list[int], members: list[list[int]], fixed: int):
        self.g = g
        self.dist = dist
        self.reps = reps  # a vertex of each module, whose distances to the other modules are its members'
        self.members = members  # each module's vertices, class by class, in the order an image keeps
        self.fixed = fixed
        self.width = g.n  # more than any distance
        self.individualised = 0
        self.exhausted = False
        # the first path: (colouring, target colour, base vertex) per level, and each level's sorted colours
        self.path: list[tuple[list[int], int, int]] = []
        self.sizes: list[list[int]] = []
        self.leaf = [0] * len(reps)  # colour -> module at the first path's leaf
        self.parent = list(range(len(reps)))  # union-find of the orbits joined so far

    def individualise(self, colours: list[int], v: int) -> list[int]:
        """Each colour split by the distance to v, which gets a colour of its own."""
        self.individualised += 1
        row, width = self.dist[self.reps[v]], self.width
        return _ranks([c * width + row[w] for c, w in zip(colours, self.reps)])

    def run(self, colours: list[int]) -> list[int]:
        """Each module's orbit root after the search from the given colouring."""
        m = len(self.reps)
        # the first path: individualise the first vertex of the lowest colour shared by several
        while True:
            ordered = sorted(colours)
            self.sizes.append(ordered)
            target = next((c for c, d in zip(ordered, ordered[1:]) if c == d), None)
            if target is None:
                break
            base = colours.index(target)
            self.path.append((colours, target, base))
            colours = self.individualise(colours, base)
        for j, c in enumerate(colours):
            self.leaf[c] = j
        # deepest level first, so the automorphisms found below prune the levels above
        for depth in reversed(range(len(self.path))):
            colours, target, base = self.path[depth]
            for w in range(m):
                if colours[w] != target or self.find(w) == self.find(base):
                    continue
                image = self.extend(colours, w, depth)
                if self.exhausted:
                    break
                if image is not None:
                    for j, i in enumerate(image):
                        self.parent[self.find(j)] = self.find(i)
        return [self.find(j) for j in range(m)]

    def find(self, j: int) -> int:
        parent = self.parent
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        return j

    def extend(self, colours: list[int], v: int, depth: int) -> list[int] | None:
        """An automorphism that fixes the first depth base vertices and maps the next one to v, or None.

        It maps the first path's leaf onto a leaf below v; each level tries
        every vertex of the first path's target colour.
        """
        if self.individualised >= _ORBIT_SEARCH_NODES:
            self.exhausted = True
            return None
        colours = self.individualise(colours, v)
        depth += 1
        if sorted(colours) != self.sizes[depth]:
            return None  # no automorphism maps the first path's node at this depth here
        if depth == len(self.path):
            image = [0] * len(colours)
            for j, c in enumerate(colours):
                image[self.leaf[c]] = j
            return image if self.is_automorphism(image) else None
        target = self.path[depth][1]
        for x, c in enumerate(colours):
            if c == target:
                image = self.extend(colours, x, depth)
                if image is not None or self.exhausted:
                    return image
        return None

    def is_automorphism(self, image: list[int]) -> bool:
        """Does mapping each module onto its image's, vertex by vertex in order, keep every edge an edge?"""
        sigma = [0] * self.g.n
        for j, i in enumerate(image):
            source, dest = self.members[j], self.members[i]
            if len(source) != len(dest):
                return False
            for v, w in zip(source, dest):
                sigma[v] = w
        if self.fixed >= 0 and sigma[self.fixed] != self.fixed:
            return False
        # sigma is a bijection, so mapping the edges into the edge set maps them onto it
        adjacency = self.g.adjacency
        for u, v in self.g.edges:
            if sigma[v] not in adjacency[sigma[u]]:
                return False
        return True
