"""Immutable graph core: construction, BFS distances, the truncated metric, twin classes.

Vertices are dense integers 0..n-1.  Graphs are simple, undirected and
connected; connectivity is checked at construction time.  All structures here
are frozen and safe to share between threads.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from enum import Enum
from itertools import islice

from .errors import DisconnectedError, LoopEdgeError, VertexRangeError


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
    """Validate and build a Graph; duplicate edges are dropped with a log line.

    Fewer than n - 1 distinct edges cannot connect n vertices: that raises
    DisconnectedError before the n adjacency sets are allocated, so a huge n
    with a short edge list costs time and memory in the edges only.
    """
    if n < 1:
        raise VertexRangeError(f"vertex count must be >= 1, got {n}")
    seen: dict[tuple[int, int], None] = {}  # the distinct edges, in input order
    duplicates = 0
    for u, v in edges:
        if u == v:
            raise LoopEdgeError(f"loop edge at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise VertexRangeError(f"edge ({u},{v}) outside 0..{n - 1}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            duplicates += 1
        else:
            seen[key] = None
    if duplicates:
        import logging  # here, not at module level: solving never needs it, and it costs start-up time

        logging.getLogger(__name__).warning("dropped %d duplicate edge(s)", duplicates)
    # too few edges: sets for the vertices they touch are enough to name the unreachable ones
    adjacency = [set() for _ in range(n)] if len(seen) >= n - 1 else defaultdict(set)
    for u, v in seen:
        adjacency[u].add(v)
        adjacency[v].add(u)
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
    """Raise DisconnectedError unless BFS from 0 reaches every vertex; names at most ten unreachable ones."""
    reached = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for w in adjacency[u]:
            if w not in reached:
                reached.add(w)
                queue.append(w)
    if len(reached) != n:
        first = list(islice((v for v in range(n) if v not in reached), 10))
        raise DisconnectedError(f"graph is disconnected; {n - len(reached)} vertices unreachable from 0, "
                                f"the first {len(first)}: {first}")


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


# extension steps shared by the searches of one _vertex_orbits call; past it, the orbits found so far are returned
_ORBIT_SEARCH_NODES = 2_000


def _vertex_orbits(dm: DistanceMatrix, twin_masks, fixed: int = -1) -> tuple[int, ...]:
    """Orbits of a subgroup of Aut(g) that fixes the vertex fixed (-1: none), for the graph g of dm.

    Returns one bitmask per vertex, the orbit that holds it.  twin_masks are
    g's twin classes as bitmasks, such as each vertex's own class (a class
    may repeat, and a one-vertex class changes nothing); swapping two twins
    is an automorphism, so each class, fixed split off, starts as one orbit,
    and the searches map only its lowest vertex, its representative.  Twins
    keep every distance to the other vertices, and two twins lie at distance
    1 (adjacent) or 2 (not), so a map of the representatives that keeps
    their distances and sends each class to one of equal size and kind
    extends, class by class, to a permutation that keeps every distance;
    every automorphism that fixes fixed gives such a map.  Representatives
    are coloured by their distance-row sum, their distance to the fixed
    vertex, and their class's size and kind, which every such automorphism
    keeps.  Within a colour, each representative not yet joined to an
    earlier orbit is the target of a search from each earlier orbit's first
    vertex: a backtracking search for a map of the representatives that
    keeps their distances and colours, maps that first vertex to the target
    and fixes the fixed vertex.  A permutation that keeps every distance
    keeps every edge, so each map found is an automorphism's, and its cycles
    are joined.  All the searches share _ORBIT_SEARCH_NODES extension steps;
    past the bound the orbits found by then are finer, and still exact.
    """
    n = dm.n
    dist = dm.dist
    parent = list(range(n))  # union-find of the orbits joined so far

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    split = 1 << fixed if fixed >= 0 else 0
    reps = (1 << n) - 1  # each twin class's lowest vertex, fixed split off
    kind = [(1, 0)] * n  # a representative's class size and the distance between two of its vertices
    for twins in twin_masks:
        twins &= ~split
        first = (twins & -twins).bit_length() - 1
        others = twins & (twins - 1)
        reps &= ~others
        if others:
            kind[first] = (twins.bit_count(), dist[first][(others & -others).bit_length() - 1])
        for v in range(first + 1, twins.bit_length()):
            if twins >> v & 1:
                parent[v] = first
    rep_list = [v for v in range(n) if reps >> v & 1]
    keys = {v: (sum(dist[v]), dist[v][fixed] if fixed >= 0 else 0, kind[v]) for v in rep_list}
    colours: dict[tuple, int] = {}
    for v, key in keys.items():
        colours[key] = colours.get(key, 0) | 1 << v
    colour_of = {v: colours[key] for v, key in keys.items()}
    at = {}  # at[v][d]: the representatives at distance d from the representative v
    for v in rep_list:
        row = dist[v]
        at[v] = by_distance = [0] * (dm.diameter + 1)
        for w in rep_list:
            by_distance[row[w]] |= 1 << w
    steps = [_ORBIT_SEARCH_NODES]
    image = list(range(n))  # the fixed vertex keeps its own image
    for colour in colours.values():
        firsts: list[int] = []  # each orbit's first vertex in this colour
        while colour and steps[0] >= 0:
            low = colour & -colour
            colour ^= low
            v = low.bit_length() - 1
            if any(find(first) == find(v) for first in firsts):
                continue
            for first in firsts:
                open_images = {x: colour_of[x] for x in rep_list if x != first and x != fixed}
                if _extend(dist, at, image, steps, first, v, open_images):
                    for x in rep_list:
                        parent[find(x)] = find(image[x])
                    break
            else:
                firsts.append(v)
    orbits: dict[int, int] = {}
    for v in range(n):
        orbits[find(v)] = orbits.get(find(v), 0) | 1 << v
    return tuple(orbits[find(v)] for v in range(n))


def _extend(dist, at, image: list[int], steps: list[int], u: int, w: int, open_images: dict[int, int]) -> bool:
    """Map u to w, then each vertex of open_images to one of its open images, so that every distance is kept.

    The map goes into image.  steps holds the extension steps left, and is
    set to -1 when a search wants one more.
    """
    if steps[0] <= 0:
        steps[0] = -1
        return False
    steps[0] -= 1
    image[u] = w
    row, at_w = dist[u], at[w]
    narrowed = {}
    fewest = len(dist) + 1
    for y, images in open_images.items():
        images &= at_w[row[y]]  # never holds w itself, as row[y] > 0
        if not images:
            return False
        narrowed[y] = images
        if images.bit_count() < fewest:  # map the vertex with the fewest open images next
            x, fewest = y, images.bit_count()
    if not narrowed:
        return True
    images = narrowed.pop(x)
    while images and steps[0] >= 0:
        low = images & -images
        images ^= low
        if _extend(dist, at, image, steps, x, low.bit_length() - 1, narrowed):
            return True
    return False
