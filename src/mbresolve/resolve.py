"""Distance-k resolving machinery.

Resolving checks, pair-resolver sets, exact distance-k metric dimension,
pair systems (pairing / quasi-pairing) and the cycle gap conditions.

A landmark set S resolves at truncation k exactly when it intersects the
pair-resolver set R_k{x,y} of every vertex pair.  One cached table holds
those sets as bitmasks; the resolving check, the pair-resolver sets and the
minimal masks all read it, and the dimension is one hitting-set search over
the minimal masks.

The table is built from distance spheres, not from truncated rows: R_k{x,y}
is the union of the radius-k balls of x and y less the vertices at one
equal distance 1..k from both, since a vertex outside both balls sees both
distances truncated to k + 1.  Each vertex's spheres of radius 1..k are
packed into one int of n-bit blocks.  They are disjoint and miss the
centre, so their block sum is their union and stays below 2^n - 1, and
reducing modulo 2^n - 1 (which adds the blocks) folds them exactly: into
the ball less its centre, or, after ANDing two vertices' packed spheres,
into the equal-distance set.  One pair is then one big-int expression.

Four caches hold what several layers ask of one (dm, k) or one mask set, so
it is worked out once: _pair_table and minimal_pair_masks per (dm, k), and
per mask set _twin_masks, each vertex's twin class, and _root_cover, the
empty board's pair cover that the game solver and search_pair_system
share.  Each is an lru_cache of at most 256 entries.

Pair systems are classified on bitmasks by one routine, _classify, which
check_pair_system calls after validating its input and search_pair_system
calls on the covers it finds.

Quantifier note: a quasi-pairing system requires one fixed completion vertex
that works for every transversal (exists-v for-all-Z); the weaker for-all-Z
exists-v reading is deliberately not implemented.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import combinations, product
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    CycleTooSmallError,
    InvariantError,
    MBResolveError,
    PairsOverlapError,
    SameVertexError,
    SizeCapError,
    TooManyPairsError,
    VertexRangeError,
)
from .graph import DistanceMatrix

DEFAULT_SIZE_CAP = 18
MAX_PAIR_SYSTEM = 20
PAIR_SEARCH_NODES = 400


def _require_in_range(n: int, vertices: Iterable[int], what: str) -> None:
    outside = sorted(v for v in vertices if not 0 <= v < n)
    if outside:
        raise VertexRangeError(f"{what} outside 0..{n - 1}: {outside}")


def _require_size_cap(n: int, size_cap: int | None) -> None:
    """Raise SizeCapError for a graph of order n above size_cap (None: DEFAULT_SIZE_CAP), ValueError for a cap below 1."""
    cap = DEFAULT_SIZE_CAP if size_cap is None else size_cap
    if cap < 1:
        raise ValueError(f"size cap must be a positive integer, got {size_cap!r}")
    if n > cap:
        raise SizeCapError(n, cap)


@lru_cache(maxsize=256)
def _pair_table(dm: DistanceMatrix, k: int) -> Mapping[tuple[int, int], int]:
    """R_k{x,y} as a bitmask for every pair x < y, in lexicographic pair order (read-only).

    Truncation leaves z's two distances equal when both exceed k, and z then
    lies outside both radius-k balls.  So R_k{x,y} is B_k(x) | B_k(y) minus
    the z with d(x,z) = d(y,z) <= k.  The spheres of radius 1..k around x
    are packed into one int, sphere d as the n-bit block d - 1.  Since
    2^n = 1 modulo full = 2^n - 1, an int modulo full is the sum of its
    blocks modulo full.  The spheres of one vertex are disjoint and miss
    it, so their sum is their union and stays below full: the fold is
    exact, and gives the ball less its centre.  The packed spheres of x and
    y ANDed hold in block d - 1 the z with d(x,z) = d(y,z) = d; these blocks
    are parts of x's spheres, so they fold exactly too, into the z at one
    equal distance 1..k from both.
    """
    if k < 1:
        raise ValueError(f"truncation parameter k must be >= 1, got {k}")
    n = dm.n
    full = (1 << n) - 1
    spheres = []
    balls = []
    for x, row in enumerate(dm.dist):
        packed = 0
        for z, d in enumerate(row):
            if 0 < d <= k:
                packed |= 1 << (d - 1) * n + z
        spheres.append(packed)
        balls.append(packed % full | 1 << x)
    table = {}
    for x in range(n):
        ball, packed = balls[x], spheres[x]
        for y in range(x + 1, n):
            table[x, y] = (ball | balls[y]) & ~((packed & spheres[y]) % full)
    return MappingProxyType(table)


class ResolveCheck(NamedTuple):
    ok: bool
    unresolved: tuple[int, int] | None


def is_resolving(dm: DistanceMatrix, k: int, landmarks: Iterable[int]) -> ResolveCheck:
    """True iff the set hits every pair-resolver set; on failure, the least pair it misses."""
    table = _pair_table(dm, k)
    landmarks = set(landmarks)
    _require_in_range(dm.n, landmarks, "landmarks")
    set_mask = 0
    for v in landmarks:
        set_mask |= 1 << v
    for pair, m in table.items():
        if not m & set_mask:
            return ResolveCheck(False, pair)
    return ResolveCheck(True, None)


def pair_resolver_set(dm: DistanceMatrix, k: int, x: int, y: int) -> frozenset[int]:
    """Vertices whose truncated distance separates x from y."""
    if x == y:
        raise SameVertexError(f"pair must be two distinct vertices, got ({x},{y})")
    table = _pair_table(dm, k)
    _require_in_range(dm.n, (x, y), "pair vertices")
    m = table[min(x, y), max(x, y)]
    return frozenset(z for z in range(dm.n) if m >> z & 1)


@lru_cache(maxsize=256)
def minimal_pair_masks(dm: DistanceMatrix, k: int) -> tuple[int, ...]:
    """Inclusion-minimal pair-resolver sets as bitmasks, smallest first.

    A set S resolves at truncation k iff it intersects every one of these
    masks; the masks are also exactly the minimal vertex sets whose removal
    (capture by a blocker) makes resolution impossible.
    """
    ordered = sorted(sorted(set(_pair_table(dm, k).values())), key=int.bit_count)  # stable: by (size, value)
    minimal: list[int] = []
    for m in ordered:
        for kept in minimal:
            if not kept & ~m:
                break  # m holds a kept mask
        else:
            minimal.append(m)
    return tuple(minimal)


@lru_cache(maxsize=256)
def _twin_masks(masks: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Each vertex's twin class as a bitmask, the vertex alone when it has no twin.

    At every level the 2-masks are exactly the twin pairs: R_k{u,w} always
    holds u and w; it holds no other vertex when u and w are twins, whose
    swap keeps every other vertex's distances, and otherwise it holds a
    vertex adjacent to just one of them.  So a vertex's class is the OR of
    the 2-masks that hold it.
    """
    twins = [1 << v for v in range(n)]
    for m in masks:
        if m.bit_count() == 2:
            twins[m.bit_length() - 1] |= m
            twins[(m & -m).bit_length() - 1] |= m
    return tuple(twins)


class DimResult(NamedTuple):
    value: int
    witness: tuple[int, ...]


def metric_dimension_k(dm: DistanceMatrix, k: int, *, size_cap: int | None = None) -> DimResult:
    """Exact distance-k metric dimension with the lexicographically least witness.

    Counts up from the twin lower bound and returns the first size at which
    _least_hitting_set finds a set.
    """
    _require_size_cap(dm.n, size_cap)
    masks = minimal_pair_masks(dm, k)
    # a resolving set holds all but one vertex of each twin class
    for size in range(dm.n - len(set(_twin_masks(masks, dm.n))), dm.n):
        witness = _least_hitting_set(masks, size)
        if witness is not None:
            return DimResult(size, witness)
    # every (n-1)-subset resolves
    raise InvariantError(f"no resolving set found below size {dm.n} at k={k}")


def _least_hitting_set(masks: Sequence[int], budget: int) -> tuple[int, ...] | None:
    """A hitting set of at most budget vertices, ascending, or None if there is none.

    Depth-first search over ascending vertex tuples, each next vertex tried
    in increasing order; the first tuple that hits every mask is returned.
    Two cutoffs end a branch:

    - the next vertex is at most the highest vertex of the unhit mask whose
      highest vertex is lowest, since later vertices are larger still and
      that mask needs one of them;
    - pairwise-disjoint unhit masks, each cut to the vertices not yet
      passed, need distinct further vertices, so a greedy packing of more
      masks than the budget left ends the branch.

    Exactness: the ascending tuple of any hitting set of at most budget
    vertices passes both cutoffs at each of its prefixes, so the search
    returns None only when there is no such set.  At the least budget that
    has one, every hitting set has exactly that size, the search meets them
    in lexicographic order, and the first it returns is the least.
    """
    return _extend_hitting_set(list(masks), 0, budget)


def _extend_hitting_set(pending: list[int], low: int, budget: int) -> tuple[int, ...] | None:
    """The search of _least_hitting_set from vertex low on: at most budget vertices, none below low."""
    if not pending:
        return ()
    passed = (1 << low) - 1
    packed = 0
    packing = 0
    for m in pending:
        if not m & packed:
            packing += 1
            if packing > budget:
                return None
            packed |= m & ~passed
    top = min(map(int.bit_length, pending)) - 1
    for v in range(low, top + 1):
        bit = 1 << v
        found = _extend_hitting_set([m for m in pending if not m & bit], v + 1, budget - 1)
        if found is not None:
            return (v,) + found
    return None


class PairSystemKind(Enum):
    PAIRING = "pairing"
    QUASI_PAIRING = "quasi-pairing"
    NEITHER = "neither"


@dataclass(frozen=True)
class PairSystem:
    """Disjoint unordered vertex pairs used as a one-per-pair claiming plan."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        flat = [v for p in self.pairs for v in p]
        if len(set(flat)) != len(flat):
            raise PairsOverlapError(f"pair system vertices overlap: {self.pairs}")

    @classmethod
    def of(cls, pairs: Iterable[Iterable[int]]) -> "PairSystem":
        norm = tuple(tuple(sorted(p)) for p in pairs)
        for p in norm:
            if len(p) != 2:
                raise PairsOverlapError(f"each pair needs exactly two vertices, got {p}")
            if p[0] == p[1]:
                raise SameVertexError(f"pair repeats vertex {p[0]}")
        return cls(pairs=tuple(sorted(norm)))

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(v for p in self.pairs for v in p)


@dataclass(frozen=True)
class PairSystemCheck:
    kind: PairSystemKind
    witnesses: tuple[int, ...] = ()


def _classify(masks: Sequence[int], pairs: Sequence[int]) -> PairSystemCheck:
    """Classify disjoint pairs, as vertex bitmasks, by the minimal masks that hold none of them.

    pairing: every transversal resolves.  quasi-pairing: no transversal
    resolves but some single outside vertex completes all of them (all such
    witnesses are returned, ascending).  neither: anything else.

    Cover rule: some transversal misses a minimal mask exactly when no pair
    lies inside it, since a pair inside the mask puts a vertex of every
    transversal there, and otherwise every pair has a vertex outside it.  So
    the system is a pairing iff no mask is uncovered.  Otherwise it is
    neither if some transversal hits every uncovered mask (the one step that
    enumerates transversals), and else a vertex completes every transversal
    iff it lies in every uncovered mask.  No pair vertex does: the
    transversals through it would resolve.
    """
    uncovered = [m for m in masks if not any(m & p == p for p in pairs)]
    if not uncovered:
        return PairSystemCheck(PairSystemKind.PAIRING)
    # a transversal takes one vertex bit of each pair; the pairs are disjoint, so the bits sum to its mask
    for transversal in map(sum, product(*((p & -p, p & (p - 1)) for p in pairs))):
        for m in uncovered:
            if not m & transversal:
                break
        else:
            return PairSystemCheck(PairSystemKind.NEITHER)  # this transversal hits every uncovered mask
    common = uncovered[0]
    for m in uncovered:
        common &= m
    witnesses = tuple(v for v in range(common.bit_length()) if common >> v & 1)
    if witnesses:
        return PairSystemCheck(PairSystemKind.QUASI_PAIRING, witnesses)
    return PairSystemCheck(PairSystemKind.NEITHER)


def check_pair_system(dm: DistanceMatrix, k: int, pairs) -> PairSystemCheck:
    """Classify a pair system (see _classify) after validating it."""
    ps = pairs if isinstance(pairs, PairSystem) else PairSystem.of(pairs)
    if len(ps.pairs) > MAX_PAIR_SYSTEM:
        raise TooManyPairsError(f"{len(ps.pairs)} pairs exceed the cap of {MAX_PAIR_SYSTEM}")
    if not ps.pairs:
        raise PairsOverlapError("pair system needs at least one pair")
    _require_in_range(dm.n, ps.vertex_set, "pair vertices")
    return _classify(minimal_pair_masks(dm, k), [(1 << u) | (1 << w) for u, w in ps.pairs])


def _pair_cover(parts: Sequence[int], left: int, accept=None, budget: int = PAIR_SEARCH_NODES) -> tuple[int, ...] | None:
    """The first disjoint pair system with a pair inside every part, of at most left pairs, that accept takes.

    Parts and pairs are vertex bitmasks; accept (any cover, if None) gets
    the pairs in the order they were chosen.  Depth-first search: a part
    with a chosen pair inside it is done, and of the parts left, the one
    with the fewest unused vertices (in no chosen pair) is branched on, over
    the pairs of those vertices in lexicographic order.  A part with exactly
    two unused vertices forces its pair, which is taken without branching
    as soon as the scan of the parts meets it; a part with fewer ends the
    branch, in that scan or a later one, since no unused pair fits in it
    again.  The search backtracks over at most budget branching nodes; past
    that, each branching node takes its lowest pair only and never
    backtracks, so budget 0 is one greedy descent.

    Completeness: a cover that holds the pairs chosen so far has a pair
    inside the branched (or forcing) part, and that pair is in no chosen
    pair, so it is one of the branches (or the forced pair).  Following any
    cover C of at most left pairs thus reaches a cover made of pairs of C.
    So unless it runs past its budget, the search returns a cover exactly
    when one of at most left pairs exists, and accept is offered a sub-cover
    of every such cover until it takes one.  Past the budget it can miss a
    cover, never make one up: whatever it returns is still a cover of at
    most left pairs that accept took, so a caller that acts only on a cover
    it was given stays exact.  The game solver's pairing cutoff is such a
    caller: a cover missed there only leaves its node to be expanded.
    """
    return _extend_cover(parts, 0, (), left, accept, [budget])


def _extend_cover(pending: Sequence[int], used: int, pairs: tuple[int, ...], left: int, accept,
                  budget: list[int]) -> tuple[int, ...] | None:
    """_pair_cover's search below the pairs chosen so far; budget[0] holds the branching nodes left."""
    while pending:
        if len(pairs) == left:
            return None
        fewest = most = 0
        unused = ~used
        for part in pending:
            free = part & unused
            count = free.bit_count()
            if count < 3:
                if count < 2:
                    return None  # no unused pair fits in this part
                break  # forced: the only unused pair in its part
            if count < most or not most:
                fewest, most = free, count
        else:
            if budget[0] > 0:
                break  # every part has three or more unused vertices: branch on fewest
            rest = fewest & (fewest - 1)  # past the budget: take fewest's lowest pair, as if forced
            free = fewest ^ rest | rest & -rest
        used |= free
        pairs += (free,)
        pending = [part for part in pending if part & free != free]
    else:
        return pairs if accept is None or accept(pairs) else None
    budget[0] -= 1
    bits = [1 << v for v in range(fewest.bit_length()) if fewest >> v & 1]
    for a, b in combinations(bits, 2):
        pair = a | b
        found = _extend_cover([part for part in pending if part & pair != pair], used | pair, pairs + (pair,), left,
                              accept, budget)
        if found is not None:
            return found
    return None


@lru_cache(maxsize=256)
def _root_cover(masks: tuple[int, ...]) -> tuple[int, ...] | None:
    """_pair_cover(masks, MAX_PAIR_SYSTEM), cached: the empty board's cover, shared by the solver and search_pair_system."""
    return _pair_cover(masks, MAX_PAIR_SYSTEM)


def _pair_system(pairs: Iterable[int]) -> PairSystem:
    return PairSystem.of(((p & -p).bit_length() - 1, p.bit_length() - 1) for p in pairs)


def search_pair_system(dm: DistanceMatrix, k: int) -> tuple[PairSystem, PairSystemCheck] | None:
    """Search for a pairing (preferred) or quasi-pairing system.

    By the cover rule of _classify, a pairing is a cover: disjoint pairs with
    one inside every minimal mask.  A quasi-pairing with witness v covers
    every mask that misses v, because the transversals plus v hit those
    masks only through the transversals.  So one cover search (_pair_cover,
    at most MAX_PAIR_SYSTEM pairs) runs over all masks, where the first cover
    it finds is a pairing with no classifying needed (that search is the
    cached _root_cover, shared with the solver's empty board), then once per
    candidate witness v over the masks that miss v, where it returns the
    first cover that _classify does not call neither, with that check.
    Targets are built one at a time, and a target met before (a v in no
    mask gives all of them again) is skipped: its search has failed already.
    """
    masks = minimal_pair_masks(dm, k)
    pairs = _root_cover(masks) if masks else None
    if pairs is not None:
        return _pair_system(pairs), PairSystemCheck(PairSystemKind.PAIRING)
    accepted = []  # the check of the one cover accept takes

    def accept(cover: tuple[int, ...]) -> bool:
        check = _classify(masks, cover)
        if check.kind is PairSystemKind.NEITHER:
            return False
        accepted.append(check)
        return True

    searched = {masks}
    for v in range(dm.n):
        target = tuple(m for m in masks if not m >> v & 1)
        # an empty target (v alone resolves) has no pair to offer
        if not target or target in searched:
            continue
        searched.add(target)
        pairs = _pair_cover(target, MAX_PAIR_SYSTEM, accept)
        if pairs is not None:
            return _pair_system(pairs), accepted[0]
    return None


@dataclass(frozen=True)
class GapProfile:
    """Landmark positions on a cycle and the runs of free vertices between them."""

    n: int
    landmarks: tuple[int, ...]
    gaps: tuple[int, ...]

    @classmethod
    def from_landmarks(cls, n: int, landmarks: Iterable[int]) -> "GapProfile":
        marks = tuple(sorted(set(landmarks)))
        if not marks:
            raise MBResolveError("gap profile needs at least one landmark")
        _require_in_range(n, marks, "landmarks")
        gaps = []
        for i, u in enumerate(marks):
            nxt = marks[(i + 1) % len(marks)]
            gaps.append((nxt - u - 1) % n if len(marks) > 1 else n - 1)
        return cls(n=n, landmarks=marks, gaps=tuple(gaps))


def cycle_gap_check(gp: GapProfile, k: int) -> bool:
    """Sufficient gap conditions for a landmark set to resolve a cycle.

    (1) every gap holds at most 2k+1 vertices and at most one gap holds
    exactly 2k+1; (2) a gap holding at least k+1 vertices has neighboring
    gaps holding at most k.  One-directional: False does not imply
    non-resolving.
    """
    if k < 1:
        raise ValueError(f"truncation parameter k must be >= 1, got {k}")
    if gp.n < 2 * k + 3:
        raise CycleTooSmallError(f"gap conditions need n >= {2 * k + 3}, got n={gp.n}")
    big = 2 * k + 1
    if any(g > big for g in gp.gaps):
        return False
    if sum(1 for g in gp.gaps if g == big) > 1:
        return False
    r = len(gp.gaps)
    for i, g in enumerate(gp.gaps):
        if g >= k + 1:
            left = gp.gaps[(i - 1) % r] if r > 1 else g
            right = gp.gaps[(i + 1) % r] if r > 1 else g
            if left > k or right > k:
                return False
    return True
