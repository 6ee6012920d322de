"""Distance-k resolving machinery.

Resolving checks via partition refinement, pair-resolver sets,
exact distance-k metric dimension, pair systems (pairing / quasi-pairing)
and the cycle gap conditions.

A landmark set S resolves at truncation k exactly when it intersects the
pair-resolver set R_k{x,y} of every vertex pair, so most hot paths here work
on precomputed bitmasks of those sets.

Quantifier note: a quasi-pairing system requires one fixed completion vertex
that works for every transversal (exists-v for-all-Z); the weaker for-all-Z
exists-v reading is deliberately not implemented.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    CycleTooSmallError,
    InvariantError,
    PairsOverlapError,
    SameVertexError,
    SizeCapError,
    TooManyPairsError,
    VertexRangeError,
)
from .graph import DistanceMatrix, truncated_distance

DEFAULT_SIZE_CAP = 18
MAX_PAIR_SYSTEM = 20
PAIR_SEARCH_NODES = 400


def _require_in_range(n: int, vertices: Iterable[int], what: str) -> None:
    outside = sorted(v for v in vertices if not 0 <= v < n)
    if outside:
        raise VertexRangeError(f"{what} outside 0..{n - 1}: {outside}")


def _refine(dm: DistanceMatrix, k: int, landmarks: Iterable[int]) -> list[list[int]]:
    blocks = [list(range(dm.n))]
    cap = k + 1
    for u in landmarks:
        row = dm.dist[u]
        new_blocks = []
        for block in blocks:
            if len(block) == 1:
                new_blocks.append(block)
                continue
            groups: dict[int, list[int]] = {}
            for v in block:
                d = row[v]
                groups.setdefault(d if d <= k else cap, []).append(v)
            new_blocks.extend(groups.values())
        blocks = new_blocks
    return blocks


class ResolveCheck(NamedTuple):
    ok: bool
    unresolved: tuple[int, int] | None


def is_resolving(dm: DistanceMatrix, k: int, landmarks: Iterable[int]) -> ResolveCheck:
    """True iff the code map is injective; on failure returns one unresolved pair."""
    if k < 1:
        raise ValueError(f"truncation parameter k must be >= 1, got {k}")
    landmarks = sorted(set(landmarks))
    _require_in_range(dm.n, landmarks, "landmarks")
    blocks = _refine(dm, k, landmarks)
    witness = None
    for block in blocks:
        if len(block) > 1:
            a, b = sorted(block)[:2]
            if witness is None or (a, b) < witness:
                witness = (a, b)
    if witness is not None:
        return ResolveCheck(False, witness)
    return ResolveCheck(True, None)


def pair_resolver_set(dm: DistanceMatrix, k: int, x: int, y: int) -> frozenset[int]:
    """Vertices whose truncated distance separates x from y."""
    if x == y:
        raise SameVertexError(f"pair must be two distinct vertices, got ({x},{y})")
    return frozenset(
        z for z in range(dm.n)
        if truncated_distance(dm, k, x, z) != truncated_distance(dm, k, y, z)
    )


@lru_cache(maxsize=256)
def minimal_pair_masks(dm: DistanceMatrix, k: int) -> tuple[int, ...]:
    """Inclusion-minimal pair-resolver sets as bitmasks, smallest first.

    A set S resolves at truncation k iff it intersects every one of these
    masks; the masks are also exactly the minimal vertex sets whose removal
    (capture by a blocker) makes resolution impossible.
    """
    if k < 1:
        raise ValueError(f"truncation parameter k must be >= 1, got {k}")
    n = dm.n
    cap = k + 1
    trunc = [tuple(d if d <= k else cap for d in row) for row in dm.dist]
    masks = set()
    for x in range(n):
        tx = trunc[x]
        for y in range(x + 1, n):
            ty = trunc[y]
            m = 0
            for z in range(n):
                if tx[z] != ty[z]:
                    m |= 1 << z
            masks.add(m)
    ordered = sorted(masks, key=lambda m: (m.bit_count(), m))
    minimal: list[int] = []
    for m in ordered:
        if not any(kept & ~m == 0 for kept in minimal):
            minimal.append(m)
    return tuple(minimal)


def mask_resolves(masks: Sequence[int], set_mask: int) -> bool:
    """True iff set_mask hits every minimal pair mask."""
    for m in masks:
        if not m & set_mask:
            return False
    return True


class DimResult(NamedTuple):
    value: int
    witness: tuple[int, ...]


def metric_dimension_k(dm: DistanceMatrix, k: int, *, size_cap: int | None = None) -> DimResult:
    """Exact distance-k metric dimension with the lexicographically least witness.

    Searches cardinalities upward from the twin lower bound; feasibility at
    each size is a branch-and-bound on the smallest unhit pair mask.
    """
    cap = DEFAULT_SIZE_CAP if size_cap is None else size_cap
    if dm.n > cap:
        raise SizeCapError(dm.n, cap)
    masks = minimal_pair_masks(dm, k)
    if not masks:
        return DimResult(0, ())
    # greedy packing of pairwise-disjoint masks lower-bounds the hitting
    # number; the twin bound (all but one vertex per twin class) is sharper
    # for classes of three or more.  The 2-masks are exactly the twin pairs,
    # so each one's high bit marks a twin that is not the least of its class.
    packing = 0
    packed = 0
    twins_above_least = 0
    for m in masks:
        if not m & packed:
            packing += 1
            packed |= m
        if m.bit_count() == 2:
            twins_above_least |= m & (m - 1)
    lower = max(packing, twins_above_least.bit_count())
    for size in range(lower, dm.n):
        if _hitting_exists(masks, size):
            witness = _lex_min_hitting(masks, dm.n, size)
            if witness is not None:
                return DimResult(size, witness)
            break
    # every (n-1)-subset resolves, and the scan finds any hitting set the
    # branch-and-bound proved to exist
    raise InvariantError(f"no resolving set found below size {dm.n} at k={k}")


def _hitting_exists(masks: Sequence[int], budget: int, hit: int = 0) -> bool:
    pending = [m for m in masks if not m & hit]
    if not pending:
        return True
    if budget == 0:
        return False
    branch = min(pending, key=lambda m: m.bit_count())
    m = branch
    while m:
        bit = m & -m
        if _hitting_exists(pending, budget - 1, hit | bit):
            return True
        m ^= bit
    return False


def _lex_min_hitting(masks: Sequence[int], n: int, size: int) -> tuple[int, ...] | None:
    for combo in combinations(range(n), size):
        s = 0
        for v in combo:
            s |= 1 << v
        if mask_resolves(masks, s):
            return combo
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

    @property
    def witness(self) -> int | None:
        return self.witnesses[0] if self.witnesses else None


def _transversal_masks(pairs: Sequence[tuple[int, int]]):
    a = len(pairs)
    for choice in range(1 << a):
        s = 0
        for i, (u, w) in enumerate(pairs):
            s |= 1 << (w if choice >> i & 1 else u)
        yield s


def check_pair_system(dm: DistanceMatrix, k: int, pairs) -> PairSystemCheck:
    """Classify a pair system by the minimal masks that hold none of its pairs.

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
    ps = pairs if isinstance(pairs, PairSystem) else PairSystem.of(pairs)
    if len(ps.pairs) > MAX_PAIR_SYSTEM:
        raise TooManyPairsError(f"{len(ps.pairs)} pairs exceed the cap of {MAX_PAIR_SYSTEM}")
    if not ps.pairs:
        raise PairsOverlapError("pair system needs at least one pair")
    _require_in_range(dm.n, ps.vertex_set, "pair vertices")
    pair_bits = [(1 << u) | (1 << w) for u, w in ps.pairs]
    uncovered = [m for m in minimal_pair_masks(dm, k) if not any(m & b == b for b in pair_bits)]
    if not uncovered:
        return PairSystemCheck(PairSystemKind.PAIRING)
    if any(mask_resolves(uncovered, t) for t in _transversal_masks(ps.pairs)):
        return PairSystemCheck(PairSystemKind.NEITHER)
    common = uncovered[0]
    for m in uncovered:
        common &= m
    witnesses = tuple(v for v in range(dm.n) if common >> v & 1)
    if witnesses:
        return PairSystemCheck(PairSystemKind.QUASI_PAIRING, witnesses)
    return PairSystemCheck(PairSystemKind.NEITHER)


def _covers(masks: Sequence[int]):
    """Disjoint pair systems with a pair inside every mask, as sorted pair tuples.

    Branches on the first mask without a chosen pair inside it, smallest
    first, over the pairs of its unused vertices, so a 2-mask (a twin pair)
    forces its pair.  With no node limit, every cover contains one that this
    finds; at most PAIR_SEARCH_NODES nodes are expanded.
    """
    nodes = 0

    def extend(pending: list[int], pairs: tuple[tuple[int, int], ...], used: int):
        nonlocal nodes
        if not pending:
            yield tuple(sorted(pairs))
            return
        if nodes >= PAIR_SEARCH_NODES:
            return
        nodes += 1
        free = pending[0] & ~used
        for u, w in combinations([v for v in range(free.bit_length()) if free >> v & 1], 2):
            b = (1 << u) | (1 << w)
            yield from extend([m for m in pending if m & b != b], pairs + ((u, w),), used | b)

    return extend(list(masks), (), 0)


def search_pair_system(dm: DistanceMatrix, k: int) -> tuple[PairSystem, PairSystemCheck] | None:
    """Search for a pairing (preferred) or quasi-pairing system.

    By the cover rule of check_pair_system, a pairing is a cover: disjoint
    pairs with one inside every minimal mask.  A quasi-pairing with witness v
    covers every mask that misses v, because the transversals plus v hit
    those masks only through the transversals.  So one cover search runs
    over all masks, then once per candidate witness v over the masks that
    miss v, and the first cover that check_pair_system confirms is returned.
    """
    masks = minimal_pair_masks(dm, k)
    targets = [masks] + [tuple(m for m in masks if not m >> v & 1) for v in range(dm.n)]
    # an empty target (no masks, or v alone resolves) has no pair to offer
    for target in filter(None, targets):
        for pairs in _covers(target):
            system = PairSystem(pairs=pairs)
            check = check_pair_system(dm, k, system)
            if check.kind is not PairSystemKind.NEITHER:
                return system, check
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
            raise ValueError("gap profile needs at least one landmark")
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
