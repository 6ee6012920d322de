"""Independent brute-force oracles used to cross-check the package.

Everything here is deliberately naive and shares no code path with the
implementations under test: resolving via direct code-vector injectivity,
dimension via subset enumeration, game values via full minimax over all
moves with no pruning or mask structure.
"""

from __future__ import annotations

from itertools import combinations, permutations, product

from mbresolve.graph import DistanceMatrix, truncated_distance


def direct_code(dm: DistanceMatrix, k: int, landmarks, v: int) -> tuple[int, ...]:
    return tuple(truncated_distance(dm, k, v, u) for u in landmarks)


def direct_is_resolving(dm: DistanceMatrix, k: int, landmarks) -> bool:
    marks = sorted(set(landmarks))
    codes = {direct_code(dm, k, marks, v) for v in range(dm.n)}
    return len(codes) == dm.n


def brute_force_dim(dm: DistanceMatrix, k: int) -> tuple[int, tuple[int, ...]]:
    for size in range(dm.n):
        for combo in combinations(range(dm.n), size):
            if direct_is_resolving(dm, k, combo):
                return size, combo
    return dm.n, tuple(range(dm.n))


def naive_pair_system_kind(dm: DistanceMatrix, k: int, pairs) -> tuple[str, tuple[int, ...]]:
    """(kind, witnesses) of a pair system, over every transversal.

    pairing: every transversal resolves.  quasi-pairing: no transversal
    resolves but some single outside vertex completes all of them (all such
    witnesses, ascending).  neither: anything else.
    """
    transversals = [set(t) for t in product(*pairs)]
    resolves = [direct_is_resolving(dm, k, t) for t in transversals]
    if all(resolves):
        return "pairing", ()
    if any(resolves):
        return "neither", ()
    used = {v for p in pairs for v in p}
    witnesses = tuple(
        v for v in range(dm.n)
        if v not in used and all(direct_is_resolving(dm, k, t | {v}) for t in transversals)
    )
    return ("quasi-pairing", witnesses) if witnesses else ("neither", ())


def naive_least_cover(parts) -> int | None:
    """Fewest disjoint vertex pairs with one pair inside every part, or None if no pairs do.

    Parts are vertex bitmasks.  Some pair of every cover lies inside the
    first part that no chosen pair lies inside, so branching over the pairs
    of its unused vertices reaches every cover.
    """
    best = None

    def extend(pending, used, size):
        nonlocal best
        if not pending:
            best = size if best is None else min(best, size)
            return
        free = pending[0] & ~used
        for u, w in combinations([v for v in range(free.bit_length()) if free >> v & 1], 2):
            pair = 1 << u | 1 << w
            extend([m for m in pending if m & pair != pair], used | pair, size + 1)

    extend(list(parts), 0, 0)
    return best


def naive_automorphisms(n: int, edges) -> list[tuple[int, ...]]:
    """Every automorphism of the graph on 0..n-1 with these edges, by trying all n! permutations."""
    if n > 7:
        raise ValueError(f"{n}! permutations are too many to try")
    edge_set = {frozenset(e) for e in edges}
    return [p for p in permutations(range(n)) if all(frozenset((p[u], p[v])) in edge_set for u, v in edges)]


def naive_orbits(automorphisms, n: int, fixed: int | None = None) -> tuple[frozenset[int], ...]:
    """Each vertex's orbit under the automorphisms that fix the vertex fixed (all of them if None)."""
    group = [p for p in automorphisms if fixed is None or p[fixed] == fixed]
    return tuple(frozenset(p[v] for p in group) for v in range(n))


def naive_maker_wins(dm: DistanceMatrix, k: int, maker: frozenset, breaker: frozenset, maker_to_move: bool, memo=None) -> bool:
    """Full-board minimax over every unclaimed vertex; no short-circuits beyond the win test."""
    if memo is None:
        memo = {}
    key = (maker, breaker, maker_to_move)
    if key in memo:
        return memo[key]
    if direct_is_resolving(dm, k, maker):
        return True
    free = [v for v in range(dm.n) if v not in maker and v not in breaker]
    if not free:
        return False
    if maker_to_move:
        result = any(naive_maker_wins(dm, k, maker | {v}, breaker, False, memo) for v in free)
    else:
        result = all(naive_maker_wins(dm, k, maker, breaker | {v}, True, memo) for v in free)
    memo[key] = result
    return result


def naive_wins_within(dm: DistanceMatrix, k: int, maker: frozenset, breaker: frozenset, maker_to_move: bool,
                      cap: int, cap_maker: bool, memo=None) -> bool:
    """Does Maker win when the capped side loses on its turn once it holds cap vertices?

    Full-board minimax over every unclaimed vertex.  Maker has won once his
    set resolves, Breaker once Maker's set plus every unclaimed vertex no
    longer resolves; the capped side is Maker if cap_maker, else Breaker.
    """
    if memo is None:
        memo = {}
    if direct_is_resolving(dm, k, maker):
        return True
    free = [v for v in range(dm.n) if v not in maker and v not in breaker]
    if not direct_is_resolving(dm, k, maker | set(free)):
        return False
    if maker_to_move and cap_maker and len(maker) >= cap:
        return False
    if not maker_to_move and not cap_maker and len(breaker) >= cap:
        return True
    key = (maker, breaker, maker_to_move)
    if key in memo:
        return memo[key]
    if maker_to_move:
        result = any(naive_wins_within(dm, k, maker | {v}, breaker, False, cap, cap_maker, memo) for v in free)
    else:
        result = all(naive_wins_within(dm, k, maker, breaker | {v}, True, cap, cap_maker, memo) for v in free)
    memo[key] = result
    return result


def naive_outcome_symbol(dm: DistanceMatrix, k: int) -> int:
    empty = frozenset()
    m_game = naive_maker_wins(dm, k, empty, empty, True)
    b_game = naive_maker_wins(dm, k, empty, empty, False)
    if m_game and b_game:
        return 1
    if not m_game and not b_game:
        return -1
    assert m_game and not b_game, "second-player-only Maker win should be impossible"
    return 0


def naive_winner_count(dm: DistanceMatrix, k: int, maker_first: bool) -> int:
    """Winner's move count: winner fastest among win-preserving moves, loser stalls."""
    empty = frozenset()
    win_memo: dict = {}
    maker_is_winner = naive_maker_wins(dm, k, empty, empty, maker_first, win_memo)

    def breaker_has_won(maker: frozenset, breaker: frozenset) -> bool:
        rest = frozenset(range(dm.n)) - breaker
        return not direct_is_resolving(dm, k, rest)

    memo: dict = {}

    def count(maker, breaker, maker_to_move):
        key = (maker, breaker, maker_to_move)
        if key in memo:
            return memo[key]
        if maker_is_winner:
            if direct_is_resolving(dm, k, maker):
                return 0
        elif breaker_has_won(maker, breaker):
            return 0
        free = [v for v in range(dm.n) if v not in maker and v not in breaker]
        if maker_to_move == maker_is_winner:
            options = []
            for v in free:
                nm, nb = (maker | {v}, breaker) if maker_to_move else (maker, breaker | {v})
                if naive_maker_wins(dm, k, nm, nb, not maker_to_move, win_memo) == maker_is_winner:
                    options.append(count(nm, nb, not maker_to_move) + 1)
            result = min(options)
        else:
            result = 0
            for v in free:
                nm, nb = (maker | {v}, breaker) if maker_to_move else (maker, breaker | {v})
                result = max(result, count(nm, nb, not maker_to_move))
        memo[key] = result
        return result

    return count(frozenset(), frozenset(), maker_first)
