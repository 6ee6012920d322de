"""Exhaustive solver for the Maker-Breaker distance-k resolving game.

Maker and Breaker alternately claim unclaimed vertices; Maker wins once his
vertices form a distance-k resolving set, Breaker wins by preventing that
forever.  Both win conditions reduce to the inclusion-minimal pair-resolver
masks: Maker wins iff his set hits every mask, Breaker has won for good iff
she owns some mask outright.

The search is a memoized boolean minimax over (maker, breaker) bitmask pairs;
the side to move is derived from the claim counts, so the transposition key
needs no turn bit.  Move generation restricts to vertices of still-unhit
masks (claiming anything else helps neither side).  Move counts reuse the
same search with a cap on the winner's claims: the winner's optimal count is
the least cap c = 0, 1, 2, ... under which the winner still wins (iterative
deepening), each capped run with a fresh memo.

Each node is a Maker-Breaker hypergraph game in which Breaker builds (she
wins by claiming every free vertex of an unhit mask) and Maker blocks.  Three
exact reductions are always on; each leaves every node's value unchanged:

- Erdős–Selfridge cutoff.  With P the sum of 2^-|free part| over unhit masks,
  the blocker wins if P < 1 with Maker to move, or P < 1/2 with Breaker to
  move (Erdős and Selfridge 1973), so Maker has won.  It says that Maker wins
  eventually, not within a number of claims, so it is off when Maker's claims
  are capped; a cap on Breaker only helps Maker, so it stays on there.
- Threats.  An unhit mask with one free vertex is a threat: Breaker to move
  claims it and wins, and Maker to move must claim it, because any other move
  lets Breaker win at once.
- Twin pruning.  Swapping two twins is an automorphism of the graph, so it
  maps masks to masks; while both are unclaimed it fixes the position, and
  claiming either one leads to positions of the same value.  Only the lowest
  unclaimed vertex of each twin class is tried, except for a forced threat
  move, which is the one move tried.

No reduction changes the memo key (maker << n) | breaker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, IntEnum

from .errors import CountUndefinedError, InvariantError, SizeCapError
from .graph import DistanceMatrix, Graph, twin_partition
from .resolve import (
    DEFAULT_SIZE_CAP,
    PairSystem,
    PairSystemKind,
    metric_dimension_k,
    minimal_pair_masks,
    search_pair_system,
)

DEFAULT_TT_LIMIT = 8_000_000


class Player(Enum):
    MAKER = "Maker"
    BREAKER = "Breaker"


class OutcomeSymbol(IntEnum):
    B = -1
    N = 0
    M = 1

    @property
    def letter(self) -> str:
        return self.name


@dataclass(frozen=True)
class GamePosition:
    """Disjoint claimed-vertex sets plus the player who moved first."""

    maker_set: frozenset[int]
    breaker_set: frozenset[int]
    first_player: Player = Player.MAKER

    def __post_init__(self):
        overlap = self.maker_set & self.breaker_set
        if overlap:
            raise ValueError(f"maker and breaker sets overlap: {sorted(overlap)}")

    @property
    def player_to_move(self) -> Player:
        # no skipped turns: the first player is on move again whenever the
        # claim counts are equal
        a, b = len(self.maker_set), len(self.breaker_set)
        if self.first_player is Player.MAKER:
            return Player.MAKER if a == b else Player.BREAKER
        return Player.BREAKER if a == b else Player.MAKER

    def validate_reachable(self) -> None:
        a, b = len(self.maker_set), len(self.breaker_set)
        diff = a - b if self.first_player is Player.MAKER else b - a
        if diff not in (0, 1):
            raise ValueError(
                f"position unreachable with {self.first_player.value} moving first: |maker|={a}, |breaker|={b}"
            )


@dataclass(frozen=True)
class GameOutcome:
    """Winners of both games and the combined symbol (B < N < M)."""

    symbol: OutcomeSymbol
    m_game_winner: Player
    b_game_winner: Player


@dataclass(frozen=True)
class MoveCounts:
    """Optimal winner move counts; a field is None when that side loses that game."""

    mrk: int | None = None
    mprime_rk: int | None = None
    brk: int | None = None
    bprime_rk: int | None = None
    nrk: int | None = None
    nprime_rk: int | None = None

    def require(self, name: str) -> int:
        value = getattr(self, name)
        if value is None:
            raise CountUndefinedError(f"move count {name!r} is undefined for this outcome")
        return value

    def defined(self) -> dict[str, int]:
        return {
            name: value
            for name in ("mrk", "mprime_rk", "brk", "bprime_rk", "nrk", "nprime_rk")
            if (value := getattr(self, name)) is not None
        }


@dataclass(frozen=True)
class JumpReport:
    """Outcome per truncation level and the transitions between levels."""

    outcomes: tuple[tuple[int, GameOutcome], ...]
    jumps: tuple[tuple[int, OutcomeSymbol, OutcomeSymbol], ...]

    @classmethod
    def from_outcomes(cls, outcomes) -> JumpReport:
        """Report for consecutive levels' outcomes; raises if the outcome ever decreases in k.

        Non-decreasing over B < N < M also gives the other jump bounds: at
        most two transitions, and a B-to-M transition is the only one.
        """
        outcomes = tuple(outcomes)
        jumps = []
        for (_, prev), (k, cur) in zip(outcomes, outcomes[1:]):
            if prev.symbol > cur.symbol:
                raise InvariantError(f"outcome fell from {prev.symbol.letter} to {cur.symbol.letter} at k={k}")
            if prev.symbol != cur.symbol:
                jumps.append((k, prev.symbol, cur.symbol))
        return cls(outcomes=outcomes, jumps=tuple(jumps))

    def outcome_at(self, k: int) -> GameOutcome:
        for kk, out in self.outcomes:
            if kk == k:
                return out
        raise KeyError(k)


class CertificateKind(Enum):
    FORCED_B = "forcedB"
    M_CERTIFIED = "Mcertified"
    M_OR_N = "MorN"


@dataclass(frozen=True)
class Certificate:
    """Outcome bound established without game search; never replaces the solver."""

    kind: CertificateKind
    reason: str
    pair_system: PairSystem | None = None
    witnesses: tuple[int, ...] = ()

    @property
    def allowed_symbols(self) -> frozenset[OutcomeSymbol]:
        if self.kind is CertificateKind.FORCED_B:
            return frozenset({OutcomeSymbol.B})
        if self.kind is CertificateKind.M_CERTIFIED:
            return frozenset({OutcomeSymbol.M})
        return frozenset({OutcomeSymbol.M, OutcomeSymbol.N})


@dataclass
class SolverStats:
    nodes: int = 0
    tt_entries: int = 0
    count_nodes: int = 0


class GameSolver:
    """Solves both games on one (graph, k); reusable across winner/count queries."""

    def __init__(
        self,
        graph: Graph,
        dm: DistanceMatrix,
        k: int,
        *,
        size_cap: int | None = None,
        tt_limit: int | None = None,
        move_order: tuple[int, ...] | None = None,
    ):
        cap = DEFAULT_SIZE_CAP if size_cap is None else size_cap
        if graph.n > cap:
            raise SizeCapError(graph.n, cap)
        self.graph = graph
        self.dm = dm
        self.k = k
        self.n = graph.n
        self.masks = minimal_pair_masks(dm, k)
        self._tt_limit = DEFAULT_TT_LIMIT if tt_limit is None else tt_limit
        tp = twin_partition(graph)
        self._order_bits = self._build_order(move_order, tp)
        self._twin_masks = tuple(sum(1 << v for v in cls) for cls in tp.classes if len(cls) > 1)
        self._win_memo: dict[bool, dict[int, bool]] = {True: {}, False: {}}
        self._searchers: dict[bool, object] = {}
        self.stats = SolverStats()

    # -- setup ---------------------------------------------------------

    def _build_order(self, move_order, tp) -> tuple[int, ...]:
        if move_order is not None:
            if sorted(move_order) != list(range(self.n)):
                raise ValueError("move_order must be a permutation of all vertices")
            return tuple(1 << v for v in move_order)
        class_size = {}
        for cls in tp.classes:
            for v in cls:
                class_size[v] = len(cls)
        verts = sorted(range(self.n), key=lambda v: (-class_size[v], -self.graph.degree(v), v))
        return tuple(1 << v for v in verts)

    # -- winner search ---------------------------------------------------

    def _searcher(self, memo: dict[int, bool], tally: SolverStats, cap: int | None = None, cap_maker: bool = True):
        """Memoized search: does Maker win from (maker, breaker, maker_to_move)?

        With a cap, the capped side (Maker if cap_maker, else Breaker) loses
        when it is to move and already holds cap vertices, so the search
        answers "does that side win within cap claims".  Nodes expanded are
        counted in tally.nodes; a node settled by the scan is not expanded.

        The one scan over the masks also sums the Erdős–Selfridge potential,
        in units of 2^-n so that it stays an exact int, and notes a threat
        (an unhit mask with one free vertex).  Maker has won once the
        potential is below 1 with Maker to move, or below 1/2 with Breaker to
        move: the blocker's potential strategy never lets Breaker fill a mask.
        That says nothing about how soon Maker wins, so under a cap on Maker
        the cutoff is off; a cap on Breaker only ends her play early, so it
        stays on.  Breaker to move wins on a threat once the cap test has let
        her move, and Maker to move must claim the threat's vertex.  Moves
        onto a twin whose lower-numbered twin is still unclaimed are skipped:
        swapping the two fixes the position, so both moves have one value.
        """
        masks = self.masks
        tt_limit = self._tt_limit
        order_bits = self._order_bits
        twin_masks = self._twin_masks
        n = self.n
        unit = 1 << n  # potential 1, in units of 2^-n
        uncapped = n + 1  # more claims than there are vertices
        maker_cap = cap if cap is not None and cap_maker else uncapped
        breaker_cap = cap if cap is not None and not cap_maker else uncapped
        es_bound = unit if maker_cap == uncapped else 0  # no potential is below 0

        # Both sides claim only live vertices (those of masks Maker has not
        # hit).  Any other claim is a pass, and since an extra claimed vertex
        # never hurts its owner (monotonicity), a pass never lets the winner
        # win sooner, nor delays the winner more, than a live claim does.
        def search(maker: int, breaker: int, maker_to_move: bool) -> bool:
            live = 0
            potential = 0
            threat = 0
            not_breaker = ~breaker
            for m in masks:
                if not m & maker:
                    rest = m & not_breaker
                    if not rest:
                        return False  # breaker owns this mask outright
                    live |= rest
                    free = rest.bit_count()
                    potential += unit >> free
                    if free == 1:
                        threat = rest
            if not live:
                return True  # every mask hit: maker's set resolves
            if maker_to_move:
                if potential < es_bound:
                    return True
                if maker.bit_count() >= maker_cap:
                    return False
            else:
                if breaker.bit_count() >= breaker_cap:
                    return True
                if threat:
                    return False
                if 2 * potential < es_bound:
                    return True
            key = (maker << n) | breaker
            hit = memo.get(key)
            if hit is not None:
                return hit
            tally.nodes += 1
            if maker_to_move and threat:
                # forced, and exempt from twin pruning: that would drop this
                # vertex for a twin that is not a move here
                moves = threat
            else:
                moves = live
                unclaimed = ~(maker | breaker)
                for twins in twin_masks:
                    open_twins = twins & unclaimed
                    moves &= ~(open_twins & (open_twins - 1))  # keep the lowest unclaimed twin only
            if maker_to_move:
                result = False
                for bit in order_bits:
                    if bit & moves and search(maker | bit, breaker, False):
                        result = True
                        break
            else:
                result = True
                for bit in order_bits:
                    if bit & moves and not search(maker, breaker | bit, True):
                        result = False
                        break
            if len(memo) < tt_limit:
                memo[key] = result
            return result

        return search

    def maker_wins(self, maker: int, breaker: int, maker_to_move: bool, maker_first: bool) -> bool:
        search = self._searchers.get(maker_first)
        if search is None:
            search = self._searchers[maker_first] = self._searcher(self._win_memo[maker_first], self.stats)
        result = search(maker, breaker, maker_to_move)
        self.stats.tt_entries = sum(len(t) for t in self._win_memo.values())
        return result

    # -- public queries ----------------------------------------------------

    def winner(self, position: GamePosition) -> Player:
        position.validate_reachable()
        for v in position.maker_set | position.breaker_set:
            if not 0 <= v < self.n:
                raise ValueError(f"vertex {v} outside 0..{self.n - 1}")
        maker = sum(1 << v for v in position.maker_set)
        breaker = sum(1 << v for v in position.breaker_set)
        maker_first = position.first_player is Player.MAKER
        to_move = position.player_to_move is Player.MAKER
        wins = self.maker_wins(maker, breaker, to_move, maker_first)
        return Player.MAKER if wins else Player.BREAKER

    def outcome(self) -> GameOutcome:
        m_winner = Player.MAKER if self.maker_wins(0, 0, True, True) else Player.BREAKER
        b_winner = Player.MAKER if self.maker_wins(0, 0, False, False) else Player.BREAKER
        # an extra move never hurts: Maker winning the B-game wins the M-game,
        # Breaker winning the M-game wins the B-game
        if m_winner is Player.BREAKER and b_winner is Player.MAKER:
            raise InvariantError("impossible outcome combination: second-player-only Maker win")
        if m_winner is Player.MAKER and b_winner is Player.MAKER:
            symbol = OutcomeSymbol.M
        elif m_winner is Player.BREAKER:
            symbol = OutcomeSymbol.B
        else:
            symbol = OutcomeSymbol.N
        return GameOutcome(symbol=symbol, m_game_winner=m_winner, b_game_winner=b_winner)

    def winner_move_count(self, maker_first: bool) -> int:
        """Winner's optimal move count for one game (winner fastest, loser stalling).

        That is the least number of own claims within which the winner still
        wins; each capped search runs on a fresh memo and counts its nodes in
        stats.count_nodes.
        """
        maker_is_winner = self.maker_wins(0, 0, maker_first, maker_first)
        for cap in range(self.n + 1):
            tally = SolverStats()
            won = self._searcher({}, tally, cap, cap_maker=maker_is_winner)(0, 0, maker_first)
            self.stats.count_nodes += tally.nodes
            if won == maker_is_winner:
                return cap
        raise InvariantError(f"the winner does not win within all {self.n} vertices")

    def move_counts(self, out: GameOutcome | None = None) -> MoveCounts:
        actual = self.outcome()
        if out is not None and out != actual:
            raise ValueError(f"supplied outcome {out} disagrees with solver outcome {actual}")
        m_count = self.winner_move_count(maker_first=True)
        b_count = self.winner_move_count(maker_first=False)
        if actual.symbol is OutcomeSymbol.M:
            return MoveCounts(mrk=m_count, mprime_rk=b_count)
        if actual.symbol is OutcomeSymbol.B:
            return MoveCounts(brk=m_count, bprime_rk=b_count)
        return MoveCounts(nrk=m_count, nprime_rk=b_count)


# -- module-level operations ------------------------------------------------


def winner(graph: Graph, dm: DistanceMatrix, k: int, position: GamePosition, **solver_kwargs) -> Player:
    return GameSolver(graph, dm, k, **solver_kwargs).winner(position)


def outcome(graph: Graph, dm: DistanceMatrix, k: int, **solver_kwargs) -> GameOutcome:
    return GameSolver(graph, dm, k, **solver_kwargs).outcome()


def move_counts(graph: Graph, dm: DistanceMatrix, k: int, out: GameOutcome | None = None, **solver_kwargs) -> MoveCounts:
    return GameSolver(graph, dm, k, **solver_kwargs).move_counts(out)


def jump_report(graph: Graph, dm: DistanceMatrix) -> JumpReport:
    """Outcomes for every truncation level up to stabilization, with transitions.

    Truncation levels run 1..dm.stable_level; diameters 1 and 2 yield the
    single trivial level k=1.  Nothing is reused across levels: truncation
    changes the resolving predicate itself.
    """
    return JumpReport.from_outcomes(
        (k, GameSolver(graph, dm, k).outcome()) for k in range(1, dm.stable_level + 1)
    )


def certificate_fast_path(
    graph: Graph,
    dm: DistanceMatrix,
    k: int,
    *,
    size_cap: int | None = None,
) -> Certificate | None:
    """Cheap structural outcome bounds; used to cross-check the solver."""
    tp = twin_partition(graph)
    big = tp.classes_of_size(4)
    if big:
        return Certificate(
            kind=CertificateKind.FORCED_B,
            reason=f"twin class of size {len(big[0])}: {list(big[0])}",
        )
    threes = tp.classes_of_size(3)
    if len(threes) >= 2:
        return Certificate(
            kind=CertificateKind.FORCED_B,
            reason=f"two twin classes of size >= 3: {list(threes[0])}, {list(threes[1])}",
        )
    dim = metric_dimension_k(dm, k, size_cap=size_cap).value
    if dim >= math.ceil(graph.n / 2) + 1:
        return Certificate(
            kind=CertificateKind.FORCED_B,
            reason=f"dimension {dim} exceeds half the order ({graph.n})",
        )
    found = search_pair_system(dm, k)
    if found is not None:
        system, check = found
        if check.kind is PairSystemKind.PAIRING:
            return Certificate(
                kind=CertificateKind.M_CERTIFIED,
                reason=f"pairing system of {len(system.pairs)} pairs",
                pair_system=system,
            )
        return Certificate(
            kind=CertificateKind.M_OR_N,
            reason=f"quasi-pairing system of {len(system.pairs)} pairs",
            pair_system=system,
            witnesses=check.witnesses,
        )
    return None
