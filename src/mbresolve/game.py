"""Exhaustive solver for the Maker-Breaker distance-k resolving game.

Maker and Breaker alternately claim unclaimed vertices; Maker wins once his
vertices form a distance-k resolving set, Breaker wins by preventing that
forever.  Both win conditions reduce to the inclusion-minimal pair-resolver
masks: Maker wins iff his set hits every mask, Breaker has won for good iff
she owns some mask outright.

The search is a memoized boolean minimax over positions (maker, breaker,
side to move), keyed ((maker << n) | breaker) << 1 | maker_to_move.  The key
holds the whole position, so one memo serves both games: an M-game and a
B-game position never share claim counts and side to move.  Move generation
restricts to vertices of still-unhit masks (claiming anything else helps
neither side).  Move counts reuse the same search with a cap on the winner's
claims: the winner's optimal count is the least cap under which the winner
still wins, found by searching caps in increasing order, each capped run with
a fresh memo.  Three exact root bounds leave only some caps to search
(GameSolver.winner_move_count states each argument): a floor, since Maker
needs a resolving set and so at least dim_k(G) claims; a ceiling, since an
empty-board pair cover of p pairs lets Maker win within p claims whoever
moves first, so once every cap below p has lost the answer is p, unsearched;
and between the two games, mrk <= m'rk and b'rk <= brk, since the side that
moves first can imagine an opponent claim and play its second-player
strategy, so one game's count is a floor for the other's.

Each node is a Maker-Breaker hypergraph game in which Breaker builds (she
wins by claiming every free vertex of an unhit mask) and Maker blocks.  These
exact reductions are always on; each leaves every node's value unchanged:

- Claim-horizon cutoffs.  Under a cap on Maker with r claims left, Maker has
  lost once the free parts of unhit masks hold more than r pairwise disjoint
  sets (found by a greedy packing, smallest first): one claim hits at most
  one of them.  Under a cap on Breaker with r claims left, Maker has won once
  every unhit mask has more than r free vertices: Breaker cannot fill a mask
  before her cap ends her play, since Maker's claims never add a free vertex
  and play runs on until she is to move at her cap.
- Pairing cutoff.  If disjoint pairs of free vertices put one pair inside
  every free part (the cover rule of resolve._classify, applied to the free
  parts), Maker has won whoever is to move: he answers a Breaker claim on a
  pair with its partner and otherwise claims from a pair he has not touched,
  so Breaker never fills a part.  Each of his claims touches a new pair, so
  with p pairs he wins within p claims.  The cutoff takes covers of at most
  left pairs: under a cap on Maker, left is his claims left, and otherwise
  it is resolve.MAX_PAIR_SYSTEM; a cap on Breaker only helps Maker.  The
  cutoff fires only on a cover it has built, so it is exact however it
  searches: a cover it does not see only leaves the node to be expanded.
  Its one search is resolve._pair_cover, which backtracks over at most a
  budget of branching nodes and past it takes each branching part's lowest
  pair.  With Maker's claims not capped the budget is
  resolve.PAIR_SEARCH_NODES, and the search finds a cover whenever one
  exists unless it runs past that; at the empty board it is
  resolve._root_cover, computed once per mask set and shared with
  resolve.search_pair_system.  Under a cap on Maker the budget is 0, one
  greedy descent.  Backtracking there settles many more nodes, but the
  small count searches of the benchmark's counts workload run slower with
  it: a budget of 40 took 44% off the count nodes of tests/answers.py, yet
  added about 8% to counts' wall_s and 25% to its item_p99_ms.
- Threats.  An unhit mask with one free vertex is a threat: Breaker to move
  claims it and wins, and Maker to move must claim it, because any other move
  lets Breaker win at once.  A node with a threat never fires the pairing
  cutoff, whose pairs need two free vertices in every part.
- Forks.  With Breaker to move and no threat, two distinct free parts of
  two vertices that share a vertex are a fork (Beck, Combinatorial Games:
  Tic-Tac-Toe Theory, 2008): she claims the shared vertex, which leaves
  two distinct threats with Maker to move, a double threat; he blocks one
  and she claims the other, so Breaker has won.  The test reads the
  distinct parts of two vertices and fires when two of them meet; equal
  parts are one part, and disjoint ones no fork.  It runs before the
  pairing cutoff, which a fork leaves no cover: the two parts would need
  overlapping pairs.  Under a cap on Breaker she needs two claims, and the
  claim-horizon cutoff has already returned when she has fewer than
  min_free = 2 left; under a cap on Maker a Breaker win is a Maker loss.
  A double threat is not tested for: without a fork at most one distinct
  part of two vertices holds Breaker's vertex, so the search meets one
  only at an entry position, where Maker's one forced move loses.
- Twin pruning.  Swapping two twins is an automorphism of the graph, so it
  maps masks to masks; while both are unclaimed it fixes the position, and
  claiming either one leads to positions of the same value.  Only the lowest
  unclaimed vertex of each twin class is tried, except for a forced threat
  move, which is the one move tried.
- Symmetry at the first two plies.  An automorphism of the graph keeps
  distances, so it maps masks to masks; one that fixes every claimed vertex
  maps the position to itself, and claiming v or its image leads to
  positions of the same value.  At a node with at most one claimed vertex
  whose first tried move did not settle it, a move is skipped when it lies
  in the orbit of a move already tried, under automorphisms that fix the
  claimed vertex.  The orbits come from graph._vertex_orbits, per claim,
  and are those of a subgroup of that stabilizer, which is all the
  argument needs: a search cut short only gives finer orbits and skips
  less.  Each claim's orbits are searched once per solver and kept.

Both sides try their moves in decreasing order of danger, the sum of
2^-|free part| over the unhit masks that hold the vertex, so a vertex in
many small free parts comes first: a Breaker claim there brings her nearest
to filling a mask, and a Maker claim there hits the most of them.  Ties
keep the order in which the vertices first appear in the free parts, lowest
vertex first within a part; the parts are read in mask order (smallest
first).  Ordering changes only which move is tried first, never a node's
value.  No reduction changes the memo key.  A node a reduction settles is
not stored, except the entry position of a search: its value is stored
whatever settled it, so asking for it again costs one memo probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, IntEnum

from .errors import CountUndefinedError, InvariantError, SizeCapError, VertexRangeError
from .graph import DistanceMatrix, Graph, _vertex_orbits
from .resolve import (
    DEFAULT_SIZE_CAP,
    MAX_PAIR_SYSTEM,
    PAIR_SEARCH_NODES,
    PairSystem,
    PairSystemKind,
    _least_hitting_set,
    _pair_cover,
    _require_in_range,
    _root_cover,
    _twin_classes,
    metric_dimension_k,
    minimal_pair_masks,
    search_pair_system,
)

# entries one memo may hold; a node past the bound is recomputed, never wrong
MEMO_LIMIT = 8_000_000


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
    """Search counters; informative only, never part of a result.

    nodes and tt_hits count the expanded nodes and the memo hits of the
    uncapped searches behind maker_wins, and tt_entries the entries of their
    one memo: the expanded nodes, and each entry position a cutoff settled
    (see _searcher).  count_searches counts the capped searches behind move
    counts (one per cap searched) and count_nodes their expanded nodes, and
    orbit_searches the vertex-orbit searches of all of them.
    """

    nodes: int = 0
    tt_entries: int = 0
    tt_hits: int = 0
    count_searches: int = 0
    count_nodes: int = 0
    orbit_searches: int = 0


class GameSolver:
    """Solves both games on one (graph, k); reusable across winner/count queries.

    Moves are tried in decreasing order of danger (see the module docstring);
    the order never changes a result.  The memo keys are packed by graph.n and
    the masks read from dm, so a dm of another order raises ValueError.
    """

    def __init__(self, graph: Graph, dm: DistanceMatrix, k: int, *, size_cap: int | None = None):
        if dm.n != graph.n:
            raise ValueError(f"distance matrix of order {dm.n} given for a graph of order {graph.n}")
        cap = DEFAULT_SIZE_CAP if size_cap is None else size_cap
        if graph.n > cap:
            raise SizeCapError(graph.n, cap)
        self.graph = graph
        self.dm = dm
        self.k = k
        self.n = graph.n
        self.masks = minimal_pair_masks(dm, k)
        self._twin_masks = tuple(sum(1 << v for v in cls) for cls in _twin_classes(self.masks))
        self._memo: dict[int, bool] = {}
        self.stats = SolverStats()
        # vertex orbits under the automorphisms that fix the claimed vertex,
        # keyed by its bit (0: the empty board); at most 1 + n entries
        self._orbits: dict[int, tuple[int, ...]] = {}
        self._search = self._searcher(self._memo, self.stats)

    # -- winner search ---------------------------------------------------

    def _searcher(self, memo: dict[int, bool], tally: SolverStats, cap: int | None = None, cap_maker: bool = True):
        """Memoized search: does Maker win from (maker, breaker, maker_to_move)?

        With a cap, the capped side (Maker if cap_maker, else Breaker) loses
        when it is to move and already holds cap vertices, so the search
        answers "does that side win within cap claims"; the claim-horizon
        cutoffs of the module docstring end a branch before that.  Nodes
        expanded are counted in tally.nodes and memo hits in tally.tt_hits; a
        node settled by a cutoff is not expanded.

        The search carries its state down the tree: each child receives its
        parent's free parts of the unhit masks (mask & ~breaker for every mask
        Maker has not hit), in mask order, and two masks.  One fused loop
        filters that list into the child's own and scans it: a part that meets
        drop leaves the list, every other part is cut down to keep, and a part
        cut to nothing means Breaker owns that mask outright and has won.  A
        Maker claim passes its vertex as drop and keeps everything; a Breaker
        claim drops nothing and keeps all but her vertex; the entry call
        passes the masks themselves with drop = maker and keep = ~breaker.
        The threats, the danger scores, the packing and the pairing cover
        all read that list, so a node costs time in the unhit masks, not in
        all of them.  The pairing cover is resolve._pair_cover with the
        budget of the module docstring; at the empty board, where the free
        parts are the masks themselves, the uncapped search is the cached
        resolve._root_cover.

        The memo maps the position key of the module docstring to the value
        of an expanded node and is probed before that loop.  That is exact:
        the key fixes the position, and with the cap and the capped side
        fixed per memo, it fixes each cap's claims left too.  The entry
        position's value is stored too, even when a cutoff settled it, so a
        repeated query from it (outcome() after maker_wins, move counts after
        outcome()) is one probe.  A value is stored only while the memo holds
        fewer than MEMO_LIMIT entries.
        """
        masks = self.masks
        limit = MEMO_LIMIT
        twin_masks = self._twin_masks
        n = self.n
        unit = 1 << n  # danger weight 1, in units of 2^-n
        maker_cap = cap if cap_maker else None
        breaker_cap = None if cap_maker else cap
        budget = PAIR_SEARCH_NODES if maker_cap is None else 0  # the pair cover's backtracking budget
        memo_get = memo.get
        dm, stats, orbit_memo = self.dm, self.stats, self._orbits
        # node recurses through child, which is bound only while a search
        # runs: a function that named itself would form a reference cycle,
        # and the memo it holds would outlive the solver until the cyclic
        # collector ran
        child = None

        # Both sides claim only live vertices (those of masks Maker has not
        # hit).  Any other claim is a pass, and since an extra claimed vertex
        # never hurts its owner (monotonicity), a pass never lets the winner
        # win sooner, nor delays the winner more, than a live claim does.
        def node(
            maker: int, breaker: int, maker_to_move: bool, above: list[int] | tuple[int, ...], drop: int, keep: int
        ) -> bool:
            key = ((maker << n) | breaker) << 1 | maker_to_move
            hit = memo_get(key)
            if hit is not None:
                tally.tt_hits += 1
                return hit
            parts = []
            live = 0
            min_free = n + 1  # more than any mask has
            smallest = 0
            for rest in above:
                if rest & drop:
                    continue  # Maker has hit this mask
                rest &= keep
                if not rest:
                    return False  # Breaker owns this mask outright
                parts.append(rest)
                live |= rest
                free = rest.bit_count()
                if free < min_free:
                    min_free = free
                    smallest = rest
            if not live:
                return True  # every mask hit: maker's set resolves
            if breaker_cap is not None and min_free > breaker_cap - breaker.bit_count():
                return True  # Breaker cannot fill a mask within her cap
            if not maker_to_move and min_free == 1:
                return False  # Breaker claims the threat's vertex
            left = MAX_PAIR_SYSTEM
            if maker_cap is not None:
                left = maker_cap - maker.bit_count()
                used = packed = 0
                for rest in sorted(parts, key=int.bit_count):
                    if not rest & used:
                        used |= rest
                        packed += 1
                        if packed > left:
                            return False  # Maker cannot hit every mask within his cap
            if min_free > 1:
                if not maker_to_move and min_free == 2:
                    met = 0
                    for rest in {rest for rest in parts if rest.bit_count() == 2}:
                        if rest & met:
                            return False  # a fork: two distinct parts of two vertices share a vertex
                        met |= rest
                # pairing cutoff; the empty board's uncapped cover is computed once per mask set
                if maker_cap is None and not maker | breaker:
                    cover = _root_cover(masks)
                else:
                    cover = _pair_cover(parts, left, budget=budget)
                if cover is not None:
                    return True  # Maker wins by the pairing strategy, within that many claims
            tally.nodes += 1
            if maker_to_move and min_free == 1:
                # forced, and exempt from twin pruning: that would drop this
                # vertex for a twin that is not a move here
                moves = smallest
            else:
                moves = live
                unclaimed = ~(maker | breaker)
                for twins in twin_masks:
                    open_twins = twins & unclaimed
                    moves &= ~(open_twins & (open_twins - 1))  # keep the lowest unclaimed twin only
            if moves & (moves - 1):
                danger = {}
                for rest in parts:
                    weight = unit >> rest.bit_count()
                    rest &= moves
                    while rest:
                        bit = rest & -rest
                        danger[bit] = danger.get(bit, 0) + weight
                        rest ^= bit
                # every move lies in a part, so danger has a key for each
                order = sorted(danger, key=danger.__getitem__, reverse=True)
            else:
                order = (moves,)
            claims = maker | breaker
            # at most one claim and another move to try: prune by orbits after a refuted move
            lookup = not claims & (claims - 1) and moves & (moves - 1)
            orbits = None
            skip = 0  # moves in the orbit of a refuted move
            result = not maker_to_move  # the value when no move settles the node
            for bit in order:
                if bit & skip:
                    continue
                if maker_to_move:
                    settled = child(maker | bit, breaker, False, parts, bit, -1)
                else:
                    settled = not child(maker, breaker | bit, True, parts, 0, ~bit)
                if settled:
                    result = maker_to_move
                    break
                if lookup:
                    lookup = False
                    orbits = orbit_memo.get(claims)
                    if orbits is None:
                        stats.orbit_searches += 1
                        orbits = orbit_memo[claims] = _vertex_orbits(dm, twin_masks, claims.bit_length() - 1)
                if orbits is not None:
                    skip |= orbits[bit.bit_length() - 1]
            if len(memo) < limit:
                memo[key] = result
            return result

        def search(maker: int, breaker: int, maker_to_move: bool) -> bool:
            nonlocal child
            child = node
            try:
                result = node(maker, breaker, maker_to_move, masks, maker, ~breaker)
            finally:
                child = None
            # node stores no value a cutoff settled; keep the entry position's anyway
            if len(memo) < limit:
                memo[((maker << n) | breaker) << 1 | maker_to_move] = result
            return result

        return search

    def maker_wins(self, maker: int, breaker: int, maker_to_move: bool, maker_first: bool) -> bool:
        """Does Maker win from the position given by the claimed-vertex bitmasks?

        A bit outside 0..n-1 raises VertexRangeError; overlapping sets, claim
        counts the first player cannot reach, or a side to move that the
        counts do not give raise ValueError.
        """
        both = maker | breaker
        if both < 0:
            raise VertexRangeError(f"position bitmasks must be non-negative, got {maker} and {breaker}")
        if both >> self.n:
            _require_in_range(self.n, [v for v in range(both.bit_length()) if both >> v & 1], "position vertices")
        if maker & breaker:
            raise ValueError(f"maker and breaker sets overlap: {maker & breaker:#b}")
        lead = maker.bit_count() - breaker.bit_count()  # the first player's claims ahead
        if not maker_first:
            lead = -lead
        if lead not in (0, 1):
            first = Player.MAKER if maker_first else Player.BREAKER
            raise ValueError(f"position unreachable with {first.value} moving first: "
                             f"|maker|={maker.bit_count()}, |breaker|={breaker.bit_count()}")
        if maker_to_move != ((lead == 0) == maker_first):
            raise ValueError(f"{'Maker' if maker_to_move else 'Breaker'} is not the side to move here")
        result = self._search(maker, breaker, maker_to_move)
        self.stats.tt_entries = len(self._memo)
        return result

    # -- public queries ----------------------------------------------------

    def winner(self, position: GamePosition) -> Player:
        _require_in_range(self.n, position.maker_set | position.breaker_set, "position vertices")
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
        wins.  It is found by capped searches in increasing order of cap,
        each on a fresh memo and counted in stats.count_searches and
        stats.count_nodes, and only over the caps that these exact root
        bounds leave open:

        - Floor.  When Maker wins, his claims at the end form a resolving
          set, so he needs at least dim_k(G) of them (metric_dimension_k,
          under the solver's size cap); a pair cover's p pairs give a
          resolving set of p vertices, so this never exceeds the ceiling.
          When Breaker wins, she needs every vertex of some mask, so at
          least the size of the first, since the masks are smallest first.
        - Ceiling.  When Maker wins and the empty board has a pair cover of
          p pairs (the cached resolve._root_cover), he wins within p claims
          whoever moves first, by the pairing strategy of the module
          docstring.  Once every cap below p has lost, the answer is p, and
          the search under cap p, which would only prove it, is skipped.
        - Relation (used by move_counts).  mrk <= m'rk and b'rk <= brk: the
          winner, moving first, imagines that its opponent has claimed some
          free vertex and follows its second-player strategy from there; if
          the opponent claims the imagined vertex, it imagines another.  Its
          claims are the strategy's claims, all of them free on the real
          board, since the imagined opponent holds the real one's claims
          and more; and a win depends on the winner's own claims only (a
          resolving set for Maker, a whole mask for Breaker).  So the
          winner's count in the game it moves first in is a floor for the
          other game.  An N outcome has one winner per game and no relation.

        The search relies on dim <= mrk <= m'rk and b'rk <= brk, so the
        verify suite's count-bounds property cannot catch a violation of
        them; the naive count oracle of the tests and the answer digest do.
        """
        maker_is_winner = self.maker_wins(0, 0, maker_first, maker_first)
        return self._least_cap(maker_first, maker_is_winner, *self._root_bounds(maker_is_winner))

    def _root_bounds(self, maker_is_winner: bool) -> tuple[int, int]:
        """The floor and ceiling of winner_move_count in either game; n + 1 for no ceiling."""
        if not maker_is_winner:
            return self.masks[0].bit_count(), self.n + 1  # Breaker wins only while some mask is unhit
        cover = _root_cover(self.masks)
        floor = metric_dimension_k(self.dm, self.k, size_cap=self.n).value
        return floor, self.n + 1 if cover is None else len(cover)

    def _least_cap(self, maker_first: bool, maker_is_winner: bool, floor: int, ceiling: int) -> int:
        """The least cap from floor up under which the winner wins, where it is known to win under ceiling."""
        for cap in range(floor, ceiling):
            tally = SolverStats()
            won = self._searcher({}, tally, cap, cap_maker=maker_is_winner)(0, 0, maker_first)
            self.stats.count_searches += 1
            self.stats.count_nodes += tally.nodes
            if won == maker_is_winner:
                return cap
        if ceiling > self.n:
            raise InvariantError(f"the winner does not win within all {self.n} vertices")
        return ceiling

    def move_counts(self, out: GameOutcome | None = None) -> MoveCounts:
        """Winner move counts of both games; under M or B the first game's count is the second's floor."""
        actual = self.outcome()
        if out is not None and out != actual:
            raise ValueError(f"supplied outcome {out} disagrees with solver outcome {actual}")
        if actual.symbol is OutcomeSymbol.N:
            return MoveCounts(nrk=self.winner_move_count(maker_first=True),
                              nprime_rk=self.winner_move_count(maker_first=False))
        # count the game the winner moves first in, then the other from that count up (winner_move_count's relation)
        maker_is_winner = actual.symbol is OutcomeSymbol.M
        floor, ceiling = self._root_bounds(maker_is_winner)
        first = self._least_cap(maker_is_winner, maker_is_winner, floor, ceiling)
        second = self._least_cap(not maker_is_winner, maker_is_winner, first, ceiling)
        if maker_is_winner:
            return MoveCounts(mrk=first, mprime_rk=second)
        return MoveCounts(brk=second, bprime_rk=first)


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


def certificate_fast_path(graph: Graph, dm: DistanceMatrix, k: int) -> Certificate | None:
    """Cheap structural outcome bounds; used to cross-check the solver.

    Tested in order: a twin class of four or more, or two of three or more
    (forced B); a pairing (M) or quasi-pairing (M or N) from
    search_pair_system; and only when no pair system exists, whether some
    ceil(n/2) vertices resolve (forced B if none do).  Asking for the pair
    system first skips no forced-B answer: a pairing of p disjoint pairs has
    resolving transversals of p <= n/2 vertices, and a quasi-pairing's
    transversals plus its witness, outside the 2p pair vertices, resolve
    with p + 1 <= (n+1)/2 vertices, so either system already gives
    dimension at most ceil(n/2).  A dm of another order than graph raises
    ValueError.
    """
    if dm.n != graph.n:
        raise ValueError(f"distance matrix of order {dm.n} given for a graph of order {graph.n}")
    masks = minimal_pair_masks(dm, k)
    twin_classes = _twin_classes(masks)
    big = [cls for cls in twin_classes if len(cls) >= 4]
    if big:
        return Certificate(
            kind=CertificateKind.FORCED_B,
            reason=f"twin class of size {len(big[0])}: {list(big[0])}",
        )
    threes = [cls for cls in twin_classes if len(cls) >= 3]
    if len(threes) >= 2:
        return Certificate(
            kind=CertificateKind.FORCED_B,
            reason=f"two twin classes of size >= 3: {list(threes[0])}, {list(threes[1])}",
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
    half = math.ceil(graph.n / 2)
    if _least_hitting_set(masks, half) is None:
        return Certificate(
            kind=CertificateKind.FORCED_B,
            reason=f"dimension exceeds half the order ({graph.n}): no resolving set of {half} vertices",
        )
    return None
