import gc
import random
import weakref

import pytest

from mbresolve import game, resolve
from mbresolve.errors import CountUndefinedError, InvariantError, SizeCapError, VertexRangeError
from mbresolve.families import FamilySpec, connected_graph_atlas, gen_family, random_connected_graph
from mbresolve.game import (
    CertificateKind,
    GameOutcome,
    GamePosition,
    GameSolver,
    JumpReport,
    MoveCounts,
    OutcomeSymbol,
    Player,
    SolverStats,
    certificate_fast_path,
    jump_report,
    move_counts,
    outcome,
    winner,
)
from mbresolve.graph import all_pairs_distances, build_graph
from mbresolve.resolve import PairSystemKind, check_pair_system, metric_dimension_k

from oracles import naive_least_cover, naive_maker_wins, naive_outcome_symbol, naive_winner_count, naive_wins_within


def family(name, **kw):
    g = gen_family(FamilySpec.make(name, **kw))
    return g, all_pairs_distances(g)


class TestWinner:
    def test_star_empty_board_maker_first_breaker_wins(self):
        g, dm = family("star", beta=4)
        pos = GamePosition(frozenset(), frozenset(), Player.MAKER)
        assert winner(g, dm, 1, pos) is Player.BREAKER

    def test_resolving_maker_set_is_terminal(self):
        g, dm = family("petersen")
        pos = GamePosition(frozenset({0, 2, 8}), frozenset({1, 3, 4}), Player.MAKER)
        assert winner(g, dm, 1, pos) is Player.MAKER

    def test_c5_breaker_first_maker_wins(self):
        g, dm = family("cycle", n=5)
        pos = GamePosition(frozenset(), frozenset(), Player.BREAKER)
        assert winner(g, dm, 1, pos) is Player.MAKER

    def test_overlapping_sets_rejected(self):
        with pytest.raises(ValueError):
            GamePosition(frozenset({1}), frozenset({1}), Player.MAKER)

    def test_unreachable_parity_rejected(self):
        g, dm = family("cycle", n=5)
        pos = GamePosition(frozenset({0, 1}), frozenset(), Player.MAKER)
        with pytest.raises(ValueError):
            winner(g, dm, 1, pos)

    @pytest.mark.parametrize("maker, breaker", [({5}, set()), ({0}, {-1})], ids=["too-large", "negative"])
    def test_vertex_out_of_range(self, maker, breaker):
        g, dm = family("cycle", n=5)
        pos = GamePosition(frozenset(maker), frozenset(breaker), Player.MAKER)
        with pytest.raises(VertexRangeError):
            winner(g, dm, 1, pos)

    @pytest.mark.parametrize("maker, breaker, maker_to_move, maker_first, error", [
        (0, 1 << 7, True, True, VertexRangeError),  # a Breaker bit past n shares the key of Maker on vertex 2
        (-1, 0, True, True, VertexRangeError),
        (1, 1, True, True, ValueError),  # overlapping sets
        (0b11, 0, False, True, ValueError),  # Maker two claims ahead
        (0, 0b1, True, True, ValueError),  # Breaker ahead in the M-game
        (0, 0, False, True, ValueError),  # side to move disagrees with the counts
        (0b1, 0b10, True, False, ValueError),
    ])
    def test_maker_wins_rejects_bad_positions(self, maker, breaker, maker_to_move, maker_first, error):
        # a rejected call stores nothing, so later queries on the same memo stay exact
        g = build_graph(5, [(0, 1), (0, 2), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
        dm = all_pairs_distances(g)
        solver = GameSolver(g, dm, 1)
        with pytest.raises(error):
            solver.maker_wins(maker, breaker, maker_to_move, maker_first)
        assert solver.outcome() == GameSolver(g, dm, 1).outcome()
        assert solver.outcome().symbol is OutcomeSymbol.N

    def test_out_of_range_bit_cannot_alias_a_claim(self):
        # on K5 minus (0, 4), a Breaker bit at n + v has the memo key of Maker holding v
        g = build_graph(5, [(a, b) for a in range(5) for b in range(a + 1, 5) if (a, b) != (0, 4)])
        dm = all_pairs_distances(g)
        for v in range(5):
            for maker_first in (True, False):
                solver = GameSolver(g, dm, 1)
                with pytest.raises(VertexRangeError):
                    solver.maker_wins(0, 1 << (5 + v), maker_first, maker_first)
                fresh = GameSolver(g, dm, 1)
                assert solver.maker_wins(1 << v, 0, False, True) == fresh.maker_wins(1 << v, 0, False, True)
                assert solver.outcome() == fresh.outcome()

    def test_player_to_move_derivation(self):
        pos = GamePosition(frozenset({0}), frozenset({1}), Player.MAKER)
        assert pos.player_to_move is Player.MAKER
        pos = GamePosition(frozenset({0}), frozenset(), Player.MAKER)
        assert pos.player_to_move is Player.BREAKER
        pos = GamePosition(frozenset(), frozenset({1}), Player.BREAKER)
        assert pos.player_to_move is Player.MAKER


class TestOutcome:
    def test_petersen_maker_everywhere(self):
        g, dm = family("petersen")
        out = outcome(g, dm, 1)
        assert out.symbol is OutcomeSymbol.M
        assert out.m_game_winner is Player.MAKER and out.b_game_winner is Player.MAKER

    def test_triangle_first_player(self):
        g, dm = family("cycle", n=3)
        for k in (1, 2):
            assert outcome(g, dm, k).symbol is OutcomeSymbol.N

    def test_c9_level_one_maker(self):
        g, dm = family("cycle", n=9)
        assert outcome(g, dm, 1).symbol is OutcomeSymbol.M

    def test_impossible_outcome_pair_raises(self, monkeypatch):
        # Breaker wins the M-game yet Maker wins the B-game: an extra move never hurts, so this is a bug
        monkeypatch.setattr(GameSolver, "maker_wins", lambda self, m, b, to_move, maker_first: not maker_first)
        g, dm = family("cycle", n=4)
        with pytest.raises(InvariantError):
            GameSolver(g, dm, 1).outcome()

    def test_size_cap_enforced(self):
        g, dm = family("path", n=8)
        with pytest.raises(SizeCapError):
            outcome(g, dm, 1, size_cap=7)

    @pytest.mark.parametrize("cap", [0, -3])
    def test_size_cap_below_one_rejected(self, cap):
        # a cap below 1 is a bad argument, not an oversize graph
        g, dm = family("path", n=3)
        with pytest.raises(ValueError, match=f"size cap must be a positive integer, got {cap}"):
            GameSolver(g, dm, 1, size_cap=cap)

    def test_distance_matrix_of_another_order_rejected(self):
        # memo keys are packed by graph.n and masks read from dm: this M graph
        # of order 9 read as order 2 gave N with no error
        edges = [(0, 2), (0, 3), (0, 5), (0, 6), (0, 7), (1, 2), (1, 5), (2, 6), (3, 6), (3, 7), (4, 7), (5, 6),
                 (5, 8), (6, 7)]
        g = build_graph(9, edges)
        dm = all_pairs_distances(g)
        assert outcome(g, dm, 1).symbol is OutcomeSymbol.M
        small = build_graph(2, [(0, 1)])
        for g_, dm_ in ((small, dm), (g, all_pairs_distances(small))):
            with pytest.raises(ValueError, match="order"):
                GameSolver(g_, dm_, 1)
            with pytest.raises(ValueError, match="order"):
                outcome(g_, dm_, 1)
            with pytest.raises(ValueError, match="order"):
                move_counts(g_, dm_, 1)
            with pytest.raises(ValueError, match="order"):
                certificate_fast_path(g_, dm_, 1)

    def test_single_vertex_trivially_maker(self):
        g = build_graph(1, [])
        dm = all_pairs_distances(g)
        out = outcome(g, dm, 1)
        assert out.symbol is OutcomeSymbol.M
        assert move_counts(g, dm, 1).mrk == 0

    def test_search_node_bounds(self):
        # the empty board's pairing cover settles both of Petersen's games at the root, before any node is expanded
        g, dm = family("petersen")
        solver = GameSolver(g, dm, 1)
        assert solver.outcome().symbol is OutcomeSymbol.M
        assert solver.stats.nodes == 0
        # the G(18, 0.3) draw of the ROADMAP baseline: the cached empty-board cover settles it before any node is expanded
        rng = random.Random(1)
        g = [random_connected_graph(n, 0.3, rng) for n in (12, 14, 16, 18)][3]
        solver = GameSolver(g, all_pairs_distances(g), 1)
        assert solver.outcome().symbol is OutcomeSymbol.M
        assert solver.stats.nodes == 0
        # exact counts: a change to any of them is a change to the search, to
        # be measured and recorded, not absorbed by a loose bound
        for n, symbol, nodes in ((13, OutcomeSymbol.M, 153), (15, OutcomeSymbol.N, 107), (17, OutcomeSymbol.M, 2_090)):
            g, dm = family("cycle", n=n)
            solver = GameSolver(g, dm, 1)
            assert solver.outcome().symbol is symbol
            assert solver.stats.nodes == nodes, n
        # the count searches of the benchmark's slowest counts items, C12, thm_f(alpha=4) and thm_d, and of Petersen
        rows = (("cycle", {"n": 12}, 1, 76), ("thm_f", {"alpha": 4}, 4, 106), ("thm_d", {}, 4, 34),
                ("petersen", {}, 2, 79))
        for name, kw, searches, nodes in rows:
            g, dm = family(name, **kw)
            solver = GameSolver(g, dm, 1)
            solver.move_counts()
            assert (solver.stats.count_searches, solver.stats.count_nodes) == (searches, nodes), name
        # the ROADMAP sweep's draw (0.5, 0) at n = 18, where count search is the cost
        g = random_connected_graph(18, 0.5, random.Random(12345))
        solver = GameSolver(g, all_pairs_distances(g), 1)
        assert solver.move_counts() == MoveCounts(mrk=5, mprime_rk=5)
        assert (solver.stats.count_searches, solver.stats.count_nodes) == (2, 27_208)

    def test_memo_hits_counted(self):
        # C13 still searches (153 nodes); the pairing cutoff settles C12 at the root
        g, dm = family("cycle", n=13)
        solver = GameSolver(g, dm, 1)
        solver.outcome()
        assert solver.stats.tt_hits > 0

    def test_empty_board_cover_is_computed_once_per_mask_set(self, monkeypatch):
        # C7 at k=1: the entry nodes of both games ask for the empty
        # board's pair cover, which the M-game computes and the B-game
        # reads; the certificate's pair search then reads the same cached
        # cover
        g, dm = family("cycle", n=7)
        resolve._root_cover.cache_clear()
        solver = GameSolver(g, dm, 1)
        first = solver.outcome()
        assert resolve._root_cover.cache_info()[:2] == (1, 1)  # (hits, misses)
        assert certificate_fast_path(g, dm, 1).kind is CertificateKind.M_OR_N
        assert resolve._root_cover.cache_info()[:2] == (2, 1)
        # both entry values are in the memo: no cover is asked for again
        covers = []
        for name in ("_pair_cover", "_root_cover"):
            real = getattr(game, name)
            monkeypatch.setattr(game, name, lambda *args, real=real: covers.append(args) or real(*args))
        assert solver.outcome() == first
        assert covers == []

    def test_entry_position_settled_by_a_cutoff_is_stored(self, monkeypatch):
        # Petersen at k=1: both games are settled at the root, with no node
        # expanded; their entry values are stored all the same, so a second
        # outcome() is two memo probes and runs no cutoff
        g, dm = family("petersen")
        solver = GameSolver(g, dm, 1)
        first = solver.outcome()
        stats = solver.stats
        assert (stats.nodes, stats.tt_entries, stats.tt_hits) == (0, 2, 0)
        covers = []
        monkeypatch.setattr(game, "_pair_cover", lambda *args, real=game._pair_cover: covers.append(args) or real(*args))
        assert solver.outcome() == first
        assert (stats.nodes, stats.tt_entries, stats.tt_hits) == (0, 2, 2)
        assert covers == []

    def test_dropped_solver_leaves_nothing_to_the_cycle_collector(self):
        # the memos and the orbit cache go with their solver at once, not when the cyclic collector runs
        gc.disable()
        try:
            for n in (13, 12):  # C12's counts search orbits
                g, dm = family("cycle", n=n)
                gc.collect()
                solver = GameSolver(g, dm, 1)
                solver.outcome()
                solver.move_counts()
                searched = solver.stats.orbit_searches
                dead = weakref.ref(solver)
                del solver
                assert dead() is None
                assert gc.collect() == 0
            assert searched > 0
        finally:
            gc.enable()

    def test_orbits_are_searched_once_per_claim(self):
        # C12's count searches prune by orbits; each claim's orbits are kept
        # by the solver, so fresh count searches reuse them
        g, dm = family("cycle", n=12)
        solver = GameSolver(g, dm, 1)
        first = solver.move_counts()
        searched, count_nodes = solver.stats.orbit_searches, solver.stats.count_nodes
        assert 0 < searched == len(solver._orbits) <= 1 + g.n
        assert solver.move_counts() == first
        assert solver.stats.count_nodes == 2 * count_nodes  # the count searches ran again
        assert solver.stats.orbit_searches == searched

    def test_one_claim_positions_match_naive_oracle(self):
        # the positions pruned by orbits: the empty board and one claim, on symmetric graphs
        cube = build_graph(8, [(u, u ^ bit) for u in range(8) for bit in (1, 2, 4) if u < u ^ bit])  # C4 x K2
        graphs = {"C7": family("cycle", n=7), "C8": family("cycle", n=8), "K(3,3)": family("multipartite", parts=(3, 3)),
                  "K(2,2,2)": family("multipartite", parts=(2, 2, 2)), "C4xK2": (cube, all_pairs_distances(cube))}
        searched = set()
        empty = frozenset()
        for name, (g, dm) in graphs.items():
            solver = GameSolver(g, dm, 1)
            memo: dict = {}
            for v in range(g.n):
                # the M-game after Maker claims v, and the B-game after Breaker claims v
                got = solver.maker_wins(1 << v, 0, False, True)
                assert got == naive_maker_wins(dm, 1, frozenset({v}), empty, False, memo), (name, v)
                got = solver.maker_wins(0, 1 << v, True, False)
                assert got == naive_maker_wins(dm, 1, empty, frozenset({v}), True, memo), (name, v)
            for maker_first in (True, False):
                assert solver.winner_move_count(maker_first) == naive_winner_count(dm, 1, maker_first), name
            if solver.stats.orbit_searches:
                searched.add(name)
        # K(2,2,2)'s masks are its three twin pairs: a cutoff settles each node
        # but the B-game's after one Breaker claim, whose one move is the threat;
        # K(3,3)'s are the pairs inside each side, a fork after every claim
        assert searched == {"C7", "C8", "C4xK2"}

    def test_one_memo_serves_both_games(self):
        # an M-game and a B-game position never share claim counts and side to
        # move, so solving both games on one memo costs what two fresh memos do
        for name, kw in (("cycle", {"n": 13}), ("thm_e", {"alpha": 3}), ("fig1", {"alpha": 2})):
            g, dm = family(name, **kw)
            both = GameSolver(g, dm, 1)
            both.outcome()
            apart = [GameSolver(g, dm, 1) for _ in range(2)]
            apart[0].maker_wins(0, 0, True, True)
            apart[1].maker_wins(0, 0, False, False)
            assert both.stats.nodes == sum(s.stats.nodes for s in apart)
            assert both.stats.tt_hits == sum(s.stats.tt_hits for s in apart)
            # the memo holds each expanded node, and each entry position a cutoff settled: a search that expanded none
            settled = sum(s.stats.nodes == 0 for s in apart)
            assert both.stats.tt_entries == sum(s.stats.tt_entries for s in apart) == both.stats.nodes + settled
            if name == "thm_e":
                # Breaker's entry position in the B-game holds a fork: no node expanded, its value stored
                assert [(s.stats.nodes, s.stats.tt_entries) for s in apart] == [(7, 7), (0, 1)]
                assert (both.stats.nodes, both.stats.tt_entries) == (7, 8)

    def test_one_solver_answers_midgame_positions_of_both_games(self):
        rng = random.Random(808)
        for _ in range(12):
            g = random_connected_graph(rng.randint(4, 6), rng.uniform(0.3, 0.8), rng)
            dm = all_pairs_distances(g)
            k = rng.randint(1, max(1, dm.diameter))
            solver = GameSolver(g, dm, k)  # one memo for every query below
            for _ in range(15):
                first = rng.choice([Player.MAKER, Player.BREAKER])
                pool = list(range(g.n))
                rng.shuffle(pool)
                moves = pool[: rng.randint(0, g.n)]
                maker = frozenset(moves[0::2] if first is Player.MAKER else moves[1::2])
                breaker = frozenset(moves[1::2] if first is Player.MAKER else moves[0::2])
                pos = GamePosition(maker, breaker, first)
                want = naive_maker_wins(dm, k, maker, breaker, pos.player_to_move is Player.MAKER)
                assert (solver.winner(pos) is Player.MAKER) == want, (sorted(g.edges), k, pos)

    def test_matches_naive_oracle_on_atlas(self):
        for g in connected_graph_atlas(max_n=5, min_n=2):
            dm = all_pairs_distances(g)
            for k in range(1, max(2, dm.diameter)):
                assert int(outcome(g, dm, k).symbol) == naive_outcome_symbol(dm, k)

    def test_midgame_positions_match_naive_oracle(self):
        rng = random.Random(606)
        for _ in range(60):
            g = random_connected_graph(rng.randint(2, 5), rng.uniform(0.3, 0.8), rng)
            dm = all_pairs_distances(g)
            k = rng.randint(1, max(1, dm.diameter))
            first = rng.choice([Player.MAKER, Player.BREAKER])
            pool = list(range(g.n))
            rng.shuffle(pool)
            moves = pool[: rng.randint(0, g.n)]
            maker = frozenset(moves[0::2] if first is Player.MAKER else moves[1::2])
            breaker = frozenset(moves[1::2] if first is Player.MAKER else moves[0::2])
            pos = GamePosition(maker, breaker, first)
            got = winner(g, dm, k, pos) is Player.MAKER
            want = naive_maker_wins(dm, k, maker, breaker, pos.player_to_move is Player.MAKER)
            assert got == want, (sorted(g.edges), k, sorted(maker), sorted(breaker), first)


class TestCappedSearch:
    def test_entry_positions(self):
        # K1,3 at k=1: the masks are the leaf pairs {0,1} {0,2} {1,2}
        g = build_graph(4, [(0, 3), (1, 3), (2, 3)])
        solver = GameSolver(g, all_pairs_distances(g), 1)
        assert solver.masks == (0b011, 0b101, 0b110)
        # Breaker already owns {1,2}; Maker already hits every mask
        for maker, breaker, wins in ((0b001, 0b110, False), (0b011, 0b100, True)):
            for maker_to_move in (True, False):
                assert solver._searcher({}, SolverStats())(maker, breaker, maker_to_move) is wins
                for cap_maker in (True, False):
                    for cap in range(4):
                        search = solver._searcher({}, SolverStats(), cap, cap_maker)
                        assert search(maker, breaker, maker_to_move) is wins, (maker, maker_to_move, cap_maker, cap)

    def test_midgame_positions_match_naive_oracle(self):
        # interior positions, where the cap cutoffs fire; the empty-board count test rarely reaches them
        rng = random.Random(707)
        seen = set()
        for _ in range(150):
            g = random_connected_graph(rng.randint(2, 6), rng.uniform(0.3, 0.8), rng)
            dm = all_pairs_distances(g)
            k = rng.randint(1, max(1, dm.diameter))
            solver = GameSolver(g, dm, k)
            pool = list(range(g.n))
            rng.shuffle(pool)
            claimed = pool[: rng.randint(0, g.n - 1)]
            split = rng.randint(0, len(claimed))
            maker, breaker = frozenset(claimed[:split]), frozenset(claimed[split:])
            maker_bits = sum(1 << v for v in maker)
            breaker_bits = sum(1 << v for v in breaker)
            for cap_maker in (True, False):
                held = len(maker) if cap_maker else len(breaker)
                for cap in range(held, held + 4):
                    for maker_to_move in (True, False):
                        got = solver._searcher({}, SolverStats(), cap, cap_maker)(maker_bits, breaker_bits, maker_to_move)
                        want = naive_wins_within(dm, k, maker, breaker, maker_to_move, cap, cap_maker)
                        assert got == want, (sorted(g.edges), k, sorted(maker), sorted(breaker), maker_to_move, cap, cap_maker)
                        seen.add((cap_maker, got))
        assert seen == {(True, True), (True, False), (False, True), (False, False)}


def _smallest_parts_shape(parts: list[int], maker_to_move: bool) -> str | None:
    """How the least free parts of a position meet: a fork or a double threat, which Breaker wins, or a near miss.

    Maker to move: "double threat" (two distinct one-vertex parts) or "one threat twice";
    with no threat, "unstoppable fork" (each claim leaves two distinct two-vertex parts
    that share a vertex) or "breakable fork" (two such parts now, and some claim leaves none).
    Breaker to move with no threat: "fork" (two distinct two-vertex parts that share a
    vertex), else "equal pairs" (a two-vertex part twice) or "disjoint pairs".
    """
    singles = [p for p in parts if p.bit_count() == 1]
    pairs = [p for p in parts if p.bit_count() == 2]
    distinct = set(pairs)

    def forked(claim: int) -> bool:
        rest = [p for p in distinct if not p & claim]
        return any(a & b for a in rest for b in rest if a != b)

    if maker_to_move:
        if len(set(singles)) > 1:
            return "double threat"
        if singles:
            return "one threat twice" if len(singles) > 1 else None
        if not forked(0):
            return None
        union = 0
        for p in distinct:
            union |= p
        # a claim outside every pair leaves the fork as it is
        unstoppable = all(forked(1 << v) for v in range(union.bit_length()) if union >> v & 1)
        return "unstoppable fork" if unstoppable else "breakable fork"
    if singles or len(pairs) < 2:
        return None
    if forked(0):
        return "fork"
    return "equal pairs" if len(distinct) < len(pairs) else "disjoint pairs"


class TestForkCutoff:
    def test_midgame_positions_match_naive_oracles(self):
        # positions whose least free parts hold a fork or a double threat, or nearly do,
        # uncapped and under caps on either side
        rng = random.Random(909)
        seen = set()
        for _ in range(700):
            g = random_connected_graph(rng.randint(4, 7), rng.uniform(0.3, 0.8), rng)
            dm = all_pairs_distances(g)
            k = rng.randint(1, max(1, dm.diameter))
            solver = GameSolver(g, dm, k)
            pool = list(range(g.n))
            rng.shuffle(pool)
            claimed = pool[: rng.randint(1, g.n - 2)]
            split = rng.randint(0, len(claimed))
            maker, breaker = frozenset(claimed[:split]), frozenset(claimed[split:])
            maker_bits = sum(1 << v for v in maker)
            breaker_bits = sum(1 << v for v in breaker)
            parts = [m & ~breaker_bits for m in solver.masks if not m & maker_bits]
            if not all(parts):
                continue  # Breaker has already won
            for maker_to_move in (True, False):
                shape = _smallest_parts_shape(parts, maker_to_move)
                if shape is None:
                    continue
                want = naive_maker_wins(dm, k, maker, breaker, maker_to_move)
                got = solver._searcher({}, SolverStats())(maker_bits, breaker_bits, maker_to_move)
                assert got == want, (sorted(g.edges), k, sorted(maker), sorted(breaker), maker_to_move)
                seen.add((shape, "uncapped", want))
                caps = [(False, len(breaker) + left, f"Breaker, {left} left") for left in (0, 1, 2)]
                caps += [(True, len(maker) + left, "Maker") for left in (1, 2, 3)]
                for cap_maker, cap, label in caps:
                    got = solver._searcher({}, SolverStats(), cap, cap_maker)(maker_bits, breaker_bits, maker_to_move)
                    want = naive_wins_within(dm, k, maker, breaker, maker_to_move, cap, cap_maker)
                    assert got == want, (sorted(g.edges), k, sorted(maker), sorted(breaker), maker_to_move, cap, cap_maker)
                    seen.add((shape, label, want))
        # Breaker wins a fork, an unstoppable fork or a double threat with 2 claims
        # left, and with 1 left either fork is beyond her; Maker wins some positions
        # that nearly hold one, a breakable fork among them
        assert {
            ("fork", "uncapped", False), ("fork", "Breaker, 2 left", False), ("fork", "Breaker, 1 left", True),
            ("fork", "Maker", False), ("unstoppable fork", "uncapped", False),
            ("unstoppable fork", "Breaker, 2 left", False), ("unstoppable fork", "Breaker, 1 left", True),
            ("unstoppable fork", "Maker", False), ("breakable fork", "uncapped", True),
            ("breakable fork", "Breaker, 2 left", True), ("breakable fork", "Maker", True),
            ("double threat", "uncapped", False), ("double threat", "Breaker, 1 left", False),
            ("double threat", "Breaker, 0 left", True), ("double threat", "Maker", False),
            ("equal pairs", "uncapped", True), ("disjoint pairs", "uncapped", True), ("one threat twice", "uncapped", True),
        } <= seen

    @pytest.mark.parametrize("name, kw", [("multipartite", {"parts": (3, 3)}), ("star", {"beta": 4})])
    def test_unstoppable_fork_settles_the_empty_board(self, name, kw):
        # the masks are the pairs inside twin classes of three or more: after any
        # Maker claim a class of three is left with two pairs that share a vertex
        g, dm = family(name, **kw)
        solver = GameSolver(g, dm, 1)
        assert not solver.maker_wins(0, 0, True, True)
        assert (solver.stats.nodes, solver.stats.orbit_searches) == (0, 0)
        solver = GameSolver(g, dm, 1)
        assert solver.move_counts() == MoveCounts(brk=2, bprime_rk=2)
        assert (solver.stats.nodes, solver.stats.count_nodes) == (0, 0)


class TestPairingCutoff:
    def test_atlas_order_six_matches_naive_oracles(self):
        symbols = set()
        for g in connected_graph_atlas(max_n=6, min_n=6):
            dm = all_pairs_distances(g)
            for k in range(1, dm.stable_level + 1):
                solver = GameSolver(g, dm, k)
                symbol = solver.outcome().symbol
                assert int(symbol) == naive_outcome_symbol(dm, k), (sorted(g.edges), k)
                symbols.add(symbol)
                want = [naive_winner_count(dm, k, maker_first) for maker_first in (True, False)]
                for maker_first, count in zip((True, False), want):
                    assert solver.winner_move_count(maker_first) == count, (sorted(g.edges), k, maker_first)
                # move_counts counts one game from the other's count up: the same counts
                names = {OutcomeSymbol.M: ("mrk", "mprime_rk"), OutcomeSymbol.B: ("brk", "bprime_rk"),
                         OutcomeSymbol.N: ("nrk", "nprime_rk")}[symbol]
                assert solver.move_counts() == MoveCounts(**dict(zip(names, want))), (sorted(g.edges), k)
        assert symbols == {OutcomeSymbol.B, OutcomeSymbol.N, OutcomeSymbol.M}

    def test_capped_cover_larger_than_claims_left(self):
        # mid-game positions whose free parts have a cover of p pairs: with r < p
        # claims left the cutoff must not fire, with r = p it may
        rng = random.Random(808)
        seen = set()
        for _ in range(600):
            g = random_connected_graph(rng.randint(4, 7), rng.uniform(0.3, 0.8), rng)
            dm = all_pairs_distances(g)
            k = rng.randint(1, max(1, dm.diameter))
            solver = GameSolver(g, dm, k)
            pool = list(range(g.n))
            rng.shuffle(pool)
            claimed = pool[: rng.randint(0, g.n - 2)]
            split = rng.randint(0, len(claimed))
            maker, breaker = frozenset(claimed[:split]), frozenset(claimed[split:])
            maker_bits = sum(1 << v for v in maker)
            breaker_bits = sum(1 << v for v in breaker)
            parts = [m & ~breaker_bits for m in solver.masks if not m & maker_bits]
            least = naive_least_cover(parts)
            if not least:
                continue  # no cover, or no part left
            for left in range(1, least + 1):
                cap = len(maker) + left
                for maker_to_move in (True, False):
                    got = solver._searcher({}, SolverStats(), cap, cap_maker=True)(maker_bits, breaker_bits, maker_to_move)
                    want = naive_wins_within(dm, k, maker, breaker, maker_to_move, cap, True)
                    assert got == want, (sorted(g.edges), k, sorted(maker), sorted(breaker), maker_to_move, cap)
                    seen.add((left < least, want))
        assert seen == {(True, True), (True, False), (False, True)}


class TestMoveCounts:
    def test_petersen_three_everywhere(self):
        g, dm = family("petersen")
        counts = move_counts(g, dm, 1)
        assert (counts.mrk, counts.mprime_rk) == (3, 3)
        assert counts.brk is None

    def test_star_breaker_two(self):
        g, dm = family("star", beta=4)
        for k in (1, 2):
            counts = move_counts(g, dm, k)
            assert (counts.brk, counts.bprime_rk) == (2, 2)

    def test_pinned_counts(self):
        # values of the exact min/max count tree that earlier versions searched
        rows = [
            ("fig1", {"alpha": 2}, 1, {"brk": 3, "bprime_rk": 3}),
            ("fig1", {"alpha": 2}, 2, {"nrk": 5, "nprime_rk": 4}),
            ("fig1", {"alpha": 2}, 3, {"mrk": 5, "mprime_rk": 5}),
            ("thm_f", {"alpha": 4}, 1, {"brk": 4, "bprime_rk": 4}),
        ]
        for name, params, k, expected in rows:
            g, dm = family(name, **params)
            assert move_counts(g, dm, k).defined() == expected, (name, params, k)

    def test_c12_searches_one_cap(self, monkeypatch):
        # C12's M-game: the floor is dim = 5 and the empty board's pair cover
        # has 6 pairs, so only cap 5 is searched; it loses, and mrk = 6 is then
        # the B-game's floor, equal to its ceiling, so the B-game searches nothing
        g, dm = family("cycle", n=12)
        solver = GameSolver(g, dm, 1)
        assert metric_dimension_k(dm, 1).value == 5
        assert len(resolve._root_cover(solver.masks)) == 6
        searched = []
        real = solver._searcher

        def searcher(memo, tally, cap=None, cap_maker=True):
            search = real(memo, tally, cap, cap_maker)
            return lambda maker, breaker, maker_to_move: searched.append((cap, maker_to_move)) or search(
                maker, breaker, maker_to_move)

        monkeypatch.setattr(solver, "_searcher", searcher)
        assert solver.move_counts() == MoveCounts(mrk=6, mprime_rk=6)
        assert searched == [(5, True)]
        assert solver.stats.count_searches == 1

    @pytest.mark.parametrize("name, kw, symbol", [("cycle", {"n": 7}, OutcomeSymbol.M),
                                                  ("star", {"beta": 4}, OutcomeSymbol.B)])
    def test_winner_that_never_wins_a_capped_search_raises(self, monkeypatch, name, kw, symbol):
        # with no root cover (C7's certificate is a quasi-pairing; Breaker's
        # counts have no ceiling) every cap up to n is searched, and a capped
        # search that always answers for the loser breaks the last invariant
        g, dm = family(name, **kw)
        solver = GameSolver(g, dm, 1)
        assert solver.outcome().symbol is symbol
        assert symbol is OutcomeSymbol.B or resolve._root_cover(solver.masks) is None
        monkeypatch.setattr(solver, "_searcher",
                            lambda memo, tally, cap=None, cap_maker=True: lambda *position: not cap_maker)
        with pytest.raises(InvariantError, match="does not win within all"):
            solver.move_counts()

    def test_dimension_floor_respects_the_solver_size_cap(self, monkeypatch):
        # the floor's dimension query must not apply the default size cap to a solver given a larger one
        g, dm = family("petersen")
        monkeypatch.setattr(resolve, "DEFAULT_SIZE_CAP", g.n - 1)
        with pytest.raises(SizeCapError):
            metric_dimension_k(dm, 1)
        assert GameSolver(g, dm, 1, size_cap=g.n).move_counts() == MoveCounts(mrk=3, mprime_rk=3)

    def test_c4_counts_equal_dimension(self):
        g, dm = family("cycle", n=4)
        counts = move_counts(g, dm, 1)
        assert (counts.mrk, counts.mprime_rk) == (2, 2)

    def test_undefined_for_loser(self):
        g, dm = family("star", beta=4)
        counts = move_counts(g, dm, 1)
        with pytest.raises(CountUndefinedError):
            counts.require("mrk")
        assert counts.require("brk") == 2

    def test_outcome_disagreement_rejected(self):
        g, dm = family("cycle", n=4)
        wrong = outcome(*family("star", beta=4), 1)
        with pytest.raises(ValueError):
            move_counts(g, dm, 1, wrong)

    def test_matches_naive_oracle_sampled(self):
        rng = random.Random(11)
        cases = []
        for _ in range(25):
            g = random_connected_graph(rng.randint(2, 6), rng.uniform(0.3, 0.8), rng)
            dm = all_pairs_distances(g)
            cases.append((g, dm, rng.randint(1, max(1, dm.diameter - 1))))
        # the draws above give only M and N; these add B, so both caps run in both games
        for k in (1, 2):
            cases.append((*family("star", beta=4), k))
        cases.append((*family("multipartite", parts=(3, 3)), 1))
        for g in connected_graph_atlas(max_n=5, min_n=2):
            dm = all_pairs_distances(g)
            cases.extend((g, dm, k) for k in range(1, dm.stable_level + 1))
        symbols = set()
        for g, dm, k in cases:
            solver = GameSolver(g, dm, k)
            symbols.add(solver.outcome().symbol)
            assert solver.winner_move_count(True) == naive_winner_count(dm, k, True)
            assert solver.winner_move_count(False) == naive_winner_count(dm, k, False)
        assert symbols == {OutcomeSymbol.B, OutcomeSymbol.N, OutcomeSymbol.M}


class TestJumpReport:
    def test_fig1_double_jump(self):
        g, dm = family("fig1", alpha=2)
        report = jump_report(g, dm)
        assert [(k, o.symbol.letter) for k, o in report.outcomes] == [
            (1, "B"), (2, "N"), (3, "M"), (4, "M"),
        ]
        assert report.jumps == (
            (2, OutcomeSymbol.B, OutcomeSymbol.N),
            (3, OutcomeSymbol.N, OutcomeSymbol.M),
        )

    def test_thm_f_single_jump_b_to_m(self):
        g, dm = family("thm_f", alpha=4)
        report = jump_report(g, dm)
        assert report.jumps == ((2, OutcomeSymbol.B, OutcomeSymbol.M),)

    def test_petersen_single_trivial_entry(self):
        g, dm = family("petersen")
        report = jump_report(g, dm)
        assert len(report.outcomes) == 1
        assert report.outcome_at(1).symbol is OutcomeSymbol.M
        assert report.jumps == ()

    def test_transitions_breaking_the_jump_theorem_raise(self):
        def level(symbol):
            m_winner = Player.BREAKER if symbol is OutcomeSymbol.B else Player.MAKER
            b_winner = Player.MAKER if symbol is OutcomeSymbol.M else Player.BREAKER
            return GameOutcome(symbol, m_winner, b_winner)

        B, N, M = OutcomeSymbol.B, OutcomeSymbol.N, OutcomeSymbol.M
        for symbols in ([M, N], [B, M, N], [N, N, B, M]):
            with pytest.raises(InvariantError):
                JumpReport.from_outcomes((k, level(s)) for k, s in enumerate(symbols, start=1))
        report = JumpReport.from_outcomes((k, level(s)) for k, s in enumerate([B, N, M], start=1))
        assert report.jumps == ((2, B, N), (3, N, M))

    def test_diameter_one_single_entry(self):
        g, dm = family("complete", n=5)
        report = jump_report(g, dm)
        assert len(report.outcomes) == 1


class TestCertificates:
    def test_star_forced_breaker(self):
        g, dm = family("star", beta=4)
        cert = certificate_fast_path(g, dm, 1)
        assert cert is not None and cert.kind is CertificateKind.FORCED_B

    def test_thm_a_maker_certified(self):
        g, dm = family("thm_a", alpha=3)
        cert = certificate_fast_path(g, dm, 1)
        assert cert is not None and cert.kind is CertificateKind.M_CERTIFIED
        assert check_pair_system(dm, 1, cert.pair_system).kind is PairSystemKind.PAIRING

    def test_thm_b_maker_or_first(self):
        g, dm = family("thm_b", alpha=4)
        cert = certificate_fast_path(g, dm, 1)
        assert cert is not None and cert.kind is CertificateKind.M_OR_N
        assert cert.witnesses

    def test_two_triple_twin_classes_forced_breaker(self):
        g, dm = family("multipartite", parts=(3, 3))
        cert = certificate_fast_path(g, dm, 1)
        assert cert is not None and cert.kind is CertificateKind.FORCED_B

    def test_half_order_dimension_forced_breaker(self):
        g, dm = family("thm_f", alpha=4)
        cert = certificate_fast_path(g, dm, 1)
        assert cert is not None and cert.kind is CertificateKind.FORCED_B
        assert "dimension" in cert.reason

    def test_cover_search_certificates(self):
        # a pairing {0,2} {1,7} {3,4} {5,6} certifies M
        g = build_graph(9, [(0, 2), (0, 5), (0, 6), (1, 2), (1, 8), (2, 3), (2, 6), (3, 4), (6, 7), (7, 8)])
        dm = all_pairs_distances(g)
        cert = certificate_fast_path(g, dm, 1)
        assert cert is not None and cert.kind is CertificateKind.M_CERTIFIED
        # a quasi-pairing {1,4} {2,3} with witness 0 certifies M or N; the outcome is N
        g = build_graph(7, [(0, 1), (0, 2), (0, 4), (0, 5), (1, 5), (1, 6), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)])
        dm = all_pairs_distances(g)
        cert = certificate_fast_path(g, dm, 1)
        assert cert is not None and cert.kind is CertificateKind.M_OR_N and 0 in cert.witnesses
        assert outcome(g, dm, 1).symbol is OutcomeSymbol.N

    def test_pair_system_skips_the_half_order_query(self, monkeypatch):
        # a pair system already bounds the dimension by ceil(n/2), so no hitting-set search runs
        def refused(masks, budget):
            raise AssertionError("half-order query run despite a pair system")

        monkeypatch.setattr(game, "_least_hitting_set", refused)
        for name, kw, kind in [("cycle", {"n": 6}, CertificateKind.M_CERTIFIED),
                               ("thm_b", {"alpha": 4}, CertificateKind.M_OR_N)]:
            g, dm = family(name, **kw)
            assert certificate_fast_path(g, dm, 1).kind is kind, name

    def test_never_contradicts_solver_on_atlas(self):
        for g in connected_graph_atlas(max_n=5, min_n=2):
            dm = all_pairs_distances(g)
            for k in range(1, max(2, dm.diameter)):
                cert = certificate_fast_path(g, dm, k)
                if cert is not None:
                    assert outcome(g, dm, k).symbol in cert.allowed_symbols


class TestDeterminismAndSymmetry:
    def test_memo_limit_zero_recomputes(self, monkeypatch):
        # entries beyond the memo bound are recomputed, never wrong
        cases = [("thm_d", {}, 1), ("thm_d", {}, 2), ("cycle", {"n": 7}, 1), ("cycle", {"n": 7}, 2),
                 ("multipartite", {"parts": (2, 2, 1)}, 1), ("star", {"beta": 4}, 1)]
        for name, kw, k in cases:
            g, dm = family(name, **kw)
            base = GameSolver(g, dm, k)
            want = (base.outcome(), base.move_counts())
            with monkeypatch.context() as patch:
                patch.setattr(game, "MEMO_LIMIT", 0)  # for the capped count searches too
                bare = GameSolver(g, dm, k)
                assert (bare.outcome(), bare.move_counts()) == want
            assert bare.stats.tt_entries == 0

    def test_repeat_solves_identical(self):
        g, dm = family("thm_e", alpha=3)
        first = outcome(g, dm, 2)
        assert all(outcome(g, dm, 2) == first for _ in range(3))
