import random

import pytest

from mbresolve.errors import CountUndefinedError, InvariantError, SizeCapError
from mbresolve.families import FamilySpec, connected_graph_atlas, gen_family, random_connected_graph
from mbresolve.game import (
    CertificateKind,
    GameOutcome,
    GamePosition,
    GameSolver,
    JumpReport,
    OutcomeSymbol,
    Player,
    certificate_fast_path,
    jump_report,
    move_counts,
    outcome,
    winner,
)
from mbresolve.graph import all_pairs_distances, build_graph
from mbresolve.resolve import PairSystemKind, check_pair_system

from oracles import naive_maker_wins, naive_outcome_symbol, naive_winner_count


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

    def test_single_vertex_trivially_maker(self):
        g = build_graph(1, [])
        dm = all_pairs_distances(g)
        out = outcome(g, dm, 1)
        assert out.symbol is OutcomeSymbol.M
        assert move_counts(g, dm, 1).mrk == 0

    def test_search_node_bounds(self):
        # the Erdős–Selfridge cutoff settles Petersen at the root, before any node is expanded
        g, dm = family("petersen")
        solver = GameSolver(g, dm, 1)
        assert solver.outcome().symbol is OutcomeSymbol.M
        assert solver.stats.nodes == 0
        # the G(18, 0.3) draw of the ROADMAP baseline: the cutoff and threats settle it in 17 nodes
        rng = random.Random(1)
        g = [random_connected_graph(n, 0.3, rng) for n in (12, 14, 16, 18)][3]
        solver = GameSolver(g, all_pairs_distances(g), 1)
        assert solver.outcome().symbol is OutcomeSymbol.M
        assert solver.stats.nodes <= 1_000

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

    def test_never_contradicts_solver_on_atlas(self):
        for g in connected_graph_atlas(max_n=5, min_n=2):
            dm = all_pairs_distances(g)
            for k in range(1, max(2, dm.diameter)):
                cert = certificate_fast_path(g, dm, k)
                if cert is not None:
                    assert outcome(g, dm, k).symbol in cert.allowed_symbols


class TestDeterminismAndSymmetry:
    def test_move_order_does_not_change_results(self):
        rng = random.Random(23)
        for _ in range(15):
            g = random_connected_graph(rng.randint(3, 8), rng.uniform(0.3, 0.7), rng)
            dm = all_pairs_distances(g)
            k = rng.randint(1, max(1, dm.diameter - 1))
            base = GameSolver(g, dm, k)
            identity = GameSolver(g, dm, k, move_order=tuple(range(g.n)))
            reverse = GameSolver(g, dm, k, move_order=tuple(reversed(range(g.n))))
            expected = base.outcome()
            assert identity.outcome() == expected
            assert reverse.outcome() == expected
            assert (
                base.winner_move_count(True)
                == identity.winner_move_count(True)
                == reverse.winner_move_count(True)
            )

    def test_tt_limit_zero_recomputes(self):
        # entries beyond the table limit are recomputed, never wrong
        cases = [("thm_d", {}, 1), ("thm_d", {}, 2), ("cycle", {"n": 7}, 1), ("cycle", {"n": 7}, 2),
                 ("multipartite", {"parts": (2, 2, 1)}, 1), ("star", {"beta": 4}, 1)]
        for name, kw, k in cases:
            g, dm = family(name, **kw)
            base = GameSolver(g, dm, k)
            bare = GameSolver(g, dm, k, tt_limit=0)
            assert bare.outcome() == base.outcome()
            assert bare.move_counts() == base.move_counts()
            assert bare.stats.tt_entries == 0

    def test_repeat_solves_identical(self):
        g, dm = family("thm_e", alpha=3)
        first = outcome(g, dm, 2)
        assert all(outcome(g, dm, 2) == first for _ in range(3))
