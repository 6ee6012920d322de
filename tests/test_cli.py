import json

import pytest

from mbresolve import graphio
from mbresolve.cli import main
from mbresolve.errors import InvariantError
from mbresolve.game import GameSolver


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestGen:
    def test_gen_cycle_file(self, tmp_path, capsys):
        path = tmp_path / "c5.graph"
        code, _ = run(capsys, "gen", "--family", "cycle", "--n", "5", "--out", str(path))
        assert code == 0
        g = graphio.load(path)
        assert g.n == 5 and g.edge_count == 5

    def test_gen_fig1_counts(self, tmp_path, capsys):
        path = tmp_path / "f.graph"
        code, _ = run(capsys, "gen", "--family", "fig1", "--alpha", "2", "--out", str(path))
        assert code == 0
        g = graphio.load(path)
        assert (g.n, g.edge_count) == (14, 16)

    def test_gen_petersen_to_stdout_json(self, capsys):
        code, out = run(capsys, "gen", "--family", "petersen", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["n"] == 10 and len(obj["edges"]) == 15

    def test_gen_bad_parameters(self, capsys):
        code, _ = run(capsys, "gen", "--family", "cycle", "--n", "2")
        assert code == 2


class TestSolve:
    def test_petersen_counts(self, capsys):
        code, report = run_json(capsys, "solve", "--family", "petersen", "-k", "1", "--counts")
        assert code == 0
        entry = report["per_k"][0]
        assert entry["outcome"]["symbol"] == "M"
        assert entry["counts"] == {"mrk": 3, "mprime_rk": 3}

    def test_star_level_two(self, capsys):
        code, report = run_json(capsys, "solve", "--family", "star", "--beta", "4", "-k", "2")
        assert code == 0
        assert report["per_k"][0]["outcome"]["symbol"] == "B"

    def test_fig1_all_levels_jumps(self, capsys):
        code, report = run_json(capsys, "solve", "--family", "fig1", "--alpha", "2", "-k", "all")
        assert code == 0
        assert [e["outcome"]["symbol"] for e in report["per_k"]] == ["B", "N", "M", "M"]
        assert report["jumps"] == [[2, "B", "N"], [3, "N", "M"]]

    def test_single_game_mode(self, capsys):
        code, report = run_json(capsys, "solve", "--family", "cycle", "--n", "3", "-k", "1", "--game", "m")
        assert code == 0
        assert report["per_k"][0] == {
            "k": 1, "game": "m", "winner": "Maker",
            "timing": report["per_k"][0]["timing"], "stats": report["per_k"][0]["stats"],
        }
        stats = {"nodes", "tt_entries", "tt_hits", "count_searches", "count_nodes", "orbit_searches"}
        assert set(report["per_k"][0]["stats"]) == stats

    def test_certificates_flag(self, capsys):
        code, report = run_json(
            capsys, "solve", "--family", "star", "--beta", "4", "-k", "1", "--certificates"
        )
        assert code == 0
        assert report["per_k"][0]["certificate"]["kind"] == "forcedB"

    def test_file_source(self, tmp_path, capsys):
        path = tmp_path / "g.graph"
        run(capsys, "gen", "--family", "cycle", "--n", "4", "--out", str(path))
        code, report = run_json(capsys, "solve", "--file", str(path), "-k", "1")
        assert code == 0
        assert report["graph"]["sha256"]
        assert report["per_k"][0]["outcome"]["symbol"] == "M"

    def test_invariant_failure_exit_four(self, monkeypatch):
        def broken(self):
            raise InvariantError("outcome fell")

        monkeypatch.setattr(GameSolver, "outcome", broken)
        assert main(["solve", "--family", "cycle", "--n", "4", "-k", "1"]) == 4

    def test_size_cap_exit_code(self, capsys):
        code, _ = run(capsys, "solve", "--family", "complete", "--n", "20", "-k", "1")
        assert code == 3

    def test_max_n_flag_sets_cap(self, capsys):
        code, _ = run(capsys, "solve", "--family", "cycle", "--n", "5", "-k", "1", "--max-n", "4")
        assert code == 3
        code, _ = run(capsys, "solve", "--family", "complete", "--n", "20", "-k", "1", "--max-n", "20")
        assert code == 0

    def test_report_determinism(self, capsys):
        for args in (
            ("solve", "--family", "thm_d", "-k", "all", "--counts"),
            ("solve", "--family", "cycle", "--n", "12", "-k", "all", "--counts"),  # prunes by vertex orbits
        ):
            _, first = run_json(capsys, *args)
            _, second = run_json(capsys, *args)
            for report in (first, second):
                report.pop("timing")
                for entry in report["per_k"]:
                    entry.pop("timing")
                    entry.pop("stats")
            assert first == second, args


class TestDim:
    def test_thm_d(self, capsys):
        code, report = run_json(capsys, "dim", "--family", "thm_d", "-k", "1")
        assert code == 0
        assert report["dim"] == 5
        assert report["witness"] == [0, 1, 3, 5, 7]

    def test_complete_six(self, capsys):
        code, report = run_json(capsys, "dim", "--family", "complete", "--n", "6", "-k", "3")
        assert code == 0 and report["dim"] == 5

    def test_petersen(self, capsys):
        code, report = run_json(capsys, "dim", "--family", "petersen", "-k", "1")
        assert code == 0 and report["dim"] == 3


class TestCheck:
    def test_pairing(self, capsys):
        code, report = run_json(
            capsys, "check", "--family", "cycle", "--n", "4", "-k", "1", "--pairs", "0-2,1-3"
        )
        assert code == 0 and report["classification"] == "pairing"

    def test_twins(self, capsys):
        code, report = run_json(capsys, "check", "--family", "star", "--beta", "4", "--twins")
        assert code == 0
        assert {"vertices": [1, 2, 3, 4], "kind": "independent"} in report["twins"]

    def test_non_resolving_set_with_witness(self, capsys):
        code, report = run_json(
            capsys, "check", "--family", "cycle", "--n", "9", "-k", "1", "--set", "0"
        )
        assert code == 0
        assert report["resolving"] is False
        assert len(report["unresolved_pair"]) == 2

    def test_gap_mode(self, capsys):
        code, report = run_json(
            capsys, "check", "--family", "cycle", "--n", "5", "-k", "1", "--set", "0,2", "--gaps"
        )
        assert code == 0
        assert report["gaps"] == [1, 2]
        assert report["gap_conditions_hold"] is True

    @pytest.mark.parametrize("mode", [["--twins"], ["-k", "1", "--set", "0,2", "--gaps"]], ids=["twins", "gaps"])
    def test_twin_and_gap_modes_compute_no_distances(self, mode, capsys, monkeypatch):
        # neither mode reads the n^2 distance table, so a large cycle costs no more than its edges
        def refuse(g):
            raise AssertionError("distances computed")

        monkeypatch.setattr("mbresolve.cli.all_pairs_distances", refuse)
        code, _ = run(capsys, "check", "--family", "cycle", "--n", "5", *mode)
        assert code == 0

    @pytest.mark.parametrize("source", [
        ["--family", "path", "--n", "9"],
        ["--family", "petersen"],
        ["--family", "wheel", "--n", "9"],
    ], ids=["path", "petersen", "wheel"])
    def test_gap_mode_needs_the_cycle(self, source, capsys):
        # on a path, {0,1,3,5} meets the gap conditions but does not resolve
        assert main(["check", *source, "-k", "1", "--set", "0,1,3,5", "--gaps"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [captured.err.strip()]
        assert "--gaps needs the cycle 0-1-...-" in captured.err

    def test_gap_mode_needs_cycle_order(self, tmp_path, capsys):
        # a 9-cycle whose labels run 0-2-4-6-8-1-3-5-7 around it
        order = [0, 2, 4, 6, 8, 1, 3, 5, 7]
        path = tmp_path / "c9.graph"
        path.write_text("n 9\n" + "".join(f"{u} {v}\n" for u, v in zip(order, order[1:] + order[:1])))
        argv = ["check", "--file", str(path), "-k", "1", "--set", "0,1,3,5"]
        code, report = run_json(capsys, *argv)
        assert code == 0 and report["resolving"] is False
        code, out = run(capsys, *argv, "--gaps")
        assert code == 2 and out == ""

    def test_pairs_overlap_exit_code(self, capsys):
        code, _ = run(capsys, "check", "--family", "cycle", "--n", "5", "-k", "1", "--pairs", "0-2,2-4")
        assert code == 2

    def test_missing_mode(self, capsys):
        code, _ = run(capsys, "check", "--family", "cycle", "--n", "5", "-k", "1")
        assert code == 2


class TestVerifyPaper:
    def test_single_check_pass(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        code, out = run(
            capsys, "verify-paper", "--only", "thm_d", "--quiet", "--report", str(report_path)
        )
        assert code == 0
        assert "PASS" in out
        payload = json.loads(report_path.read_text())
        assert payload["all_passed"] is True
        assert all(c["id"].startswith("thm_d") for c in payload["checks"])

    def test_corrupted_predictor_fails_with_exit_one(self, capsys, monkeypatch):
        import mbresolve.verify as verify
        from mbresolve.game import OutcomeSymbol

        monkeypatch.setitem(
            verify.__dict__, "predict_outcome", lambda spec, k: frozenset({OutcomeSymbol.B})
        )
        code, out = run(capsys, "verify-paper", "--only", "realizations.thm_a", "--quiet")
        assert code == 1
        assert "FAIL" in out

    def test_raising_check_fails_alone_with_exit_one(self, capsys, monkeypatch):
        import mbresolve.verify as verify

        def broken(ctx):
            raise InvariantError("planted")

        kept = [entry for entry in verify._REGISTRY if entry[0].startswith("thm_d")]
        monkeypatch.setattr(verify, "_REGISTRY", [("planted.raises", "quick", broken)] + kept)
        code, out = run(capsys, "verify-paper", "--quiet")
        assert code == 1
        assert "FAIL  planted.raises" in out and "raised InvariantError: planted" in out
        assert f"{len(kept)}/{len(kept) + 1} checks passed" in out

    def test_usage_error_exit_two(self, capsys):
        assert main(["verify-paper", "--level", "bogus"]) == 2

    @pytest.mark.parametrize("argv", [
        ["--only", "nosuch"],
        ["--only", "thm_d,nosuch"],
        ["--only", "trees"],  # trees.exhaustive runs at the full level only
        ["--only", "thm_d.,"],  # an empty prefix would match every check
        ["--only", ","],
        ["--only", ""],
    ])
    def test_only_matching_no_check_exits_two(self, argv, capsys):
        assert main(["verify-paper", "--quiet", *argv]) == 2
        captured = capsys.readouterr()
        assert "checks passed" not in captured.out
        assert len(captured.err.splitlines()) == 1
        if "" in argv[1].split(","):
            assert "empty check id prefix" in captured.err
        else:
            assert "no quick-level check id starts with" in captured.err


class TestLimitFlags:
    """Each limit flag exists only on the subcommands where it applies."""

    @pytest.mark.parametrize("argv", [
        ["verify-paper", "--max-n", "4"],
        ["verify-paper", "--tt-entries", "5"],
        ["solve", "--family", "cycle", "--n", "5", "-k", "1", "--force-size"],
        ["dim", "--family", "cycle", "--n", "5", "-k", "1", "--force-size"],
        ["dim", "--family", "cycle", "--n", "5", "-k", "1", "--tt-entries", "5"],
        ["solve", "--family", "cycle", "--n", "5", "-k", "1", "--tt-entries", "5"],  # the memo bound is a constant
    ])
    def test_flag_rejected(self, argv, capsys):
        assert main(argv) == 2

    def test_dim_max_n(self, capsys):
        code, _ = run(capsys, "dim", "--family", "cycle", "--n", "5", "-k", "1", "--max-n", "4")
        assert code == 3

    @pytest.mark.parametrize("command", ["solve", "dim"])
    def test_size_cap_refused_before_distances(self, command, capsys, monkeypatch):
        def no_distances(g):
            raise AssertionError("distances computed for a graph above the size cap")

        monkeypatch.setattr("mbresolve.cli.all_pairs_distances", no_distances)
        assert main([command, "--family", "path", "--n", "19", "-k", "1"]) == 3
        assert "graph order 19 exceeds the size cap 18" in capsys.readouterr().err


class TestBadInput:
    @pytest.mark.parametrize("argv, message", [
        (["check", "--family", "path", "--n", "5", "-k", "4", "--set=-1"], "landmarks outside 0..4: [-1]"),
        (["check", "--family", "path", "--n", "5", "-k", "4", "--set", "9"], "landmarks outside 0..4: [9]"),
        (["check", "--family", "cycle", "--n", "9", "-k", "1", "--set", "9", "--gaps"], "landmarks outside 0..8: [9]"),
        (["check", "--family", "cycle", "--n", "9", "-k", "1", "--set=", "--gaps"], "gap profile needs at least one landmark"),
        (["check", "--family", "path", "--n", "5", "-k", "1", "--pairs", "0-9"], "pair vertices outside 0..4: [9]"),
        (["solve", "--family", "path", "--n", "5", "-k", "0"], "positive integer or \"all\", got '0'"),
        (["solve", "--family", "path", "--n", "5", "-k", "x"], "positive integer or \"all\", got 'x'"),
        (["dim", "--family", "path", "--n", "5", "-k", "0"], "positive integer, got '0'"),
        (["check", "--family", "path", "--n", "5", "-k", "0", "--set", "1"], "positive integer, got '0'"),
        (["solve", "--family", "path", "--n", "5", "-k", "1", "--max-n", "-3"], "size cap must be a positive integer, got '-3'"),
        (["dim", "--family", "path", "--n", "5", "-k", "1", "--max-n", "0"], "size cap must be a positive integer, got '0'"),
        (["solve", "--family", "cycle", "--n", "6", "-k", "1", "--game", "m", "--counts"], "--counts needs --game both"),
        (["solve", "--family", "cycle", "--n", "6", "-k", "1", "--game", "b", "--counts"], "--counts needs --game both"),
        (["check", "--family", "cycle", "--n", "6", "-k", "1", "--set", "0,1", "--pairs", "0-3,1-4,2-5"],
         "argument --pairs: not allowed with argument --set"),
        (["check", "--family", "cycle", "--n", "6", "--twins", "--set", "0"],
         "argument --set: not allowed with argument --twins"),
        (["check", "--family", "cycle", "--n", "6", "-k", "1", "--pairs", "0-3,1-4,2-5", "--twins"],
         "argument --twins: not allowed with argument --pairs"),
        (["check", "--family", "cycle", "--n", "6", "-k", "1", "--pairs", "0-3,1-4,2-5", "--gaps"],
         "--gaps checks the landmarks of --set"),
        (["check", "--family", "cycle", "--n", "6", "--twins", "--gaps"], "--gaps checks the landmarks of --set"),
        (["check", "--family", "cycle", "--n", "6", "-k", "1", "--pairs", ""], "pair system needs at least one pair"),
    ], ids=["set-negative", "set-too-large", "gaps-set-too-large", "gaps-set-empty", "pairs-too-large",
            "solve-k-zero", "solve-k-word", "dim-k-zero", "check-k-zero", "solve-max-n-negative", "dim-max-n-zero",
            "counts-m-game", "counts-b-game",
            "set-and-pairs", "twins-and-set", "pairs-and-twins", "gaps-with-pairs", "gaps-with-twins",
            "pairs-empty"])
    def test_exit_two_with_message(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err.splitlines()[-1]


class TestParseErrors:
    def test_unreadable_graph_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.graph"
        path.write_text("garbage here\n")
        code, _ = run(capsys, "dim", "--file", str(path), "-k", "1")
        assert code == 2

    def test_missing_source(self, capsys):
        code, _ = run(capsys, "solve", "-k", "1")
        assert code == 2
