"""The README's examples run as written: every CLI tour line and the library snippet."""

import re
import shlex
from pathlib import Path

from mbresolve.cli import main
from mbresolve.verify import _REGISTRY

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(heading: str, lang: str) -> str:
    section = README.split(f"## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_cli_tour_lines_exit_zero(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the tour writes graph files and reads them back
    lines = [shlex.split(line, comments=True) for line in _block("CLI tour", "sh").splitlines()]
    commands = [argv for argv in lines if argv]
    assert len(commands) >= 10
    for argv in commands:
        assert argv[0] == "mbresolve"
        assert main(argv[1:]) == 0, shlex.join(argv)
        capsys.readouterr()


def test_library_snippet_runs():
    namespace: dict = {}
    exec(_block("Library use", "python"), namespace)
    assert namespace["out"].symbol.letter == "N"
    assert namespace["counts"].defined().keys() == {"nrk", "nprime_rk"}


def test_check_counts_match_registry():
    # README: "verify-paper --level quick ... # 22 checks", "--level full ... # 23 checks"
    quick = sum(1 for _, level, _ in _REGISTRY if level == "quick")
    for level, count in (("quick", quick), ("full", len(_REGISTRY))):
        stated = re.search(rf"verify-paper --level {level}\b.*?# (\d+) checks", README)
        assert stated is not None, level
        assert int(stated.group(1)) == count, level
