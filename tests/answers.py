"""Exactness sweep: every answer the solver gives on a fixed item set, pinned by one digest.

The items are every `census` item of seeds 23, 7 and 5077 and every `counts`
item, built by bench/inputs.py (read, never changed), and every connected
graph of order 3-7 at k = 1..stable_level.  Each item gets one canonical
line: outcome symbol, both winners, move counts, dimension and witness, and
the certificate's kind, reason, pairs and witnesses.  The SHA-256 of those
lines and the item count are compared with tests/data/answers.json.  The
totals of nodes, count searches (capped searches, one per cap) and orbit
searches are printed but not compared: a pruning change may move them
without moving an answer.

    python tests/answers.py                 # recompute, compare with tests/data/answers.json
    python tests/answers.py --src DIR       # the same against another checkout's src/
    python tests/answers.py --lines FILE    # also write the answer lines to FILE
    python tests/answers.py --update        # rewrite tests/data/answers.json
    python tests/answers.py --compare A B   # items whose lines differ between two --lines files

A change that means to move an answer (a bug fix) updates the digest with
--update and names the moved items and the oracle that confirms them.  Not
collected by pytest: the sweep takes several seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED = ROOT / "tests" / "data" / "answers.json"
CENSUS_SEEDS = (23, 7, 5077)


def items():
    """(item id, Graph, k) for every item of the sweep, in a fixed order."""
    sys.path.insert(0, str(ROOT / "bench"))
    from inputs import build_items

    from mbresolve.families import connected_graph_atlas
    from mbresolve.graph import all_pairs_distances

    for seed in CENSUS_SEEDS:
        for item_id, g, k in build_items("census", seed):
            yield f"census{seed}/{item_id}", g, k
    for item_id, g, k in build_items("counts", 1):
        yield f"counts/{item_id}", g, k
    for index, g in enumerate(connected_graph_atlas(max_n=7, min_n=3)):
        for k in range(1, all_pairs_distances(g).stable_level + 1):
            yield f"atlas/{index}k{k}", g, k


def answer_line(item_id: str, g, k: int, totals: dict[str, int]) -> str:
    from mbresolve.game import GameSolver, certificate_fast_path
    from mbresolve.graph import all_pairs_distances
    from mbresolve.resolve import metric_dimension_k

    dm = all_pairs_distances(g)
    solver = GameSolver(g, dm, k)
    out = solver.outcome()
    counts = solver.move_counts(out)
    dim = metric_dimension_k(dm, k)
    cert = certificate_fast_path(g, dm, k)
    totals["outcome nodes"] += solver.stats.nodes
    totals["count nodes"] += solver.stats.count_nodes
    totals["count searches"] += solver.stats.count_searches
    totals["orbit searches"] += solver.stats.orbit_searches
    fields = [
        item_id,
        out.symbol.name,
        out.m_game_winner.value,
        out.b_game_winner.value,
        ",".join(f"{name}={value}" for name, value in counts.defined().items()),
        str(dim.value),
        ",".join(map(str, dim.witness)),
    ]
    if cert is None:
        fields.append("-")
    else:
        pairs = () if cert.pair_system is None else cert.pair_system.pairs
        fields += [
            cert.kind.value,
            cert.reason,
            " ".join(f"{u}-{w}" for u, w in pairs),
            ",".join(map(str, cert.witnesses)),
        ]
    return "\t".join(fields)


def sweep() -> tuple[list[str], dict[str, int]]:
    totals = {"outcome nodes": 0, "count nodes": 0, "count searches": 0, "orbit searches": 0}
    return [answer_line(item_id, g, k, totals) for item_id, g, k in items()], totals


def digest(lines: list[str]) -> str:
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


def compare(a: Path, b: Path) -> int:
    """Print every item whose line differs (or is missing) between two line files; 1 if any does."""
    sides = []
    for path in (a, b):
        lines = path.read_text().splitlines()
        sides.append({line.split("\t", 1)[0]: line for line in lines})
    differ = 0
    for item_id in dict.fromkeys([*sides[0], *sides[1]]):
        left, right = (side.get(item_id, "(missing)") for side in sides)
        if left != right:
            differ += 1
            print(f"{item_id}\n  {a}: {left}\n  {b}: {right}")
    print(f"{differ} item(s) differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="the src/ directory to import mbresolve from")
    ap.add_argument("--lines", type=Path, help="write the answer lines to this file")
    ap.add_argument("--update", action="store_true", help=f"rewrite {PINNED.relative_to(ROOT)}")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"), help="diff two --lines files")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import mbresolve

    if src not in Path(mbresolve.__file__).resolve().parents:
        raise SystemExit(f"mbresolve was imported from {mbresolve.__file__}, not from {src}")
    start = time.perf_counter()
    lines, totals = sweep()
    seconds = time.perf_counter() - start
    if args.lines:
        args.lines.write_text("".join(line + "\n" for line in lines))
    found = {"items": len(lines), "sha256": digest(lines)}
    print(f"{found['items']} items in {seconds:.1f} s, sha256 {found['sha256']}")
    print(", ".join(f"{name} {value:,}" for name, value in totals.items()) + " (not compared)")
    if args.update:
        PINNED.write_text(json.dumps(found, indent=2) + "\n")
        print(f"wrote {PINNED.relative_to(ROOT)}")
        return 0
    pinned = json.loads(PINNED.read_text())
    if found != pinned:
        print(f"answers differ from {PINNED.relative_to(ROOT)}: pinned {pinned['items']} items, "
              f"sha256 {pinned['sha256']}")
        return 1
    print("answers match")
    return 0


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`| head -1`): stop without a traceback, and
        # point stdout at devnull so that the flush at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
