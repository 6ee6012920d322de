"""One cold benchmark process: set up, then one timed pass over a workload's items.

Run by bench/run.py, never by hand, as

    python3 bench/worker.py --mode pass|setup|reference --workload W --seed S [--trace 0|1]

and prints one JSON object.  `pass` times every item (and with --trace 1
records a span around every call into mbresolve, written at the end to
.bench_out/spans-<workload>.json); `setup` stops after the
import and input build; `reference` computes census answers with the
independent oracles of tests/oracles.py for a seeded sample of items.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

from inputs import build_items
from spans import NullTracer, Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
REFERENCE_SAMPLE = 200


def import_program():
    sys.path.insert(0, str(ROOT / "src"))
    import mbresolve

    here = Path(mbresolve.__file__).resolve()
    if ROOT / "src" not in here.parents:
        raise SystemExit(f"mbresolve was imported from {here}, not from this checkout")
    return mbresolve


def solve_item(tr, api, g, k: int, workload: str) -> dict:
    """The layered calls for one (graph, k), each inside its own span."""
    with tr.span("graph.distances"):
        dm = api.all_pairs_distances(g)
    with tr.span("resolve.masks"):
        masks = api.minimal_pair_masks(dm, k)
    with tr.span("game.init"):
        solver = api.GameSolver(g, dm, k)
    stats = solver.stats
    with tr.span("game.m_search"):
        solver.maker_wins(0, 0, True, True)
    m_nodes = stats.nodes
    with tr.span("game.b_search"):
        solver.maker_wins(0, 0, False, False)
    b_nodes = stats.nodes - m_nodes
    with tr.span("game.outcome"):
        out = solver.outcome()
    rec = {
        "sym": out.symbol.name,
        "masks": len(masks),
        "m_nodes": m_nodes,
        "b_nodes": b_nodes,
        "memo_hit": stats.nodes == m_nodes + b_nodes,
    }
    if workload == "counts":
        before = stats.nodes
        with tr.span("game.counts"):
            counts = solver.move_counts(out)
        rec["counts"] = counts.defined()
        rec["count_nodes"] = stats.count_nodes
        rec["count_win_nodes"] = stats.nodes - before
    rec["tt"] = stats.tt_entries
    if workload == "census":
        with tr.span("resolve.dim"):
            dim = api.metric_dimension_k(dm, k)
        with tr.span("game.certificate"):
            cert = api.certificate_fast_path(g, dm, k)
        rec["dim"] = dim.value
        rec["cert"] = None if cert is None else sorted(s.name for s in cert.allowed_symbols)
    return rec


def run_pass(api, items, workload: str, tracer) -> tuple[list[dict], float]:
    clock = time.perf_counter
    records = []
    start = clock()
    for item_id, g, k in items:
        t0 = clock()
        try:
            with tracer.span("item"):
                rec = solve_item(tracer, api, g, k, workload)
        except Exception as exc:  # an item that raises is a failed item, not a failed run
            traceback.print_exc(file=sys.stderr)
            rec = {"error": f"{type(exc).__name__}: {exc}"}
        rec["id"] = item_id
        rec["ms"] = (clock() - t0) * 1e3
        records.append(rec)
    return records, clock() - start


def layer_times(spans: list[list]) -> tuple[dict[str, float], float]:
    """Self time per span name, and the largest gap between an item's span and its self-time sum."""
    selfs = self_times(spans)
    per_layer: dict[str, float] = {}
    for (name, _, _, _), s in zip(spans, selfs):
        per_layer[name] = per_layer.get(name, 0.0) + s
    # spans are recorded in pre-order, so an item's spans run from its root to the next root
    roots = [i for i, span in enumerate(spans) if span[1] < 0]
    worst = 0.0
    for root, end in zip(roots, roots[1:] + [len(spans)]):
        duration = spans[root][3] - spans[root][2]
        worst = max(worst, abs(sum(selfs[root:end]) - duration))
    return per_layer, worst


def reference_answers(items, seed: int) -> dict[str, dict]:
    """Oracle outcome symbol and dimension for a seeded sample of items."""
    sys.path.insert(0, str(ROOT / "tests"))
    from oracles import brute_force_dim, naive_outcome_symbol

    from mbresolve.graph import all_pairs_distances

    letters = {1: "M", 0: "N", -1: "B"}
    rng = random.Random(f"reference-{seed}")
    sample = rng.sample(items, min(REFERENCE_SAMPLE, len(items)))
    out = {}
    for item_id, g, k in sample:
        dm = all_pairs_distances(g)
        out[item_id] = {"sym": letters[naive_outcome_symbol(dm, k)], "dim": brute_force_dim(dm, k)[0]}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("pass", "setup", "reference"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    api = import_program()
    t1 = time.perf_counter()
    items = build_items(args.workload, args.seed)
    t2 = time.perf_counter()
    result: dict = {"setup": {"import_s": t1 - t0, "inputs_s": t2 - t1}}

    if args.mode == "reference":
        result["reference"] = reference_answers(items, args.seed)
    elif args.mode == "pass":
        tracer = Tracer(time.perf_counter) if args.trace else NullTracer()
        records, wall = run_pass(api, items, args.workload, tracer)
        result["wall_s"] = wall
        result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["traced"] = bool(args.trace)
        result["items"] = records
        if args.trace:
            result["layers"], result["item_sum_err_s"] = layer_times(tracer.spans)
            with open(OUT_DIR / f"spans-{args.workload}.json", "w") as f:
                json.dump({"workload": args.workload, "seed": args.seed, "spans": tracer.spans}, f)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
