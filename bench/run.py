"""mbresolve benchmark: cold single-threaded passes over one workload, every answer checked.

    python3 bench/run.py --workload outcome-hard|counts|census --seed N --seconds S --trace 0|1

Each pass is a fresh `worker.py` process, so the masks cache, the solver
memos and ru_maxrss start empty, as for a command-line user.  Passes run one
at a time until the next one would end after --seconds (at least three, so
that a median discards one disturbed pass).  With
--trace 0 the last stdout line holds the end-to-end metrics; with --trace 1
untraced and traced passes alternate and it holds the per-layer metrics.
Per-item records of the first pass and the spans of the last traced pass are
written under .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import WORKLOADS, fixed_entries
from worker import OUT_DIR, ROOT

BENCH = Path(__file__).resolve().parent
RUN_LIMIT_S = 170  # the whole run, set-up and reference included
SETUP_PROBES = 3
MIN_PASSES = 3

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "item_p50_ms": "ms",
    "item_p99_ms": "ms",
}
PER_LAYER = {
    "graph.distances_s": "s",
    "resolve.masks_s": "s",
    "resolve.masks": "count",
    "resolve.dim_s": "s",
    "game.init_s": "s",
    "game.m_search_s": "s",
    "game.m_nodes": "count",
    "game.b_search_s": "s",
    "game.b_nodes": "count",
    "game.us_per_node": "us",
    "game.tt_entries": "count",
    "game.tt_store_ratio": "ratio",
    "game.counts_s": "s",
    "game.count_nodes": "count",
    "game.count_win_nodes": "count",
    "game.cert_s": "s",
    "game.cert_settled_ratio": "ratio",
    "setup.import_s": "s",
    "setup.inputs_s": "s",
    "trace.overhead_frac": "ratio",
}
# span name -> per-layer metric holding its self time
SPAN_METRICS = {
    "graph.distances": "graph.distances_s",
    "resolve.masks": "resolve.masks_s",
    "resolve.dim": "resolve.dim_s",
    "game.init": "game.init_s",
    "game.m_search": "game.m_search_s",
    "game.b_search": "game.b_search_s",
    "game.counts": "game.counts_s",
    "game.certificate": "game.cert_s",
}
# record fields that must repeat exactly from pass to pass
DETERMINISTIC = ("sym", "counts", "dim", "cert", "masks", "m_nodes", "b_nodes", "tt", "count_nodes", "count_win_nodes")
# outcome-search nodes at k=1 recorded in ROADMAP.md for the seed commit
ROADMAP_NODES = {"C13": 190_478, "C15": 532_690, "G18": 511_460}


class BenchError(Exception):
    """The run cannot produce a result (missing program, crashed or hung worker)."""


def run_worker(mode: str, args, deadline: float, trace: bool = False) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed), "--trace", str(int(trace))]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before a worker could start")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {mode} exceeded the run's time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} exited with {proc.returncode}:\n{proc.stderr.strip()}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError as exc:
        raise BenchError(f"worker {mode} printed no result: {exc}") from exc


def expected_answers(workload: str, reference: dict | None) -> dict[str, dict]:
    """Reference fields per item id: pinned for fixed workloads, oracle results for census."""
    if workload == "census":
        return reference or {}
    out = {}
    for e in fixed_entries(workload):
        want = {"sym": e["outcome"]}
        if "counts" in e:
            want["counts"] = e["counts"]
        out[e["name"]] = want
    return out


def check_passes(passes: list[dict], expected: dict[str, dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every item of every pass.

    An item fails on an exception, a wrong answer, a certificate that excludes
    the solved outcome, an outcome query that searched again, or any record
    field that differs from the first pass.
    """
    attempted = failed = 0
    problems: list[str] = []
    first = {r["id"]: r for r in passes[0]["items"]} if passes else {}
    for p_index, p in enumerate(passes):
        if [r["id"] for r in p["items"]] != list(first):
            problems.append(f"pass {p_index}: item list differs from pass 0")
        for rec in p["items"]:
            attempted += 1
            why = _item_problem(rec, expected.get(rec["id"], {}), first.get(rec["id"], rec))
            if why:
                failed += 1
                problems.append(f"pass {p_index} item {rec['id']}: {why}")
    missing = set(expected) - set(first)
    if missing:
        failed += len(missing)
        attempted += len(missing)
        problems.append(f"reference items never attempted: {sorted(missing)[:5]}")
    return attempted, failed, problems


def _item_problem(rec: dict, want: dict, first: dict) -> str | None:
    if "error" in rec:
        return rec["error"]
    for field, value in want.items():
        if rec.get(field) != value:
            return f"{field} = {rec.get(field)!r}, expected {value!r}"
    if not rec["memo_hit"]:
        return "outcome() searched again after both games were solved"
    if "cert" in rec and rec["cert"] is not None and rec["sym"] not in rec["cert"]:
        return f"certificate allows {rec['cert']} but the solver found {rec['sym']}"
    for field in DETERMINISTIC:
        if rec.get(field) != first.get(field):
            return f"{field} = {rec.get(field)!r} differs from pass 0 ({first.get(field)!r})"
    return None


def end_to_end(untraced: list[dict], setups: list[float]) -> dict[str, float]:
    p50s, p99s = [], []
    for p in untraced:
        ms = [r["ms"] for r in p["items"]]
        p50s.append(statistics.median(ms))
        p99s.append(statistics.quantiles(ms, n=100, method="inclusive")[98])
    return {
        "wall_s": statistics.median(p["wall_s"] for p in untraced),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in untraced),
        "item_p50_ms": statistics.median(p50s),
        "item_p99_ms": statistics.median(p99s),
    }


def per_layer(untraced: list[dict], traced: list[dict], setup_parts: list[dict]) -> dict[str, float]:
    """Layer metrics from the traced passes; a layer the workload never calls reads 0."""
    out = {name: statistics.median(p["layers"].get(span, 0.0) for p in traced)
           for span, name in SPAN_METRICS.items()}
    items = [r for r in traced[0]["items"] if "error" not in r]

    def total(field):
        return sum(r.get(field, 0) for r in items)

    search_nodes = total("m_nodes") + total("b_nodes")
    out["resolve.masks"] = total("masks")
    out["game.m_nodes"] = total("m_nodes")
    out["game.b_nodes"] = total("b_nodes")
    out["game.us_per_node"] = (out["game.m_search_s"] + out["game.b_search_s"]) / max(search_nodes, 1) * 1e6
    out["game.tt_entries"] = max((r["tt"] for r in items), default=0)
    out["game.tt_store_ratio"] = total("tt") / max(search_nodes + total("count_win_nodes"), 1)
    out["game.count_nodes"] = total("count_nodes")
    out["game.count_win_nodes"] = total("count_win_nodes")
    with_cert = [r for r in items if "cert" in r]
    out["game.cert_settled_ratio"] = (
        sum(r["cert"] is not None for r in with_cert) / len(with_cert) if with_cert else 0.0
    )
    out["setup.import_s"] = statistics.median(s["import_s"] for s in setup_parts)
    out["setup.inputs_s"] = statistics.median(s["inputs_s"] for s in setup_parts)
    out["trace.overhead_frac"] = (
        statistics.median(p["wall_s"] for p in traced) / statistics.median(p["wall_s"] for p in untraced) - 1
    )
    return {name: out[name] for name in PER_LAYER}


def summary_lines(workload: str, passes: list[dict], attempted: int, failed: int,
                  metrics: dict[str, float], units: dict[str, str]) -> list[str]:
    items = passes[0]["items"]
    lines = [f"workload {workload}: {len(passes)} passes ({sum(p['traced'] for p in passes)} traced), "
             f"{len(items)} items per pass"]
    lines.append(f"fail_frac {failed / attempted:.6g} ratio ({failed} of {attempted} items failed)")
    lines.append("wall_s per pass: " + " ".join(f"{p['wall_s']:.4g}{'t' if p['traced'] else ''}" for p in passes))
    if len(items) >= 100:
        lines.append(f"item_p99_ms from {len(items)} items per pass, {len(items) // 100} beyond it")
    nodes = sum(r.get("m_nodes", 0) + r.get("b_nodes", 0) for r in items)
    lines.append(f"outcome-search nodes per pass: {nodes}, count nodes: {sum(r.get('count_nodes', 0) for r in items)}")
    for r in items:
        if r["id"] in ROADMAP_NODES:
            got = r.get("m_nodes", 0) + r.get("b_nodes", 0)
            lines.append(f"nodes {r['id']}: {got} (ROADMAP baseline {ROADMAP_NODES[r['id']]})")
    for name, value in metrics.items():
        lines.append(f"{name} {value:.6g} {units[name]}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if not (ROOT / "src" / "mbresolve" / "__init__.py").is_file():
            raise BenchError(f"no mbresolve sources under {ROOT / 'src'}")
        OUT_DIR.mkdir(exist_ok=True)
        # the first process after a checkout also compiles bytecode; keep that out of set-up time
        run_worker("setup", args, deadline)
        setup_parts = [run_worker("setup", args, deadline)["setup"] for _ in range(SETUP_PROBES)]
        passes: list[dict] = []
        start = time.monotonic()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            t0 = time.monotonic()
            passes.append(run_worker("pass", args, deadline, trace=traced))
            elapsed, last = time.monotonic() - start, time.monotonic() - t0
            if len(passes) >= MIN_PASSES and elapsed + last > args.seconds:
                break
        reference = run_worker("reference", args, deadline)["reference"] if args.workload == "census" else None
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    setup_parts += [p["setup"] for p in passes]
    attempted, failed, problems = check_passes(passes, expected_answers(args.workload, reference))
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    sum_err = max((p["item_sum_err_s"] for p in traced), default=0.0)
    if sum_err > 1e-9:
        problems.append(f"self times of an item's spans miss its span by {sum_err:.3g} s")
    if args.trace:
        metrics, units = per_layer(untraced, traced, setup_parts), PER_LAYER
    else:
        metrics, units = end_to_end(untraced, [s["import_s"] + s["inputs_s"] for s in setup_parts]), END_TO_END
    with open(OUT_DIR / f"items-{args.workload}.json", "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed, "items": passes[0]["items"]}, f)

    for line in problems[:20]:
        print(f"bench: {line}", file=sys.stderr)
    for line in summary_lines(args.workload, passes, attempted, failed, metrics, units):
        print(line)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
