"""Benchmark inputs: frozen edge lists for the fixed workloads, a seeded census generator.

Nothing here calls mbresolve's family generators, so editing them cannot move
a workload.  mbresolve is imported inside the functions that build graphs, so
importing this module does not pay for (or hide) the package import.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("outcome-hard", "counts", "census")

DATA_FILE = Path(__file__).resolve().parent / "data" / "fixed_graphs.json"

# census: orders 4..9, edge probability stratified-uniform over [0.25, 0.85)
CENSUS_ORDERS = tuple(range(4, 10))
CENSUS_PER_ORDER = 550
CENSUS_P = (0.25, 0.85)


def fixed_entries(workload: str) -> list[dict]:
    """Frozen graphs of a fixed workload with their pinned answers."""
    with open(DATA_FILE) as f:
        return json.load(f)[workload]


def _diameter(n: int, edges) -> int | None:
    """Hop diameter by BFS from every vertex; None when disconnected."""
    adjacency = [[] for _ in range(n)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    diameter = 0
    for s in range(n):
        dist = {s: 0}
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for w in adjacency[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        nxt.append(w)
            frontier = nxt
        if len(dist) < n:
            return None
        diameter = max(diameter, max(dist.values()))
    return diameter


def census_graphs(seed: int) -> list[tuple[int, list[tuple[int, int]], int]]:
    """(n, edges, diameter) of every census graph; the same seed gives the same graphs."""
    rng = random.Random(seed)
    lo, hi = CENSUS_P
    out = []
    for n in CENSUS_ORDERS:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for i in range(CENSUS_PER_ORDER):
            # one draw per stratum keeps the mix of densities the same across seeds
            p = lo + (hi - lo) * (i + rng.random()) / CENSUS_PER_ORDER
            while True:
                edges = [e for e in pairs if rng.random() < p]
                diameter = _diameter(n, edges)
                if diameter is not None:
                    break
            out.append((n, edges, diameter))
    return out


def build_items(workload: str, seed: int) -> list[tuple[str, object, int]]:
    """(item id, Graph, k) for every item of one pass of a workload."""
    from mbresolve.graph import build_graph

    if workload in ("outcome-hard", "counts"):
        return [(e["name"], build_graph(e["n"], e["edges"]), 1) for e in fixed_entries(workload)]
    if workload != "census":
        raise ValueError(f"unknown workload {workload!r}")
    items = []
    for index, (n, edges, diameter) in enumerate(census_graphs(seed)):
        g = build_graph(n, edges)
        # levels 1..diameter-1 (a single level for diameter <= 2), as jump_report uses
        for k in range(1, max(1, diameter - 1) + 1):
            items.append((f"g{index}k{k}", g, k))
    return items
