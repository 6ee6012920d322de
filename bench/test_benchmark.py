"""Tests of the benchmark's own logic: answer checks, span self times, metric names."""

import json
import time
from pathlib import Path

import pytest

import run
import worker
from inputs import census_graphs, fixed_entries
from spans import NullTracer, Tracer, self_times

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def _solve_pass(entries, workload, tracer=None):
    api = worker.import_program()
    from mbresolve.graph import build_graph

    items = [(e["name"], build_graph(e["n"], e["edges"]), 1) for e in entries]
    records, wall = worker.run_pass(api, items, workload, tracer or NullTracer())
    return {"items": records, "wall_s": wall, "traced": tracer is not None}


def _small_counts_entries():
    # the four smallest pinned multipartite graphs solve in milliseconds
    return [e for e in fixed_entries("counts") if e["name"].startswith("K")][:4]


def test_pinned_answers_pass():
    entries = _small_counts_entries()
    expected = {e["name"]: {"sym": e["outcome"], "counts": e["counts"]} for e in entries}
    p = _solve_pass(entries, "counts")
    attempted, failed, problems = run.check_passes([p, p], expected)
    assert (attempted, failed, problems) == (8, 0, [])


def test_wrong_pinned_answer_raises_fail_frac():
    entries = _small_counts_entries()
    expected = {e["name"]: {"sym": e["outcome"], "counts": e["counts"]} for e in entries}
    victim = entries[0]["name"]
    expected[victim] = dict(expected[victim], sym="N" if expected[victim]["sym"] != "N" else "M")
    p = _solve_pass(entries, "counts")
    attempted, failed, problems = run.check_passes([p], expected)
    assert failed / attempted > 0
    assert failed == 1 and victim in problems[0]


def test_nondeterministic_node_count_fails():
    p0 = _solve_pass(_small_counts_entries(), "counts")
    p1 = json.loads(json.dumps(p0))
    p1["items"][1]["m_nodes"] += 1
    _, failed, problems = run.check_passes([p0, p1], {})
    assert failed == 1 and "m_nodes" in problems[0]


def test_certificate_excluding_solved_outcome_fails():
    rec = {"id": "g0k1", "sym": "M", "memo_hit": True, "cert": ["B"]}
    _, failed, _ = run.check_passes([{"items": [rec]}], {})
    assert failed == 1


def test_self_times_of_nested_spans():
    # item [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    tr = Tracer(_fake_clock([0, 1, 2, 3, 4, 5, 9, 10]))
    with tr.span("item"):
        with tr.span("a"):
            with tr.span("b"):
                pass
        with tr.span("c"):
            pass
    assert [s[0] for s in tr.spans] == ["item", "a", "b", "c"]
    assert self_times(tr.spans) == [3, 2, 1, 4]
    per_layer, gap = worker.layer_times(tr.spans)
    assert per_layer == {"item": 3, "a": 2, "b": 1, "c": 4}
    assert gap == 0


def test_self_time_clips_overlapping_children():
    spans = [["p", -1, 0.0, 10.0], ["x", 0, 2.0, 6.0], ["y", 0, 4.0, 12.0]]
    assert self_times(spans)[0] == pytest.approx(2.0)


def test_item_self_times_add_up_to_item_span():
    tr = Tracer(time.perf_counter)
    p = _solve_pass(_small_counts_entries(), "counts", tr)
    per_layer, gap = worker.layer_times(tr.spans)
    assert gap < 1e-9
    assert sum(per_layer.values()) == pytest.approx(sum(e - s for _, parent, s, e in tr.spans if parent < 0))
    assert len(p["items"]) == 4


def test_span_and_metric_names_stay_declared():
    declared = json.loads(BENCHMARK_JSON.read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER
    assert set(run.SPAN_METRICS.values()) <= set(run.PER_LAYER)

    tr = Tracer(time.perf_counter)
    _solve_pass(_small_counts_entries(), "counts", tr)
    names = {s[0] for s in tr.spans}
    assert names <= set(run.SPAN_METRICS) | {"item", "game.outcome"}

    p = {"items": [{"id": "x", "tt": 1, "m_nodes": 1, "b_nodes": 0, "wall_s": 1.0}],
         "layers": {"game.m_search": 0.5, "undeclared": 1.0}, "wall_s": 1.0, "traced": True}
    layers = run.per_layer([dict(p, traced=False)], [p], [{"import_s": 0.1, "inputs_s": 0.1}])
    assert list(layers) == list(run.PER_LAYER)


def test_census_generator_is_seeded():
    a, b, c = census_graphs(5), census_graphs(5), census_graphs(6)
    assert a == b and a != c
    assert {n for n, _, _ in a} == set(range(4, 10))
