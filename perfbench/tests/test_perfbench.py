"""Tests of the benchmark's own helpers.

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import pytest  # noqa: E402

import run  # noqa: E402
from spans import Span, Tracer, instrument, self_times, span_table  # noqa: E402
from workloads import (C09, WORKLOADS, GraphShape, Selection, Workload,  # noqa: E402
                       edge_list_text, write_inputs)


def test_same_seed_gives_byte_identical_edge_lists(tmp_path):
    for workload in WORKLOADS.values():
        for name, shape in workload.graphs:
            a = edge_list_text(workload.name, name, shape, 7)
            assert a == edge_list_text(workload.name, name, shape, 7)
            assert a != edge_list_text(workload.name, name, shape, 8)
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = write_inputs(WORKLOADS["oracle-small"], 3, tmp_path / "a")
    second = write_inputs(WORKLOADS["oracle-small"], 3, tmp_path / "b")
    for name in first:
        assert Path(first[name]).read_bytes() == Path(second[name]).read_bytes()


def test_generated_graphs_have_their_shape():
    text = edge_list_text("rat-large", "c09", C09, 1)
    pairs = [tuple(map(int, line.split())) for line in text.splitlines()]
    assert len(pairs) == len(set(pairs)) == C09.edges
    assert all(u != v and 1 <= u <= C09.nodes and 1 <= v <= C09.nodes
               for u, v in pairs)
    tiny = GraphShape(10, 14, "cover")
    pairs = [tuple(map(int, line.split()))
             for line in edge_list_text("w", "g", tiny, 1).splitlines()]
    assert len(set(pairs)) == 14
    assert {u for u, _ in pairs} == set(range(1, 11))


def test_self_time_on_hand_built_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]
    spans = [Span("algorithms.select", 0.0, 10.0, -1, 0),
             Span("sampling.extend", 1.0, 4.0, 0, 0),
             Span("sampling.index", 2.0, 3.0, 1, 0),
             Span("greedy.double_greedy", 5.0, 9.0, 0, 0)]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    table = span_table(spans + [Span("sampling.extend", 9.5, 10.5, -1, 1)])
    assert table["sampling.extend"] == pytest.approx(
        {"calls": 2, "total_s": 4.0, "self_s": 3.0})
    assert table["algorithms.select"]["self_s"] == pytest.approx(3.0)


def test_tracer_nests_spans_and_records_parents():
    tracer = Tracer()
    tracer.run = 4
    with tracer.span("a.outer"):
        with tracer.span("b.inner"):
            pass
        with tracer.span("b.inner"):
            pass
    outer, first, second = tracer.spans
    assert (outer.parent, first.parent, second.parent) == (-1, 0, 0)
    assert {s.run for s in tracer.spans} == {4}
    assert outer.start <= first.start <= first.end <= second.start <= outer.end


MINI = Workload(
    name="mini",
    why="small enough for a unit test",
    graphs=(("g", GraphShape(300, 3000)), ("t", GraphShape(10, 14, "cover")),
            ("m", GraphShape(40, 80, "cover"))),
    selections=(Selection("g", "ic-cp", "ra-t", eval_sims=20, max_ra=4000),
                Selection("g", "ic-wc", "ra-s", eval_sims=20, coupon_frac=0.5),
                Selection("t", "lt", "spm", eval_sims=50, l_override=30,
                          coupon_frac=0.5),
                Selection("t", "lt", "rpm", eval_sims=50, l_override=60,
                          coupon_frac=0.5),
                Selection("m", "ic-cp", "rpm", eval_sims=50, l_override=20,
                          coupon_frac=0.5, ic_p=0.3)),
    exact_max_nodes=10)

COUNTS = ("sampling.ra_sets", "sampling.ra_members", "diffusion.sims",
          "diffusion.replays", "algorithms.rounds", "algorithms.probes",
          "algorithms.realizations", "greedy.seeds", "greedy.evaluations")


def _traced_round(paths):
    tracer = Tracer()
    with instrument(tracer):
        rnd = run.Round(MINI, paths, 5, run.exact_tables(MINI, paths, 5)).run(tracer)
    assert rnd.problems == []
    return run.layer_metrics(tracer, rnd)


def test_counts_repeat_exactly_across_traced_runs(tmp_path):
    paths = write_inputs(MINI, 5, tmp_path)
    first, second = _traced_round(paths), _traced_round(paths)
    for key in COUNTS:
        assert first[key] == second[key], key
        assert first[key] > 0, key


def test_instrumentation_is_removed_after_the_block(tmp_path):
    from profitmax import algorithms, sampling

    before = (algorithms.double_greedy, sampling.CollectionBuilder.extend,
              sampling.RACollection.index)
    with instrument(Tracer()):
        assert algorithms.double_greedy is not before[0]
    assert (algorithms.double_greedy, sampling.CollectionBuilder.extend,
            sampling.RACollection.index) == before


def test_cli_parity_matches_library(tmp_path):
    from pipeline import cli_parity, run_selection
    from spans import NullTracer

    paths = write_inputs(MINI, 5, tmp_path)
    for i, sel in enumerate(MINI.selections):
        outcome = run_selection(sel, paths[sel.graph], 5 + i, NullTracer())
        out = str(tmp_path / f"cli-{i}.json")
        assert cli_parity(sel, paths[sel.graph], outcome, out, Tracer()) == []



def test_benchmark_json_matches_the_workloads_and_metrics(tmp_path):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in declared["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    paths = write_inputs(MINI, 5, tmp_path)
    rnd = run.Round(MINI, paths, 5, run.exact_tables(MINI, paths, 5)).run(
        run.NullTracer())
    end_to_end = set(rnd.figures()) | {"setup_s", "peak_rss_mib"}
    assert {m["name"] for m in declared["end_to_end"]} <= end_to_end
    per_layer = set(_traced_round(paths)) | {"trace.overhead_s", "cli.run_s"}
    assert {m["name"] for m in declared["per_layer"]} <= per_layer
