"""The benchmark's own tests: every workload runs at its smallest size and
emits every named metric, and a wrong answer makes it fail.

    python3 -m pytest perfbench/tests
"""

import json
import os

import pytest

from gjgbench import clock, harness, layers, queries, tracer
from run import HERE, SRC

WORKLOADS = list(harness.WORKLOADS)


def _run(workload, trace, seed=3):
    return harness.run(workload, seed, 0, trace, "smoke", SRC, log=lambda *a: None)


def _benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_names_what_the_harness_emits():
    bench = _benchmark_json()
    assert [w["name"] for w in bench["workloads"]] == WORKLOADS
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers.UNITS


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_emits_every_metric_and_passes(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = layers.UNITS if trace else harness.END_TO_END_UNITS
    assert list(result["metrics"]) == list(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _wrong_girth(monkeypatch):
    import gjg.formulas

    monkeypatch.setattr(gjg.formulas, "girth", lambda p: 17)


def _wrong_odd_girth(monkeypatch):
    import gjg.formulas

    real = gjg.formulas.odd_girth
    monkeypatch.setattr(gjg.formulas, "odd_girth",
                        lambda p: None if real(p) is None else real(p) + 2)


def _dropped_edge(monkeypatch):
    import gjg.graphio

    real = gjg.graphio._undirected_edges
    monkeypatch.setattr(gjg.graphio, "_undirected_edges", lambda g: list(real(g))[:-1])


@pytest.mark.parametrize("workload, sabotage", [
    ("verify-serial", _wrong_girth),
    ("verify-parallel", _wrong_girth),
    ("query-mix", _wrong_odd_girth),
    ("export", _dropped_edge),
])
def test_wrong_answer_is_counted_as_failed(monkeypatch, workload, sabotage):
    sabotage(monkeypatch)
    result = _run(workload, trace=False)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


def test_stream_depends_on_seed_but_not_its_mix():
    a, b, again = (queries.QueryMix(seed, "bench") for seed in (1, 2, 1))
    assert [q[0] for q in a.stream] == [q[0] for q in again.stream]
    assert [q[0] for q in a.stream] != [q[0] for q in b.stream]

    def mix(w):
        return sorted(q[0].split("#")[0] for q in w.stream)

    assert mix(a) == mix(b)


def test_second_seed_passes_every_gate():
    for workload in ("query-mix", "export"):
        assert _run(workload, trace=False, seed=11)["correct"]


def test_self_time_excludes_children():
    spans = [("outer", 0, 100, -1, "r"), ("inner", 10, 40, 0, "r"), ("inner", 50, 60, 0, "r")]
    assert tracer.summarize(spans) == {"outer": [1, 100, 60], "inner": [2, 40, 40]}


def test_tracer_wraps_every_binding_and_restores_it():
    import gjg.formulas
    import gjg.sweep

    original = gjg.formulas.invariant_report
    with tracer.Tracer() as t:
        t.install([tracer.Target("gjg.formulas", "invariant_report", "r")])
        assert gjg.sweep.invariant_report is gjg.formulas.invariant_report is not original
        gjg.sweep.invariant_report(gjg.params.make_parameters(5, 2, 0))
        assert [s[0] for s in t.spans] == ["r"]
    assert gjg.sweep.invariant_report is gjg.formulas.invariant_report is original


def test_speed_clock_scales_each_segment_by_its_factor():
    c = clock.SpeedClock()
    c.segments, c._ends = [(0.0, 1.0, 2.0), (1.5, 3.0, 0.5)], [1.0, 3.0]
    # Half a second at factor 2, then 1.5 s at factor 0.5; the gap between
    # segments is calibration time and does not count.
    assert c.scaled(0.5, 3.0) == 0.25 + 3.0
