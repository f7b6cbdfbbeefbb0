"""Tests of the benchmark itself: metric names, the correctness gate, the tracer.

    python3 -m pytest perfbench/tests -q
"""
import copy
import json

import pytest

import gate
import run
import worker
from tracer import PER_LAYER_METRICS, Tracer
from workloads import NEGATIVE_CONTROL, WORKLOADS, config_for

from cstar_systems import cli

WORKLOAD = "subproduct-grid6"


@pytest.fixture(scope="module")
def pins():
    return gate.load_pins()


@pytest.fixture(scope="module")
def untraced(pins):
    text, status = worker._verify(cli, cli.RunConfig.from_json(config_for(WORKLOAD, 1)))
    return json.loads(text), status


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        PER_LAYER_METRICS
    assert spec["paths"] == ["perfbench"]


def test_pins_cover_every_workload_and_the_control(pins):
    assert set(pins) == set(WORKLOADS) | {NEGATIVE_CONTROL}
    for name in WORKLOADS:
        assert pins[name]["exit_status"] == 0 and pins[name]["failing"] == []
    assert pins[NEGATIVE_CONTROL]["exit_status"] == 1
    assert pins[NEGATIVE_CONTROL]["failing"]


def test_traced_report_passes_the_same_gate_on_another_seed(untraced, pins):
    report, status = untraced
    assert gate.check(WORKLOAD, report, status, pins) == []

    config = cli.RunConfig.from_json(config_for(WORKLOAD, 2))
    original = cli.SUITE_RUNNERS["partition"]
    tracer = Tracer()
    tracer.install()
    tracer.begin_run()
    try:
        text, status = tracer.span("bench.verify", worker._verify, cli, config)
    finally:
        tracer.uninstall()
    tracer.end_run(len(text.encode()))
    assert cli.SUITE_RUNNERS["partition"] is original
    assert gate.check(WORKLOAD, json.loads(text), status, pins) == []

    layers = tracer.layer_metrics()
    assert layers["cli.run_partition.s"] > layers["cli.run_partition.self_s"] > 0
    assert layers["partition_calculus.delta_refinement.calls"] > 0
    assert layers["timegrid.inner_decompose.calls"] > 0
    assert 0 < layers["partition_calculus.cache.hit_ratio"] < 1
    assert layers["report.json_bytes"] == len(text.encode())
    roots = [s for s in tracer.spans if s[3] == "bench.verify"]
    assert len(roots) == 1 and roots[0][2] == 0
    span_ids = {s[1] for s in tracer.spans}
    assert all(s[2] in span_ids for s in tracer.spans if s is not roots[0])


def _mutated(report, mutate):
    out = copy.deepcopy(report)
    mutate(out["suites"]["partition"]["records"])
    return out


@pytest.mark.parametrize("mutate", [
    lambda recs: recs[3].update({"pass": False}),
    lambda recs: recs[3]["params"].update({"I": ["1", "6"]}),
    lambda recs: recs[3].update({"residual": 1e-6}),
    lambda recs: recs.pop(),
    lambda recs: recs[0].update({"exact_discrepancy": "1"}),
], ids=["verdict", "params", "residual", "dropped", "exact"])
def test_gate_rejects_a_perturbed_report(untraced, pins, mutate):
    report, status = untraced
    assert gate.check(WORKLOAD, _mutated(report, mutate), status, pins)


def test_gate_rejects_a_wrong_exit_status(untraced, pins):
    report, _status = untraced
    assert gate.check(WORKLOAD, report, 1, pins)


def test_negative_control_fails_exactly_as_pinned(pins):
    text, status = worker._verify(cli, cli.RunConfig.from_json(config_for(NEGATIVE_CONTROL, 5)))
    report = json.loads(text)
    assert status == 1
    assert gate.check(NEGATIVE_CONTROL, report, status, pins) == []
    assert gate.check(WORKLOAD, report, status, pins)
