"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import copy
import json
import re
import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (puts src/ on the path)
from speed import BRACKET_PROBES, Stopwatch  # noqa: E402
from tracing import Instrumentation, Tracer, self_times  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Pass,
    check_evaluation,
    check_response,
    make_inputs,
)

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


@pytest.fixture(scope="module")
def evaluation():
    from repro.api import EvaluationRequest, Pipeline

    return Pipeline().evaluate(EvaluationRequest("linear", 2)).to_dict()


# -- inputs --------------------------------------------------------------
@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    first = make_inputs(workload, 7)
    assert json.dumps(first, sort_keys=True) == json.dumps(
        make_inputs(workload, 7), sort_keys=True
    )
    assert json.dumps(first, sort_keys=True) != json.dumps(
        make_inputs(workload, 8), sort_keys=True
    )


def test_service_mix_shares_and_order():
    inputs = make_inputs("service-mix", 3)
    kinds = [op["kind"] for op in inputs["ops"]]
    assert kinds[0] == "write"
    assert kinds.count("write") == len(inputs["requests"])
    for index, op in enumerate(inputs["ops"]):
        written = kinds[: index + 1].count("write")
        assert op["request"] < written  # only what was already written is read


# -- metric names --------------------------------------------------------
def _declared(section):
    return {metric["name"] for metric in run.BENCHMARK[section]}


def test_end_to_end_names_are_declared(evaluation):
    metrics = run.end_to_end_metrics([1.0], [2.0, 1.5, 1.0], [evaluation])
    assert set(metrics) == _declared("end_to_end")
    assert all(NAME.match(name) for name in metrics)
    assert metrics["wall_ref_s"] == 1.0


def test_per_layer_names_are_declared():
    tracer = Tracer()
    root = tracer.open("workload.pass")
    tracer.close(tracer.open("pipeline.evaluate"))
    tracer.close(root)
    passed = Pass(1.0, [], "", 1, [], 0.5, 0.0, reads_ms=[1.0, 2.0], writes_ms=[3.0])
    metrics = run.layer_metrics(tracer.spans, tracer.counters, passed, [], 1.0)
    metrics.update(run.service_latencies([passed]))
    assert set(metrics) == _declared("per_layer")
    assert all(NAME.match(name) for name in metrics)


def test_benchmark_file_contract():
    spec = run.BENCHMARK
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])


# -- timing at reference speed -------------------------------------------
def test_stopwatch_takes_probes_out_and_scales_by_them():
    with Stopwatch() as clock:
        deadline = time.perf_counter() + 0.35
        while time.perf_counter() < deadline:
            pass
    # Bracket probes on entry and exit, periodic ones in between.
    assert len(clock.samples) >= 2 * BRACKET_PROBES + 2
    assert 0 < clock.probes_s < clock.elapsed_s
    assert clock.wall_s == pytest.approx(clock.elapsed_s - clock.probes_s)
    assert clock.ref_s == pytest.approx(clock.wall_s / clock.slowdown)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_unsampled_stopwatch_only_brackets():
    with Stopwatch(sample=False) as clock:
        time.sleep(0.25)
    assert len(clock.samples) == 2 * BRACKET_PROBES
    assert clock.wall_s == clock.elapsed_s


# -- output checks -------------------------------------------------------
def test_sound_evaluation_passes(evaluation):
    assert check_evaluation(evaluation) == []


@pytest.mark.parametrize(
    "field, change",
    [
        ("volume", lambda e: e["volume"] + 1),
        ("latency", lambda e: e["critical_latency"] - 1),
        ("area", lambda e: e["critical_area"] - 1),
    ],
)
def test_corrupted_evaluation_is_caught(evaluation, field, change):
    corrupted = dict(evaluation, **{field: change(evaluation)})
    assert check_evaluation(corrupted)


def test_corrupted_response_is_caught(evaluation):
    fingerprint = "ab" * 16
    etag = f'"{fingerprint}"'
    body = json.dumps({"fingerprint": fingerprint, "source": "store",
                       "result": evaluation}).encode()
    assert check_response(200, etag, body, fingerprint, evaluation) == []
    assert check_response(304, etag, b"", fingerprint, evaluation) == []

    altered = copy.deepcopy(evaluation)
    altered["stall_cycles"] += 1
    tampered = json.dumps({"source": "store", "result": altered}).encode()
    assert check_response(200, etag, tampered, fingerprint, evaluation)
    assert check_response(200, '"other"', body, fingerprint, evaluation)
    assert check_response(500, etag, body, fingerprint, evaluation)
    assert check_response(200, etag, b"{not json", fingerprint, evaluation)


# -- tracing -------------------------------------------------------------
def test_instrumentation_records_layers_and_restores_originals():
    from repro.api import EvaluationRequest, Pipeline
    from repro.api import pipeline as pipeline_module
    from repro.routing import simulator

    original_simulate = simulator.simulate
    original_evaluate = Pipeline.evaluate
    tracer = Tracer()
    instrumentation = Instrumentation(tracer)
    instrumentation.install()
    try:
        traced = Pipeline().evaluate(EvaluationRequest("force_directed", 2, seed=3))
    finally:
        instrumentation.remove()
    assert simulator.simulate is original_simulate
    assert Pipeline.evaluate is original_evaluate
    assert pipeline_module.build_factory.__module__ == "repro.distillation.block_code"

    summary = self_times(tracer.spans)
    for name in (
        "pipeline.evaluate", "distillation.build", "mapping.place.force_directed",
        "mapping.fd.refine", "graphs.interaction", "routing.simulate",
    ):
        assert summary[name]["calls"] >= 1, name
    assert tracer.counters["mapping.fd.sweeps"] > 0
    assert tracer.counters["routing.simulate.calls"] == 1
    evaluate = next(s for s in tracer.spans if s.name == "pipeline.evaluate")
    assert summary["pipeline.evaluate"]["self_s"] <= evaluate.duration
    # Tracing does not change results.
    assert traced == Pipeline().evaluate(EvaluationRequest("force_directed", 2, seed=3))

    events = tracer.chrome()["traceEvents"]
    assert {event["ph"] for event in events} == {"X"}
    assert len(events) == len(tracer.spans)
