"""Tests of the benchmark itself: output check, fingerprints, layer sums.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import dataclasses

import numpy as np
import pytest

import layers
import streams
import workloads
from repro.deploy import DeploymentController, ModelRegistry


@pytest.fixture()
def served_poll(tmp_path):
    """Two poll requests answered by the deployment controller."""
    registry = workloads.make_registry(tmp_path)
    controller = DeploymentController(registry)
    requests = streams.poll_stream(0, 0.2).requests[:2]
    served = [(request, controller.handle(request)) for request in requests]
    checker = ModelRegistry(registry.root)
    return served, lambda version: checker.load(version)[0]


def test_output_check_passes_served_answers(served_poll):
    served, load = served_poll
    assert workloads.check_outputs(served, load) == []
    assert all(workloads.answer_error(request, response) is None
               for request, response in served)


def test_output_check_rejects_a_corrupted_route(served_poll):
    served, load = served_poll
    request, response = served[0]
    route = np.array(response.route)
    route[[0, -1]] = route[[-1, 0]]
    swapped = dataclasses.replace(response, route=route)
    errors = workloads.check_outputs([(request, swapped)] + served[1:], load)
    assert len(errors) == 1 and "route" in errors[0]

    duplicated = dataclasses.replace(response, route=np.zeros_like(route))
    assert "permutation" in workloads.answer_error(request, duplicated)


def test_output_check_rejects_an_eta_beyond_tolerance(served_poll):
    served, load = served_poll
    request, response = served[0]
    shifted = dataclasses.replace(
        response, eta_minutes=response.eta_minutes + 1e-5)
    errors = workloads.check_outputs([(request, shifted)], load)
    assert len(errors) == 1 and "ETAs" in errors[0]


@pytest.mark.parametrize("workload", ["poll", "wave", "train"])
def test_fingerprint_changes_with_seed_not_between_runs(workload):
    first = streams.fingerprint(streams.make_stream(workload, 0, 1))
    again = streams.fingerprint(streams.make_stream(workload, 0, 1))
    other = streams.fingerprint(streams.make_stream(workload, 1, 1))
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", ["poll", "wave", "train"])
def test_recorded_default_fingerprint_matches(workload):
    matches, detail = streams.check_recorded(workload)
    assert matches, detail


def test_poll_stream_has_the_fixed_size_mix():
    for seed in (0, 1):
        stream = streams.poll_stream(seed, 2)
        sizes = [request.num_locations for request in stream.requests]
        quota = streams.size_quota(len(sizes))
        assert {n: sizes.count(n) for n in quota} == quota


@pytest.mark.parametrize("workload,seconds", [
    ("poll", 0.3), ("wave", 0.6), ("train", 0.5)])
def test_self_times_and_remainder_add_up_to_traced_time(
        workload, seconds, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)
    monkeypatch.setattr(workloads, "TRACE_BLOCK_S", 1e-9)  # alternate ops
    stream = streams.make_stream(workload, 0, seconds)
    outcome = workloads.RUNNERS[workload](stream, seconds, True, tmp_path)
    traced = [op for op in outcome.ops if op.traced]
    assert traced and len(traced) < len(outcome.ops)
    assert outcome.check_errors == [] and not outcome.failures

    totals = layers.self_times(op.span for op in traced)
    traced_ms = sum(op.span.duration_ms for op in traced)
    assert sum(totals.values()) == pytest.approx(traced_ms, rel=1e-9)
    kernel_ms = sum(value for name, value in totals.items()
                    if name.startswith("kernels."))
    assert (kernel_ms > 0) == (workload == "wave")
    if workload == "wave":
        # The shipped worker spans sit inside the wave's interval.
        assert all(op.span.duration_ms
                   >= sum(c.duration_ms for c in op.span.children)
                   for op in traced)


def test_unknown_span_lands_in_the_remainder():
    from repro.obs.tracing import Span
    root = Span("bench.deploy").freeze(10.0)
    root.children.append(Span("encoder").freeze(4.0))
    root.children.append(Span("some.new.stage").freeze(3.0))
    root.children[1].children.append(Span("graph_build").freeze(1.0))
    totals = layers.self_times([root])
    assert totals["deploy.controller_ms"] == 3.0
    assert totals["core.encoder_ms"] == 4.0
    assert totals[layers.UNATTRIBUTED] == 2.0
    assert totals["graphs.build_ms"] == 1.0
    assert sum(totals.values()) == 10.0
