"""Table III — route prediction (HR@3 / KRC / LSD) for all 8 methods.

Regenerates the paper's route-prediction table on the synthetic
workload: every method evaluated on the (3-10], (10-20] and all
buckets.  The expected *shape* (not absolute values): learned methods
beat pure heuristics, and M²G4RTP posts the best HR@3/KRC/LSD overall.
"""

import pytest

from repro.eval import evaluate_method, format_table

from common import all_predictors, get_context, write_result

BUCKETS = ("(3-10]", "(10-20]", "all")


@pytest.fixture(scope="module")
def evaluations():
    context = get_context()
    predictors = all_predictors()
    return [
        evaluate_method(name, predict, context.test, buckets=BUCKETS)
        for name, predict in predictors.items()
    ]


def test_table3_route_prediction(evaluations, benchmark):
    table = format_table(evaluations, "route", buckets=BUCKETS)
    write_result("table3_route.txt", table)
    benchmark(format_table, evaluations, "route")

    by_name = {evaluation.name: evaluation for evaluation in evaluations}
    ours = by_name["M2G4RTP"].buckets["all"]
    # Shape check 1: M2G4RTP beats every baseline on overall KRC.
    for name, evaluation in by_name.items():
        if name == "M2G4RTP":
            continue
        assert ours.krc >= evaluation.buckets["all"].krc - 1e-9, (
            f"M2G4RTP KRC {ours.krc:.3f} below {name} "
            f"{evaluation.buckets['all'].krc:.3f}")
    # Shape check 2: it beats the shortest-route heuristic clearly.
    assert ours.hr_at_3 > by_name["OR-Tools"].buckets["all"].hr_at_3
    assert ours.lsd < by_name["OR-Tools"].buckets["all"].lsd


def test_bench_m2g4rtp_route_inference(benchmark):
    context = get_context()
    predict = all_predictors()["M2G4RTP"]
    instance = max(context.test, key=lambda i: i.num_locations)
    benchmark(predict, instance)
