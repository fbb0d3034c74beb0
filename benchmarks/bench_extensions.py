"""Extension benches beyond the paper's figures (DESIGN.md Section 5).

* Robustness sweep: route quality under GPS feature noise, M²G4RTP vs
  Distance-Greedy (the learned model should degrade more gracefully —
  it does not rely on raw distance alone).
* Scheduled sampling: exposure-bias mitigation vs plain teacher forcing.
* TSP substitution: the NN + 2-opt heuristic against the exact
  Held-Karp optimum.
* Significance: paired bootstrap and permutation test of M²G4RTP vs
  Graph2Route on per-instance KRC.
* DeepETA: the related-work time-only model as an extra Table IV row.
"""

import numpy as np
import pytest

from repro.baselines import DeepBaselineConfig, DeepETA
from repro.core import M2G4RTP, M2G4RTPConfig
from repro.data import jitter_coordinates, robustness_sweep
from repro.eval import baseline_predictor, evaluate_method, model_predictor
from repro.metrics import kendall_rank_correlation
from repro.training import Trainer, TrainerConfig

from common import get_baselines, get_context, get_m2g4rtp, write_result


@pytest.fixture(scope="module")
def model():
    return get_m2g4rtp()


def test_robustness_to_gps_noise(model, benchmark):
    context = get_context()
    instances = list(context.test)[:15]
    noise_levels = [0.0, 60.0, 150.0, 1000.0]

    def metric(route, times, instance):
        return kendall_rank_correlation(route, instance.route)

    ours = robustness_sweep(model_predictor(model), instances, noise_levels,
                            jitter_coordinates, metric)
    greedy = robustness_sweep(
        baseline_predictor(get_baselines()["Distance-Greedy"]), instances,
        noise_levels, jitter_coordinates, metric)

    lines = [f"{'noise m':>8s} {'M2G4RTP KRC':>12s} {'Dist-Greedy KRC':>16s}"]
    for level, a, b in zip(noise_levels, ours, greedy):
        lines.append(f"{level:8.0f} {a:12.3f} {b:16.3f}")
    write_result("ext_gps_robustness.txt", "\n".join(lines))

    # City-block-scale noise (1 km) must hurt both methods; moderate
    # GPS noise (<= 150 m, below within-AOI spacing) barely matters.
    assert ours[-1] < ours[0] and greedy[-1] < greedy[0]
    # The learned model keeps a usable signal even at 1 km noise: the
    # deadline/AOI features still carry ordering information.
    assert ours[-1] > 0.0

    rng = np.random.default_rng(0)
    benchmark(jitter_coordinates, instances[0], 60.0, rng)


def test_scheduled_sampling_extension(benchmark):
    context = get_context()
    epochs = max(4, context.profile.ablation_epochs // 2)
    scheduled = M2G4RTP(M2G4RTPConfig(seed=11))
    Trainer(scheduled, TrainerConfig(
        epochs=epochs, scheduled_sampling=0.5)).fit(
        context.train, context.validation)
    evaluation = evaluate_method(
        "scheduled", model_predictor(scheduled), context.test,
        buckets=("all",))
    report = evaluation.buckets["all"]
    write_result("ext_scheduled_sampling.txt",
                 f"scheduled sampling (eps->0.5, {epochs} epochs): "
                 f"HR@3 {report.hr_at_3:.2f} KRC {report.krc:.2f} "
                 f"LSD {report.lsd:.2f}")
    assert report.krc > 0.2  # learns a meaningful policy
    instance = context.test[0]
    predict = model_predictor(scheduled)
    benchmark(predict, instance)


def test_tsp_substitution_optimality_gap(benchmark):
    """Evidence for the OR-Tools substitution (DESIGN.md): the NN+2-opt
    heuristic stays within a few percent of the exact Held-Karp optimum
    at the paper's instance sizes."""
    from repro.baselines import (
        held_karp_path, nearest_neighbor_path, path_length, two_opt,
    )
    rng = np.random.default_rng(42)
    lines = [f"{'n':>4s} {'mean gap %':>11s} {'max gap %':>10s}"]
    worst = 0.0
    for n in (6, 9, 12):
        gaps = []
        for _ in range(8):
            coords = rng.random((n, 2)) * 1000
            distance = np.linalg.norm(coords[:, None] - coords[None, :],
                                      axis=-1)
            start = rng.random(n) * 1000
            heuristic = two_opt(nearest_neighbor_path(start, distance),
                                start, distance)
            exact = held_karp_path(start, distance)
            gaps.append(path_length(heuristic, start, distance)
                        / path_length(exact, start, distance) - 1.0)
        lines.append(f"{n:4d} {100 * np.mean(gaps):11.2f} "
                     f"{100 * np.max(gaps):10.2f}")
        worst = max(worst, float(np.max(gaps)))
    write_result("ext_tsp_optimality_gap.txt", "\n".join(lines))
    assert worst < 0.25  # heuristic within 25% even in the worst draw

    coords = rng.random((12, 2)) * 1000
    distance = np.linalg.norm(coords[:, None] - coords[None, :], axis=-1)
    start = rng.random(12) * 1000
    benchmark(lambda: two_opt(nearest_neighbor_path(start, distance),
                              start, distance))


def test_significance_vs_best_deep_baseline(benchmark):
    """Paired bootstrap + permutation test of M²G4RTP vs Graph2Route on
    per-instance KRC — statistical backing for the Table III claim."""
    from repro.metrics import paired_comparison
    context = get_context()
    ours = model_predictor(get_m2g4rtp())
    theirs = baseline_predictor(get_baselines()["Graph2Route"])
    our_scores, their_scores = [], []
    for instance in context.test:
        route, _ = ours(instance)
        our_scores.append(kendall_rank_correlation(route, instance.route))
        route, _ = theirs(instance)
        their_scores.append(kendall_rank_correlation(route, instance.route))
    comparison = paired_comparison(our_scores, their_scores, seed=0)
    write_result("ext_significance.txt",
                 comparison.render("M2G4RTP - Graph2Route (per-instance KRC)"))
    # The direction must favour M2G4RTP; significance depends on test size.
    assert comparison.mean_difference > -0.05
    benchmark(paired_comparison, our_scores, their_scores)


def test_deepeta_extra_row(benchmark):
    context = get_context()
    profile = context.profile
    deepeta = DeepETA(DeepBaselineConfig(epochs=profile.deep_time_epochs))
    deepeta.fit(context.train, context.validation)
    evaluation = evaluate_method(
        "DeepETA", baseline_predictor(deepeta), context.test, buckets=("all",))
    report = evaluation.buckets["all"]
    write_result("ext_deepeta.txt",
                 f"DeepETA (time-only, TSP routes): RMSE {report.rmse:.2f} "
                 f"MAE {report.mae:.2f} acc@20 {report.acc_at_20:.2f}")
    assert np.isfinite(report.mae)
    benchmark(deepeta.predict, context.test[0])
