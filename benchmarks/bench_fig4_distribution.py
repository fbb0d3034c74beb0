"""Figure 4 — data distribution of the workload.

Regenerates the four panels as text histograms: (a) location arrival
times, (b) AOI arrival times, (c) locations per sample, (d) AOIs per
sample — plus the AOI-first statistic from Section V-A (paper: 50.97
location transfers vs 6.20 AOI transfers per courier-day).
"""

import numpy as np
import pytest

from repro.data import transfer_statistics

from common import get_context, write_result


def ascii_histogram(values, bins, title, width=40):
    counts, edges = np.histogram(values, bins=bins)
    peak = counts.max() if counts.max() else 1
    lines = [title]
    for count, lo, hi in zip(counts, edges[:-1], edges[1:]):
        bar = "#" * int(width * count / peak)
        lines.append(f"  [{lo:7.1f}, {hi:7.1f})  {count:5d}  {bar}")
    return "\n".join(lines)


@pytest.fixture(scope="module")
def context():
    return get_context()


def test_fig4_distributions(context, benchmark):
    dataset = context.dataset
    location_times = np.concatenate([i.arrival_times for i in dataset])
    aoi_times = np.concatenate([i.aoi_arrival_times for i in dataset])
    locations_per_sample = np.array([i.num_locations for i in dataset])
    aois_per_sample = np.array([i.num_aois for i in dataset])

    sections = [
        ascii_histogram(location_times, bins=np.arange(0, 241, 30),
                        title="(a) location arrival time (min), "
                              f"mean={location_times.mean():.2f} "
                              "(paper: 59.64)"),
        ascii_histogram(aoi_times, bins=np.arange(0, 241, 30),
                        title="(b) AOI arrival time (min), "
                              f"mean={aoi_times.mean():.2f} (paper: 61.68)"),
        ascii_histogram(locations_per_sample, bins=np.arange(2.5, 21.5, 2),
                        title="(c) locations per sample, "
                              f"mean={locations_per_sample.mean():.2f} "
                              "(paper: 7.64)"),
        ascii_histogram(aois_per_sample, bins=np.arange(0.5, 11.5, 1),
                        title="(d) AOIs per sample, "
                              f"mean={aois_per_sample.mean():.2f} "
                              "(paper: 4.08)"),
    ]
    write_result("fig4_distribution.txt", "\n\n".join(sections))

    # Shape checks mirroring the paper's description of Fig. 4.
    assert locations_per_sample.mean() < 12
    assert aois_per_sample.mean() < locations_per_sample.mean()
    within_120 = np.mean(location_times < 120)
    assert within_120 > 0.5, "most locations should be visited within 120 min"

    benchmark(lambda: dataset.summary())


def test_fig4_transfer_statistic(context, benchmark):
    days = [
        context.world.simulate_courier_day(c % len(context.world.couriers),
                                           day=0, seed=100 + c)
        for c in range(10)
    ]
    location_transfers, aoi_transfers = transfer_statistics(days)
    text = (
        "Courier-day transfer statistic (Section V-A)\n"
        f"  location transfers/day: {location_transfers:.2f} (paper: 50.97)\n"
        f"  AOI transfers/day     : {aoi_transfers:.2f} (paper: 6.20)\n"
        f"  ratio                 : {location_transfers / aoi_transfers:.1f}x"
    )
    write_result("fig4_transfers.txt", text)
    # The phenomenon: AOI transfers are an order of magnitude rarer.
    assert location_transfers / aoi_transfers > 5
    benchmark(transfer_statistics, days)


def test_bench_dataset_generation(benchmark):
    from repro.data import GeneratorConfig, SyntheticWorld

    def generate():
        world = SyntheticWorld(GeneratorConfig(
            num_aois=30, num_couriers=3, num_days=2, seed=1))
        return world.generate()

    instances = benchmark(generate)
    assert len(instances) > 0
