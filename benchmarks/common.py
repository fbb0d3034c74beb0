"""Shared experiment context for the benchmark suite.

All benches operate on one synthetic world and one set of trained
models, built lazily and cached per profile.  The profile is selected
with the ``REPRO_BENCH_PROFILE`` environment variable:

* ``quick`` (default) — laptop-scale: ~200 instances, short training.
  Finishes the whole suite in a few minutes.
* ``full`` — larger data and longer training; closer to convergence and
  to the paper's relative gaps.

Every bench writes its rendered table to ``benchmarks/results/`` so the
paper-shaped output survives pytest's output capture.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import pathlib
from typing import Dict

from repro.baselines import (
    DeepBaselineConfig,
    DeepRoute,
    DistanceGreedy,
    FDNET,
    Graph2Route,
    OSquare,
    ShortestRouteTSP,
    TimeGreedy,
)
from repro.core import M2G4RTP, M2G4RTPConfig, make_variant
from repro.data import GeneratorConfig, RTPDataset, SyntheticWorld
from repro.eval import baseline_predictor, model_predictor
from repro.training import Trainer, TrainerConfig

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Canonical method order of Tables III-V.
METHOD_ORDER = [
    "Distance-Greedy", "Time-Greedy", "OR-Tools", "OSquare",
    "DeepRoute", "FDNET", "Graph2Route", "M2G4RTP",
]


@dataclasses.dataclass
class Profile:
    generator: GeneratorConfig
    deep_epochs: int
    deep_time_epochs: int
    m2g_epochs: int
    ablation_epochs: int
    osquare_estimators: int


PROFILES: Dict[str, Profile] = {
    "quick": Profile(
        generator=GeneratorConfig(num_aois=60, num_couriers=6, num_days=10,
                                  instances_per_courier_day=3, seed=2023),
        deep_epochs=8, deep_time_epochs=5, m2g_epochs=16,
        ablation_epochs=10, osquare_estimators=25,
    ),
    "full": Profile(
        generator=GeneratorConfig(num_aois=120, num_couriers=12, num_days=20,
                                  instances_per_courier_day=3, seed=2023),
        deep_epochs=14, deep_time_epochs=8, m2g_epochs=24,
        ablation_epochs=16, osquare_estimators=40,
    ),
}


def profile_name() -> str:
    name = os.environ.get("REPRO_BENCH_PROFILE", "quick")
    if name not in PROFILES:
        raise KeyError(f"unknown REPRO_BENCH_PROFILE {name!r}; "
                       f"options: {sorted(PROFILES)}")
    return name


@dataclasses.dataclass
class ExperimentContext:
    profile: Profile
    world: SyntheticWorld
    dataset: RTPDataset
    train: RTPDataset
    validation: RTPDataset
    test: RTPDataset


@functools.lru_cache(maxsize=2)
def get_context(name: str = None) -> ExperimentContext:
    name = name or profile_name()
    profile = PROFILES[name]
    world = SyntheticWorld(profile.generator)
    dataset = RTPDataset(world.generate()).filter_paper_scope()
    train, validation, test = dataset.split_by_day()
    return ExperimentContext(
        profile=profile, world=world, dataset=dataset,
        train=train, validation=validation, test=test,
    )


@functools.lru_cache(maxsize=2)
def get_baselines(name: str = None):
    """Fit every baseline of Section V-B; returns name -> fitted model."""
    name = name or profile_name()
    context = get_context(name)
    profile = context.profile
    deep_config = DeepBaselineConfig(
        epochs=profile.deep_epochs, time_epochs=profile.deep_time_epochs)
    baselines = {
        "Distance-Greedy": DistanceGreedy(),
        "Time-Greedy": TimeGreedy(),
        "OR-Tools": ShortestRouteTSP(),
        "OSquare": OSquare(n_estimators=profile.osquare_estimators),
        "DeepRoute": DeepRoute(deep_config),
        "FDNET": FDNET(deep_config),
        "Graph2Route": Graph2Route(deep_config),
    }
    for model in baselines.values():
        model.fit(context.train, context.validation)
    return baselines


@functools.lru_cache(maxsize=2)
def get_m2g4rtp(name: str = None) -> M2G4RTP:
    """Train the full M²G4RTP model for the shared context."""
    name = name or profile_name()
    context = get_context(name)
    model = M2G4RTP(M2G4RTPConfig(seed=11))
    trainer_config = TrainerConfig(epochs=context.profile.m2g_epochs,
                                   patience=6)
    Trainer(model, trainer_config).fit(context.train, context.validation)
    return model


@functools.lru_cache(maxsize=8)
def get_variant(variant: str, name: str = None) -> M2G4RTP:
    """Train one ablation variant (Fig. 5)."""
    name = name or profile_name()
    context = get_context(name)
    model = M2G4RTP(make_variant(variant, M2G4RTPConfig(seed=11)))
    trainer_config = TrainerConfig(epochs=context.profile.ablation_epochs,
                                   patience=6)
    Trainer(model, trainer_config).fit(context.train, context.validation)
    return model


def all_predictors(name: str = None):
    """name -> PredictFn for every method, in Table order."""
    baselines = get_baselines(name)
    predictors = {
        method: baseline_predictor(model) for method, model in baselines.items()
    }
    predictors["M2G4RTP"] = model_predictor(get_m2g4rtp(name))
    return {method: predictors[method] for method in METHOD_ORDER}


def write_result(filename: str, content: str) -> None:
    """Persist a rendered table under benchmarks/results/ and print it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / filename
    path.write_text(content + "\n")
    print(f"\n[{filename}]\n{content}")
