"""M²G4RTP reproduction: instant-logistics route and time joint prediction.

Reproduction of Cai et al., "M²G4RTP: A Multi-Level and Multi-Task
Graph Model for Instant-Logistics Route and Time Joint Prediction"
(ICDE 2023), built on a pure-numpy autodiff substrate.

Quickstart::

    from repro import (GeneratorConfig, SyntheticWorld, RTPDataset,
                       M2G4RTP, Trainer, model_predictor, evaluate_method)

    world = SyntheticWorld(GeneratorConfig(seed=0))
    data = RTPDataset(world.generate())
    train, val, test = data.split_by_day()
    model = M2G4RTP()
    Trainer(model).fit(train, val)
    print(evaluate_method("M2G4RTP", model_predictor(model), test))
"""

__version__ = "1.0.0"

from . import autodiff, baselines, core, data, deploy, eval, experiments, graphs
from . import kernels, load, metrics, nn, obs, service, training

# Convenience re-exports of the most-used names.
from .data import (
    AOI,
    Courier,
    GeneratorConfig,
    Location,
    RTPDataset,
    RTPInstance,
    SyntheticWorld,
    generate_dataset,
)
from .graphs import GraphBuilder, MultiLevelGraph
from .core import M2G4RTP, M2G4RTPConfig, RTPTargets, make_variant
from .training import Trainer, TrainerConfig, train_m2g4rtp
from .eval import evaluate_method, format_table, model_predictor, baseline_predictor
from .service import ETAService, OrderSortingService, RTPRequest, RTPService

__all__ = [
    "autodiff", "baselines", "core", "data", "deploy", "eval", "experiments",
    "graphs", "kernels", "load", "metrics", "nn", "obs", "service",
    "training",
    "AOI", "Courier", "Location", "RTPInstance", "RTPDataset",
    "GeneratorConfig", "SyntheticWorld", "generate_dataset",
    "GraphBuilder", "MultiLevelGraph",
    "M2G4RTP", "M2G4RTPConfig", "RTPTargets", "make_variant",
    "Trainer", "TrainerConfig", "train_m2g4rtp",
    "evaluate_method", "format_table", "model_predictor", "baseline_predictor",
    "RTPRequest", "RTPService", "OrderSortingService", "ETAService",
    "__version__",
]
