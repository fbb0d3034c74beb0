"""The paper's primary contribution: the M²G4RTP model family."""

from .gat_e import GATEHead, GATELayer, GATEEncoder
from .encoder import (
    EncoderConfig,
    GlobalFeatureEncoder,
    LevelEncoder,
    MultiLevelEncoder,
    SequenceEncoder,
)
from .decoder import RouteDecoder, SortLSTM
from .uncertainty import FixedWeighting, UncertaintyWeighting, TASKS
from .model import (
    M2G4RTP,
    M2G4RTPConfig,
    M2G4RTPOutput,
    RTPTargets,
    VARIANT_NAMES,
    make_variant,
)
from .batching import BatchedM2G4RTP, GraphBatch, LevelBatch
from .fallback import DEFAULT_SPEED, FallbackPredictor, FallbackPrediction

__all__ = [
    "GATEHead", "GATELayer", "GATEEncoder",
    "EncoderConfig", "GlobalFeatureEncoder", "LevelEncoder",
    "MultiLevelEncoder", "SequenceEncoder",
    "RouteDecoder", "SortLSTM",
    "FixedWeighting", "UncertaintyWeighting", "TASKS",
    "M2G4RTP", "M2G4RTPConfig", "M2G4RTPOutput", "RTPTargets",
    "VARIANT_NAMES", "make_variant",
    "BatchedM2G4RTP", "GraphBatch", "LevelBatch",
    "FallbackPredictor", "FallbackPrediction", "DEFAULT_SPEED",
]
