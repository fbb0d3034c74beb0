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
from .beam import beam_search_route, beam_search_predict
from .ensemble import EnsemblePredictor, borda_aggregate
from .postprocess import (
    UncertaintyPrediction,
    enforce_aoi_contiguity,
    predict_with_uncertainty,
    sample_route,
)

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
    "beam_search_route", "beam_search_predict",
    "UncertaintyPrediction", "enforce_aoi_contiguity",
    "predict_with_uncertainty", "sample_route",
    "EnsemblePredictor", "borda_aggregate",
]
