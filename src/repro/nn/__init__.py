"""Neural layer library built on :mod:`repro.autodiff`."""

from .module import Module, Parameter
from .layers import Linear, Embedding, LayerNorm, Dropout, MLP, FeatureEncoder
from .recurrent import LSTMCell, LSTM, BiLSTM
from .attention import (
    AdditivePointerAttention,
    MultiHeadSelfAttention,
    TransformerEncoderLayer,
)
from .gcn import GCN, GCNLayer, normalize_adjacency
from .positional import (sinusoidal_position_encoding, position_encoding_table,
                         position_table)
from .summary import count_parameters_by_module, parameter_table
from . import init

__all__ = [
    "Module", "Parameter",
    "Linear", "Embedding", "LayerNorm", "Dropout", "MLP", "FeatureEncoder",
    "LSTMCell", "LSTM", "BiLSTM",
    "AdditivePointerAttention", "MultiHeadSelfAttention", "TransformerEncoderLayer",
    "GCN", "GCNLayer", "normalize_adjacency",
    "sinusoidal_position_encoding", "position_encoding_table", "position_table",
    "count_parameters_by_module", "parameter_table",
    "init",
]
