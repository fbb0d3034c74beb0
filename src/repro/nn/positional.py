"""Sinusoidal positional encoding (paper Eq. 32, after Vaswani et al.).

SortLSTM concatenates these encodings to node embeddings so the time
decoder knows each node's position in the predicted route.
"""

from __future__ import annotations

import numpy as np


def sinusoidal_position_encoding(position: int, dim: int,
                                 base: float = 10000.0) -> np.ndarray:
    """Encoding vector for a single 1-indexed position.

    ``p[2k] = sin(pos / base^{2k/dim})``,
    ``p[2k+1] = cos(pos / base^{2k/dim})``.
    """
    if position < 1:
        raise ValueError(f"positions are 1-indexed, got {position}")
    if dim < 1:
        raise ValueError(f"encoding dim must be positive, got {dim}")
    encoding = np.zeros(dim)
    k = np.arange(0, dim, 2)
    angle = position / np.power(base, k / dim)
    encoding[0::2] = np.sin(angle)
    encoding[1::2] = np.cos(angle)[: encoding[1::2].size]
    return encoding


def position_encoding_table(max_position: int, dim: int,
                            base: float = 10000.0) -> np.ndarray:
    """Rows 0..max_position-1 encode positions 1..max_position."""
    return np.stack([
        sinusoidal_position_encoding(pos, dim, base)
        for pos in range(1, max_position + 1)
    ])


# Rows are pure functions of (position, dim), so one table per ``dim``,
# grown on demand, serves every caller with values bitwise-identical to
# fresh computation.
_TABLES: dict = {}


def position_table(n: int, dim: int) -> np.ndarray:
    """Cached read-only :func:`position_encoding_table` rows for positions 1..n.

    The SortLSTM step inputs (Eq. 32, Tensor code and fused kernel) and
    the AOI positional guidance (Eq. 34) all gather from this table.
    """
    table = _TABLES.get(dim)
    if table is None or table.shape[0] < n:
        table = position_encoding_table(n, dim)
        table.flags.writeable = False
        _TABLES[dim] = table
    return table[:n]
