"""Fuzz tests: random op chains checked against finite differences.

Hypothesis drives random compositions of differentiable operations;
the analytic gradient of each composed program must match central
finite differences.  This is the strongest guarantee the autodiff
engine gets — every unary/binary op participates, in random orders.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autodiff import (
    Tensor,
    check_gradients,
    concat,
    masked_softmax,
    padded_gather,
    softmax,
    stack,
    where,
)

# Unary ops safe on strictly positive inputs.
_UNARY = [
    lambda x: x.tanh(),
    lambda x: x.sigmoid(),
    lambda x: x.relu(),
    lambda x: x.leaky_relu(0.1),
    lambda x: x.tanh().exp(),      # bounded argument: no overflow when chained
    lambda x: (x * x + 0.5).log(),  # argument strictly positive
    lambda x: x.abs(),
    lambda x: x * 2.5 - 1.0,
    lambda x: (x * x) * 0.5,
    lambda x: x.reshape(-1).reshape(*x.shape),
]

_BINARY = [
    lambda a, b: a + b,
    lambda a, b: a - b,
    lambda a, b: a * b,
    lambda a, b: a / (b * b + 1.0),
    lambda a, b: concat([a, b], axis=0).sum(axis=0, keepdims=True)
    * Tensor(np.ones(a.shape)),
]


@st.composite
def op_programs(draw):
    """A random program: sequence of (kind, index) op picks."""
    length = draw(st.integers(1, 6))
    ops = []
    for _ in range(length):
        kind = draw(st.sampled_from(["unary", "binary"]))
        if kind == "unary":
            ops.append(("unary", draw(st.integers(0, len(_UNARY) - 1))))
        else:
            ops.append(("binary", draw(st.integers(0, len(_BINARY) - 1))))
    return ops


class TestFuzzGradients:
    @given(program=op_programs(), seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_random_program_gradcheck(self, program, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.uniform(-0.9, 0.9, size=(2, 3)), requires_grad=True)
        y = Tensor(rng.uniform(-0.9, 0.9, size=(2, 3)), requires_grad=True)

        def fn():
            out = x
            for kind, index in program:
                if kind == "unary":
                    out = _UNARY[index](out)
                else:
                    out = _BINARY[index](out, y)
            # tanh keeps magnitudes sane; the y-term guarantees y always
            # participates even in all-unary programs.
            return (out.tanh()).sum() + (y * y).sum() * 0.01

        check_gradients(fn, [x, y], atol=5e-4, rtol=5e-3)

    @given(seed=st.integers(0, 10_000), n=st.integers(2, 6))
    @settings(max_examples=30, deadline=None)
    def test_softmax_weighted_sum_gradcheck(self, seed, n):
        rng = np.random.default_rng(seed)
        logits = Tensor(rng.normal(size=n), requires_grad=True)
        weights = rng.normal(size=n)

        def fn():
            return (softmax(logits) * Tensor(weights)).sum()

        check_gradients(fn, [logits])

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_where_stack_chain_gradcheck(self, seed):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.normal(size=4), requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)
        condition = rng.random(4) > 0.5

        def fn():
            mixed = where(condition, a * 2.0, b + 1.0)
            return (stack([mixed, a + b], axis=0) ** 2).sum()

        check_gradients(fn, [a, b])

    @given(seed=st.integers(0, 10_000), rows=st.integers(1, 4),
           cols=st.integers(1, 6), force_empty_row=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_masked_softmax_gradcheck(self, seed, rows, cols,
                                      force_empty_row):
        """Analytic gradient matches finite differences; masked positions
        get exactly zero probability and exactly zero gradient.

        Degenerate shapes are in scope: length-1 rows (``cols == 1``)
        and guaranteed fully-masked rows (``force_empty_row``)."""
        rng = np.random.default_rng(seed)
        logits = Tensor(rng.normal(size=(rows, cols)), requires_grad=True)
        # Random mask; some rows may be entirely masked (padding rows).
        mask = rng.random((rows, cols)) > 0.4
        if force_empty_row:
            mask[int(rng.integers(rows))] = False
        weights = rng.normal(size=(rows, cols))

        def fn():
            return (masked_softmax(logits, mask, axis=-1)
                    * Tensor(weights)).sum()

        check_gradients(fn, [logits])

        probs = masked_softmax(logits, mask, axis=-1)
        assert np.isfinite(probs.data).all()
        assert (probs.data[~mask] == 0.0).all()
        full_rows = mask.any(axis=-1)
        np.testing.assert_allclose(probs.data.sum(axis=-1)[full_rows], 1.0)
        assert (probs.data[~full_rows] == 0.0).all()

        logits.grad = None
        fn().backward()
        assert (logits.grad[~mask] == 0.0).all()

    def test_masked_softmax_fully_masked_rows_zeros_not_nan(self):
        """The previously-missing gradcheck: rows whose mask is entirely
        False must produce exactly-zero probabilities AND exactly-zero,
        finite gradients — not NaN from a 0/0 normalisation."""
        rng = np.random.default_rng(7)
        logits = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        mask = np.ones((3, 5), dtype=bool)
        mask[1] = False                     # one fully-masked row
        weights = rng.normal(size=(3, 5))

        def fn():
            return (masked_softmax(logits, mask, axis=-1)
                    * Tensor(weights)).sum()

        check_gradients(fn, [logits])
        probs = masked_softmax(logits, mask, axis=-1)
        assert np.isfinite(probs.data).all()
        assert (probs.data[1] == 0.0).all()
        logits.grad = None
        fn().backward()
        assert np.isfinite(logits.grad).all()
        assert (logits.grad[1] == 0.0).all()

    def test_masked_softmax_all_rows_masked_gradcheck(self):
        """Every row masked: the output is identically zero and the
        gradient is exactly zero everywhere (present, finite, zero)."""
        rng = np.random.default_rng(11)
        logits = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        mask = np.zeros((2, 4), dtype=bool)

        def fn():
            return (masked_softmax(logits, mask, axis=-1) ** 2).sum()

        check_gradients(fn, [logits])
        assert (masked_softmax(logits, mask, axis=-1).data == 0.0).all()
        logits.grad = None
        fn().backward()
        assert (logits.grad == 0.0).all()

    def test_length_one_sequence_gradcheck(self):
        """A recurrent cell unrolled over a single step (length-1
        sequence) must gradcheck cleanly."""
        from repro.nn import LSTMCell
        rng = np.random.default_rng(3)
        cell = LSTMCell(3, 4, rng)
        sequence = Tensor(rng.normal(size=(2, 1, 3)), requires_grad=True)

        def fn():
            h, _ = cell(sequence[:, 0, :], cell.initial_state((2,)))
            return (h * h).sum()

        check_gradients(fn, [sequence, cell.weight_x, cell.bias])

    def test_single_node_graph_gradcheck(self):
        """GAT-e on a one-node graph — with and without a self-loop —
        must produce finite, finite-difference-matching gradients."""
        from repro.core.gat_e import GATEEncoder
        rng = np.random.default_rng(5)
        gat = GATEEncoder(dim=4, num_layers=1, num_heads=2, rng=rng)
        nodes = Tensor(rng.normal(size=(1, 1, 4)), requires_grad=True)
        edges = Tensor(rng.normal(size=(1, 1, 1, 4)), requires_grad=True)
        head = gat.layers[0].heads[0]
        for adjacency in (np.ones((1, 1, 1), dtype=bool),
                          np.zeros((1, 1, 1), dtype=bool)):
            def fn():
                return (gat.forward_batch(nodes, edges, adjacency) ** 2).sum()

            check_gradients(fn, [nodes, edges, head.w1, head.a_src, head.w2])

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_masked_softmax_overflow_safe(self, seed):
        """Huge garbage in masked positions must not poison real rows."""
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(2, 4))
        mask = np.array([[True, True, False, False],
                         [False, False, False, False]])
        garbage = 1e30 * np.sign(rng.normal(size=int((~mask).sum())))
        data[~mask] = garbage  # huge finite garbage in padding
        probs = masked_softmax(Tensor(data), mask, axis=-1)
        assert np.isfinite(probs.data).all()
        np.testing.assert_allclose(probs.data[0].sum(), 1.0)
        assert (probs.data[1] == 0.0).all()

    @given(seed=st.integers(0, 10_000), batch=st.integers(1, 4),
           n=st.integers(2, 5), k=st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_padded_gather_gradcheck(self, seed, batch, n, k):
        """Gather gradient matches finite differences; invalid slots give
        exactly zero output and route exactly zero gradient back."""
        rng = np.random.default_rng(seed)
        values = Tensor(rng.normal(size=(batch, n, 3)), requires_grad=True)
        indices = rng.integers(0, n, size=(batch, k))
        valid = rng.random((batch, k)) > 0.3
        weights = rng.normal(size=(batch, k, 3))

        def fn():
            return (padded_gather(values, indices, valid=valid)
                    * Tensor(weights)).sum()

        check_gradients(fn, [values])

        gathered = padded_gather(values, indices, valid=valid)
        assert (gathered.data[~valid] == 0.0).all()

        # A row referenced only by invalid gathers gets exactly 0 grad.
        values.grad = None
        fn().backward()
        for b in range(batch):
            touched = set(indices[b, valid[b]].tolist())
            for row in set(range(n)) - touched:
                assert (values.grad[b, row] == 0.0).all()

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_padded_gather_unmasked_is_plain_index(self, seed):
        rng = np.random.default_rng(seed)
        values = Tensor(rng.normal(size=(3, 5, 2)), requires_grad=True)
        indices = rng.integers(0, 5, size=(3, 4))

        def fn():
            return (padded_gather(values, indices) ** 2).sum()

        check_gradients(fn, [values])
        expected = values.data[np.arange(3)[:, None], indices]
        np.testing.assert_array_equal(
            padded_gather(values, indices).data, expected)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_second_backward_accumulates(self, seed):
        """backward() twice doubles the gradient (accumulate semantics)."""
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=3), requires_grad=True)
        loss = (x * x).sum()
        loss.backward()
        first = x.grad.copy()
        loss = (x * x).sum()
        loss.backward()
        assert np.allclose(x.grad, 2 * first)
