"""The sequence-level tape of teacher-forced training.

With gradients on, ``LSTMCell.unroll`` records a whole LSTM unroll as
one tape node (``SortLSTM``, the "w/o graph" BiLSTM encoder and the
route decoders run it; the encoder runs it with gradients off too), and
a teacher-forced ``RouteDecoder.forward_batch`` scores all its steps at
once.  These
tests pin each to the per-step loop it replaced, kept here as the
reference, bitwise: hidden states, routes, label log-probabilities,
every task loss and every gradient.  The gradients match because the
unroll adds each step's weight gradients in the order the per-step tape
did, and the step-batched scoring and SortLSTM head read their weights
once per step through ``repeat_steps``; so training itself, and every
result a trained model gives, is unchanged.

The ``--runslow`` leg sweeps the decoder and whole-model parity over
seeded shapes and variants.
"""

import numpy as np
import pytest

from repro.autodiff import (Tensor, check_gradients, concat, no_grad,
                            padded_gather, repeat_steps, stack)
from repro.core import (GraphBatch, M2G4RTP, M2G4RTPConfig, RTPTargets,
                        make_variant)
from repro.core import encoder as encoder_module
from repro.core.decoder import RouteDecoder, SortLSTM, route_positions
from repro.core.model import VARIANT_NAMES
from repro.nn.positional import position_table
from repro.nn.recurrent import LSTMCell


def assert_grads_equal(grads, reference, names):
    for grad, want, name in zip(grads, reference, names):
        if want is None:
            assert grad is None, name
        else:
            np.testing.assert_array_equal(grad, want, err_msg=name)


# ----------------------------------------------------------------------
# The per-step loops the sequence tape replaced
# ----------------------------------------------------------------------
def reference_unroll(cell, inputs, start=None):
    """``LSTMCell.forward`` one step at a time from a zero state."""
    sequence = [inputs[step] for step in range(inputs.shape[0])]
    if start is not None:
        sequence.insert(0, start)
    state = cell.initial_state((inputs.shape[1],))
    hidden = []
    for x in sequence:
        state = cell(x, state)
        hidden.append(state[0])
    return stack(hidden, axis=0)


def reference_unroll_lstm_batch(cell, sequence):
    """The BiLSTM encoder's per-step unroll over ``(B, n, d)``."""
    state = cell.initial_state((sequence.shape[0],))
    outputs = []
    for step in range(sequence.shape[1]):
        state = cell(sequence[:, step, :], state)
        outputs.append(state[0])
    return stack(outputs, axis=1)


def reference_teacher_forced(decoder, nodes, courier, lengths, adjacency,
                             teacher_routes):
    """``RouteDecoder.forward_batch``'s step loop under plain teacher
    forcing: one recurrent step, mask and log-softmax per step."""
    batch, n = nodes.shape[0], nodes.shape[1]
    rows = np.arange(batch)
    steps = np.arange(n)
    step_valid = steps[None, :] < lengths[:, None]
    visited = ~step_valid
    h, c = decoder.recurrent.cell.initial_state((batch,))
    step_input = decoder.start_token
    previous = None
    keys = decoder.attention.key_proj(nodes)
    labels = np.where(step_valid, teacher_routes, 0)
    teacher_inputs = padded_gather(
        nodes, labels, valid=steps[None, :] + 1 < lengths[:, None])
    label_log_probs = []
    for step in range(n):
        h, c = decoder.recurrent.cell(step_input, (h, c))
        query = concat([h, courier], axis=-1)
        feasible = decoder._candidate_mask_batch(visited, previous, adjacency)
        done = ~feasible.any(axis=1)
        if done.any():
            feasible = feasible.copy()
            feasible[done, 0] = True
        log_probs = decoder.attention.log_probs_batch(keys, query, feasible)
        chosen = labels[:, step]
        label_log_probs.append(log_probs[rows, chosen])
        visited[rows, chosen] = True
        previous = chosen
        step_input = teacher_inputs[:, step, :]
    routes = labels.astype(np.int64)
    return routes, (stack(label_log_probs, axis=1)
                    * Tensor(step_valid.astype(np.float64)))


def reference_sort_forward(sort, nodes, routes, lengths):
    """``SortLSTM.forward_batch``'s per-step Tensor loop (cell + head)."""
    routes = np.asarray(routes, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    batch, n = nodes.shape[0], nodes.shape[1]
    step_valid = np.arange(n)[None, :] < lengths[:, None]
    positions = np.broadcast_to(position_table(n, sort.position_dim),
                                (batch, n, sort.position_dim))
    sequence = concat([padded_gather(nodes, routes, valid=step_valid),
                       Tensor(positions)], axis=-1)
    h, c = sort.recurrent.cell.initial_state((batch,))
    times = []
    for step in range(n):
        h, c = sort.recurrent.cell(sequence[:, step, :], (h, c))
        times.append(sort.head(h).reshape(batch))
    return padded_gather(stack(times, axis=1),
                         route_positions(routes, lengths), valid=step_valid)


# ----------------------------------------------------------------------
# (a) The LSTM op against a per-step LSTMCell loop
# ----------------------------------------------------------------------
class TestLSTMUnroll:
    @pytest.mark.parametrize("batch", [1, 3, 8])
    @pytest.mark.parametrize("steps", [1, 2, 20])
    @pytest.mark.parametrize("with_start", [False, True])
    @pytest.mark.parametrize("batch_major", [False, True])
    def test_matches_per_step_loop(self, batch, steps, with_start,
                                   batch_major):
        rng = np.random.default_rng(batch * 100 + steps)
        cell = LSTMCell(5, 7, rng)
        if batch_major:   # how SortLSTM and the encoder pass (B, T, in)
            data = Tensor(rng.normal(size=(batch, steps, 5)),
                          requires_grad=True)
        else:
            data = Tensor(rng.normal(size=(steps, batch, 5)),
                          requires_grad=True)
        start = (Tensor(rng.normal(size=5), requires_grad=True)
                 if with_start else None)
        leaves = ([data] + ([start] if with_start else [])
                  + cell.parameters())
        upstream = Tensor(rng.normal(size=(steps + with_start, batch, 7)))
        runs = []
        for unroll in (lambda x: reference_unroll(cell, x, start),
                       lambda x: cell.unroll(x, start)):
            for leaf in leaves:
                leaf.zero_grad()
            hidden = unroll(data.transpose(1, 0, 2) if batch_major else data)
            (hidden * upstream).sum().backward()
            runs.append((hidden.data, [leaf.grad.copy() for leaf in leaves]))
        (ref_hidden, ref_grads), (hidden, grads) = runs
        assert hidden.shape == (steps + with_start, batch, 7)
        np.testing.assert_array_equal(hidden, ref_hidden)
        assert_grads_equal(grads, ref_grads, range(len(leaves)))

    def test_one_tape_node(self, rng):
        cell = LSTMCell(4, 3, rng)
        inputs = Tensor(rng.normal(size=(6, 2, 4)), requires_grad=True)
        hidden = cell.unroll(inputs)
        assert hidden._op == "lstm_unroll"
        assert set(map(id, hidden._parents)) == {
            id(inputs), id(cell.weight_x), id(cell.weight_h), id(cell.bias)}

    def test_repeat_steps_adds_step_gradients_one_at_a_time(self):
        """Step by step, in step order: (1e16 + 1) + 1 rounds to 1e16,
        where 1e16 + (1 + 1) would not."""
        x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        repeated = repeat_steps(x, 2)
        np.testing.assert_array_equal(repeated.data, [[2.0, 3.0], [2.0, 3.0]])
        x.grad = np.array([1e16, 0.0])
        repeated.sum().backward()
        np.testing.assert_array_equal(x.grad, [1e16, 2.0])

    @pytest.mark.parametrize("steps", [9, 1])
    def test_no_grad_unroll_matches_per_step_loop(self, rng, steps):
        """The "w/o graph" encoder's unroll with gradients off: no tape,
        the same hidden states."""
        cell = LSTMCell(5, 7, rng)
        sequence = Tensor(rng.normal(size=(4, steps, 5)))
        with no_grad():
            hidden = encoder_module._unroll_lstm_batch(cell, sequence)
        assert not hidden.requires_grad and not hidden._parents
        np.testing.assert_array_equal(
            hidden.data, reference_unroll_lstm_batch(cell, sequence).data)

    def test_finite_differences(self, rng):
        cell = LSTMCell(3, 2, rng)
        inputs = Tensor(rng.normal(size=(3, 2, 3)), requires_grad=True)
        start = Tensor(rng.normal(size=3), requires_grad=True)
        upstream = Tensor(rng.normal(size=(4, 2, 2)))
        check_gradients(lambda: (cell.unroll(inputs, start) * upstream).sum(),
                        [inputs, start, cell.weight_x, cell.weight_h,
                         cell.bias])


# ----------------------------------------------------------------------
# (b) Teacher-forced RouteDecoder.forward_batch against its step loop
# ----------------------------------------------------------------------
def decoder_case(rng, lengths, restrict, n=None, node_dim=6):
    lengths = np.asarray(lengths, dtype=np.int64)
    batch, n = len(lengths), n or int(lengths.max())
    decoder = RouteDecoder(node_dim=node_dim, state_dim=8, courier_dim=3,
                           rng=rng, restrict_to_neighbors=restrict)
    nodes = Tensor(rng.normal(size=(batch, n, node_dim)), requires_grad=True)
    courier = Tensor(rng.normal(size=(batch, 3)), requires_grad=True)
    # Padding labels hold garbage: both sides must ignore it.
    teacher = rng.integers(0, n, size=(batch, n))
    for b, k in enumerate(lengths):
        teacher[b, :k] = rng.permutation(k)
    adjacency = rng.random((batch, n, n)) < 0.4
    return decoder, nodes, courier, lengths, adjacency, teacher


def assert_decoder_parity(rng, decoder, nodes, courier, lengths, adjacency,
                          teacher):
    upstream = Tensor(rng.normal(size=teacher.shape))
    leaves = [nodes, courier] + decoder.parameters()
    runs = []
    for run in (lambda: reference_teacher_forced(
                    decoder, nodes, courier, lengths, adjacency, teacher),
                lambda: decoder.forward_batch(nodes, courier, lengths,
                                              adjacency=adjacency,
                                              teacher_routes=teacher)):
        for leaf in leaves:
            leaf.zero_grad()
        routes, label_log_probs = run()
        (label_log_probs * upstream).sum().backward()
        runs.append((routes, label_log_probs.data,
                     [leaf.grad.copy() for leaf in leaves]))
    (ref_routes, ref_log_probs, ref_grads), (routes, log_probs, grads) = runs
    np.testing.assert_array_equal(routes, ref_routes)
    np.testing.assert_array_equal(log_probs, ref_log_probs)
    assert_grads_equal(grads, ref_grads, range(len(leaves)))


class TestTeacherForcedDecoder:
    @pytest.mark.parametrize("restrict", [False, True])
    @pytest.mark.parametrize("lengths", [[9, 5, 1, 7], [4, 0, 6], [1], [8]])
    def test_matches_step_loop(self, restrict, lengths):
        rng = np.random.default_rng(len(lengths) * 10 + max(lengths))
        case = decoder_case(rng, lengths, restrict)
        assert_decoder_parity(rng, *case)

    def test_padding_wider_than_every_row(self, rng):
        """Every row finishes before the padded width: trailing steps
        run on the dummy candidate only."""
        case = decoder_case(rng, [3, 2], True, n=6)
        assert_decoder_parity(rng, *case)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", range(60))
    def test_seeded_sweep(self, seed):
        rng = np.random.default_rng(seed)
        batch = int(rng.integers(1, 9))
        n = int(rng.integers(1, 25))
        lengths = rng.integers(0, n + 1, size=batch)
        lengths[0] = n
        case = decoder_case(rng, lengths, bool(seed % 2), n=n,
                            node_dim=int(rng.choice([4, 6, 16])))
        assert_decoder_parity(rng, *case)


# ----------------------------------------------------------------------
# (c) One teacher-forced M2G4RTP step against the per-step model
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def pool(dataset, builder):
    instances = list(dataset)
    graphs = [builder.build(instance) for instance in instances]
    targets = [RTPTargets.from_instance(instance) for instance in instances]
    return graphs, targets


def losses_and_grads(model, graphs, targets):
    for parameter in model.parameters():
        parameter.zero_grad()
    output = model(GraphBatch.from_graphs(graphs), targets)
    output.total_loss.backward()
    losses = {task: loss.data.copy() for task, loss in output.losses.items()}
    losses["total"] = output.total_loss.data.copy()
    return losses, [None if p.grad is None else p.grad.copy()
                    for p in model.parameters()]


def assert_model_parity(model, graphs, targets):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RouteDecoder, "_teacher_forced_batch",
                      reference_teacher_forced)
        patch.setattr(SortLSTM, "forward_batch", reference_sort_forward)
        patch.setattr(encoder_module, "_unroll_lstm_batch",
                      reference_unroll_lstm_batch)
        ref_losses, ref_grads = losses_and_grads(model, graphs, targets)
    losses, grads = losses_and_grads(model, graphs, targets)
    assert losses.keys() == ref_losses.keys()
    for task, loss in losses.items():
        np.testing.assert_array_equal(loss, ref_losses[task], err_msg=task)
    assert_grads_equal(grads, ref_grads,
                       [name for name, _ in model.named_parameters()])


class TestModelParity:
    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_mixed_group(self, pool, variant):
        graphs, targets = pool
        counts = [g.num_locations for g in graphs]
        indices = [counts.index(n) for n in (20, 3, 16, 9, 5)]
        model = M2G4RTP(make_variant(variant, M2G4RTPConfig(
            hidden_dim=16, num_heads=2, num_encoder_layers=1, seed=3)))
        model.train()
        assert_model_parity(model, [graphs[i] for i in indices],
                            [targets[i] for i in indices])

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", range(30))
    def test_seeded_sweep(self, pool, seed):
        graphs, targets = pool
        rng = np.random.default_rng(seed)
        indices = rng.choice(len(graphs), size=int(rng.integers(1, 7)),
                             replace=False)
        model = M2G4RTP(make_variant(
            VARIANT_NAMES[seed % len(VARIANT_NAMES)],
            M2G4RTPConfig(hidden_dim=int(rng.choice([8, 16, 32])),
                          num_heads=2, num_encoder_layers=int(rng.integers(1, 3)),
                          restrict_to_neighbors=bool(seed % 3 == 0),
                          seed=seed)))
        model.train()
        assert_model_parity(model, [graphs[i] for i in indices],
                            [targets[i] for i in indices])
