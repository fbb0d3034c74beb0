"""Fused kernels: single-pass no-grad inference.

Each kernel performs the *same floating-point operations in the same
association order* as the Tensor code in ``repro.core`` — per-head
matmuls stay separate, gate splits keep the Tensor order, the masked
softmax runs the exact Tensor sequence — so outputs are bit-identical; only
temporaries, tape bookkeeping and Python overhead are removed.  Scratch
arrays are allocated once per call with ``np.empty``/``np.zeros`` and
then written in place; no buffer outlives the call that made it, so
concurrent callers (threads, inline shards) never share one.

* :func:`gat_encoder_forward` — one pass per GAT-e layer: edge logits,
  masked softmax, neighbour aggregation and edge update run in place on
  per-layer scratch arrays shared by all heads.  It is also the forward
  of training's GAT-e tape node: handed a ``saved`` list, it keeps what
  the written-out backward of ``GATEEncoder.forward_batch`` reads.
* :func:`level_embed` — the encoder's feature-embedding glue (Eq. 18):
  continuous projection, embedding gathers, global tiling and the
  node/edge input projections collapse into slice writes plus two GEMMs.
* :class:`_FusedRecurrent` — LSTM stepper with one gate matmul per
  step into preallocated gate/hidden/cell buffers (ping-pong swapped,
  never reallocated).
* :func:`pointer_decode` — incremental decode: the feasibility penalty
  is maintained in place (`-1e30` written at each chosen column)
  instead of being rebuilt from the visited mask every step, and the
  log-softmax is skipped entirely — a per-row monotone shift cannot
  change the argmax.
* :func:`sort_rnn_forward` — fused gather and stepper for the time
  decoder.

The differential conformance suite (``tests/test_kernel_conformance.py``)
certifies all of this against the grad-enabled Tensor code.  That code
is the reference, and the links below it are pinned too: its LSTM
unroll (``LSTMCell.unroll``, one tape node per sequence) matches a loop
of ``LSTMCell.forward`` bitwise (``tests/test_sequence_tape.py``), and
its GAT-e stack (this module's forward, one tape node per level) matches
the per-head Tensor code, forward and gradients, bitwise
(``tests/test_gat_tape.py``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn.positional import position_table


def _sigmoid_(values: np.ndarray) -> np.ndarray:
    """In-place ``1 / (1 + exp(-x))`` — same values as the Tensor sigmoid."""
    np.negative(values, out=values)
    np.exp(values, out=values)
    values += 1.0
    np.divide(1.0, values, out=values)
    return values


def _relu_into(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``values * (values > 0)`` — the exact Tensor ``relu`` expression."""
    return np.multiply(values, values > 0, out=out)


class _FusedRecurrent:
    """Preallocated-buffer LSTM stepper over an ``LSTMCell``.

    Bit-identical to ``LSTMCell.forward``: the gate pre-activation keeps
    the ``(x W_x + h W_h) + b`` association and the state update keeps
    ``(f*c) + (i*g)``.  Buffers are allocated once per stepper;
    hidden/cell buffers are ping-pong swapped between steps.
    """

    def __init__(self, cell, batch: int):
        self.hidden_dim = cell.hidden_dim
        self.weight_x = cell.weight_x.data
        self.weight_h = cell.weight_h.data
        self.bias = cell.bias.data
        d = cell.hidden_dim
        self.gates = np.empty((batch, 4 * d))
        self.h_gates = np.empty((batch, 4 * d))
        self.h = np.zeros((batch, d))
        self.h_next = np.empty((batch, d))
        self.c = np.zeros((batch, d))
        self.c_next = np.empty((batch, d))
        self.scratch = np.empty((batch, d))
        self.g_scratch = np.empty((batch, d))

    def precompute_inputs(self, sequence: np.ndarray) -> np.ndarray:
        """Project every step's input through ``W_x`` in one GEMM.

        ``sequence`` is ``(B, steps, in)``; returns ``(steps, B, gates)``
        whose slice ``[s]`` is the same ``(B, in) @ W_x`` product as the
        per-step 2-D ``x_s @ W_x``, so bitwise-identical to it (a
        batch-major product is not: at ``B = 1`` it runs as one
        ``(steps, in)`` GEMM).
        Only valid when the whole input sequence is known up front —
        i.e. not for pointer decoding, where step inputs depend on the
        previous choice.
        """
        return np.matmul(sequence.transpose(1, 0, 2), self.weight_x)

    def step(self, x: Optional[np.ndarray],
             pre: Optional[np.ndarray] = None) -> np.ndarray:
        d = self.hidden_dim
        gates = self.gates
        np.matmul(self.h, self.weight_h, out=self.h_gates)
        if pre is not None:
            np.add(pre, self.h_gates, out=gates)
        else:
            if x.ndim == 2:
                np.matmul(x, self.weight_x, out=gates)
            else:
                # 1-D input (the start token): the Tensor cell computes a
                # vector x @ W_x and lets the h-term broadcast; replicating
                # that (vector matmul, then broadcast add) keeps bit parity.
                gates[...] = x @ self.weight_x
            gates += self.h_gates
        gates += self.bias
        # tanh of the g-gate pre-activation is saved first, then one
        # contiguous sigmoid sweeps the whole gate buffer (the swept
        # g-slice is dead).  Elementwise results are identical to
        # per-slice application; whole-buffer contiguous ufuncs are
        # 2-3x faster than four strided slice passes.
        np.tanh(gates[:, 2 * d:3 * d], out=self.g_scratch)
        _sigmoid_(gates)
        np.multiply(gates[:, 1 * d:2 * d], self.c, out=self.c_next)
        np.multiply(gates[:, 0 * d:1 * d], self.g_scratch, out=self.scratch)
        self.c_next += self.scratch
        np.tanh(self.c_next, out=self.scratch)
        np.multiply(gates[:, 3 * d:4 * d], self.scratch, out=self.h_next)
        self.h, self.h_next = self.h_next, self.h
        self.c, self.c_next = self.c_next, self.c
        return self.h


# ----------------------------------------------------------------------
# GAT-e encoder stack
# ----------------------------------------------------------------------
def _stacked(heads, attr: str) -> np.ndarray:
    """Copy one weight per head into an ``(H, ...)`` array.

    Cheaper than ``np.stack`` (no list/concatenate machinery) and safe
    against in-place optimizer updates, unlike caching the stack.
    """
    first = getattr(heads[0], attr).data
    buf = np.empty((len(heads),) + first.shape)
    buf[0] = first
    for index in range(1, len(heads)):
        buf[index] = getattr(heads[index], attr).data
    return buf


def _gat_layer(layer, nodes: np.ndarray, edges: np.ndarray,
               adjacency: np.ndarray, mask_f: np.ndarray,
               empty_f: np.ndarray, empty_b: np.ndarray,
               record: Optional[dict] = None):
    """One multi-head GAT-e layer, all heads stacked on a leading axis.

    Head weights are stacked to ``(H, ...)`` and every matmul runs as a
    batched GEMM whose per-slice 2-D shape equals the per-head call, so
    each head's result is bitwise-identical to computing it alone; the
    whole masked-softmax chain then runs once over ``(H, B, n, n)``
    instead of ``H`` times over ``(B, n, n)``.  The attention-vector
    scores stay per-head 1-D matmuls (``(B, n, d) @ (d,)``) because the
    dgemv and dgemm paths are not bitwise-interchangeable.

    A concatenating layer returns its node and edge updates; the final
    (averaging) layer returns ``None`` for edges: nothing reads them.
    With ``record`` (a dict), the layer also keeps the arrays the
    backward reads: its inputs, the transformed nodes, the messages,
    the attention weights with the masked exponentials and denominators
    they came from, and the signs of the leaky ReLU and the ReLUs.
    """
    heads = layer.heads
    num_heads = len(heads)
    batch, n, dim = nodes.shape
    head_dim = heads[0].w2.data.shape[1]
    out_dim = head_dim if layer.final else head_dim * num_heads
    w1 = _stacked(heads, "w1")          # (H, dim, dim)
    w2 = _stacked(heads, "w2")          # (H, dim, hd)

    transformed = np.matmul(nodes, w1[:, None])
    source = np.empty((num_heads, batch, n))
    target = np.empty((num_heads, batch, n))
    logits = np.empty((num_heads, batch, n, n))
    scratch = np.empty((num_heads, batch, n, n))
    row_max = np.empty((num_heads, batch, n, 1))
    for index, head in enumerate(heads):
        np.matmul(transformed[index], head.a_src.data, out=source[index])
        np.matmul(transformed[index], head.a_dst.data, out=target[index])
        np.matmul(edges, head.a_edge.data, out=scratch[index])  # edge score
    np.add(source[:, :, :, None], target[:, :, None, :], out=logits)
    logits += scratch
    if record is not None:
        record["positive"] = logits > 0
    # Leaky ReLU as max(x, slope*x): picks the same product the
    # Tensor leaky_relu's where()-multiply computes, with no temporaries.
    np.multiply(logits, heads[0].leaky_slope, out=scratch)
    np.maximum(logits, scratch, out=logits)
    # Masked softmax, Tensor op order (see autodiff.masked_softmax).
    logits.max(axis=3, keepdims=True, where=adjacency[None, :, :, :],
               initial=-np.inf, out=row_max)
    np.copyto(row_max, 0.0, where=empty_b[None])       # fully-masked rows
    logits -= row_max
    # Zero masked positions *before* exp (the Tensor path clamps them
    # with a where()); multiplying by the mask maps them to +-0.0, and
    # exp(+-0.0) == 1.0 exactly, so the exp'd values match bitwise.
    logits *= mask_f
    np.exp(logits, out=logits)
    logits *= mask_f
    denominator = logits.sum(axis=3, keepdims=True, out=row_max)
    denominator += empty_f
    messages = np.matmul(nodes, w2[:, None])
    if record is None:
        logits /= denominator
        attention = logits
    else:
        attention = logits / denominator
        record.update(nodes=nodes, edges=edges, transformed=transformed,
                      messages=messages, exps=logits,
                      denominator=denominator, attention=attention)
    node_tmp = np.matmul(attention, messages)
    node_out = np.empty((batch, n, out_dim))
    if layer.final:
        # add.reduce over a length-H axis accumulates sequentially —
        # the same h0+h1+... order as the Tensor head loop.
        np.add.reduce(node_tmp, axis=0, out=node_out)
        node_out *= 1.0 / float(num_heads)
        if record is not None:
            record["node_positive"] = node_out > 0
        _relu_into(node_out, node_out)
        return node_out, None
    for index in range(num_heads):
        lo = index * head_dim
        _relu_into(node_tmp[index], node_out[..., lo:lo + head_dim])

    edge_tmp = np.matmul(edges, _stacked(heads, "w3")[:, None, None])
    n4 = np.matmul(nodes, _stacked(heads, "w4")[:, None])
    n5 = np.matmul(nodes, _stacked(heads, "w5")[:, None])
    edge_tmp += n4[:, :, :, None, :]
    edge_tmp += n5[:, :, None, :, :]
    edge_out = np.empty((batch, n, n, out_dim))
    for index in range(num_heads):
        lo = index * head_dim
        _relu_into(edge_tmp[index], edge_out[..., lo:lo + head_dim])
    if record is not None:
        record["node_positive"] = node_tmp > 0
        record["edge_positive"] = edge_tmp > 0
    return node_out, edge_out


def gat_encoder_forward(gat, nodes: np.ndarray, edges: np.ndarray,
                        adjacency: np.ndarray,
                        saved: Optional[list] = None) -> np.ndarray:
    """Residual GAT-e stack → the last layer's ``(B, n, d)`` nodes.

    Masks, their float casts and the empty-row guard are computed once
    for the whole stack.  The last layer's edge update is skipped: no
    output reads it.  The accumulators start as copies of the inputs,
    so the caller's arrays are never written.

    With ``saved`` (a list), one record per layer (see
    :func:`_gat_layer`) is appended, and each residual sum is a new
    array, so every record's layer inputs stay as they were.
    """
    adjacency = np.asarray(adjacency, dtype=bool)
    mask_f = adjacency.astype(np.float64)
    empty_b = (~adjacency).all(axis=2, keepdims=True)
    empty_f = empty_b.astype(np.float64)
    if saved is None:
        node_acc = np.array(nodes, dtype=np.float64)
        edge_acc = np.array(edges, dtype=np.float64)
    else:
        node_acc, edge_acc = nodes, edges
    # One errstate for the whole stack: fully-masked rows produce
    # -inf - -inf inside the attention shift (Tensor behaviour).
    with np.errstate(invalid="ignore"):
        for layer in gat.layers:
            record = None if saved is None else {}
            node_update, edge_update = _gat_layer(
                layer, node_acc, edge_acc, adjacency, mask_f, empty_f,
                empty_b, record)
            if saved is None:
                node_acc += node_update
                if edge_update is not None:
                    edge_acc += edge_update
            else:
                saved.append(record)
                node_acc = node_acc + node_update
                if edge_update is not None:
                    edge_acc = edge_acc + edge_update
    return node_acc


# ----------------------------------------------------------------------
# Feature embedding and decoders
# ----------------------------------------------------------------------
def level_embed(encoder, continuous: np.ndarray, discrete: np.ndarray,
                edge_features: np.ndarray, global_data: np.ndarray):
    """Fused node/edge feature embedding for one padded graph level.

    Replaces the Tensor glue of ``LevelEncoder.forward_batch`` — the
    continuous projection, discrete embedding gathers, global-context
    tiling and the node/edge input projections — with slice writes into
    one feature array followed by two GEMMs.  Concatenation becomes
    slice assignment (a memcpy), the tile-by-ones becomes a broadcast
    copy (``x * 1.0`` is an IEEE identity), and each projection keeps
    the same matmul + bias add, so outputs are bit-identical to the
    Tensor path.
    """
    batch, n = continuous.shape[:2]
    features = encoder.node_features
    cont_dim = features.continuous.out_features
    stacked = np.empty(
        (batch, n, features.output_dim + global_data.shape[-1]))
    np.matmul(continuous, features.continuous.weight.data,
              out=stacked[:, :, :cont_dim])
    stacked[:, :, :cont_dim] += features.continuous.bias.data
    indices = np.asarray(discrete, dtype=np.int64)
    offset = cont_dim
    for column, table in enumerate(features.embeddings):
        idx = indices[..., column]
        if np.any(idx < 0) or np.any(idx >= table.num_embeddings):
            raise IndexError(
                f"embedding index out of range [0, {table.num_embeddings}): "
                f"min={idx.min()}, max={idx.max()}"
            )
        stacked[:, :, offset:offset + table.embedding_dim] = \
            table.weight.data[idx]
        offset += table.embedding_dim
    stacked[:, :, features.output_dim:] = global_data[:, None, :]
    nodes = np.matmul(stacked, encoder.node_proj.weight.data)
    nodes += encoder.node_proj.bias.data
    edges = np.matmul(edge_features, encoder.edge_proj.weight.data)
    edges += encoder.edge_proj.bias.data
    return nodes, edges


def pointer_decode(decoder, nodes: np.ndarray, courier: np.ndarray,
                   lengths: np.ndarray,
                   adjacency: Optional[np.ndarray] = None) -> np.ndarray:
    """Incremental greedy pointer decode.

    Instead of rebuilding the feasibility mask and running a full
    log-softmax per step, the additive ``-1e30`` penalty row is updated
    in place as nodes are chosen, and the argmax runs directly on the
    penalised scores (the log-softmax subtracts a per-row constant, a
    monotone shift that cannot change the argmax).  With
    ``restrict_to_neighbors`` the feasible set depends on the previous
    choice, so the mask is recomputed per step exactly as the Tensor
    path does.
    """
    batch, n, node_dim = nodes.shape
    lengths = np.asarray(lengths, dtype=np.int64)
    visited = np.arange(n)[None, :] >= lengths[:, None]   # padding pre-visited
    attention = decoder.attention
    query_weight = attention.query_proj.weight.data
    v = attention.v.data
    hidden = query_weight.shape[1]
    projected_keys = np.matmul(nodes, attention.key_proj.weight.data)
    recurrent = _FusedRecurrent(decoder.recurrent.cell, batch)
    state_dim = recurrent.hidden_dim
    query = np.empty((batch, state_dim + courier.shape[-1]))
    query[:, state_dim:] = courier
    projected_query = np.empty((batch, hidden))
    pre_tanh = np.empty((batch, n, hidden))
    step_input_buf = np.empty((batch, node_dim))
    scores = np.empty((batch, n))
    routes = np.zeros((batch, n), dtype=np.int64)
    rows = np.arange(batch)
    incremental = not (decoder.restrict_to_neighbors and adjacency is not None)
    steps = np.arange(1, n + 1)
    # Per-step masks hoisted out of the loop: the float "still active"
    # column and, for the incremental path, the value the chosen column
    # gets.  Rows already finished *before* a step choose the dummy
    # candidate 0, which must stay open (value 0.0); everyone else's
    # choice is closed with -1e30.  A row finishing *at* a step still
    # closes its last real node, so its dummy is re-opened explicitly.
    active_f = (steps[:, None] < lengths[None, :]).astype(np.float64)
    if incremental:
        penalty = np.where(visited, -1e30, 0.0)
        exhausted = lengths <= 0
        if exhausted.any():   # dummy candidate for empty rows, like Tensor
            penalty[exhausted, 0] = 0.0
        close_value = np.where(steps[:, None] > lengths[None, :], 0.0, -1e30)
        # Rows whose last real node is chosen at step s (lengths == s),
        # grouped per step with one sort instead of n nonzero scans.
        order = np.argsort(lengths, kind="stable")
        sorted_lengths = lengths[order]
        lo = np.searchsorted(sorted_lengths, steps, side="left")
        hi = np.searchsorted(sorted_lengths, steps, side="right")
        reopen_rows = [order[lo[i]:hi[i]] for i in range(n)]
    step_input: np.ndarray = decoder.start_token.data
    previous: Optional[np.ndarray] = None

    for step in range(n):
        h = recurrent.step(step_input)
        query[:, :state_dim] = h
        np.matmul(query, query_weight, out=projected_query)
        np.add(projected_keys, projected_query[:, None, :], out=pre_tanh)
        np.tanh(pre_tanh, out=pre_tanh)
        np.matmul(pre_tanh, v, out=scores)         # (B, n)
        if incremental:
            scores += penalty
        else:
            feasible = decoder._candidate_mask_batch(visited, previous,
                                                     adjacency)
            done = ~feasible.any(axis=1)
            if done.any():
                feasible = feasible.copy()
                feasible[done, 0] = True
            scores += np.where(feasible, 0.0, -1e30)
        chosen = np.argmax(scores, axis=1)
        routes[:, step] = chosen
        if incremental:
            penalty[rows, chosen] = close_value[step]
            if reopen_rows[step].size:   # rows whose last real node this was
                penalty[reopen_rows[step], 0] = 0.0
        else:
            visited[rows, chosen] = True
            previous = chosen
        np.multiply(nodes[rows, chosen], active_f[step][:, None],
                    out=step_input_buf)
        step_input = step_input_buf

    return routes


def sort_rnn_forward(sort, nodes: np.ndarray, routes: np.ndarray,
                     lengths: np.ndarray) -> np.ndarray:
    """Batched SortLSTM forward with a fused gather+concat step input."""
    batch, n, node_dim = nodes.shape
    routes = np.asarray(routes, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    step_valid = np.arange(n)[None, :] < lengths[:, None]
    step_valid_f = step_valid.astype(np.float64)
    safe_all = np.where(step_valid, routes, 0)   # all gather indices at once
    recurrent = _FusedRecurrent(sort.recurrent.cell, batch)
    head_weight = sort.head.weight.data
    head_bias = sort.head.bias.data
    head_out = np.empty((batch, 1))
    rows = np.arange(batch)
    by_step = np.zeros((batch, n))
    # The whole step-input sequence is known up front (gathered nodes +
    # position encodings), so both the gather and the input-side gate
    # projections are batched out of the loop.
    sequence = np.empty((batch, n, node_dim + sort.position_dim))
    np.multiply(nodes[rows[:, None], safe_all], step_valid_f[:, :, None],
                out=sequence[:, :, :node_dim])
    sequence[:, :, node_dim:] = position_table(n, sort.position_dim)
    pre = recurrent.precompute_inputs(sequence)
    for position in range(1, n + 1):
        h = recurrent.step(None, pre=pre[position - 1])
        np.matmul(h, head_weight, out=head_out)
        head_out += head_bias
        by_step[:, position - 1] = head_out[:, 0]
    inverse = np.zeros((batch, n), dtype=np.int64)
    row_index, step_index = np.nonzero(step_valid)
    inverse[row_index, routes[row_index, step_index]] = step_index
    gathered = by_step[rows[:, None], np.where(step_valid, inverse, 0)]
    return gathered * step_valid_f
