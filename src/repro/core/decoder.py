"""Multi-task decoders (paper Section IV-C).

* :class:`RouteDecoder` — the recurrent masked-pointer decoder of
  Eqs. 27-31: an LSTM aggregates the already-decoded prefix into the
  current state, additive attention scores every feasible candidate,
  and the argmax (inference) or the ground truth (teacher forcing)
  becomes the next step's input.
* :class:`SortLSTM` — the time decoder of Eqs. 32-33: node embeddings
  are fed *in route order*, each concatenated with the sinusoidal
  encoding of its position, and an LSTM emits one arrival time per
  step.  Outputs are not forced monotone, which gives the module the
  error-correction slack the paper highlights.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..autodiff import (Tensor, concat, is_grad_enabled, padded_gather,
                        repeat_steps, stack)
from ..kernels import fused
from ..nn import AdditivePointerAttention, Linear, LSTM, Module
from ..nn.init import normal
from ..nn.module import Parameter
from ..nn.positional import position_table
from ..obs.tracing import span


def route_positions(routes: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Inverse of padded routes: ``(B, n)`` 0-based step at which each node
    of row ``b`` is visited; 0 for padding nodes."""
    batch, n = routes.shape
    step_valid = np.arange(n)[None, :] < lengths[:, None]
    positions = np.zeros((batch, n), dtype=np.int64)
    row_index, step_index = np.nonzero(step_valid)
    positions[row_index, routes[row_index, step_index]] = step_index
    return positions


class RouteDecoder(Module):
    """Pointer-network route decoder with feasibility masking.

    Parameters
    ----------
    node_dim:
        Width of the (possibly guidance-augmented) node inputs.
    state_dim:
        LSTM hidden width.
    courier_dim:
        Width of the courier vector ``u`` concatenated to the query
        (Eq. 28).
    restrict_to_neighbors:
        When ``True``, candidates are additionally restricted to graph
        neighbours of the previously decoded node (the paper's
        "most likely neighbor of the (s-1)-th output"), falling back to
        all unvisited nodes when no unvisited neighbour exists.

    The LSTM is held as ``recurrent`` (keys ``recurrent.cell.*``); the
    decoder steps or unrolls its ``cell``.
    """

    def __init__(self, node_dim: int, state_dim: int, courier_dim: int,
                 rng: np.random.Generator,
                 restrict_to_neighbors: bool = True):
        super().__init__()
        self.recurrent = LSTM(node_dim, state_dim, rng)
        self.attention = AdditivePointerAttention(
            key_dim=node_dim, query_dim=state_dim + courier_dim,
            hidden_dim=state_dim, rng=rng)
        self.start_token = Parameter(normal(rng, (node_dim,), std=0.1))
        self.restrict_to_neighbors = restrict_to_neighbors

    def _candidate_mask_batch(self, visited: np.ndarray,
                              previous: Optional[np.ndarray],
                              adjacency: Optional[np.ndarray]) -> np.ndarray:
        """Feasible candidates per row of a ``(..., B, n)`` visited mask
        (``previous`` is ``(..., B)``): the unvisited neighbours of the
        previous node when restricted and any exist, else every unvisited
        node."""
        unvisited = ~visited
        if (self.restrict_to_neighbors and previous is not None
                and adjacency is not None):
            batch = visited.shape[-2]
            neighbors = (np.asarray(adjacency[np.arange(batch), previous],
                                    dtype=bool) & unvisited)
            has_neighbor = neighbors.any(axis=-1, keepdims=True)
            return np.where(has_neighbor, neighbors, unvisited)
        return unvisited

    def forward_batch(self, nodes: Tensor, courier: Tensor,
                      lengths: np.ndarray,
                      adjacency: Optional[np.ndarray] = None,
                      teacher_routes: Optional[np.ndarray] = None,
                      sample_prob: float = 0.0,
                      rng: Optional[np.random.Generator] = None
                      ) -> Tuple[np.ndarray, Optional[Tensor]]:
        """Decode one route per row of a padded batch.

        ``nodes`` is ``(B, n, d)`` padded node inputs, ``courier``
        ``(B, c)``, ``lengths`` the per-instance real node counts and
        ``adjacency`` the optional ``(B, n, n)`` padded connectivity.
        Returns ``(routes, label_log_probs)``: ``routes`` is an ``(B, n)``
        int array whose row ``b`` holds the decoded route in its first
        ``lengths[b]`` entries.

        Without ``teacher_routes`` decoding is greedy (Eq. 31) and
        ``label_log_probs`` is ``None``.  With ``teacher_routes`` (padded
        like ``routes``) the decoder is teacher-forced: the supervised
        node is fed forward at each step, and ``label_log_probs`` is the
        ``(B, n)`` Tensor of each step's log-probability of its label,
        zero past ``lengths[b]``.  With ``sample_prob > 0`` (scheduled
        sampling) each row instead feeds its own argmax with that
        probability — one ``rng.random(B)`` draw per step — and its label
        is re-aligned to the decoded prefix: the earliest still-unvisited
        node of its true route, so training sees its own mistakes
        (DAgger-style oracle labelling).

        Padding nodes start out "visited" so they are never feasible;
        instances that finish early keep stepping on a dummy candidate
        whose inputs are zeroed (:func:`padded_gather`), which cannot
        affect any still-active instance.

        Plain teacher forcing (``sample_prob == 0``) knows every step's
        input and feasible set from the labels, so it runs all steps at
        once (:meth:`_teacher_forced_batch`); the step loop below serves
        the decodes whose next input depends on the previous argmax.
        When gradients are disabled and no teacher routes are given,
        decoding runs the fused kernel
        (:func:`repro.kernels.fused.pointer_decode`), which decodes
        incrementally and is bit-identical to the Tensor loop below.
        """
        teacher = teacher_routes is not None
        if not is_grad_enabled() and not teacher:
            with span("kernel.pointer_decode", batch_size=nodes.shape[0]):
                return fused.pointer_decode(
                    self, nodes.data, courier.data, lengths, adjacency), None
        lengths = np.asarray(lengths, dtype=np.int64)
        if teacher and not sample_prob > 0.0:
            return self._teacher_forced_batch(nodes, courier, lengths,
                                              adjacency, teacher_routes)
        sampling = teacher
        if sampling and rng is None:
            raise ValueError("scheduled sampling requires an rng")
        batch, n = nodes.shape[0], nodes.shape[1]
        rows = np.arange(batch)
        steps = np.arange(n)
        step_valid = steps[None, :] < lengths[:, None]
        visited = ~step_valid                                 # padding pre-visited
        h, c = self.recurrent.cell.initial_state((batch,))
        step_input: Tensor = self.start_token
        previous: Optional[np.ndarray] = None
        routes = np.zeros((batch, n), dtype=np.int64)
        keys = self.attention.key_proj(nodes)
        label_log_probs: List[Tensor] = []
        if sampling:
            # Rank of each node in its row's true route; padding nodes
            # rank after every real one.
            labels = np.where(step_valid, teacher_routes, 0)
            true_rank = np.full((batch, n), n, dtype=np.int64)
            row_index, step_index = np.nonzero(step_valid)
            true_rank[row_index, labels[row_index, step_index]] = step_index

        for step in range(n):
            h, c = self.recurrent.cell(step_input, (h, c))
            query = concat([h, courier], axis=-1)
            feasible = self._candidate_mask_batch(visited, previous, adjacency)
            # Finished instances get a dummy candidate at index 0 so the
            # masked log-softmax stays well-defined; their argmax is the
            # dummy and the result is never read (row b is sliced to
            # lengths[b]).
            done = ~feasible.any(axis=1)
            if done.any():
                feasible = feasible.copy()
                feasible[done, 0] = True
            log_probs = self.attention.log_probs_batch(keys, query, feasible)
            chosen = np.argmax(log_probs.data, axis=1)
            if sampling:
                target = np.argmin(np.where(visited, n, true_rank), axis=1)
                sampled = rng.random(batch) < sample_prob
                chosen = np.where(sampled, chosen, target)
                label_log_probs.append(log_probs[rows, target])
            routes[:, step] = chosen
            visited[rows, chosen] = True
            previous = chosen
            active = (step + 1 < lengths)[:, None]
            step_input = padded_gather(nodes, chosen[:, None],
                                       valid=active)[:, 0, :]

        if not sampling:
            return routes, None
        return routes, (stack(label_log_probs, axis=1)
                        * Tensor(step_valid.astype(np.float64)))

    def _teacher_forced_batch(self, nodes: Tensor, courier: Tensor,
                              lengths: np.ndarray,
                              adjacency: Optional[np.ndarray],
                              teacher_routes: np.ndarray
                              ) -> Tuple[np.ndarray, Tensor]:
        """Plain teacher forcing, every step at once.

        Step ``s`` feeds the label of step ``s - 1`` (the start token at
        step 0) and may choose any node that is neither padding nor
        labelled before ``s``, under the same neighbour rule as the step
        loop.  So the LSTM unrolls once over the start token and the
        label-gathered nodes, the ``(n, B, n)`` feasibility masks come
        from the labels, and all steps are scored in one query
        projection, ``tanh``, ``@ v``, masked log-softmax and label
        gather: the float operations of the step loop, step by step.
        The courier and the attention weights take their gradients one
        step at a time, in the loop's order (:func:`repeat_steps`), so
        the gradients are the loop's bitwise too.
        """
        batch, n = nodes.shape[0], nodes.shape[1]
        rows = np.arange(batch)
        steps = np.arange(n)
        step_valid = steps[None, :] < lengths[:, None]
        labels = np.where(step_valid, teacher_routes, 0).astype(np.int64)
        step_inputs = padded_gather(nodes, labels[:, :-1],
                                    valid=steps[None, 1:] < lengths[:, None])
        hidden = self.recurrent.cell.unroll(step_inputs.transpose(1, 0, 2),
                                            start=self.start_token)  # (n, B, h)
        query = concat([hidden, repeat_steps(courier, n)], axis=-1)

        # Step s has visited the padding and the labels of steps < s.
        newly_visited = np.zeros((n, batch, n), dtype=bool)
        newly_visited[steps[1:, None], rows, labels[:, :-1].T] = True
        visited = np.logical_or.accumulate(newly_visited, axis=0) | ~step_valid
        feasible = np.empty((n, batch, n), dtype=bool)
        feasible[0] = self._candidate_mask_batch(visited[0], None, adjacency)
        feasible[1:] = self._candidate_mask_batch(visited[1:], labels[:, :-1].T,
                                                  adjacency)
        # Finished rows get the step loop's dummy candidate at index 0.
        feasible[~feasible.any(axis=-1), 0] = True

        keys = self.attention.key_proj(nodes)
        log_probs = self.attention.log_probs_batch(keys, query, feasible)
        label_log_probs = log_probs[steps[None, :], rows[:, None], labels]
        return labels, label_log_probs * Tensor(step_valid.astype(np.float64))


class SortLSTM(Module):
    """RNN with a sorting function (Eqs. 32-33).

    Consumes node embeddings *sorted by a route*, concatenated with the
    positional encoding of each step, and emits one arrival-time scalar
    per step.  The returned tensor is re-scattered to node order, i.e.
    ``output[b, i]`` is the predicted arrival time of node ``i``.
    """

    def __init__(self, node_dim: int, state_dim: int, position_dim: int,
                 rng: np.random.Generator):
        super().__init__()
        if position_dim < 2:
            raise ValueError("position_dim must be >= 2")
        self.position_dim = position_dim
        self.recurrent = LSTM(node_dim + position_dim, state_dim, rng)
        self.head = Linear(state_dim, 1, rng)

    def forward_batch(self, nodes: Tensor, routes: np.ndarray,
                      lengths: np.ndarray) -> Tensor:
        """Predict arrival times over padded routes.

        ``nodes`` is ``(B, n, d)``, ``routes`` ``(B, n)`` with row ``b``
        a permutation of ``range(lengths[b])`` in its first ``lengths[b]``
        entries; any other route raises ``ValueError``.  Returns
        ``(B, n)`` arrival times in node order; padding entries are
        exactly zero.

        When gradients are disabled, the pass runs the fused kernel
        (:func:`repro.kernels.fused.sort_rnn_forward`), bit-identical to
        the Tensor path below.
        """
        routes = np.asarray(routes, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        steps = np.arange(routes.shape[1])
        # Padding entries stand in for the ids lengths[b]..n-1, so a row
        # sorts to 0..n-1 exactly when its real prefix is a permutation.
        padded = np.where(steps[None, :] < lengths[:, None], routes, steps)
        if not np.array_equal(np.sort(padded, axis=1),
                              np.broadcast_to(steps, padded.shape)):
            raise ValueError("route must be a permutation of the node indices")
        if not is_grad_enabled():
            with span("kernel.sort_rnn", batch_size=nodes.shape[0]):
                return Tensor(fused.sort_rnn_forward(
                    self, nodes.data, routes, lengths))
        batch, n = nodes.shape[0], nodes.shape[1]
        step_valid = steps[None, :] < lengths[:, None]        # (B, n)
        # Every step's input is known up front: route-ordered nodes plus
        # the position encoding of each step.
        positions = np.broadcast_to(position_table(n, self.position_dim),
                                    (batch, n, self.position_dim))
        sequence = concat([padded_gather(nodes, routes, valid=step_valid),
                           Tensor(positions)], axis=-1)
        hidden = self.recurrent.cell.unroll(sequence.transpose(1, 0, 2))
        # The head reads its weights once per step, as a step loop does.
        times = (hidden @ repeat_steps(self.head.weight, n)
                 + repeat_steps(self.head.bias, n).reshape(n, 1, 1))
        by_step = times.reshape(n, batch).transpose()          # (B, n)
        # Scatter step-ordered times back to node order per instance.
        # Node i is real exactly when i < lengths, the same mask as the
        # steps (real node ids are 0..lengths-1).
        return padded_gather(by_step, route_positions(routes, lengths),
                             valid=step_valid)
