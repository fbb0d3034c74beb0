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

import dataclasses
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..autodiff import Tensor, concat, is_grad_enabled, padded_gather, stack
from ..kernels import fused
from ..nn import AdditivePointerAttention, GRUCell, Linear, LSTMCell, Module
from ..nn.init import normal
from ..nn.module import Parameter
from ..nn.positional import sinusoidal_position_encoding
from ..obs.tracing import span


class RecurrentCell(Module):
    """Uniform step interface over LSTM and GRU cells.

    ``step(x, state) -> (hidden, new_state)`` hides the difference
    between the LSTM's ``(h, c)`` state and the GRU's plain ``h``.
    """

    def __init__(self, input_dim: int, hidden_dim: int,
                 rng: np.random.Generator, cell_type: str = "lstm"):
        super().__init__()
        if cell_type == "lstm":
            self.cell = LSTMCell(input_dim, hidden_dim, rng)
        elif cell_type == "gru":
            self.cell = GRUCell(input_dim, hidden_dim, rng)
        else:
            raise ValueError(f"cell_type must be 'lstm' or 'gru', got {cell_type!r}")
        self.cell_type = cell_type

    def step(self, x: Tensor, state):
        if self.cell_type == "lstm":
            h, c = self.cell(x, state)
            return h, (h, c)
        h = self.cell(x, state)
        return h, h

    def initial_state(self, batch_shape: Tuple[int, ...] = ()):
        """Explicit zero state (needed when the first input is unbatched)."""
        return self.cell.initial_state(batch_shape)


@dataclasses.dataclass
class RouteDecoderOutput:
    """Result of one route decoding pass.

    ``route[j]`` is the node index decoded at step ``j``;
    ``step_log_probs[j]`` is the masked log-probability vector of step
    ``j`` (a Tensor over all nodes, infeasible ones at -inf), used for
    the route cross-entropy loss.  When a teacher route was supplied,
    ``step_targets[j]`` is the supervised label of step ``j`` — under
    plain teacher forcing it equals ``teacher_route[j]``; under
    scheduled sampling it is the oracle label re-aligned to the decoded
    prefix (the earliest still-unvisited node of the true route).
    """

    route: np.ndarray
    step_log_probs: List[Tensor]
    step_targets: Optional[np.ndarray] = None


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
    """

    def __init__(self, node_dim: int, state_dim: int, courier_dim: int,
                 rng: np.random.Generator,
                 restrict_to_neighbors: bool = True,
                 cell_type: str = "lstm"):
        super().__init__()
        self.recurrent = RecurrentCell(node_dim, state_dim, rng, cell_type)
        self.attention = AdditivePointerAttention(
            key_dim=node_dim, query_dim=state_dim + courier_dim,
            hidden_dim=state_dim, rng=rng)
        self.start_token = Parameter(normal(rng, (node_dim,), std=0.1))
        self.restrict_to_neighbors = restrict_to_neighbors

    def _candidate_mask(self, visited: np.ndarray, previous: Optional[int],
                        adjacency: Optional[np.ndarray]) -> np.ndarray:
        unvisited = ~visited
        if (self.restrict_to_neighbors and previous is not None
                and adjacency is not None):
            neighbors = np.asarray(adjacency[previous], dtype=bool) & unvisited
            if neighbors.any():
                return neighbors
        return unvisited

    def forward(self, nodes: Tensor, courier: Tensor,
                adjacency: Optional[np.ndarray] = None,
                teacher_route: Optional[np.ndarray] = None,
                sample_prob: float = 0.0,
                rng: Optional[np.random.Generator] = None
                ) -> RouteDecoderOutput:
        """Decode a full route over ``nodes``.

        With ``teacher_route`` given, the decoder is teacher-forced: the
        supervised node is fed forward at each step while the log
        probabilities are still produced for the loss.  With
        ``sample_prob > 0`` (scheduled sampling), each step instead
        feeds the model's own argmax with that probability, and the
        supervision label is re-aligned to the decoded prefix — the
        earliest still-unvisited node of the true route — so training
        sees its own mistakes (DAgger-style oracle labelling).
        """
        n = nodes.shape[0]
        visited = np.zeros(n, dtype=bool)
        state = None
        step_input = self.start_token
        previous: Optional[int] = None
        route = np.empty(n, dtype=np.int64)
        step_log_probs: List[Tensor] = []
        step_targets: Optional[np.ndarray] = None
        true_rank: Optional[np.ndarray] = None
        if teacher_route is not None:
            step_targets = np.empty(n, dtype=np.int64)
            true_rank = np.empty(n, dtype=np.int64)
            true_rank[np.asarray(teacher_route)] = np.arange(n)
            if sample_prob > 0.0 and rng is None:
                raise ValueError("scheduled sampling requires an rng")

        for step in range(n):
            h, state = self.recurrent.step(step_input, state)
            query = concat([h, courier], axis=-1)
            mask = self._candidate_mask(visited, previous, adjacency)
            log_probs = self.attention.log_probs(nodes, query, mask)
            step_log_probs.append(log_probs)

            if teacher_route is not None:
                unvisited = np.flatnonzero(~visited)
                target = int(unvisited[np.argmin(true_rank[unvisited])])
                step_targets[step] = target
                if sample_prob > 0.0 and rng.random() < sample_prob:
                    chosen = int(np.argmax(log_probs.data))
                else:
                    chosen = target
            else:
                chosen = int(np.argmax(log_probs.data))
            route[step] = chosen
            visited[chosen] = True
            previous = chosen
            step_input = nodes[chosen]

        return RouteDecoderOutput(route=route, step_log_probs=step_log_probs,
                                  step_targets=step_targets)

    def _candidate_mask_batch(self, visited: np.ndarray,
                              previous: Optional[np.ndarray],
                              adjacency: Optional[np.ndarray]) -> np.ndarray:
        """Row-wise :meth:`_candidate_mask` over a ``(B, n)`` batch."""
        unvisited = ~visited
        if (self.restrict_to_neighbors and previous is not None
                and adjacency is not None):
            batch = visited.shape[0]
            neighbors = (np.asarray(adjacency[np.arange(batch), previous],
                                    dtype=bool) & unvisited)
            has_neighbor = neighbors.any(axis=1, keepdims=True)
            return np.where(has_neighbor, neighbors, unvisited)
        return unvisited

    def forward_batch(self, nodes: Tensor, courier: Tensor,
                      lengths: np.ndarray,
                      adjacency: Optional[np.ndarray] = None) -> np.ndarray:
        """Greedy (inference-only) batched decode.

        ``nodes`` is ``(B, n, d)`` padded node inputs, ``courier``
        ``(B, c)``, ``lengths`` the per-instance real node counts and
        ``adjacency`` the optional ``(B, n, n)`` padded connectivity.
        Returns an ``(B, n)`` int array whose row ``b`` holds the decoded
        route in its first ``lengths[b]`` entries.

        Padding nodes start out "visited" so they are never feasible;
        instances that finish early keep stepping on a dummy candidate
        whose inputs are zeroed (:func:`padded_gather`), which cannot
        affect any still-active instance.

        When gradients are disabled, decoding runs the fused kernel
        (:func:`repro.kernels.fused.pointer_decode`), which decodes
        incrementally and is bit-identical to the Tensor path below.
        """
        if not is_grad_enabled():
            with span("kernel.pointer_decode", batch_size=nodes.shape[0]):
                return fused.pointer_decode(
                    self, nodes.data, courier.data, lengths, adjacency)
        batch, n = nodes.shape[0], nodes.shape[1]
        lengths = np.asarray(lengths, dtype=np.int64)
        visited = np.arange(n)[None, :] >= lengths[:, None]   # padding pre-visited
        state = self.recurrent.initial_state((batch,))
        step_input: Tensor = self.start_token
        previous: Optional[np.ndarray] = None
        routes = np.zeros((batch, n), dtype=np.int64)

        for step in range(n):
            h, state = self.recurrent.step(step_input, state)
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
            log_probs = self.attention.log_probs_batch(nodes, query, feasible)
            chosen = np.argmax(log_probs.data, axis=1)
            routes[:, step] = chosen
            visited[np.arange(batch), chosen] = True
            previous = chosen
            active = (step + 1 < lengths)[:, None]
            step_input = padded_gather(nodes, chosen[:, None],
                                       valid=active)[:, 0, :]

        return routes


class SortLSTM(Module):
    """RNN with a sorting function (Eqs. 32-33).

    Consumes node embeddings *sorted by a route*, concatenated with the
    positional encoding of each step, and emits one arrival-time scalar
    per step.  The returned tensor is re-scattered to node order, i.e.
    ``output[i]`` is the predicted arrival time of node ``i``.
    """

    def __init__(self, node_dim: int, state_dim: int, position_dim: int,
                 rng: np.random.Generator, cell_type: str = "lstm"):
        super().__init__()
        if position_dim < 2:
            raise ValueError("position_dim must be >= 2")
        self.position_dim = position_dim
        self.recurrent = RecurrentCell(node_dim + position_dim, state_dim,
                                       rng, cell_type)
        self.head = Linear(state_dim, 1, rng)

    def forward(self, nodes: Tensor, route: np.ndarray) -> Tensor:
        """Predict arrival times; ``route`` orders the input nodes."""
        n = nodes.shape[0]
        route = np.asarray(route, dtype=np.int64)
        if sorted(route.tolist()) != list(range(n)):
            raise ValueError("route must be a permutation of the node indices")
        state = None
        times_by_step: List[Tensor] = []
        for position, node_index in enumerate(route, start=1):
            encoding = Tensor(
                sinusoidal_position_encoding(position, self.position_dim))
            step_input = concat([nodes[int(node_index)], encoding], axis=-1)
            h, state = self.recurrent.step(step_input, state)
            times_by_step.append(self.head(h).reshape(()))
        by_step = stack(times_by_step, axis=0)
        # Scatter step-ordered times back to node order.
        inverse = np.empty(n, dtype=np.int64)
        inverse[route] = np.arange(n)
        return by_step[inverse]

    def forward_batch(self, nodes: Tensor, routes: np.ndarray,
                      lengths: np.ndarray) -> Tensor:
        """Batched :meth:`forward` over padded routes.

        ``nodes`` is ``(B, n, d)``, ``routes`` ``(B, n)`` with row ``b``
        a permutation of ``range(lengths[b])`` in its first ``lengths[b]``
        entries; like :meth:`forward`, any other route raises
        ``ValueError``.  Returns ``(B, n)`` arrival times in node order;
        padding entries are exactly zero.

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
        state = self.recurrent.initial_state((batch,))
        times_by_step: List[Tensor] = []
        for position in range(1, n + 1):
            step_nodes = padded_gather(
                nodes, routes[:, position - 1][:, None],
                valid=step_valid[:, position - 1][:, None])[:, 0, :]
            encoding = Tensor(np.tile(
                sinusoidal_position_encoding(position, self.position_dim),
                (batch, 1)))
            step_input = concat([step_nodes, encoding], axis=-1)
            h, state = self.recurrent.step(step_input, state)
            times_by_step.append(self.head(h).reshape(batch))
        by_step = stack(times_by_step, axis=1)                # (B, n)
        # Scatter step-ordered times back to node order per instance.
        inverse = np.zeros((batch, n), dtype=np.int64)
        row_index, step_index = np.nonzero(step_valid)
        inverse[row_index, routes[row_index, step_index]] = step_index
        # Node i is real exactly when i < lengths, the same mask as the
        # steps (real node ids are 0..lengths-1).
        return padded_gather(by_step, inverse, valid=step_valid)


def positional_guidance(route: np.ndarray, dim: int) -> np.ndarray:
    """Per-node positional encodings given a route (used as AOI guidance).

    ``result[i]`` is the encoding of node ``i``'s 1-indexed position in
    ``route`` — the ``p_aoi`` of Eq. 34.
    """
    route = np.asarray(route, dtype=np.int64)
    n = route.size
    result = np.zeros((n, dim))
    for position, node_index in enumerate(route, start=1):
        result[node_index] = sinusoidal_position_encoding(position, dim)
    return result
