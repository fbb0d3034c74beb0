"""The packed optimizer step and the single-use tape it rests on.

``Trainer._joint_update_batch`` runs each mini-batch as a few padded
groups (``repro.training.trainer.pack_groups``) instead of one batch of
one per instance, and ``Tensor.backward`` frees each interior node once
it has propagated.  These tests pin both against the per-instance step
the packed one replaces (kept here as the reference), and the two-step
ablation's per-group gradients against fresh single-loss backwards.
``Trainer.evaluate_loss`` runs the same groups under ``no_grad`` and is
pinned against per-instance validation the same way.  The
``--runslow`` leg sweeps the step parity over 120 seeded chunks.
"""

import types

import numpy as np
import pytest

from repro.autodiff import SGD, Adam, Tensor, clip_grad_norm, no_grad
from repro.core import GraphBatch, M2G4RTP, M2G4RTPConfig, RTPTargets
from repro.training import Trainer, TrainerConfig
from repro.training.trainer import (_ROUTE_TASKS, _TIME_TASKS, GROUP_CELLS,
                                    _sum_losses, pack_groups)


def small_model(seed=0, **overrides):
    return M2G4RTP(M2G4RTPConfig(hidden_dim=16, num_heads=2,
                                 num_encoder_layers=1, seed=seed,
                                 **overrides))


class PerInstanceTrainer(Trainer):
    """The step the packed one replaces: each instance a batch of one."""

    def _joint_update_batch(self, graphs, targets, optimizer,
                            sample_prob=0.0, rng=None):
        optimizer.zero_grad()
        scale = 1.0 / len(graphs)
        total = 0.0
        for graph, target in zip(graphs, targets):
            output = self.model(GraphBatch.from_graphs([graph]), [target],
                                sample_prob=sample_prob, rng=rng)
            (output.total_loss * scale).backward()
            total += float(output.total_loss.data)
        self._epoch_grad_norms.append(
            clip_grad_norm(optimizer.parameters, self.config.grad_clip))
        optimizer.step()
        return total


class PerInstanceValidation(Trainer):
    """Validation as the packed one replaces it: each instance a batch
    of one, its raw task losses summed, then the mean over instances."""

    def evaluate_loss(self, graphs, targets):
        was_training = self.model.training
        self.model.eval()
        losses = []
        with no_grad():
            for graph, target in zip(graphs, targets):
                output = self.model(GraphBatch.from_graphs([graph]), [target])
                losses.append(sum(float(loss.data)
                                  for loss in output.losses.values()))
        if was_training:
            self.model.train()
        return float(np.mean(losses))


@pytest.fixture(scope="module")
def pool(dataset, builder):
    """Every instance of the shared dataset (3 to 20 locations)."""
    instances = list(dataset)
    graphs = [builder.build(instance) for instance in instances]
    targets = [RTPTargets.from_instance(instance) for instance in instances]
    return graphs, targets


def graph_nodes(root):
    """Every tensor on the tape behind ``root``, root included."""
    seen, stack, nodes = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(parent for parent in node._parents if parent.requires_grad)
    return nodes


# ----------------------------------------------------------------------
class TestFreeingTape:
    def test_second_backward_through_freed_graph_raises(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        hidden = (x * x).tanh()
        loss = hidden.sum()
        loss.backward()
        with pytest.raises(RuntimeError, match="freed"):
            loss.backward()
        with pytest.raises(RuntimeError, match="freed"):
            (hidden * 2.0).sum().backward()

    def test_interior_nodes_freed_leaves_keep_grad(self, pool):
        graphs, targets = pool
        model = small_model()
        output = model(GraphBatch.from_graphs(graphs[:3]), targets[:3])
        nodes = graph_nodes(output.total_loss)
        interior = [node for node in nodes if node._parents]
        leaves = [node for node in nodes if not node._parents]
        assert len(interior) > 100
        parameter_ids = {id(p) for p in model.parameters()}
        assert {id(leaf) for leaf in leaves} <= parameter_ids

        output.total_loss.backward()
        for node in interior:
            assert node.grad is None
            assert node._parents == ()
            assert node._backward.__closure__ is None   # no captured state
        assert all(leaf.grad is not None for leaf in leaves)


# ----------------------------------------------------------------------
class TestPackGroups:
    @pytest.mark.parametrize("seed", range(20))
    def test_partition_within_budget(self, seed):
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 31, size=int(rng.integers(1, 17)))
        graphs = [types.SimpleNamespace(num_locations=int(n)) for n in sizes]
        groups = pack_groups(graphs)
        flat = [index for group in groups for index in group]
        # A stable sort by location count, cut into consecutive groups.
        assert flat == sorted(range(len(graphs)), key=lambda i: sizes[i])
        for group in groups:
            largest = max(sizes[i] for i in group)
            if len(group) > 1:
                assert len(group) * largest ** 2 <= GROUP_CELLS
        # Greedy: a group closes only when the next row would not fit.
        for group, following in zip(groups, groups[1:]):
            assert (len(group) + 1) * sizes[following[0]] ** 2 > GROUP_CELLS

    def test_largest_paper_scope_row_and_larger_rows_stand_alone(self):
        graphs = [types.SimpleNamespace(num_locations=n)
                  for n in (25, 3, 20, 3)]
        assert pack_groups(graphs) == [[1, 3], [2], [0]]


# ----------------------------------------------------------------------
def mixed_chunk(pool, sizes):
    """Indices of the first pool instance of each location count."""
    graphs, _ = pool
    counts = [g.num_locations for g in graphs]
    return [counts.index(n) for n in sizes]


def assert_step_parity(pool, indices, seed=0):
    """One packed step against the per-instance reference step."""
    graphs, targets = pool
    chunk_graphs = [graphs[i] for i in indices]
    chunk_targets = [targets[i] for i in indices]
    results = []
    for trainer_class in (PerInstanceTrainer, Trainer):
        model = small_model(seed)
        model.train()
        optimizer = Adam(model.parameters(), lr=3e-3)
        loss = trainer_class(model)._joint_update_batch(
            chunk_graphs, chunk_targets, optimizer)
        results.append((loss, [p.data.copy() for p in model.parameters()]))
    (ref_loss, ref_params), (loss, params) = results
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    for ref, value in zip(ref_params, params):
        np.testing.assert_allclose(value, ref, rtol=0, atol=1e-9)


class TestPackedStepParity:
    def test_mixed_chunk_matches_per_instance_step(self, pool):
        indices = mixed_chunk(pool, (20, 3, 16, 9, 4, 13, 7, 5))
        assert len(pack_groups([pool[0][i] for i in indices])) > 2
        assert_step_parity(pool, indices)

    def test_batch_size_one_fit_is_bitwise_per_instance(self, splits):
        train, _, _ = splits
        config = TrainerConfig(epochs=2, batch_size=1,
                               scheduled_sampling=0.5)
        runs = []
        for trainer_class in (PerInstanceTrainer, Trainer):
            model = small_model()
            history = trainer_class(model, config).fit(train[:8])
            runs.append((history.train_loss, model.state_dict()))
        (ref_losses, ref_state), (losses, state) = runs
        assert losses == ref_losses
        for name, value in ref_state.items():
            np.testing.assert_array_equal(state[name], value, err_msg=name)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", range(120))
    def test_seeded_chunks_match_per_instance_step(self, pool, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(2, 9))
        indices = rng.choice(len(pool[0]), size=size, replace=False)
        assert_step_parity(pool, [int(i) for i in indices], seed=seed % 4)


# ----------------------------------------------------------------------
class TestPackedValidation:
    def test_matches_per_instance_validation(self, pool):
        graphs, targets = pool
        sizes = {graph.num_locations for graph in graphs}
        assert min(sizes) <= 3 and max(sizes) == 20
        assert len(pack_groups(graphs)) > 2
        model = small_model()
        model.train()
        reference = PerInstanceValidation(model).evaluate_loss(graphs, targets)
        loss = Trainer(model).evaluate_loss(graphs, targets)
        assert abs(loss - reference) <= 1e-12 * abs(reference)
        assert model.training   # the training mode comes back

    def test_fit_validates_like_per_instance(self, splits):
        train, val, _ = splits
        config = TrainerConfig(epochs=6, batch_size=4, patience=2)
        runs = []
        for trainer_class in (PerInstanceValidation, Trainer):
            model = small_model()
            runs.append(trainer_class(model, config).fit(train[:8], val))
        reference, history = runs
        assert len(history.val_loss) == len(reference.val_loss) > 1
        for value, want in zip(history.val_loss, reference.val_loss):
            assert abs(value - want) <= 1e-12 * abs(want)
        assert history.best_epoch == reference.best_epoch
        assert history.train_loss == reference.train_loss


# ----------------------------------------------------------------------
class RecordingSGD(SGD):
    """Records the gradients each step would apply, and applies none."""

    def step(self):
        self.recorded = [None if p.grad is None else p.grad.copy()
                         for p in self.parameters]


def fresh_grads(model, graph, target, tasks, parameters):
    for parameter in model.parameters():
        parameter.zero_grad()
    output = model(GraphBatch.from_graphs([graph]), [target])
    _sum_losses(output.losses, tasks).backward()
    return [None if p.grad is None else p.grad.copy() for p in parameters]


class TestTwoStepGradients:
    def test_each_group_gets_only_its_own_loss_gradient(self, graph,
                                                        instance):
        assert graph.num_aois >= 2   # the AOI ETA guides the locations
        model = small_model(detach_time_inputs=True)
        model.train()
        target = RTPTargets.from_instance(instance)
        route_optimizer = RecordingSGD(model.route_parameters())
        time_optimizer = RecordingSGD(model.time_parameters())
        trainer = Trainer(model, TrainerConfig(grad_clip=np.inf))
        trainer._two_step_update(graph, target, route_optimizer,
                                 time_optimizer)

        for optimizer, tasks in ((route_optimizer, _ROUTE_TASKS),
                                 (time_optimizer, _TIME_TASKS)):
            expected = fresh_grads(model, graph, target, tasks,
                                   optimizer.parameters)
            assert any(g is not None for g in expected)
            for got, want in zip(optimizer.recorded, expected):
                if want is None:
                    assert got is None or not np.any(got)
                else:
                    np.testing.assert_array_equal(got, want)
