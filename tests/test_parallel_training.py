"""Data-parallel training: seq-vs-parallel parity and gradient-worker
fault handling.

The parity suite is the core guarantee: a ``DataParallelTrainer`` with
``num_workers=2`` must reproduce the sequential ``Trainer``'s loss
trajectory and final parameters within floating-point-summation
tolerance on the same seed.  The fault cases drive transient-error
shard loss, dead-worker respawn and the respawn budget through
:class:`repro.deploy.FaultPlan`.
"""

import numpy as np
import pytest

from repro.core import M2G4RTP, M2G4RTPConfig
from repro.deploy import FaultInjector, FaultPlan, TransientServiceError
from repro.obs import MetricsRegistry
from repro.parallel import DataParallelTrainer, ParallelConfig
from repro.training import Trainer, TrainerConfig, train_m2g4rtp

TINY = dict(hidden_dim=16, num_heads=2, num_encoder_layers=1, seed=5)


def tiny_model():
    return M2G4RTP(M2G4RTPConfig(**TINY))


def metric_value(registry, name, **labels):
    instrument = registry.get(name)
    if instrument is None:
        return 0.0
    if labels:
        return instrument.labels(**labels).value
    return instrument.value


# ----------------------------------------------------------------------
class TestParity:
    def test_two_workers_match_sequential(self, splits):
        train, val, _ = splits
        config = TrainerConfig(epochs=3, batch_size=4, patience=10)
        sequential = tiny_model()
        seq_history = Trainer(sequential, config).fit(train, val)
        parallel = tiny_model()
        par_history = DataParallelTrainer(
            parallel, config, ParallelConfig(num_workers=2)).fit(train, val)

        assert np.allclose(seq_history.train_loss, par_history.train_loss,
                           rtol=1e-8, atol=1e-8)
        assert np.allclose(seq_history.val_loss, par_history.val_loss,
                           rtol=1e-8, atol=1e-8)
        seq_state = sequential.state_dict()
        par_state = parallel.state_dict()
        for name in seq_state:
            assert np.allclose(seq_state[name], par_state[name],
                               rtol=1e-7, atol=1e-9), name

    def test_train_m2g4rtp_opt_in(self, splits):
        train, _, _ = splits
        config = TrainerConfig(epochs=1, batch_size=4, patience=10)
        _, seq_history = train_m2g4rtp(train[:8], model=tiny_model(),
                                       trainer_config=config)
        _, par_history = train_m2g4rtp(train[:8], model=tiny_model(),
                                       trainer_config=config, num_workers=2)
        assert np.allclose(seq_history.train_loss, par_history.train_loss,
                           rtol=1e-8, atol=1e-8)

    def test_two_step_ablation_rejected(self):
        model = M2G4RTP(M2G4RTPConfig(detach_time_inputs=True, **{
            k: v for k, v in TINY.items()}))
        with pytest.raises(ValueError, match="two-step"):
            DataParallelTrainer(model)

    def test_zero_workers_is_sequential_path(self, splits):
        train, _, _ = splits
        config = TrainerConfig(epochs=1, batch_size=4, patience=10)
        trainer = DataParallelTrainer(tiny_model(), config,
                                      ParallelConfig(num_workers=0))
        history = trainer.fit(train[:8])
        assert trainer._pool is None
        assert len(history.train_loss) == 1


# ----------------------------------------------------------------------
class TestElasticAggregation:
    def test_transient_error_loses_shard_not_run(self, splits):
        train, _, _ = splits
        registry = MetricsRegistry()
        config = ParallelConfig(
            num_workers=2,
            fault_plans={1: FaultPlan(fail_first=2)})
        history = DataParallelTrainer(
            tiny_model(), TrainerConfig(epochs=1, batch_size=4, patience=10),
            config, registry=registry).fit(train[:8])
        assert metric_value(registry, "rtp_train_worker_errors_total",
                            worker="1") == 2
        assert np.isfinite(history.train_loss[0])

    def test_failed_step_leaves_no_stale_worker(self, splits):
        """A worker that raises on a step still holds the parameters that
        step carried.  With one worker the failed step loses every
        shard and is skipped, so no later broadcast would repair a stale
        copy: the run must equal a sequential run that skips the same
        step."""
        train, _, _ = splits
        plan = FaultPlan(error_rate=0.05)
        # Worker 0's injector (seed 0) fails only the 2nd of its 3 calls,
        # the first step that ships a parameter payload.
        probe = FaultInjector(plan, seed=0)
        failed = []
        for _ in range(3):
            try:
                probe.before_call()
                failed.append(False)
            except TransientServiceError:
                failed.append(True)
        assert failed == [False, True, False]

        class SkipSecondStep(Trainer):
            steps = 0

            def _update_batch(self, *args):
                self.steps += 1
                if self.steps == 2:
                    return 0.0
                return super()._update_batch(*args)

        config = TrainerConfig(epochs=1, batch_size=4, patience=10)
        sequential = tiny_model()
        seq_history = SkipSecondStep(sequential, config).fit(train[:12])
        registry = MetricsRegistry()
        parallel = tiny_model()
        par_history = DataParallelTrainer(
            parallel, config,
            ParallelConfig(num_workers=1, fault_plans={0: plan}),
            registry=registry).fit(train[:12])
        assert metric_value(registry, "rtp_train_steps_skipped_total") == 1
        assert np.allclose(seq_history.train_loss, par_history.train_loss,
                           rtol=1e-8, atol=1e-8)
        par_state = parallel.state_dict()
        for name, value in sequential.state_dict().items():
            assert np.allclose(value, par_state[name],
                               rtol=1e-7, atol=1e-9), name

    def test_dead_worker_respawned_and_step_preserved(self, splits):
        """A crash before any gradient ships must not change the math:
        the respawned worker gets the task resubmitted, so the loss
        trajectory still matches the sequential trainer exactly."""
        train, _, _ = splits
        config = TrainerConfig(epochs=2, batch_size=4, patience=10)
        seq_history = Trainer(tiny_model(), config).fit(train[:8])
        registry = MetricsRegistry()
        parallel_config = ParallelConfig(
            num_workers=2,
            fault_plans={0: FaultPlan(crash_first=1)})
        par_history = DataParallelTrainer(
            tiny_model(), config, parallel_config,
            registry=registry).fit(train[:8])
        assert metric_value(registry, "rtp_train_worker_respawns_total",
                            worker="0") == 1
        assert np.allclose(seq_history.train_loss, par_history.train_loss,
                           rtol=1e-8, atol=1e-8)

    def test_respawn_budget_enforced(self, splits):
        train, _, _ = splits
        config = ParallelConfig(
            num_workers=2, max_respawns=1,
            fault_plans={0: FaultPlan(crash_rate=1.0)})
        trainer = DataParallelTrainer(
            tiny_model(), TrainerConfig(epochs=2, batch_size=4, patience=10),
            config)
        with pytest.raises(RuntimeError, match="respawn budget"):
            trainer.fit(train[:8])

    def test_fault_injector_crash_stream_replays(self):
        injector = FaultInjector(FaultPlan(crash_rate=0.5), seed=3)
        decisions = [injector.should_crash() for _ in range(16)]
        injector.reset()
        assert [injector.should_crash() for _ in range(16)] == decisions
        # fast_forward resumes mid-stream rather than replaying.
        injector.reset()
        injector.fast_forward(4)
        assert [injector.should_crash() for _ in range(12)] == decisions[4:]

    def test_crash_stream_does_not_perturb_error_stream(self):
        plain = FaultInjector(FaultPlan(error_rate=0.3), seed=11)
        crashy = FaultInjector(FaultPlan(error_rate=0.3, crash_rate=0.5),
                               seed=11)

        def errors(injector, draw_crashes):
            outcomes = []
            for _ in range(20):
                if draw_crashes:
                    injector.should_crash()
                try:
                    injector.before_call()
                    outcomes.append(False)
                except Exception:
                    outcomes.append(True)
            return outcomes

        assert errors(plain, False) == errors(crashy, True)


@pytest.mark.slow
class TestScaling:
    def test_four_worker_scaling(self, dataset):
        """4-worker run over a larger workload: parity with sequential
        plus every worker contributing.  Wall-clock speedup is recorded
        by ``benchmarks/bench_parallel_training.py`` (it depends on the
        machine's core count, so it is not asserted here)."""
        train = dataset.filter_paper_scope()[:32]
        config = TrainerConfig(epochs=2, batch_size=8, patience=10)
        seq_history = Trainer(tiny_model(), config).fit(train)
        registry = MetricsRegistry()
        par_history = DataParallelTrainer(
            tiny_model(), config, ParallelConfig(num_workers=4),
            registry=registry).fit(train)
        assert np.allclose(seq_history.train_loss, par_history.train_loss,
                           rtol=1e-8, atol=1e-8)
        for worker in range(4):
            assert metric_value(registry, "rtp_train_worker_steps_total",
                                worker=str(worker)) >= 1
