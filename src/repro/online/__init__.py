"""Online continual learning: live routes → retrain → gated rollout.

The subsystem that closes the data loop (PR 9).  Completed routes flow
from the serving tier into an :class:`ExperienceBuffer`; a
:class:`RetrainPolicy` converts drift alarms, sample watermarks and
schedules into retrain triggers; an :class:`OnlineTrainer` fine-tunes a
copy of the active model over the experience window with bit-reproducible
checkpoint/optimizer resume; an :class:`AntiRegressionGate` decides
whether the student may ship; and :class:`OnlineLoop` orchestrates the
whole ``serve → quality → drift → retrain → registry → canary`` cycle.

PR 10 makes the loop forgetting-aware: the gate scores a *mixture*
holdout (frozen clean slice + recent shifted window) under a
``max_clean_regression_ratio`` budget, fine-tunes interleave a seeded
replay sample from the reservoir, and a :class:`ModelZoo` keyed on the
buffer's weather regime labels re-activates a remembered specialist
when a regime returns instead of retraining.
"""

from .buffer import Experience, ExperienceBuffer, instance_from_feedback
from .loop import OnlineLoop, OnlineLoopConfig, load_loop_state
from .policy import (AntiRegressionGate, GateConfig, GateResult,
                     RetrainPolicy, RetrainPolicyConfig, RetrainTrigger)
from .trainer import FineTuneResult, OnlineTrainer, OnlineTrainerConfig
from .zoo import ModelZoo, majority_regime, weather_regime

__all__ = [
    "AntiRegressionGate",
    "Experience",
    "ExperienceBuffer",
    "FineTuneResult",
    "GateConfig",
    "GateResult",
    "ModelZoo",
    "OnlineLoop",
    "OnlineLoopConfig",
    "OnlineTrainer",
    "OnlineTrainerConfig",
    "RetrainPolicy",
    "RetrainPolicyConfig",
    "RetrainTrigger",
    "instance_from_feedback",
    "load_loop_state",
    "majority_regime",
    "weather_regime",
]
