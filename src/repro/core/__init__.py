"""QTAccel core: the paper's contribution.

* :class:`QTAccelConfig` — one pipeline's static configuration.
* :class:`QTAccelPipeline` — the cycle-accurate 4-stage pipeline.
* :class:`FunctionalSimulator` — the bit-identical fast path.
* :class:`QLearningAccelerator` / :class:`SarsaAccelerator` — user API.
* :mod:`repro.core.metrics` — convergence/throughput metrics.
"""

from .accelerator import (
    QLearningAccelerator,
    QTAccelAccelerator,
    RunResult,
    SarsaAccelerator,
)
from .config import HAZARD_MODES, QMAX_MODES, QTAccelConfig
from .engine import ENGINE_KINDS, Engine, make_engine
from .functional import FunctionalSimulator, FunctionalStats
from .hazards import ForwardingView, Sample
from .metrics import (
    ConvergenceReport,
    convergence_report,
    greedy_rollout,
    policy_agreement,
    q_rmse,
    success_rate,
)
from ..backends.base import BatchStats
from .prob_policy import (
    BoltzmannSimulator,
    BoltzmannStats,
    boltzmann_weights,
    selection_cycles,
)
from .bandit_accel import (
    BanditRunStats,
    EpsilonGreedyBanditAccelerator,
    Exp3Accelerator,
    StatefulBanditAccelerator,
    Ucb1Accelerator,
    bandit_cycles_per_sample,
)
from .multi_pipeline import (
    IndependentPipelines,
    IndependentPipelinesCycle,
    IndependentRunStats,
    SharedFunctionalResult,
    SharedPipelines,
    SharedRunStats,
    max_independent_pipelines,
    run_shared_functional,
)
from .pipeline import PipelineStats, QTAccelPipeline
from .policies import PolicyDraws, egreedy_cut, select_behavior, select_update
from .tables import AcceleratorTables, apply_qmax_rule

__all__ = [
    "QTAccelConfig",
    "Engine",
    "ENGINE_KINDS",
    "make_engine",
    "HAZARD_MODES",
    "QMAX_MODES",
    "QTAccelPipeline",
    "PipelineStats",
    "FunctionalSimulator",
    "FunctionalStats",
    "AcceleratorTables",
    "PolicyDraws",
    "select_behavior",
    "select_update",
    "egreedy_cut",
    "ForwardingView",
    "Sample",
    "QTAccelAccelerator",
    "QLearningAccelerator",
    "SarsaAccelerator",
    "RunResult",
    "ConvergenceReport",
    "convergence_report",
    "policy_agreement",
    "q_rmse",
    "success_rate",
    "greedy_rollout",
    "apply_qmax_rule",
    "SharedPipelines",
    "SharedRunStats",
    "SharedFunctionalResult",
    "run_shared_functional",
    "IndependentPipelines",
    "IndependentPipelinesCycle",
    "IndependentRunStats",
    "max_independent_pipelines",
    "EpsilonGreedyBanditAccelerator",
    "Exp3Accelerator",
    "StatefulBanditAccelerator",
    "Ucb1Accelerator",
    "BanditRunStats",
    "bandit_cycles_per_sample",
    "BatchStats",
    "BoltzmannSimulator",
    "BoltzmannStats",
    "boltzmann_weights",
    "selection_cycles",
]
