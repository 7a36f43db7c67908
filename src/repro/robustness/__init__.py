"""Fault injection, ECC/scrubbing, divergence guards, and recovery.

The robustness layer of the reproduction (see ``docs/robustness.md``):

* :mod:`~repro.robustness.ecc` — SECDED codec, :class:`EccTableRam`,
  background :class:`Scrubber`;
* :mod:`~repro.robustness.faults` — deterministic seeded
  :class:`FaultInjector` (Poisson + scheduled campaigns, pipeline
  register strikes);
* :mod:`~repro.robustness.guards` — :class:`DivergenceGuard` for the
  fixed-point datapath (saturation/stuck-at/NaN, raise/clamp/quarantine);
* :mod:`~repro.robustness.checkpoint` — engine checkpoints,
  :class:`FleetSupervisor` rollback/retry/quarantine, :class:`Watchdog`
  (the process-parallel
  :class:`~repro.backends.sharded.ShardedFleetBackend` keeps its
  recovery checkpoints as shadow copies of its shared lane state and
  applies the same rollback/retry/quarantine discipline to whole worker
  processes).

Everything here is opt-in: engines built without these objects run the
exact PR-1 hot loops (one ``None`` pointer test per hook site).
"""

from .checkpoint import (
    BatchLanes,
    CheckpointStore,
    FleetSupervisor,
    SimLanes,
    SupervisorReport,
    Watchdog,
)
from .ecc import EccTableRam, Scrubber, SecDed
from .faults import FaultInjector
from .guards import DivergenceError, DivergenceGuard

__all__ = [
    "BatchLanes",
    "CheckpointStore",
    "DivergenceError",
    "DivergenceGuard",
    "EccTableRam",
    "FaultInjector",
    "FleetSupervisor",
    "Scrubber",
    "SecDed",
    "SimLanes",
    "SupervisorReport",
    "Watchdog",
]
