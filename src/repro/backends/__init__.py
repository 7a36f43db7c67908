"""Fleet execution backends: the same learners, different array programs.

``n_lanes`` independent QTAccel learners can be advanced by any of
four interchangeable backends (see :mod:`repro.backends.base` for the
shared :class:`FleetBackend` surface):

* ``"vectorized"`` — :class:`VectorizedFleetBackend`, lanes
  as numpy array programs (the software analogue of Fig. 9's replicated
  pipelines; 1-2 orders of magnitude faster);
* ``"scalar"`` — :class:`ScalarFleetBackend`, a pure-Python loop of
  per-lane functional simulators (the reference baseline);
* ``"sharded"`` — :class:`ShardedFleetBackend`, the fleet partitioned
  into contiguous lane shards, one spawn-safe ``multiprocessing``
  worker per shard running the native kernel (the vectorized program
  without a compiler), with all per-lane state in a
  ``multiprocessing.shared_memory`` block that the parent's own copy of
  the program serves lane ops from (multi-core scaling with
  checkpointed crash recovery; remember to ``close()`` it);
* ``"native"`` — :class:`NativeFleetBackend`, the whole lock-step
  program fused into one C kernel pass per chunk of steps, compiled at
  first use; raises :class:`NativeBackendUnavailableError` when no C
  compiler exists (probe with :func:`native_available`).

All are bit-identical per lane to a scalar
:class:`~repro.core.functional.FunctionalSimulator` with the same salt.
Build one with ``repro.make_engine(config, engine=<name>, mdps=...)``;
the names are the fleet part of :data:`repro.ENGINE_KINDS`.
"""

from .base import (
    BatchStats,
    FleetBackend,
    FleetSpec,
    lane_transitions,
    normalize_fleet,
)
from .native import (
    NativeBackendUnavailableError,
    NativeFleetBackend,
    native_available,
)
from .scalar import ScalarFleetBackend
from .sharded import ShardedFleetBackend
from .vectorized import VectorizedFleetBackend

__all__ = [
    "BatchStats",
    "FleetBackend",
    "FleetSpec",
    "NativeBackendUnavailableError",
    "NativeFleetBackend",
    "ScalarFleetBackend",
    "ShardedFleetBackend",
    "VectorizedFleetBackend",
    "lane_transitions",
    "native_available",
    "normalize_fleet",
]
