"""Fleet execution backends: the same learners, different array programs.

``n_lanes`` independent QTAccel learners can be advanced by any of
four interchangeable backends (see :mod:`repro.backends.base` for the
shared :class:`FleetBackend` surface):

* ``"vectorized"`` (default) — :class:`VectorizedFleetBackend`, lanes
  as numpy array programs (the software analogue of Fig. 9's replicated
  pipelines; 1-2 orders of magnitude faster);
* ``"scalar"`` — :class:`ScalarFleetBackend`, a pure-Python loop of
  per-lane functional simulators (the reference baseline);
* ``"sharded"`` — :class:`ShardedFleetBackend`, the vectorized program
  partitioned into contiguous lane shards, one spawn-safe
  ``multiprocessing`` worker per shard with all per-lane state in a
  ``multiprocessing.shared_memory`` block (multi-core scaling with
  checkpointed crash recovery; remember to ``close()`` it);
* ``"native"`` — :class:`NativeFleetBackend`, the whole lock-step
  program fused into one C kernel pass per chunk of steps, compiled at
  first use; raises :class:`NativeBackendUnavailableError` when no C
  compiler exists (see :func:`fleet_backend_availability`).

All are bit-identical per lane to a scalar
:class:`~repro.core.functional.FunctionalSimulator` with the same salt.
Select one via :func:`make_fleet_backend`,
``BatchIndependentSimulator(..., backend=...)`` or
``repro.make_engine(..., engine="batch"|"vectorized"|"sharded"|"native")``.
"""

from .base import (
    BatchStats,
    FleetBackend,
    FleetSpec,
    FleetStats,
    fleet_backend_availability,
    fleet_backends,
    lane_transitions,
    make_fleet_backend,
    normalize_fleet,
    resolve_fleet_backend,
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
    "FleetStats",
    "NativeBackendUnavailableError",
    "NativeFleetBackend",
    "ScalarFleetBackend",
    "ShardedFleetBackend",
    "VectorizedFleetBackend",
    "fleet_backend_availability",
    "fleet_backends",
    "lane_transitions",
    "make_fleet_backend",
    "native_available",
    "normalize_fleet",
    "resolve_fleet_backend",
]
