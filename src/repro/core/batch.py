"""Fleet-of-independent-agents simulator, backed by a selectable backend.

:class:`BatchIndependentSimulator` is the stable fleet API; the actual
array program lives in :mod:`repro.backends`:

* ``backend="vectorized"`` (default) —
  :class:`~repro.backends.vectorized.VectorizedFleetBackend`: lanes
  advanced in numpy lock-step, Q tables stacked ``(n_lanes, |S|, |A|)``;
* ``backend="scalar"`` —
  :class:`~repro.backends.scalar.ScalarFleetBackend`: a pure-Python
  loop of per-lane functional simulators (the reference baseline the
  ``fleet_throughput`` bench measures the speedup against);
* ``backend="sharded"`` —
  :class:`~repro.backends.sharded.ShardedFleetBackend`: the fleet
  partitioned into per-process lane shards over shared memory, each
  running the native kernel (the vectorized program without a
  compiler) (multi-core scaling; accepts ``num_workers=``/``epoch=``
  and needs a ``close()`` when done).

Whatever the backend, lane ``k`` seeded with ``salts[k]`` produces
exactly the trajectory of a scalar
:class:`~repro.core.functional.FunctionalSimulator` built with
``PolicyDraws.from_config(config, salt=salts[k])`` — draws, lag
semantics, Qmax rules and all (asserted by the test suite).

Agents may share one world (ensemble training on the same map) or each
own a same-shaped world (the partitioned tiles of
:func:`repro.envs.multi_agent.partition_grid`).
"""

from __future__ import annotations

from typing import Sequence

from ..backends.base import BatchStats, resolve_fleet_backend
from ..backends.vectorized import VectorizedFleetBackend
from ..envs.base import DenseMdp
from .config import QTAccelConfig

__all__ = ["BatchIndependentSimulator", "BatchStats"]


class BatchIndependentSimulator(VectorizedFleetBackend):
    """K independent QTAccel agents behind one lane-oriented interface.

    The default instance *is* the vectorised backend (full attribute
    compatibility with the historical batch engine); ``backend="scalar"``
    returns the scalar lane-loop instead — both satisfy
    :class:`repro.backends.FleetBackend`.
    """

    def __new__(
        cls,
        mdps: "DenseMdp | Sequence[DenseMdp]" = None,
        config: QTAccelConfig = None,
        *,
        backend: str = "vectorized",
        **kw,
    ):
        impl = resolve_fleet_backend(backend)
        if cls is BatchIndependentSimulator and not issubclass(cls, impl):
            # Non-default backend: construct it fully here; Python skips
            # __init__ because the result is not an instance of cls.
            return impl(mdps, config, **kw)
        return super().__new__(cls)

    def __init__(
        self,
        mdps: "DenseMdp | Sequence[DenseMdp]",
        config: QTAccelConfig,
        *,
        num_agents: int | None = None,
        salts: Sequence[int] | None = None,
        telemetry=None,
        backend: str = "vectorized",
    ):
        super().__init__(
            mdps, config, num_agents=num_agents, salts=salts, telemetry=telemetry
        )
