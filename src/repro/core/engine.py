"""Unified engine construction: :func:`make_engine` and the :class:`Engine` protocol.

:func:`make_engine` is the one way to name and build a QTAccel engine
(see ``docs/api.md``), and :data:`ENGINE_KINDS` is the one list of
engine names.  Everything it returns satisfies :class:`Engine`:

* ``run(num_samples)`` — advance the engine, returning its stats;
* ``state_dict()`` / ``load_state_dict(state)`` — full architectural
  checkpoint (replaying from it reproduces the uninterrupted run);
* ``stats`` — a live counter object satisfying the shared run-stats
  contract (:mod:`repro.core.runstats`): ``.samples``, ``.cycles``,
  ``.as_dict()``.

Engine kinds
------------

======================  ====================================================
``engine=``             constructs
======================  ====================================================
``"functional"``        :class:`~repro.core.functional.FunctionalSimulator`
                        (default; sequential semantics, fastest scalar path)
``"pipeline"``          :class:`~repro.core.pipeline.QTAccelPipeline`
                        (cycle-accurate 4-stage pipeline)
``"scalar"``            :class:`~repro.backends.scalar.ScalarFleetBackend`
                        (a Python loop of per-lane functional simulators;
                        the reference fleet)
``"vectorized"``        :class:`~repro.backends.vectorized.VectorizedFleetBackend`
                        (the numpy lock-step array program)
``"native"``            :class:`~repro.backends.native.NativeFleetBackend`
                        (the lock-step program fused into one compiled
                        C kernel pass, compiled at first use; raises a typed
                        :class:`~repro.backends.native.NativeBackendUnavailableError`
                        when no C compiler exists)
``"sharded"``           :class:`~repro.backends.sharded.ShardedFleetBackend`
                        (lane shards across ``num_workers`` processes over
                        shared memory; remember to ``close()`` it)
======================  ====================================================

Scalar engines (``functional``/``pipeline``) take one ``mdp``; the fleet
engines (:data:`FLEET_KINDS`) take ``mdps`` — a single shared world plus
``num_agents``, or a sequence of same-shaped worlds.  Either keyword is
accepted for either kind (a lone world is a fleet of one description; a
one-element fleet spec is a world), so callers can write
``make_engine(cfg, mdp=world, engine="vectorized", num_agents=64)``.

Update rules
------------

Every engine kind honours ``config.update_rule`` (see
:mod:`repro.algorithms`): plain Q-Learning/SARSA plus the accelerated
``momentum_qlearning`` and ``target_qlearning`` rules run bit-identically
across every kind.  Rule errors are typed and raised as early as
possible: an unknown name or an incompatible policy combination fails at
``QTAccelConfig`` construction
(:class:`~repro.algorithms.UnknownUpdateRuleError`,
:class:`~repro.algorithms.IncompatibleRuleError`), and a combination a
specific engine cannot honour fails inside :func:`make_engine` from that
engine's constructor
(:class:`~repro.algorithms.UnsupportedRuleError` — currently only the
cycle-accurate pipeline with a hard ``target_sync_period``, because a
wholesale table copy has no single-cycle hardware analogue; use the
default Polyak-only sync, or a fleet/functional engine).
"""

from __future__ import annotations

from typing import Any, Optional, Protocol, Sequence, runtime_checkable

from ..envs.base import DenseMdp
from .config import QTAccelConfig

__all__ = ["Engine", "ENGINE_KINDS", "FLEET_KINDS", "make_engine"]

#: Recognised ``engine=`` spellings, in documentation order.
ENGINE_KINDS = ("functional", "pipeline", "scalar", "vectorized", "native", "sharded")

#: The fleet kinds: every engine after the two single-world ones.
FLEET_KINDS = ENGINE_KINDS[2:]


@runtime_checkable
class Engine(Protocol):
    """Structural contract every :func:`make_engine` product satisfies.

    ``runtime_checkable`` so ``isinstance(obj, Engine)`` works, with the
    usual caveat: the check sees method *presence*, not signatures.
    """

    stats: Any

    def run(self, num_samples: int) -> Any:
        """Advance by ``num_samples`` updates; returns the stats object."""
        ...

    def state_dict(self) -> dict:
        """Full architectural checkpoint."""
        ...

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` checkpoint in place."""
        ...


def _fleet_worlds(
    engine: str,
    mdp: Optional[DenseMdp],
    mdps: "Optional[DenseMdp | Sequence[DenseMdp]]",
) -> "DenseMdp | Sequence[DenseMdp]":
    if mdp is not None and mdps is not None:
        raise TypeError(f"make_engine(engine={engine!r}): pass mdp or mdps, not both")
    worlds = mdps if mdps is not None else mdp
    if worlds is None:
        raise TypeError(f"make_engine(engine={engine!r}) requires mdp or mdps")
    return worlds


def _scalar_world(
    engine: str,
    mdp: Optional[DenseMdp],
    mdps: "Optional[DenseMdp | Sequence[DenseMdp]]",
) -> DenseMdp:
    if mdp is not None and mdps is not None:
        raise TypeError(f"make_engine(engine={engine!r}): pass mdp or mdps, not both")
    world = mdp if mdp is not None else mdps
    if world is None:
        raise TypeError(f"make_engine(engine={engine!r}) requires an mdp")
    if not isinstance(world, DenseMdp):
        seq = list(world)
        if len(seq) != 1:
            raise TypeError(
                f"make_engine(engine={engine!r}) runs a single world; got "
                f"{len(seq)} mdps — use a fleet engine {FLEET_KINDS} for fleets"
            )
        world = seq[0]
    return world


def make_engine(
    config: QTAccelConfig,
    *,
    engine: str = "functional",
    mdp: Optional[DenseMdp] = None,
    mdps: "Optional[DenseMdp | Sequence[DenseMdp]]" = None,
    **kw,
) -> Engine:
    """Construct a QTAccel execution engine.

    Extra keyword arguments pass through to the chosen constructor —
    e.g. ``behavior_lag=``/``draws=`` for ``"functional"``,
    ``stage2_latency=``/``telemetry=`` for ``"pipeline"``,
    ``num_agents=``/``salts=``/``telemetry=`` for the fleet kinds, plus
    ``num_workers=``/``epoch=`` for ``"sharded"``.

    >>> sim = make_engine(QTAccelConfig.qlearning(), mdp=world)
    >>> fleet = make_engine(cfg, engine="vectorized", mdps=world, num_agents=256)
    """
    if not isinstance(config, QTAccelConfig):
        raise TypeError(
            f"make_engine: config must be a QTAccelConfig, got "
            f"{type(config).__name__} {config!r}"
        )
    if engine == "functional":
        from .functional import FunctionalSimulator

        return FunctionalSimulator(_scalar_world(engine, mdp, mdps), config, **kw)
    if engine == "pipeline":
        from .pipeline import QTAccelPipeline

        return QTAccelPipeline(_scalar_world(engine, mdp, mdps), config, **kw)
    if engine == "scalar":
        from ..backends.scalar import ScalarFleetBackend

        return ScalarFleetBackend(_fleet_worlds(engine, mdp, mdps), config, **kw)
    if engine == "vectorized":
        from ..backends.vectorized import VectorizedFleetBackend

        return VectorizedFleetBackend(_fleet_worlds(engine, mdp, mdps), config, **kw)
    if engine == "native":
        from ..backends.native import NativeFleetBackend

        return NativeFleetBackend(_fleet_worlds(engine, mdp, mdps), config, **kw)
    if engine == "sharded":
        from ..backends.sharded import ShardedFleetBackend

        return ShardedFleetBackend(_fleet_worlds(engine, mdp, mdps), config, **kw)
    raise ValueError(
        f"engine: unknown value {engine!r}; choose one of {ENGINE_KINDS}"
    )
