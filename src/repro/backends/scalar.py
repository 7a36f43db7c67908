"""Scalar fleet backend: a pure-Python loop of per-lane simulators.

This is the degenerate "no batching" design — one
:class:`~repro.core.functional.FunctionalSimulator` per lane, advanced
in a Python loop — i.e. exactly what the fleet paths did before the
vectorised backend existed, and the software analogue of Da Silva et
al.'s per-state-action baseline (:mod:`repro.baseline`).  It is kept
for two jobs:

* the **reference** the bit-identity tests and the ``fleet_throughput``
  bench compare the vectorised backend against;
* the fallback for workloads that need per-lane hooks the array program
  does not expose (per-lane tracing, heterogeneous guards).

Lane ``k`` uses ``PolicyDraws.from_config(config, salt=salts[k])``, so
both backends produce bit-identical per-lane trajectories.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.config import QTAccelConfig
from ..core.functional import FunctionalSimulator
from ..core.policies import PolicyDraws
from ..envs.base import DenseMdp
from ..fixedpoint import ops
from .base import BatchStats, lane_transitions, normalize_fleet


class ScalarFleetBackend:
    """``n_lanes`` independent scalar simulators behind the fleet surface."""

    _TELEMETRY_NAME = "batch"

    def __init__(
        self,
        mdps: "DenseMdp | Sequence[DenseMdp]",
        config: QTAccelConfig,
        *,
        num_agents: int | None = None,
        salts: Sequence[int] | None = None,
        telemetry=None,
    ):
        spec = normalize_fleet(mdps, n_lanes=num_agents, salts=salts)
        self.mdps = list(spec.mdps)
        self._homogeneous = spec.homogeneous
        self.config = config
        self.K = spec.n_lanes
        self.S, self.A = spec.num_states, spec.num_actions
        self.sims = [
            FunctionalSimulator(
                mdp, config, draws=PolicyDraws.from_config(config, salt=int(salt))
            )
            for mdp, salt in zip(self.mdps, spec.salts)
        ]
        self.stats = BatchStats(agents=self.K)
        self._guard = None

        from ..telemetry.session import current_session

        session = telemetry if telemetry is not None else current_session()
        self._session = session
        if session is not None:
            session.attach(self, self._TELEMETRY_NAME)

    @property
    def n_lanes(self) -> int:
        return self.K

    # ------------------------------------------------------------------ #
    # Guard pass-through (one DivergenceGuard observing every lane)
    # ------------------------------------------------------------------ #

    @property
    def guard(self):
        return self._guard

    @guard.setter
    def guard(self, value) -> None:
        self._guard = value
        for sim in self.sims:
            sim.guard = value

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def _sync_stats(self) -> None:
        self.stats.episodes = sum(s.stats.episodes for s in self.sims)
        self.stats.exploits = sum(s.stats.exploits for s in self.sims)
        self.stats.explores = sum(s.stats.explores for s in self.sims)

    def step(self) -> None:
        """One lock-step sample on every lane."""
        for sim in self.sims:
            sim.run(1)
        self.stats.samples_per_agent += 1
        self._sync_stats()

    def run(self, samples_per_agent: int) -> BatchStats:
        """Advance every lane by ``samples_per_agent`` updates.

        With no telemetry session the lanes run in per-lane chunks (the
        classic scalar batch loop); under a session the backend steps in
        lock-step and pulses once per step, mirroring the vectorised
        backend's live-export cadence.
        """
        if samples_per_agent < 0:
            raise ValueError("samples_per_agent must be non-negative")
        session = self._session
        if session is None:
            for sim in self.sims:
                sim.run(samples_per_agent)
            self.stats.samples_per_agent += samples_per_agent
            self._sync_stats()
        else:
            for _ in range(samples_per_agent):
                self.step()
                session.pulse()
        return self.stats

    def telemetry_snapshot(self) -> dict:
        """Fleet-level counters for a telemetry profile."""
        return {
            "agents": self.K,
            "states": self.S,
            "actions": self.A,
            "samples_per_agent": self.stats.samples_per_agent,
            "total_samples": self.stats.samples,
            "episodes": self.stats.episodes,
            "exploits": self.stats.exploits,
            "explores": self.stats.explores,
        }

    # ------------------------------------------------------------------ #
    # Lane leasing (the repro.serve surface): straight delegation to the
    # per-lane simulators, which are already the reference semantics.
    # ------------------------------------------------------------------ #

    def reset_lane(self, k: int, salt: int) -> None:
        """Replace lane ``k`` with a pristine simulator seeded by ``salt``."""
        if not 0 <= k < self.K:
            raise IndexError(f"lane {k} out of range 0..{self.K - 1}")
        sim = FunctionalSimulator(
            self.mdps[k],
            self.config,
            draws=PolicyDraws.from_config(self.config, salt=int(salt)),
        )
        sim.guard = self._guard
        self.sims[k] = sim
        self._sync_stats()

    def apply_transition(
        self,
        k: int,
        state,
        action,
        reward,
        next_state,
        terminal=False,
    ) -> int:
        """Apply external transitions to lane ``k`` — scalars or
        equal-length 1-D columns, validated up front by
        :func:`~repro.backends.base.lane_transitions` — one
        :meth:`FunctionalSimulator.apply_transition
        <repro.core.functional.FunctionalSimulator.apply_transition>` per
        row.  Returns the raw Q value the last row wrote."""
        rows = lane_transitions(self, k, state, action, reward, next_state, terminal)
        sim, fmt = self.sims[k], self.config.q_format
        q_new = 0
        for s, ns, a, t, r in zip(*rows.tolist()):
            # r is already raw; its exact float re-quantises to itself.
            q_new = sim.apply_transition(s, a, fmt.to_float(r), ns, t != 0)
        self._sync_stats()
        return q_new

    def query_action(self, k: int, state: int, explore: bool = True) -> int:
        """Recommend an action for lane ``k`` at ``state`` (no update)."""
        return self.sims[k].query_action(state, explore)

    # ------------------------------------------------------------------ #
    # Stacked views (the vectorised backend's attribute vocabulary)
    # ------------------------------------------------------------------ #

    @property
    def q(self) -> np.ndarray:
        """Stacked raw Q tables, ``(n_lanes, S*A)`` (a fresh copy)."""
        return np.stack([s.tables.q.data.copy() for s in self.sims])

    @property
    def qmax(self) -> np.ndarray:
        """Stacked raw Qmax rows, ``(n_lanes, S)`` (a fresh copy)."""
        return np.stack([s.tables.qmax.data.copy() for s in self.sims])

    @property
    def qmax_action(self) -> np.ndarray:
        """Stacked cached argmax rows, ``(n_lanes, S)`` (a fresh copy)."""
        return np.stack([s.tables.qmax_action.data.copy() for s in self.sims])

    def _stacked_extra(self, name: str) -> "np.ndarray | None":
        if name not in self.config.rule.extra_tables:
            return None
        return np.stack(
            [s.tables.extra_rams[name].data.copy() for s in self.sims]
        )

    @property
    def momentum(self) -> "np.ndarray | None":
        """Stacked momentum tables, ``(n_lanes, S*A)``, or ``None`` when
        the configured rule allocates none (matches the vectorised
        backend's attribute vocabulary)."""
        return self._stacked_extra("momentum")

    @property
    def target(self) -> "np.ndarray | None":
        """Stacked target tables, ``(n_lanes, S*A)``, or ``None``."""
        return self._stacked_extra("target")

    # ------------------------------------------------------------------ #
    # Checkpointing (see repro.robustness.checkpoint)
    # ------------------------------------------------------------------ #

    def state_dict(self) -> dict:
        """Per-lane checkpoints plus the aggregate stats."""
        return {
            "lanes": [sim.state_dict() for sim in self.sims],
            "stats": vars(self.stats).copy(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` checkpoint in place."""
        lanes = state["lanes"]
        if len(lanes) != len(self.sims):
            raise ValueError(
                f"checkpoint has {len(lanes)} lanes, fleet has {len(self.sims)}"
            )
        for sim, lane in zip(self.sims, lanes):
            sim.load_state_dict(lane)
        for key, value in state["stats"].items():
            setattr(self.stats, key, value)

    def lane_state(self, k: int, state: dict | None = None) -> dict:
        """Lane ``k``'s checkpoint (default: freshly taken)."""
        if state is None:
            return self.sims[k].state_dict()
        return state["lanes"][k]

    def load_lane_state(self, k: int, lane: dict) -> None:
        """Restore one lane, leaving the others untouched."""
        self.sims[k].load_state_dict(lane)

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #

    def q_float(self, agent: int) -> np.ndarray:
        """Lane ``agent``'s Q table as floats, ``(S, A)``."""
        return self.sims[agent].q_float()

    def q_float_all(self) -> np.ndarray:
        """All Q tables, ``(n_lanes, S, A)``."""
        return ops.to_float_array(self.q.reshape(self.K, self.S, self.A),
                                  self.config.q_format)
