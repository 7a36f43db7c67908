"""Fast functional simulator with pipeline-identical semantics.

The cycle-accurate pipeline's forwarding network makes its update stream
*sequential*: each sample reads the values all older samples wrote (with
one documented exception, see below).  The functional simulator therefore
executes the same algorithm as a plain sequential loop — same LFSR draw
discipline, same fixed-point kernels, same monotonic Qmax write path —
and produces the *bit-identical* Q-table trajectory at a fraction of the
cost.  The test suite asserts that equivalence sample by sample.

The exception: a SARSA episode-restart behaviour read happens in stage 1
while the immediately preceding sample's update is still two stages from
existing, so in hardware that read lags by exactly one sample.  With
``behavior_lag=True`` (default, matching ``hazard_mode="forward"``) the
functional simulator reproduces the lag by reading around the last write;
``behavior_lag=False`` gives strictly sequential semantics (matching
``hazard_mode="stall"``).

Unlike the pipeline, the functional simulator also supports the
``qmax_mode="exact"`` ablation (recomputed row maxima).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..envs.base import DenseMdp
from ..fixedpoint import ops
from .config import QTAccelConfig
from .pipeline import TraceRecord
from .policies import (
    PolicyDraws,
    draw_start_state,
    egreedy_select,
    select_behavior,
    select_update,
)
from .runstats import RunStatsContract
from .tables import AcceleratorTables, is_index


@dataclass
class FunctionalStats(RunStatsContract):
    """Counters accumulated by the functional simulator.

    Satisfies the shared run-stats contract (:mod:`repro.core.runstats`):
    ``samples`` is a plain counter field and ``cycles`` is ``None`` —
    the functional engine has no clock.
    """

    samples: int = 0
    episodes: int = 0
    exploits: int = 0
    explores: int = 0


@dataclass
class _LastWrite:
    """The most recent write, for the lagged stage-1 view."""

    pair: int = -1
    state: int = -1
    prev_q: int = 0
    prev_qmax: int = 0
    prev_qmax_action: int = 0


class FunctionalSimulator:
    """Sequential-semantics QTAccel simulator (the HPC fast path)."""

    def __init__(
        self,
        mdp: DenseMdp,
        config: QTAccelConfig,
        *,
        tables: Optional[AcceleratorTables] = None,
        draws: Optional[PolicyDraws] = None,
        behavior_lag: bool = True,
    ):
        self.mdp = mdp
        self.config = config
        self.tables = tables if tables is not None else AcceleratorTables(mdp, config)
        self.draws = draws if draws is not None else PolicyDraws.from_config(config)
        (_, _, self.one_minus_alpha, self.alpha_gamma) = config.coefficients()
        self.alpha_raw = config.coefficients()[0]
        self.behavior_lag = behavior_lag
        #: The configured stage-3 update rule and its raw coefficients
        #: (see :mod:`repro.algorithms`).  The plain rules keep the
        #: original inline hot path; the accelerated kinds branch.
        self.rule = config.rule
        self._rule_kind = self.rule.kind
        self._rule_coefs = self.rule.coefficients(config)
        self._on_policy = config.is_on_policy
        #: Updates since the last hard target sync (target rule with
        #: ``target_sync_period > 0`` only).
        self._target_count = 0

        self.arch_state: Optional[int] = None
        self._forwarded_action: Optional[int] = None
        self._last_write = _LastWrite()
        self.stats = FunctionalStats()
        self.trace: Optional[list[TraceRecord]] = None
        #: Optional per-sample state log (for collision studies).
        self.state_log: Optional[list[int]] = None
        #: Optional :class:`repro.robustness.guards.DivergenceGuard`
        #: observing every stage-3 result.  None (the default) keeps the
        #: hot loop free of robustness overhead.
        self.guard = None

    # ------------------------------------------------------------------ #
    # Lagged stage-1 read view
    # ------------------------------------------------------------------ #

    def _read_q_behavior(self, state: int, action: int) -> int:
        pair = self.tables.pair_addr(state, action)
        if self.behavior_lag and pair == self._last_write.pair:
            return self._last_write.prev_q
        return self.tables.q.read(pair)

    def _read_qmax_behavior(self, state: int) -> tuple[int, int]:
        if self.behavior_lag and state == self._last_write.state:
            return self._last_write.prev_qmax, self._last_write.prev_qmax_action
        return self.tables.read_qmax(state)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def run(self, num_samples: int) -> FunctionalStats:
        """Execute ``num_samples`` updates sequentially."""
        if num_samples < 0:
            raise ValueError("num_samples must be non-negative")
        cfg = self.config
        T = self.tables
        mdp = self.mdp
        draws = self.draws
        on_policy = self._on_policy
        next_state = mdp.next_state
        terminal = T.terminal
        guard = self.guard
        retire = self._retire

        for _ in range(num_samples):
            # -------- stage-1 equivalent: state + behaviour action -------- #
            if self.arch_state is None:
                state = draw_start_state(draws, mdp.start_states)
                restart = True
            else:
                state = self.arch_state
                restart = False

            forwarded = None
            if on_policy and not restart:
                forwarded = self._forwarded_action
                if forwarded is None:
                    raise AssertionError("on-policy sample without forwarded action")
            action = select_behavior(
                state,
                config=cfg,
                draws=draws,
                forwarded_action=forwarded,
                read_qmax=self._read_qmax_behavior,
                read_q=self._read_q_behavior,
                num_actions=T.num_actions,
            )
            s_next = int(next_state[state, action])
            r = T.rewards.read(T.pair_addr(state, action))
            retire(state, action, r, s_next, bool(terminal[s_next]), guard)

        return self.stats

    def _retire(
        self,
        state: int,
        action: int,
        r: int,
        s_next: int,
        terminal: bool,
        guard,
    ) -> int:
        """Stages 2-4 of one sample: update-policy draw, the rule's
        stage-3 datapath, write-back and the lag/episode latches.

        The one retire body shared by :meth:`run` (stage 1 and the
        environment supply the operands) and :meth:`apply_transition`
        (the caller supplies them).  ``r`` is the raw quantised reward;
        ``guard`` (or None) observes the stage-3 result.  Returns the raw
        written Q value.
        """
        cfg = self.config
        T = self.tables
        rule_kind = self._rule_kind
        coef_fmt = cfg.coef_format
        q_fmt = cfg.q_format
        pair = T.pair_addr(state, action)
        q_sa = T.q.read(pair)

        # -------- stage-2 equivalent: update policy -------- #
        sel = select_update(
            s_next,
            config=cfg,
            draws=self.draws,
            read_qmax=T.read_qmax,
            read_q=T.read_q,
            num_actions=T.num_actions,
        )
        if sel.exploited:
            self.stats.exploits += 1
        else:
            self.stats.explores += 1
        if rule_kind == "target" and not terminal:
            # Select-online / evaluate-target: the argmax comes from the
            # online Qmax cache, the bootstrap value from the target table.
            q_next = T.target.read(T.pair_addr(s_next, sel.action))
        else:
            q_next = 0 if terminal else sel.q_raw

        # -------- stage-3 equivalent: datapath -------- #
        if rule_kind == "momentum":
            q_new = ops.q_update_momentum(
                q_sa,
                r,
                q_next,
                T.momentum.read(pair),
                alpha=self.alpha_raw,
                one_minus_alpha=self.one_minus_alpha,
                alpha_gamma=self.alpha_gamma,
                beta=self._rule_coefs.beta,
                coef_fmt=coef_fmt,
                q_fmt=q_fmt,
            )
        else:
            q_new = ops.q_update(
                q_sa,
                r,
                q_next,
                alpha=self.alpha_raw,
                one_minus_alpha=self.one_minus_alpha,
                alpha_gamma=self.alpha_gamma,
                coef_fmt=coef_fmt,
                q_fmt=q_fmt,
            )
        if guard is not None:
            q_new = guard.observe_update(state, action, q_new, q_fmt)

        # -------- stage-4 equivalent: write-back -------- #
        lw = self._last_write
        lw.pair = pair
        lw.state = state
        lw.prev_q = q_sa
        if T._ecc:
            # Decode the raw words the lagged view snapshots below (ECC
            # tables only; plain tables skip the branch).
            T.qmax.scrub_word(state)
            T.qmax_action.scrub_word(state)
        lw.prev_qmax = int(T.qmax.data[state])
        lw.prev_qmax_action = int(T.qmax_action.data[state])
        T.writeback_now(state, action, q_new)
        if rule_kind == "momentum":
            # Historical iterate: M(s,a) <- the pre-update Q(s,a).
            T.momentum.write_now(pair, q_sa)
        elif rule_kind == "target":
            # Lazy Polyak RMW of the written entry, then the optional
            # periodic hard sync.
            coefs = self._rule_coefs
            t_new = ops.polyak_update(
                T.target.read(pair),
                q_new,
                tau=coefs.tau,
                one_minus_tau=coefs.one_minus_tau,
                coef_fmt=coef_fmt,
                q_fmt=q_fmt,
            )
            T.target.write_now(pair, t_new)
            self._target_count += 1
            if cfg.target_sync_period and self._target_count >= cfg.target_sync_period:
                T.sync_target()
                self._target_count = 0

        if self.trace is not None:
            self.trace.append((self.stats.samples, state, action, q_new))
        if self.state_log is not None:
            self.state_log.append(state)
        self.stats.samples += 1

        if terminal:
            self.arch_state = None
            self._forwarded_action = None
            self.stats.episodes += 1
        else:
            self.arch_state = s_next
            self._forwarded_action = sel.action if self._on_policy else None
        return q_new

    # ------------------------------------------------------------------ #
    # Externally driven transitions (the repro.serve ingress surface)
    # ------------------------------------------------------------------ #

    def apply_transition(
        self,
        state: int,
        action: int,
        reward: float,
        next_state: int,
        terminal: bool = False,
    ) -> int:
        """Apply one externally supplied ``(s, a, r, s')`` transition.

        This is stages 2-4 of the accelerator with stage 1 replaced by
        the caller: the environment lookup and behaviour draw are
        skipped (the client chose the action and observed the reward),
        so the only randomness consumed is the update-policy draw of an
        e-greedy configuration — exactly one ``policy`` LFSR word, as
        in :meth:`run`.  The reward is quantised into ``q_format`` on
        ingress (the hardware preloads quantised reward tables; an
        external sample quantises at the same point).

        Interleaving :meth:`apply_transition` with :meth:`run` is
        well-defined: both retire through the same stage-2/3/4 body, so
        the lag latch, episode latch and forwarded-action latch are
        updated exactly as a :meth:`run` sample would.  Divergence guards
        are not consulted on this path (it must stay bit-identical to
        the fleet backends' lane ops, which have no guard hook).  Returns
        the raw written Q value.
        """
        S, A = self.tables.num_states, self.tables.num_actions
        for name, value, bound in (
            ("state", state, S), ("action", action, A), ("next_state", next_state, S)
        ):
            if not is_index(value) or not 0 <= value < bound:
                raise ValueError(f"{name} {value!r} out of range [0, {bound})")
        r = self.config.q_format.quantize(float(reward))
        return self._retire(state, action, r, next_state, terminal, None)

    def query_action(self, state: int, explore: bool = True) -> int:
        """Recommend an action for ``state`` without updating any table.

        ``explore=True`` runs the single-draw e-greedy circuit (one
        ``policy`` LFSR word against the committed tables — queries are
        not samples, so the lagged stage-1 view does not apply);
        ``explore=False`` is a pure Qmax-action read and consumes no
        randomness.  Stats counters are untouched either way.
        """
        T = self.tables
        if not is_index(state) or not 0 <= state < T.num_states:
            raise ValueError(f"state {state!r} out of range [0, {T.num_states})")
        if not explore:
            return T.read_qmax(state)[1]
        return egreedy_select(
            state,
            epsilon=self.config.epsilon,
            draws=self.draws,
            read_qmax=T.read_qmax,
            read_q=T.read_q,
            num_actions=T.num_actions,
        ).action

    def enable_trace(self) -> list[TraceRecord]:
        """Start recording (index, s, a, q_new) per sample."""
        self.trace = []
        return self.trace

    # ------------------------------------------------------------------ #
    # Checkpointing (see repro.robustness.checkpoint)
    # ------------------------------------------------------------------ #

    def state_dict(self) -> dict:
        """Full architectural checkpoint: resuming from it replays the
        exact trajectory an uninterrupted run would produce."""
        lw = self._last_write
        return {
            "tables": self.tables.state_dict(),
            "draws": self.draws.state_dict(),
            "arch_state": self.arch_state,
            "forwarded_action": self._forwarded_action,
            "last_write": (lw.pair, lw.state, lw.prev_q, lw.prev_qmax, lw.prev_qmax_action),
            "stats": vars(self.stats).copy(),
            "rule": self.rule.state_dict(self.tables, self._target_count),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` checkpoint in place."""
        self.tables.load_state_dict(state["tables"])
        self.draws.load_state_dict(state["draws"])
        self.arch_state = state["arch_state"]
        self._forwarded_action = state["forwarded_action"]
        lw = self._last_write
        (lw.pair, lw.state, lw.prev_q, lw.prev_qmax, lw.prev_qmax_action) = state[
            "last_write"
        ]
        for key, value in state["stats"].items():
            setattr(self.stats, key, value)
        rule_state = state.get("rule")
        self._target_count = (
            self.rule.load_state_dict(rule_state) if rule_state is not None else 0
        )

    def q_float(self) -> np.ndarray:
        """Current Q table as floats, ``(S, A)``."""
        return self.tables.q_float_matrix()
