"""Vectorised NumPy fleet backend: ``n_lanes`` learners as one array program.

The Fig. 9 deployment — N pipelines, each learning its own Q table —
is embarrassingly parallel, which in numpy terms means every per-sample
quantity becomes a length-``n_lanes`` *lane* vector: LFSR banks step
``n_lanes`` registers in three ops, table reads are fancy-indexed
gathers, write-backs are per-lane-row scatters (no conflicts: each lane
owns its row), and the 4-multiplier fixed-point update rule
``(1 - a)*Q + a*R + a*g*Qmax[s']`` runs through the same integer array
kernel the scalar simulators use — fixed-point configs therefore come
for free via int64 dtype arithmetic.

Bit-fidelity is the design constraint, not an afterthought: lane ``k``
of a :class:`VectorizedFleetBackend` seeded with ``salts[k]`` produces
exactly the trajectory of a scalar
:class:`~repro.core.functional.FunctionalSimulator` built with
``PolicyDraws.from_config(config, salt=salts[k])`` — draws, lag
semantics, Qmax rules and all (asserted by the test suite).  That makes
this backend a drop-in for large fleet studies at 1-2 orders of
magnitude the scalar throughput (see the ``fleet_throughput`` bench).

Lanes may share one world (ensemble training on the same map) or each
own a same-shaped world (the partitioned tiles of
:func:`repro.envs.multi_agent.partition_grid`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.config import QTAccelConfig
from ..core.policies import egreedy_cut
from ..core.tables import apply_qmax_rule
from ..envs.base import DenseMdp
from ..fixedpoint import ops
from ..rtl.lfsr import Lfsr
from ..rtl.lfsr_batch import LfsrBank
from ..rtl.rng import DECIMATION
from .base import (
    LFSR_STREAMS,
    BatchStats,
    LaneLayout,
    check_lane,
    check_query,
    checkpoint_field,
    lane_transitions,
    normalize_fleet,
)

_I64 = np.int64

#: Cached per-width leap tables for the scalar per-lane draws of the
#: serving surface (``apply_transition``/``query_action``).  The tables
#: are the same ``Lfsr._leap_table`` LUTs the banks gather from, so a
#: scalar lane draw is bit-identical to one ``UniformSource.bits()``.
_LANE_LEAP_TABLES: dict[int, list[int]] = {}


def _lane_leap_table(width: int) -> list[int]:
    table = _LANE_LEAP_TABLES.get(width)
    if table is None:
        table = Lfsr(width, seed=1)._leap_table(DECIMATION)
        _LANE_LEAP_TABLES[width] = table
    return table


class VectorizedFleetBackend:
    """``n_lanes`` independent QTAccel learners, advanced in vectorised
    lock-step (Q tables stacked ``(n_lanes, |S|, |A|)``, Qmax
    ``(n_lanes, |S|)``).

    The lane state is one :class:`~repro.backends.base.LaneLayout` block,
    allocated and seeded from ``salts`` by default.  ``storage``
    (internal: the sharded fleet's shared rows) is a dict of that
    layout's views already holding the lanes' state; the program runs on
    them as they are.
    """

    #: Name this engine attaches under in a telemetry session profile.
    _TELEMETRY_NAME = "batch"

    def __init__(
        self,
        mdps: "DenseMdp | Sequence[DenseMdp]",
        config: QTAccelConfig,
        *,
        num_agents: int | None = None,
        salts: Sequence[int] | None = None,
        telemetry=None,
        storage: dict | None = None,
    ):
        spec = normalize_fleet(mdps, n_lanes=num_agents, salts=salts)
        self.mdps = list(spec.mdps)
        self._homogeneous = spec.homogeneous
        k = spec.n_lanes

        self.config = config
        self.K = k
        self.S, self.A = spec.num_states, spec.num_actions
        qf = config.q_format
        n_starts = len(self.mdps[0].start_states)

        # Stacked environment tables: (K, S, A) transitions/rewards and
        # (K, S) terminal flags.  Homogeneous fleets broadcast one copy.
        if self._homogeneous:
            base = self.mdps[0]
            self._next = np.broadcast_to(base.next_state, (k, self.S, self.A))
            self._rewards = np.broadcast_to(
                ops.quantize_array(base.rewards, qf), (k, self.S, self.A)
            )
            self._terminal = np.broadcast_to(base.terminal, (k, self.S))
            self._starts = np.broadcast_to(base.start_states, (k, n_starts))
            # Flat gather sources: one copy, indexed without lane offsets.
            self._next_flat = np.ascontiguousarray(base.next_state, dtype=_I64).reshape(-1)
            self._rewards_flat = np.ascontiguousarray(
                ops.quantize_array(base.rewards, qf), dtype=_I64
            ).reshape(-1)
            self._terminal_flat = np.ascontiguousarray(base.terminal, dtype=bool).reshape(-1)
            self._starts_flat = np.ascontiguousarray(base.start_states, dtype=_I64).reshape(-1)
            self._env_sa_off = self._env_s_off = self._env_start_off = None
        else:
            self._next = np.stack([m.next_state for m in self.mdps])
            self._rewards = np.stack([ops.quantize_array(m.rewards, qf) for m in self.mdps])
            self._terminal = np.stack([m.terminal for m in self.mdps])
            self._starts = np.stack([m.start_states for m in self.mdps])
            # Flat gather sources: per-lane tables, indexed with the
            # lane's base offset added in.
            self._next_flat = np.ascontiguousarray(self._next, dtype=_I64).reshape(-1)
            self._rewards_flat = np.ascontiguousarray(self._rewards, dtype=_I64).reshape(-1)
            self._terminal_flat = np.ascontiguousarray(self._terminal, dtype=bool).reshape(-1)
            self._starts_flat = np.ascontiguousarray(self._starts, dtype=_I64).reshape(-1)
            lanes = np.arange(k, dtype=_I64)
            self._env_sa_off = lanes * (self.S * self.A)
            self._env_s_off = lanes * self.S
            self._env_start_off = lanes * n_starts
        self._n_starts = n_starts

        # Learner state: per-lane Q / Qmax / argmax tables, the
        # architectural latches (-1 sentinels = "none"), the update
        # rule's extra tables (see repro.algorithms) and the LFSR
        # registers, all views of one LaneLayout block.
        self.rule = config.rule
        self._rule_kind = self.rule.kind
        self._rule_coefs = self.rule.coefficients(config)
        self._layout = layout = LaneLayout(k, self.S, self.A, config)
        if storage is None:
            storage = layout.allocate()
            layout.seed(storage, spec.salts)
        self._lane = lane = {key: storage[key] for key in layout.shapes}
        self.momentum = self.target = self._target_count = None
        for attr, key, _, _ in layout.tables:
            setattr(self, attr, lane[key])
        w = config.lfsr_width
        for b, _ in LFSR_STREAMS:
            setattr(self, f"_bank_{b}", LfsrBank.over(w, lane[f"lfsr_{b}"]))
        self._egreedy_cut = _I64(egreedy_cut(config.epsilon, w))

        (self._alpha, _, self._one_minus_alpha, self._alpha_gamma) = config.coefficients()

        self.stats = BatchStats(agents=k)
        self._rows = np.arange(k)

        # Flat lane offsets + preallocated per-step scratch: step() runs
        # allocation-free.
        self._lane_sa_off = np.arange(k, dtype=_I64) * (self.S * self.A)
        self._lane_s_off = np.arange(k, dtype=_I64) * self.S
        for name in (
            "_t_start", "_t_state", "_t_action", "_t_pair", "_t_ienv",
            "_t_isa", "_t_is", "_t_snext", "_t_r", "_t_qsa", "_t_qnext",
            "_t_anext", "_t_qnew", "_t_acc", "_t_tmp",
            # Rule-specific temporaries: the momentum/target gather and
            # the Polyak result (kept separate from _t_tmp, which stage 4
            # still owns for the Qmax merge).  Allocated unconditionally
            # so every rule path stays allocation-free.
            "_t_rule", "_t_rule2",
        ):
            setattr(self, name, np.empty(k, dtype=_I64))
        for name in (
            "_m_restart", "_m_exploit", "_m_lag", "_m_term", "_m_upd", "_m_tmp",
        ):
            setattr(self, name, np.empty(k, dtype=bool))
        # Target-sync due mask, kept as a (k, 1) column so the whole-table
        # `where=` broadcast in step() reuses this buffer instead of
        # materialising `due[:, None]` every sync check.
        self._m_due_col = np.empty((k, 1), dtype=bool)
        self._m_due = self._m_due_col[:, 0]
        # Flat 1-D aliases (views) for the offset-indexed gathers in step().
        for name in ("q", "qmax", "qmax_action", "momentum", "target"):
            if getattr(self, name) is not None:
                setattr(self, f"_{name}_flat", getattr(self, name).reshape(-1))
        #: Optional :class:`repro.robustness.guards.DivergenceGuard`
        #: observing every lock-step update vector (None = fast path).
        self.guard = None

        from ..telemetry.session import current_session

        # None: the ambient session; False: none (the sharded parent's
        # program, whose fleet attaches itself).
        session = current_session() if telemetry is None else telemetry or None
        #: Session pulsed once per lock-step step for live-metrics export.
        self._session = session
        if session is not None:
            session.attach(self, self._TELEMETRY_NAME)

    @property
    def n_lanes(self) -> int:
        """Lane count (alias of the historical ``K``)."""
        return self.K

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
    # Draw helpers (exactly the scalar UniformSource reductions)
    # ------------------------------------------------------------------ #

    @staticmethod
    def _reduce(states: np.ndarray, m: int) -> np.ndarray:
        if m & (m - 1) == 0:
            return states & (m - 1)
        return states % m

    @staticmethod
    def _reduce_into(states: np.ndarray, m: int, out: np.ndarray) -> np.ndarray:
        """:meth:`_reduce` into a preallocated buffer."""
        if m & (m - 1) == 0:
            return np.bitwise_and(states, _I64(m - 1), out=out)
        return np.remainder(states, _I64(m), out=out)

    # ------------------------------------------------------------------ #
    # One lock-step sample for every lane
    # ------------------------------------------------------------------ #

    def step(self) -> None:
        cfg = self.config
        on_policy = cfg.is_on_policy
        A = self.A

        # ---- stage-1 equivalent: state + behaviour action ---- #
        restart = np.less(self._arch_state, 0, out=self._m_restart)
        start_idx = self._reduce_into(
            self._bank_start.draw_where(restart, DECIMATION),
            self._n_starts,
            self._t_start,
        )
        if self._env_start_off is not None:
            np.add(start_idx, self._env_start_off, out=start_idx)
        np.take(self._starts_flat, start_idx, out=start_idx)
        state = self._t_state
        np.copyto(state, self._arch_state)
        np.copyto(state, start_idx, where=restart)

        action = self._t_action
        if cfg.behavior_policy == "random":
            self._reduce_into(self._bank_action.draw_all(DECIMATION), A, action)
        else:
            # e-greedy: a fresh draw against the *lagged* table view, at
            # restarts only on-policy (SARSA holds the forwarded action)
            # and on every sample off-policy.
            if on_policy:
                u = self._bank_policy.draw_where(restart, DECIMATION)
            else:
                u = self._bank_policy.draw_all(DECIMATION)
            exploit_b = np.less(u, self._egreedy_cut, out=self._m_exploit)
            lag_hit = np.equal(state, self._prev_state, out=self._m_lag)
            ist = np.add(state, self._lane_s_off, out=self._t_is)
            qmax_act = np.take(self._qmax_action_flat, ist, out=self._t_tmp)
            np.copyto(qmax_act, self._prev_qmax_action, where=lag_hit)
            self._reduce_into(u, A, action)  # explore action
            np.copyto(action, qmax_act, where=exploit_b)  # fresh draw
            if on_policy:
                held = np.logical_not(restart, out=self._m_tmp)
                np.copyto(action, self._forwarded, where=held)

        pair = self._t_pair
        np.multiply(state, _I64(A), out=pair)
        np.add(pair, action, out=pair)

        if self._env_sa_off is None:
            env_sa = pair
        else:
            env_sa = np.add(pair, self._env_sa_off, out=self._t_ienv)
        s_next = np.take(self._next_flat, env_sa, out=self._t_snext)
        r = np.take(self._rewards_flat, env_sa, out=self._t_r)
        if self._env_s_off is None:
            env_s = s_next
        else:
            env_s = np.add(s_next, self._env_s_off, out=self._t_ienv)
        terminal_next = np.take(self._terminal_flat, env_s, out=self._m_term)
        isa = np.add(pair, self._lane_sa_off, out=self._t_isa)
        q_sa = np.take(self._q_flat, isa, out=self._t_qsa)

        # ---- stage-2 equivalent: update policy ---- #
        ins = np.add(s_next, self._lane_s_off, out=self._t_is)
        q_next = self._t_qnext
        a_next = self._t_anext
        if cfg.update_policy == "greedy":
            np.take(self._qmax_action_flat, ins, out=a_next)
            if self._rule_kind == "target":
                # Select with the online Qmax cache, evaluate with the
                # target table: bootstrap = T[s', argmax_a Q(s', a)].
                iq = np.multiply(s_next, _I64(A), out=self._t_tmp)
                np.add(iq, a_next, out=iq)
                np.add(iq, self._lane_sa_off, out=iq)
                np.take(self._target_flat, iq, out=q_next)
            else:
                np.take(self._qmax_flat, ins, out=q_next)
            self.stats.exploits += self.K
        else:
            u = self._bank_policy.draw_all(DECIMATION)
            exploit = np.less(u, self._egreedy_cut, out=self._m_exploit)
            self._reduce_into(u, A, a_next)  # explore action
            iq = np.multiply(s_next, _I64(A), out=self._t_tmp)
            np.add(iq, a_next, out=iq)
            np.add(iq, self._lane_sa_off, out=iq)
            np.take(self._q_flat, iq, out=q_next)  # explore value
            np.take(self._qmax_flat, ins, out=self._t_tmp)
            np.copyto(q_next, self._t_tmp, where=exploit)
            np.take(self._qmax_action_flat, ins, out=self._t_tmp)
            np.copyto(a_next, self._t_tmp, where=exploit)
            n_exploit = int(np.count_nonzero(exploit))
            self.stats.exploits += n_exploit
            self.stats.explores += self.K - n_exploit
        np.copyto(q_next, _I64(0), where=terminal_next)

        # ---- stage-3 equivalent: the shared datapath kernel ---- #
        if self._rule_kind == "momentum":
            m = np.take(self._momentum_flat, isa, out=self._t_rule)
            q_new = ops.q_update_momentum_into(
                q_sa,
                r,
                q_next,
                m,
                out=self._t_qnew,
                scratch=self._t_acc,
                mask_scratch=self._m_tmp,
                alpha=self._alpha,
                one_minus_alpha=self._one_minus_alpha,
                alpha_gamma=self._alpha_gamma,
                beta=self._rule_coefs.beta,
                coef_fmt=cfg.coef_format,
                q_fmt=cfg.q_format,
            )
        else:
            q_new = ops.q_update_into(
                q_sa,
                r,
                q_next,
                out=self._t_qnew,
                scratch=self._t_acc,
                mask_scratch=self._m_tmp,
                alpha=self._alpha,
                one_minus_alpha=self._one_minus_alpha,
                alpha_gamma=self._alpha_gamma,
                coef_fmt=cfg.coef_format,
                q_fmt=cfg.q_format,
            )
        if self.guard is not None:
            self.guard.observe_array(q_new, cfg.q_format)

        # ---- stage-4 equivalent: write-back + Qmax rule ---- #
        np.copyto(self._prev_pair, pair)
        np.copyto(self._prev_state, state)
        np.copyto(self._prev_q, q_sa)
        ist = np.add(state, self._lane_s_off, out=self._t_is)
        np.take(self._qmax_flat, ist, out=self._prev_qmax)
        np.take(self._qmax_action_flat, ist, out=self._prev_qmax_action)

        self._q_flat[isa] = q_new
        mode = cfg.qmax_mode
        if mode == "exact":
            rows = self._rows
            rows_q = self.q.reshape(self.K, self.S, self.A)[rows, state]
            best = np.argmax(rows_q, axis=1)
            self.qmax[rows, state] = rows_q[rows, best]
            self.qmax_action[rows, state] = best
        else:
            # cur_val / cur_act were just latched into _prev_qmax[_action].
            upd = np.greater(q_new, self._prev_qmax, out=self._m_upd)
            if mode == "follow":
                hit = np.equal(action, self._prev_qmax_action, out=self._m_tmp)
                np.logical_or(upd, hit, out=upd)
            merged = self._t_tmp
            np.copyto(merged, self._prev_qmax)
            np.copyto(merged, q_new, where=upd)
            self._qmax_flat[ist] = merged
            np.copyto(merged, self._prev_qmax_action)
            np.copyto(merged, action, where=upd)
            self._qmax_action_flat[ist] = merged

        if self._rule_kind == "momentum":
            # Stage-4 momentum write: the *pre-update* Q(s, a) operand
            # becomes the historical iterate for the next visit.
            self._momentum_flat[isa] = q_sa
        elif self._rule_kind == "target":
            # Stage-4 lazy Polyak read-modify-write on the written pair.
            t = np.take(self._target_flat, isa, out=self._t_rule)
            t_new = ops.polyak_update_into(
                t,
                q_new,
                out=self._t_rule2,
                scratch=self._t_acc,
                mask_scratch=self._m_tmp,
                tau=self._rule_coefs.tau,
                one_minus_tau=self._rule_coefs.one_minus_tau,
                coef_fmt=cfg.coef_format,
                q_fmt=cfg.q_format,
            )
            self._target_flat[isa] = t_new
            self._target_count += 1
            period = cfg.target_sync_period
            if period:
                due = np.greater_equal(
                    self._target_count, _I64(period), out=self._m_due
                )
                if np.any(due):
                    np.copyto(self.target, self.q, where=self._m_due_col)
                    np.copyto(self._target_count, _I64(0), where=due)

        self.stats.episodes += int(np.count_nonzero(terminal_next))
        np.copyto(self._arch_state, s_next)
        np.copyto(self._arch_state, _I64(-1), where=terminal_next)
        if on_policy:
            np.copyto(self._forwarded, a_next)
            np.copyto(self._forwarded, _I64(-1), where=terminal_next)

    def run(self, samples_per_agent: int) -> BatchStats:
        """Advance every lane by ``samples_per_agent`` updates."""
        if samples_per_agent < 0:
            raise ValueError("samples_per_agent must be non-negative")
        session = self._session
        for _ in range(samples_per_agent):
            self.step()
            if session is not None:
                session.pulse()
        self.stats.samples_per_agent += samples_per_agent
        return self.stats

    # ------------------------------------------------------------------ #
    # Lane leasing: the repro.serve external-transition surface
    #
    # Per-lane ops on the same state arrays ``step`` advances.  A sharded
    # fleet's parent runs them on its own instance of the shard program,
    # built on the shared-memory rows, while the workers are idle.
    # ------------------------------------------------------------------ #

    def _lane_draw(self, bank, k: int) -> int:
        """One decimated draw on lane ``k`` of ``bank`` — bit-identical
        to ``UniformSource(Lfsr(w, ...)).bits()`` on that lane's stream."""
        table = _lane_leap_table(self.config.lfsr_width)
        s = int(bank.states[k])
        s = (s >> DECIMATION) ^ table[s & ((1 << DECIMATION) - 1)]
        bank.states[k] = s
        return s

    def reset_lane(self, k: int, salt: int) -> None:
        """Re-initialise lane ``k`` to the pristine state of a lane
        seeded with ``salt`` — table fills, architectural latches and
        all three LFSR registers exactly as construction would have
        produced them (so the lane's future trajectory is bit-identical
        to a fresh ``FunctionalSimulator`` built with
        ``PolicyDraws.from_config(config, salt=salt)``)."""
        check_lane(self, k)
        row = {key: view[k : k + 1] for key, view in self._lane.items()}
        for view in row.values():
            view.fill(0)
        self._layout.seed(row, [salt])

    def apply_transition(
        self,
        k: int,
        state,
        action,
        reward,
        next_state,
        terminal=False,
    ) -> int:
        """Apply external ``(s, a, r, s')`` transitions to lane ``k``.

        Takes scalars or equal-length 1-D columns, validated and quantised
        by :func:`~repro.backends.base.lane_transitions` (a
        :class:`ValueError` before any row is applied), and retires the
        rows in order.  Returns the raw Q value the last row wrote (0 for
        an empty batch).
        """
        rows = lane_transitions(self, k, state, action, reward, next_state, terminal)
        q_new = 0
        for s, ns, a, t, r in zip(*rows.tolist()):
            q_new = self._retire_row(k, s, a, r, ns, t != 0)
        return q_new

    def _retire_row(
        self, k: int, state: int, action: int, r: int, next_state: int, terminal: bool
    ) -> int:
        """Stages 2-4 of one validated external transition (raw reward
        ``r``) on lane ``k`` — the per-row reference the compiled lane op
        is tested against.

        Scalar twin of :meth:`FunctionalSimulator.apply_transition
        <repro.core.functional.FunctionalSimulator.apply_transition>`:
        same single update-policy draw for e-greedy configs, same
        single-rounding datapath call and stage-4 Qmax rule, same
        lag/episode latch updates — so a lane driven through this surface
        stays bit-identical to a dedicated functional simulator fed the
        same calls.  Returns the raw written Q value.
        """
        cfg = self.config
        A = self.A
        pair = state * A + action
        q_sa = int(self.q[k, pair])

        # ---- stage-2 equivalent: update policy ---- #
        if cfg.update_policy == "greedy":
            a_next = int(self.qmax_action[k, next_state])
            if self._rule_kind == "target":
                q_next = int(self.target[k, next_state * A + a_next])
            else:
                q_next = int(self.qmax[k, next_state])
            exploited = True
        else:
            u = self._lane_draw(self._bank_policy, k)
            if u < int(self._egreedy_cut):
                q_next = int(self.qmax[k, next_state])
                a_next = int(self.qmax_action[k, next_state])
                exploited = True
            else:
                a_next = u & (A - 1) if A & (A - 1) == 0 else u % A
                q_next = int(self.q[k, next_state * A + a_next])
                exploited = False
        if terminal:
            q_next = 0

        # ---- stage-3 equivalent: the shared datapath kernel ---- #
        if self._rule_kind == "momentum":
            q_new = ops.q_update_momentum(
                q_sa,
                r,
                q_next,
                int(self.momentum[k, pair]),
                alpha=self._alpha,
                one_minus_alpha=self._one_minus_alpha,
                alpha_gamma=self._alpha_gamma,
                beta=self._rule_coefs.beta,
                coef_fmt=cfg.coef_format,
                q_fmt=cfg.q_format,
            )
        else:
            q_new = ops.q_update(
                q_sa,
                r,
                q_next,
                alpha=self._alpha,
                one_minus_alpha=self._one_minus_alpha,
                alpha_gamma=self._alpha_gamma,
                coef_fmt=cfg.coef_format,
                q_fmt=cfg.q_format,
            )

        # ---- stage-4 equivalent: write-back + Qmax rule ---- #
        self._prev_pair[k] = pair
        self._prev_state[k] = state
        self._prev_q[k] = q_sa
        cur_val = int(self.qmax[k, state])
        cur_act = int(self.qmax_action[k, state])
        self._prev_qmax[k] = cur_val
        self._prev_qmax_action[k] = cur_act
        self.q[k, pair] = q_new
        if cfg.qmax_mode == "exact":
            row = self.q[k, state * A : (state + 1) * A]
            best = int(np.argmax(row))
            self.qmax[k, state] = row[best]
            self.qmax_action[k, state] = best
        else:
            new_val, new_act = apply_qmax_rule(
                cfg.qmax_mode, cur_val, cur_act, int(q_new), action
            )
            self.qmax[k, state] = new_val
            self.qmax_action[k, state] = new_act

        if self._rule_kind == "momentum":
            self.momentum[k, pair] = q_sa
        elif self._rule_kind == "target":
            self.target[k, pair] = ops.polyak_update(
                int(self.target[k, pair]),
                int(q_new),
                tau=self._rule_coefs.tau,
                one_minus_tau=self._rule_coefs.one_minus_tau,
                coef_fmt=cfg.coef_format,
                q_fmt=cfg.q_format,
            )
            self._target_count[k] += 1
            period = cfg.target_sync_period
            if period and self._target_count[k] >= period:
                self.target[k, :] = self.q[k, :]
                self._target_count[k] = 0

        stats = self.stats
        if exploited:
            stats.exploits += 1
        else:
            stats.explores += 1
        if terminal:
            stats.episodes += 1
            self._arch_state[k] = -1
            self._forwarded[k] = -1
        else:
            self._arch_state[k] = next_state
            self._forwarded[k] = a_next if cfg.is_on_policy else -1
        return int(q_new)

    def query_action(self, k: int, state: int, explore: bool = True) -> int:
        """Recommend an action for lane ``k`` at ``state`` (no update).

        ``explore=True`` runs the single-draw e-greedy circuit on the
        lane's ``policy`` stream; ``explore=False`` reads the cached
        Qmax action and consumes no randomness.  Matches
        ``FunctionalSimulator.query_action`` draw for draw.
        """
        check_query(self, k, state)
        A = self.A
        if not explore:
            return int(self.qmax_action[k, state])
        u = self._lane_draw(self._bank_policy, k)
        if u < int(self._egreedy_cut):
            return int(self.qmax_action[k, state])
        return u & (A - 1) if A & (A - 1) == 0 else u % A

    # ------------------------------------------------------------------ #
    # Checkpointing (see repro.robustness.checkpoint)
    # ------------------------------------------------------------------ #

    def state_dict(self) -> dict:
        """Full fleet checkpoint: every lane vector plus the three LFSR
        banks and the aggregate stats.  Restoring and re-running replays
        the exact lock-step trajectory (the engine is deterministic)."""
        state = self._layout.pack({key: view.copy() for key, view in self._lane.items()})
        state["stats"] = vars(self.stats).copy()
        return state

    def _check_loaded(self, state: dict, lane: bool) -> dict:
        """Reject a checkpoint (or, with ``lane``, a :meth:`lane_state`
        slice) that lacks a field (a scalar backend's payload, say), whose
        arrays are misshapen or whose index-bearing fields point outside
        the tables, with a :class:`ValueError` naming the field; returns
        its fields by lane-state key.  Runs before anything is written, so
        a rejected load leaves the fleet untouched; the native kernel
        indexes with these latches unchecked, so a corrupted checkpoint
        must stop here."""
        S, A = self.S, self.A
        lfsr = (1, 1 << self.config.lfsr_width)
        bounds = {
            "arch_state": (-1, S),
            "prev_state": (-1, S),
            "forwarded": (-1, A),
            "qmax_action": (0, A),
            "prev_qmax_action": (0, A),
            "prev_pair": (-1, S * A),
            "target_count": (0, None),
            **{f"lfsr_{b}": lfsr for b, _ in LFSR_STREAMS},
        }
        layout = self._layout
        values = layout.unpack(state)
        if not lane:
            checkpoint_field(state, "stats")
        for key, value in values.items():
            name = layout.label(key)
            shape = layout.shapes[key] if lane else (self.K, *layout.shapes[key])
            arr = np.asarray(value)
            if arr.shape != shape:
                raise ValueError(
                    f"checkpoint field {name!r}: shape {arr.shape}, expected {shape}"
                )
            if arr.dtype.kind not in "iu":
                raise ValueError(
                    f"checkpoint field {name!r}: dtype {arr.dtype}, expected integers"
                )
            if key not in bounds or not arr.size:
                continue
            lo, hi = bounds[key]
            if arr.min() < lo or (hi is not None and arr.max() >= hi):
                span = f"[{lo}, {hi})" if hi is not None else f">= {lo}"
                raise ValueError(
                    f"checkpoint field {name!r}: values in "
                    f"[{arr.min()}, {arr.max()}], expected {span}"
                )
        return values

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` checkpoint in place (validated
        first; see :meth:`_check_loaded`)."""
        values = self._check_loaded(state, lane=False)
        for key, view in self._lane.items():
            view[:] = values[key]
        for key, value in state["stats"].items():
            setattr(self.stats, key, value)

    def lane_state(self, k: int, state: dict | None = None) -> dict:
        """Lane ``k``'s slice of a fleet checkpoint (default: taken
        live), for per-lane rollback.  The live path copies only lane
        ``k``'s rows — O(S·A), not O(K·S·A) — which is what makes
        per-session checkpoints in :mod:`repro.serve` affordable."""
        check_lane(self, k)
        values = self._lane if state is None else self._layout.unpack(state)
        # A latch's row is a fresh scalar already; a table's is a view.
        return self._layout.pack(
            {key: row.copy() if (row := values[key][k]).ndim else row for key in self._lane}
        )

    def load_lane_state(self, k: int, lane: dict) -> None:
        """Restore one lane from a :meth:`lane_state` slice, leaving the
        other lanes (and the aggregate stats) untouched."""
        check_lane(self, k)
        values = self._check_loaded(lane, lane=True)
        for key, view in self._lane.items():
            view[k] = values[key]

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #

    def q_float(self, agent: int) -> np.ndarray:
        """Lane ``agent``'s Q table as floats, ``(S, A)``."""
        check_lane(self, agent)
        return ops.to_float_array(
            self.q[agent].reshape(self.S, self.A), self.config.q_format
        )

    def q_float_all(self) -> np.ndarray:
        """All Q tables, ``(n_lanes, S, A)``."""
        return ops.to_float_array(
            self.q.reshape(self.K, self.S, self.A), self.config.q_format
        )
