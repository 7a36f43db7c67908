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
from .base import BatchStats, lane_transitions, normalize_fleet

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
    ``(n_lanes, |S|)``)."""

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

        # Learner state: per-lane Q / Qmax / argmax tables.
        q_init = qf.quantize(config.q_init)
        self.q = np.full((k, self.S * self.A), q_init, dtype=_I64)
        self.qmax = np.full((k, self.S), q_init, dtype=_I64)
        self.qmax_action = np.zeros((k, self.S), dtype=_I64)

        # Update-rule extra lane state (see repro.algorithms): the
        # momentum/target tables are full (K, S*A) checkpoint members,
        # appended to the per-instance _STATE_ARRAYS tuple so every
        # state_dict/lane_state/shared-memory path carries them.
        self._bind_rule(config)
        extra_state: list[tuple[str, str]] = []
        self.momentum = None
        self.target = None
        self._target_count = None
        if self._rule_kind == "momentum":
            self.momentum = np.full((k, self.S * self.A), q_init, dtype=_I64)
            extra_state.append(("momentum", "momentum"))
        elif self._rule_kind == "target":
            self.target = np.full((k, self.S * self.A), q_init, dtype=_I64)
            self._target_count = np.zeros(k, dtype=_I64)
            extra_state.append(("target", "target"))
            extra_state.append(("_target_count", "target_count"))
        self._STATE_ARRAYS = self._BASE_STATE_ARRAYS + tuple(extra_state)

        # LFSR banks seeded exactly like PolicyDraws.from_config(salt=..).
        base_seed = config.seed + spec.salts * 0x9E37
        w = config.lfsr_width
        self._bank_start = LfsrBank(w, base_seed + 0x11)
        self._bank_action = LfsrBank(w, base_seed + 0x22)
        self._bank_policy = LfsrBank(w, base_seed + 0x33)
        self._egreedy_cut = _I64(egreedy_cut(config.epsilon, w))

        (self._alpha, _, self._one_minus_alpha, self._alpha_gamma) = config.coefficients()

        # Architectural lane state (-1 sentinels = "none").
        self._arch_state = np.full(k, -1, dtype=_I64)
        self._forwarded = np.full(k, -1, dtype=_I64)
        # Lag view of the most recent write (SARSA restart reads).
        self._prev_pair = np.full(k, -1, dtype=_I64)
        self._prev_state = np.full(k, -1, dtype=_I64)
        self._prev_q = np.zeros(k, dtype=_I64)
        self._prev_qmax = np.zeros(k, dtype=_I64)
        self._prev_qmax_action = np.zeros(k, dtype=_I64)

        self.stats = BatchStats(agents=k)
        self._rows = np.arange(k)

        # Flat lane offsets + preallocated per-step scratch: step() runs
        # allocation-free, and every state array is only ever mutated in
        # place — the sharded backend relies on both when it rebinds the
        # table attributes to shared-memory slices (then calls
        # :meth:`_rebind_flat_views`).
        self._lane_sa_off = np.arange(k, dtype=_I64) * (self.S * self.A)
        self._lane_s_off = np.arange(k, dtype=_I64) * self.S
        for name in (
            "_t_start", "_t_state", "_t_action", "_t_pair", "_t_ienv",
            "_t_isa", "_t_is", "_t_snext", "_t_r", "_t_qsa", "_t_qnext",
            "_t_anext", "_t_qnew", "_t_acc", "_t_tmp",
            # Rule-specific temporaries: the momentum/target gather and
            # the Polyak result (kept separate from _t_tmp, which stage 4
            # still owns for the Qmax merge).  Allocated unconditionally
            # so every rule path stays allocation-free and _bind_rule can
            # be re-run (checkpoint load) without reshaping scratch.
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
        self._rebind_flat_views()
        #: Optional :class:`repro.robustness.guards.DivergenceGuard`
        #: observing every lock-step update vector (None = fast path).
        self.guard = None

        from ..telemetry.session import current_session

        session = telemetry if telemetry is not None else current_session()
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

    def _bind_rule(self, config: QTAccelConfig) -> None:
        """Resolve the configured update rule and its raw coefficients
        (shared with the sharded backend, which borrows the lane-op
        surface and needs the same scalars without a full construct)."""
        self.rule = config.rule
        self._rule_kind = self.rule.kind
        self._rule_coefs = self.rule.coefficients(config)

    def _rebind_flat_views(self) -> None:
        """(Re)derive the flat 1-D aliases of q/qmax/qmax_action (and
        the rule extra tables when present).

        Called at construction and again by the sharded backend after it
        rebinds the table attributes to shared-memory slices — the flat
        views used by the offset-indexed gathers in :meth:`step` must
        always alias the current storage (contiguous row slices reshape
        to views, never copies)."""
        self._q_flat = self.q.reshape(-1)
        self._qmax_flat = self.qmax.reshape(-1)
        self._qmax_action_flat = self.qmax_action.reshape(-1)
        if self.momentum is not None:
            self._momentum_flat = self.momentum.reshape(-1)
        if self.target is not None:
            self._target_flat = self.target.reshape(-1)

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
            # SARSA: forwarded action, except at restarts where a fresh
            # e-greedy draw happens against the *lagged* table view.
            u = self._bank_policy.draw_where(restart, DECIMATION)
            exploit_b = np.less(u, self._egreedy_cut, out=self._m_exploit)
            lag_hit = np.equal(state, self._prev_state, out=self._m_lag)
            ist = np.add(state, self._lane_s_off, out=self._t_is)
            qmax_act = np.take(self._qmax_action_flat, ist, out=self._t_tmp)
            np.copyto(qmax_act, self._prev_qmax_action, where=lag_hit)
            self._reduce_into(u, A, action)  # explore action
            np.copyto(action, qmax_act, where=exploit_b)  # fresh draw
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
    # These methods are deliberately written against only the shared
    # attribute vocabulary — the ``(K, ·)`` state arrays, the banks'
    # ``.states`` registers and the config-derived scalars — so the
    # sharded backend can borrow them verbatim (its parent maps the
    # same arrays over shared memory and holds plain ``states`` views
    # in place of full LfsrBank objects).  On a sharded fleet they must
    # only run while the workers are idle (between sync epochs), which
    # is exactly how the serve gateway drives them.
    # ------------------------------------------------------------------ #

    def _lane_draw(self, bank, k: int) -> int:
        """One decimated draw on lane ``k`` of ``bank`` — bit-identical
        to ``UniformSource(Lfsr(w, ...)).bits()`` on that lane's stream."""
        table = _lane_leap_table(self.config.lfsr_width)
        s = int(bank.states[k])
        s = (s >> DECIMATION) ^ table[s & ((1 << DECIMATION) - 1)]
        bank.states[k] = s
        return s

    def _count_external(self, exploited: bool, terminal: bool) -> None:
        """Stat deltas of one external transition (hook: the sharded
        backend redirects these into its worker-independent base)."""
        if exploited:
            self.stats.exploits += 1
        else:
            self.stats.explores += 1
        if terminal:
            self.stats.episodes += 1

    def reset_lane(self, k: int, salt: int) -> None:
        """Re-initialise lane ``k`` to the pristine state of a lane
        seeded with ``salt`` — table fills, architectural latches and
        all three LFSR registers exactly as construction would have
        produced them (so the lane's future trajectory is bit-identical
        to a fresh ``FunctionalSimulator`` built with
        ``PolicyDraws.from_config(config, salt=salt)``)."""
        if not 0 <= k < self.K:
            raise IndexError(f"lane {k} out of range 0..{self.K - 1}")
        cfg = self.config
        q_init = cfg.q_format.quantize(cfg.q_init)
        self.q[k, :] = q_init
        self.qmax[k, :] = q_init
        self.qmax_action[k, :] = 0
        self._arch_state[k] = -1
        self._forwarded[k] = -1
        self._prev_pair[k] = -1
        self._prev_state[k] = -1
        self._prev_q[k] = 0
        self._prev_qmax[k] = 0
        self._prev_qmax_action[k] = 0
        if self.momentum is not None:
            self.momentum[k, :] = q_init
        if self.target is not None:
            self.target[k, :] = q_init
            self._target_count[k] = 0
        base = cfg.seed + int(salt) * 0x9E37
        mask = (1 << cfg.lfsr_width) - 1
        for bank, off in (
            (self._bank_start, 0x11),
            (self._bank_action, 0x22),
            (self._bank_policy, 0x33),
        ):
            seed = (base + off) & mask
            bank.states[k] = seed if seed else 1

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

        self._count_external(exploited, terminal)
        if terminal:
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
        A = self.A
        if not 0 <= k < self.K:
            raise IndexError(f"lane {k} out of range 0..{self.K - 1}")
        if not 0 <= state < self.S:
            raise ValueError(f"state {state} out of range [0, {self.S})")
        if not explore:
            return int(self.qmax_action[k, state])
        u = self._lane_draw(self._bank_policy, k)
        if u < int(self._egreedy_cut):
            return int(self.qmax_action[k, state])
        return u & (A - 1) if A & (A - 1) == 0 else u % A

    # ------------------------------------------------------------------ #
    # Checkpointing (see repro.robustness.checkpoint)
    # ------------------------------------------------------------------ #

    #: (array attribute, checkpoint key) pairs of the lane-vector state
    #: common to every update rule.  Construction appends the rule's
    #: extra tables (momentum / target [+ target_count]) and stores the
    #: full tuple as the *instance* attribute ``_STATE_ARRAYS`` — always
    #: iterate that one, never this class constant.
    _BASE_STATE_ARRAYS = (
        ("q", "q"),
        ("qmax", "qmax"),
        ("qmax_action", "qmax_action"),
        ("_arch_state", "arch_state"),
        ("_forwarded", "forwarded"),
        ("_prev_pair", "prev_pair"),
        ("_prev_state", "prev_state"),
        ("_prev_q", "prev_q"),
        ("_prev_qmax", "prev_qmax"),
        ("_prev_qmax_action", "prev_qmax_action"),
    )
    #: Backwards-compatible default (plain rules have no extras).
    _STATE_ARRAYS = _BASE_STATE_ARRAYS

    def state_dict(self) -> dict:
        """Full fleet checkpoint: every lane vector plus the three LFSR
        banks and the aggregate stats.  Restoring and re-running replays
        the exact lock-step trajectory (the engine is deterministic)."""
        state = {key: getattr(self, attr).copy() for attr, key in self._STATE_ARRAYS}
        state["lfsr"] = {
            "start": self._bank_start.states.copy(),
            "action": self._bank_action.states.copy(),
            "policy": self._bank_policy.states.copy(),
        }
        state["stats"] = vars(self.stats).copy()
        return state

    def _check_loaded(self, state: dict, lane: bool) -> None:
        """Reject a checkpoint (or, with ``lane``, a :meth:`lane_state`
        slice) whose arrays are misshapen or whose index-bearing fields
        point outside the tables, with a :class:`ValueError` naming the
        field.  Runs before anything is written, so a rejected load
        leaves the fleet untouched; the native kernel indexes with these
        latches unchecked, so a corrupted checkpoint must stop here."""
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
            "lfsr.start": lfsr,
            "lfsr.action": lfsr,
            "lfsr.policy": lfsr,
        }
        checks = []
        for attr, key in self._STATE_ARRAYS:
            shape = getattr(self, attr).shape
            checks.append((key, shape[1:] if lane else shape, state[key]))
        for name in ("start", "action", "policy"):
            value = state["lfsr"][name]
            checks.append((f"lfsr.{name}", () if lane else (self.K,), value))
        for key, shape, value in checks:
            arr = np.asarray(value)
            if arr.shape != shape:
                raise ValueError(
                    f"checkpoint field {key!r}: shape {arr.shape}, expected {shape}"
                )
            if arr.dtype.kind not in "iu":
                raise ValueError(
                    f"checkpoint field {key!r}: dtype {arr.dtype}, expected integers"
                )
            if key not in bounds or not arr.size:
                continue
            lo, hi = bounds[key]
            if arr.min() < lo or (hi is not None and arr.max() >= hi):
                span = f"[{lo}, {hi})" if hi is not None else f">= {lo}"
                raise ValueError(
                    f"checkpoint field {key!r}: values in "
                    f"[{arr.min()}, {arr.max()}], expected {span}"
                )

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` checkpoint in place (validated
        first; see :meth:`_check_loaded`)."""
        self._check_loaded(state, lane=False)
        for attr, key in self._STATE_ARRAYS:
            getattr(self, attr)[:] = state[key]
        self._bank_start.states[:] = state["lfsr"]["start"]
        self._bank_action.states[:] = state["lfsr"]["action"]
        self._bank_policy.states[:] = state["lfsr"]["policy"]
        for key, value in state["stats"].items():
            setattr(self.stats, key, value)

    def lane_state(self, k: int, state: dict | None = None) -> dict:
        """Lane ``k``'s slice of a fleet checkpoint (default: taken
        live), for per-lane rollback.  The live path copies only lane
        ``k``'s rows — O(S·A), not O(K·S·A) — which is what makes
        per-session checkpoints in :mod:`repro.serve` affordable."""
        if state is None:
            out = {key: getattr(self, attr)[k].copy() for attr, key in self._STATE_ARRAYS}
            out["lfsr"] = {
                "start": int(self._bank_start.states[k]),
                "action": int(self._bank_action.states[k]),
                "policy": int(self._bank_policy.states[k]),
            }
            return out
        out = {key: state[key][k].copy() for _, key in self._STATE_ARRAYS}
        out["lfsr"] = {name: int(bank[k]) for name, bank in state["lfsr"].items()}
        return out

    def load_lane_state(self, k: int, lane: dict) -> None:
        """Restore one lane from a :meth:`lane_state` slice, leaving the
        other lanes (and the aggregate stats) untouched."""
        self._check_loaded(lane, lane=True)
        for attr, key in self._STATE_ARRAYS:
            getattr(self, attr)[k] = lane[key]
        self._bank_start.states[k] = lane["lfsr"]["start"]
        self._bank_action.states[k] = lane["lfsr"]["action"]
        self._bank_policy.states[k] = lane["lfsr"]["policy"]

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #

    def q_float(self, agent: int) -> np.ndarray:
        """Lane ``agent``'s Q table as floats, ``(S, A)``."""
        return ops.to_float_array(
            self.q[agent].reshape(self.S, self.A), self.config.q_format
        )

    def q_float_all(self) -> np.ndarray:
        """All Q tables, ``(n_lanes, S, A)``."""
        return ops.to_float_array(
            self.q.reshape(self.K, self.S, self.A), self.config.q_format
        )
