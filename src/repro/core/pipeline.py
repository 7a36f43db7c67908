"""Cycle-accurate simulator of the QTAccel 4-stage pipeline (paper §IV).

Stage responsibilities (Fig. 1):

1. **Stage 1** — pick the current state (previous sample's next state, or
   a random start at episode boundaries); select the behaviour action
   (random for Q-Learning; the forwarded stage-2 action for SARSA); run
   the transition function; read ``Q(s, a)`` and ``R``; derive the
   coefficient products.
2. **Stage 2** — select the update action for ``s'`` (greedy via the Qmax
   table, or the single-draw e-greedy circuit) and fetch ``Q(s', a')``.
3. **Stage 3** — the arithmetic stage: three DSP products accumulated and
   renormalised (:func:`repro.fixedpoint.ops.q_update`).
4. **Stage 4** — write back ``Q_{t+1}(s, a)``; raise ``Qmax[s]`` if
   exceeded.

Evaluation order inside a cycle is S4, S3, S2, S1, which realises the
same-cycle forwarding paths (S3 output into S2/S1 reads; SARSA's stage-2
action into stage 1).  Hazard behaviour is selected by
``config.hazard_mode``:

* ``forward`` — the paper's design: every in-flight value is forwarded,
  one sample per cycle, sequential semantics (see
  :mod:`repro.core.hazards` for the one documented stage-1 lag).
* ``stall`` — no forwarding; conservative state-granular hazard checks
  bubble the pipeline until conflicting samples drain.  Same trajectory
  as sequential execution, more cycles.
* ``stale`` — no forwarding, no stalls: reads may be stale.  The
  trajectory diverges; the ablation benches quantify the damage.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Optional

import numpy as np

from ..envs.base import DenseMdp
from ..fixedpoint import ops
from ..rtl.register import PipelineRegister
from ..telemetry.counters import CounterRegistry
from ..telemetry.session import current_session
from ..telemetry.tracing import TraceEvent
from .config import QTAccelConfig
from .hazards import (
    ForwardingView,
    Sample,
    conflict_stage1,
    conflict_stage2,
    fix_operand_q,
    fix_operand_qnext,
)
from .policies import PolicyDraws, draw_start_state, select_behavior, select_update
from .tables import AcceleratorTables

#: Per-retirement trace record: (sample index, s, a, q_new_raw).
TraceRecord = tuple[int, int, int, int]


class PipelineStats:
    """Counters accumulated while the pipeline runs.

    The counters live on a :class:`~repro.telemetry.counters.CounterRegistry`
    (one per stats object, under ``pipeline.*`` names) so telemetry
    sessions can snapshot them without a second set of bookkeeping; the
    original attribute API (``stats.retired``, ``stats.cycles += 1``,
    keyword construction, equality) is preserved on top of it.  The hot
    loop bypasses the properties and bumps the ``c_*`` counter objects
    directly.

    ``stall_cycles`` stays the total bubble count; it now splits into
    ``hazard_stall_cycles`` (stall-mode conflicts — exactly 0 under the
    paper's forwarding design) and ``s2_hold_cycles`` (multi-cycle
    stage-2 selections, e.g. the probability-table binary search).
    """

    _FIELDS = (
        "cycles",
        "issued",
        "retired",
        "stall_cycles",
        "episodes",
        "exploits",
        "explores",
        "hazard_stall_cycles",
        "s2_hold_cycles",
    )

    __slots__ = ("registry",) + tuple(f"c_{f}" for f in _FIELDS)

    def __init__(
        self,
        cycles: int = 0,
        issued: int = 0,
        retired: int = 0,
        stall_cycles: int = 0,
        episodes: int = 0,
        exploits: int = 0,
        explores: int = 0,
        *,
        hazard_stall_cycles: int = 0,
        s2_hold_cycles: int = 0,
        registry: Optional[CounterRegistry] = None,
    ):
        self.registry = registry if registry is not None else CounterRegistry()
        values = {
            "cycles": cycles,
            "issued": issued,
            "retired": retired,
            "stall_cycles": stall_cycles,
            "episodes": episodes,
            "exploits": exploits,
            "explores": explores,
            "hazard_stall_cycles": hazard_stall_cycles,
            "s2_hold_cycles": s2_hold_cycles,
        }
        for name, value in values.items():
            counter = self.registry.counter(f"pipeline.{name}")
            counter.value = value
            object.__setattr__(self, f"c_{name}", counter)

    # Attribute API over the registry counters ------------------------- #

    cycles = property(
        lambda self: self.c_cycles.value,
        lambda self, v: setattr(self.c_cycles, "value", v),
    )
    issued = property(
        lambda self: self.c_issued.value,
        lambda self, v: setattr(self.c_issued, "value", v),
    )
    retired = property(
        lambda self: self.c_retired.value,
        lambda self, v: setattr(self.c_retired, "value", v),
    )
    stall_cycles = property(
        lambda self: self.c_stall_cycles.value,
        lambda self, v: setattr(self.c_stall_cycles, "value", v),
    )
    episodes = property(
        lambda self: self.c_episodes.value,
        lambda self, v: setattr(self.c_episodes, "value", v),
    )
    exploits = property(
        lambda self: self.c_exploits.value,
        lambda self, v: setattr(self.c_exploits, "value", v),
    )
    explores = property(
        lambda self: self.c_explores.value,
        lambda self, v: setattr(self.c_explores, "value", v),
    )
    hazard_stall_cycles = property(
        lambda self: self.c_hazard_stall_cycles.value,
        lambda self, v: setattr(self.c_hazard_stall_cycles, "value", v),
    )
    s2_hold_cycles = property(
        lambda self: self.c_s2_hold_cycles.value,
        lambda self, v: setattr(self.c_s2_hold_cycles, "value", v),
    )

    @property
    def cycles_per_sample(self) -> float:
        return self.cycles / self.retired if self.retired else float("inf")

    @property
    def samples(self) -> int:
        """Updates retired — the shared run-stats spelling
        (:mod:`repro.core.runstats`) of :attr:`retired`."""
        return self.retired

    def as_dict(self) -> dict:
        """All counters plus the shared run-stats key ``samples``
        (:mod:`repro.core.runstats`); ``cycles`` is already a counter."""
        out = {f: getattr(self, f) for f in self._FIELDS}
        out["samples"] = self.retired
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, PipelineStats):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"PipelineStats({inner})"


class QTAccelPipeline:
    """One QTAccel pipeline bound to an environment and a configuration.

    The pipeline owns its architectural state (current state register,
    SARSA action-forwarding register) but may *share* its
    :class:`AcceleratorTables` and :class:`PolicyDraws` with another
    pipeline (the state-sharing multi-agent mode).
    """

    def __init__(
        self,
        mdp: DenseMdp,
        config: QTAccelConfig,
        *,
        tables: Optional[AcceleratorTables] = None,
        draws: Optional[PolicyDraws] = None,
        manage_commit: bool = True,
        stage2_latency: int = 1,
        telemetry=None,
    ):
        if config.qmax_mode == "exact":
            raise ValueError(
                "the cycle-accurate pipeline models single-cycle Qmax write "
                "paths (monotonic/follow); use the functional simulator for "
                "the 'exact' ablation"
            )
        if config.rule.kind == "target" and config.target_sync_period > 0:
            from ..algorithms.rules import UnsupportedRuleError

            raise UnsupportedRuleError(
                "the cycle-accurate pipeline cannot host "
                "target_sync_period > 0 (a whole-table copy is not a "
                "single-cycle write path); use target_sync_period=0 (pure "
                "Polyak trailing) or the functional/fleet engines"
            )
        self.mdp = mdp
        self.config = config
        self.tables = tables if tables is not None else AcceleratorTables(mdp, config)
        self.draws = draws if draws is not None else PolicyDraws.from_config(config)
        (_, _, self.one_minus_alpha, self.alpha_gamma) = config.coefficients()
        self.alpha_raw = config.coefficients()[0]
        #: The configured stage-3 update rule (see :mod:`repro.algorithms`)
        #: and its raw coefficients.  Plain rules keep the original hot
        #: path; the accelerated kinds add the stage-3/stage-4 branches
        #: documented in DESIGN.md ("update-rule forwarding").
        self.rule = config.rule
        self._rule_kind = self.rule.kind
        self._rule_coefs = self.rule.coefficients(config)
        #: When False the pipeline stages table writes but leaves the
        #: clock-edge commit to an external arbiter (shared-table mode).
        self.manage_commit = manage_commit

        self.reg12: PipelineRegister[Sample] = PipelineRegister("s1->s2")
        self.reg23: PipelineRegister[Sample] = PipelineRegister("s2->s3")
        self.reg34: PipelineRegister[Sample] = PipelineRegister("s3->s4")

        self.arch_state: Optional[int] = None  # None => next sample restarts
        self._pending_behavior: Optional[int] = None  # SARSA forwarded action
        self._latched_issue: Optional[tuple[int, bool]] = None  # (state, restart)
        self._issue_budget: Optional[int] = None
        #: Cycles stage 2 occupies per sample.  1 for the paper's greedy /
        #: e-greedy selectors; ``ceil(log2 |A|)`` models the §VII-B
        #: probability-table binary search, whose initiation-interval cost
        #: is then *measured* by the pipeline instead of assumed.
        if stage2_latency < 1:
            raise ValueError("stage2_latency must be >= 1")
        self.stage2_latency = stage2_latency
        self._s2_busy = 0
        self._s2_started_for = -1

        self.stats = PipelineStats()
        self.trace: Optional[list[TraceRecord]] = None
        self.on_retire: Optional[Callable[[Sample], None]] = None
        #: Optional :class:`repro.robustness.guards.DivergenceGuard`
        #: observing every stage-3 result; same None-is-fast-path
        #: discipline as ``_tel``.
        self.guard = None
        #: Telemetry hook point: ``None`` (the disabled fast path — one
        #: pointer test per instrumented site) or a
        #: :class:`~repro.telemetry.session.PipelineProbe`.  Set by
        #: :meth:`TelemetrySession.attach`; ``telemetry=`` (an explicit
        #: session) or an ambient ``with TelemetrySession():`` block
        #: attaches at construction.
        self._tel = None
        #: Sampled per-stage wall-time attribution: ``None`` (the
        #: default — one pointer test per cycle) or a
        #: :class:`repro.perf.stagetime.StageTimer`, which timestamps
        #: the stage boundaries of every Nth cycle.
        self._stage_timer = None
        session = telemetry if telemetry is not None else current_session()
        if session is not None:
            session.attach(self)

    # ------------------------------------------------------------------ #
    # One clock cycle
    # ------------------------------------------------------------------ #

    def eval(self) -> None:
        """Combinational phase of one cycle (stages evaluated S4..S1)."""
        cfg = self.config
        mode = cfg.hazard_mode
        T = self.tables
        forward = mode == "forward"
        st = self.stats
        tel = self._tel
        # Pure-trace stage events (issue/select/retire/hold/stall) go
        # straight into the session's ring; without one they cost a
        # pointer test, which keeps the counters-only attached tax inside
        # its bench budget.
        ring = tel.ring if tel is not None else None
        pname = tel.name if tel is not None else None
        cyc = st.c_cycles.value
        timer = self._stage_timer
        stamps = None
        if timer is not None and timer.armed(cyc):
            stamps = [perf_counter()]

        wb = self.reg34.value if self.reg34.valid else None
        in_s3 = self.reg23.value if self.reg23.valid else None
        in_s2 = self.reg12.value if self.reg12.valid else None

        rule_kind = self._rule_kind

        # ---------------- Stage 4: write-back ---------------- #
        if wb is not None:
            qmax_written = T.writeback(wb.s, wb.a, wb.q_new)
            if rule_kind == "momentum":
                # Historical iterate: stage the pre-update Q(s,a) into
                # the momentum table (wb.q_sa is final — it was fixed up
                # at wb's own stage 3 — and equals the value a sequential
                # machine would have read).
                T.momentum.write(wb.pair, wb.q_sa)
            elif rule_kind == "target":
                # Lazy Polyak RMW of the written entry.  The committed
                # target table already reflects every sample up to k-2
                # (their stage-4 writes committed at earlier ticks), so
                # this read-modify-write chain is sequential; wb.t_new is
                # forwarded to younger samples' target reads below.
                coefs = self._rule_coefs
                wb.t_new = ops.polyak_update(
                    T.target.read(wb.pair),
                    wb.q_new,
                    tau=coefs.tau,
                    one_minus_tau=coefs.one_minus_tau,
                    coef_fmt=cfg.coef_format,
                    q_fmt=cfg.q_format,
                )
                T.target.write(wb.pair, wb.t_new)
            st.c_retired.value += 1
            if self.trace is not None:
                self.trace.append((wb.index, wb.s, wb.a, wb.q_new))
            if ring is not None:
                ring.append(TraceEvent(cyc, pname, "S4", "retire", wb.index))
            if tel is not None and qmax_written:
                tel.qmax_raise(cyc, wb.index)
            if self.on_retire is not None:
                self.on_retire(wb)
        if stamps is not None:
            stamps.append(perf_counter())

        # ---------------- Stage 3: arithmetic ---------------- #
        s3_out: Optional[Sample] = None
        if in_s3 is not None:
            smp = in_s3
            if forward and wb is not None:
                hits_q = fix_operand_q(smp, (wb,))
                if rule_kind == "target":
                    # Target-sourced bootstrap: the only younger write to
                    # the target table is wb's Polyak result, computed in
                    # this cycle's stage 4 above.
                    hits_qn = 0
                    if not smp.terminal_next and wb.pair == smp.pair_next:
                        smp.q_next = wb.t_new
                        hits_qn = 1
                else:
                    hits_qn = fix_operand_qnext(smp, (wb,), cfg.qmax_mode)
                if tel is not None:
                    if hits_q:
                        tel.forward(cyc, "S3", "q_operand", smp.index, hits_q)
                    if hits_qn:
                        tel.forward(cyc, "S3", "qnext", smp.index, hits_qn)
            if rule_kind == "momentum":
                # The momentum operand is read here, at stage 3, from the
                # committed table (every write up to sample k-2 has
                # committed) with one forwarding fixup for k-1: its
                # staged momentum write is its pre-update q_sa.
                m = T.momentum.read(smp.pair)
                if forward and wb is not None and wb.pair == smp.pair:
                    m = wb.q_sa
                coefs = self._rule_coefs
                smp.q_new = ops.q_update_momentum(
                    smp.q_sa,
                    smp.r,
                    smp.q_next,
                    m,
                    alpha=self.alpha_raw,
                    one_minus_alpha=self.one_minus_alpha,
                    alpha_gamma=self.alpha_gamma,
                    beta=coefs.beta,
                    coef_fmt=cfg.coef_format,
                    q_fmt=cfg.q_format,
                )
            else:
                smp.q_new = ops.q_update(
                    smp.q_sa,
                    smp.r,
                    smp.q_next,
                    alpha=self.alpha_raw,
                    one_minus_alpha=self.one_minus_alpha,
                    alpha_gamma=self.alpha_gamma,
                    coef_fmt=cfg.coef_format,
                    q_fmt=cfg.q_format,
                )
            if self.guard is not None:
                smp.q_new = self.guard.observe_update(
                    smp.s, smp.a, smp.q_new, cfg.q_format
                )
            s3_out = smp
            self.reg34.stage(smp)
        if stamps is not None:
            stamps.append(perf_counter())

        # ---------------- Stage 2: update policy ---------------- #
        s2_fired = False
        if in_s2 is not None:
            smp = in_s2
            if smp.index != self._s2_started_for:
                # A fresh sample entered stage 2: start its selection.
                self._s2_started_for = smp.index
                self._s2_busy = self.stage2_latency - 1
            if self._s2_busy > 0:
                # Multi-cycle selection (probability-table policies): the
                # sample holds stage 2 while the binary search runs.  Its
                # carried Q(s,a) operand must keep tracking in-flight
                # writes that complete *during* the hold, or they would
                # commit unobserved before the fire-cycle fixup looks.
                self._s2_busy -= 1
                if forward:
                    hits_q = fix_operand_q(smp, (wb, s3_out))
                    if tel is not None and hits_q:
                        tel.forward(cyc, "S2", "q_operand", smp.index, hits_q)
                self.reg12.hold()
                st.c_stall_cycles.value += 1
                st.c_s2_hold_cycles.value += 1
                if ring is not None:
                    ring.append(TraceEvent(cyc, pname, "S2", "hold", smp.index))
            elif mode == "stall" and conflict_stage2(smp.s_next, (in_s3, wb)):
                self.reg12.hold()
                st.c_stall_cycles.value += 1
                st.c_hazard_stall_cycles.value += 1
                if ring is not None:
                    ring.append(TraceEvent(cyc, pname, "S2", "stall", smp.index))
            else:
                if forward:
                    hits_q = fix_operand_q(smp, (wb, s3_out))
                    if tel is not None and hits_q:
                        tel.forward(cyc, "S2", "q_operand", smp.index, hits_q)
                view = ForwardingView(T, (wb, s3_out) if forward else ())
                sel = select_update(
                    smp.s_next,
                    config=cfg,
                    draws=self.draws,
                    read_qmax=view.read_qmax,
                    read_q=view.read_q,
                    num_actions=T.num_actions,
                )
                smp.a_next = sel.action
                smp.exploited = sel.exploited
                if rule_kind == "target":
                    # Select-online / evaluate-target: the argmax came
                    # from the (forwarded) online Qmax view; the
                    # bootstrap value reads the target table.  pair_next
                    # is always a concrete address here — the stage-3
                    # fixup needs it to track wb's Polyak write.
                    smp.pair_next = T.pair_addr(smp.s_next, sel.action)
                    if smp.terminal_next:
                        smp.q_next = 0
                    else:
                        t_val = T.target.read(smp.pair_next)
                        if (
                            forward
                            and wb is not None
                            and wb.pair == smp.pair_next
                        ):
                            # wb's stage-4 Polyak write is staged, not
                            # committed; forward its result.
                            t_val = wb.t_new
                        smp.q_next = t_val
                else:
                    smp.pair_next = (
                        -1 if sel.exploited else T.pair_addr(smp.s_next, sel.action)
                    )
                    smp.q_next = 0 if smp.terminal_next else sel.q_raw
                if sel.exploited:
                    st.c_exploits.value += 1
                else:
                    st.c_explores.value += 1
                if cfg.is_on_policy:
                    self._pending_behavior = None if smp.terminal_next else sel.action
                self.reg23.stage(smp)
                s2_fired = True
                if ring is not None:
                    ring.append(TraceEvent(cyc, pname, "S2", "select", smp.index))
                if tel is not None:
                    if view.hits_q:
                        tel.forward(cyc, "S2", "view_q", smp.index, view.hits_q)
                    if view.hits_qmax:
                        tel.forward(cyc, "S2", "view_qmax", smp.index, view.hits_qmax)
        if stamps is not None:
            stamps.append(perf_counter())

        # ---------------- Stage 1: issue ---------------- #
        s1_active = False
        can_issue = (in_s2 is None) or s2_fired
        budget_left = self._issue_budget is None or st.c_issued.value < self._issue_budget
        if can_issue and budget_left:
            s1_active = True
            if self._latched_issue is None:
                if self.arch_state is None:
                    state = draw_start_state(self.draws, self.mdp.start_states)
                    self._latched_issue = (state, True)
                else:
                    self._latched_issue = (self.arch_state, False)
            state, restart = self._latched_issue
            # In-flight writers at issue time: the sample just leaving S2
            # plus those in S3/S4 this cycle.
            if mode == "stall" and conflict_stage1(state, (in_s2, in_s3, wb)):
                st.c_stall_cycles.value += 1
                st.c_hazard_stall_cycles.value += 1
                if ring is not None:
                    ring.append(TraceEvent(cyc, pname, "S1", "stall", -1))
            else:
                self._latched_issue = None
                forwarded = None
                if cfg.is_on_policy and not restart:
                    forwarded = self._pending_behavior
                    if forwarded is None:
                        raise AssertionError(
                            "on-policy issue without a forwarded action"
                        )
                    self._pending_behavior = None
                view = ForwardingView(T, (wb, s3_out) if forward else ())
                action = select_behavior(
                    state,
                    config=cfg,
                    draws=self.draws,
                    forwarded_action=forwarded,
                    read_qmax=view.read_qmax,
                    read_q=view.read_q,
                    num_actions=T.num_actions,
                )
                s_next = int(self.mdp.next_state[state, action])
                smp = Sample(
                    index=self.stats.issued,
                    s=state,
                    a=action,
                    pair=T.pair_addr(state, action),
                    s_next=s_next,
                    restart=restart,
                    terminal_next=bool(T.terminal[s_next]),
                )
                smp.q_sa = view.read_q(state, action)
                smp.r = T.read_reward(state, action)
                self.reg12.stage(smp)
                st.c_issued.value += 1
                if ring is not None:
                    ring.append(TraceEvent(cyc, pname, "S1", "issue", smp.index))
                if tel is not None:
                    if view.hits_q:
                        tel.forward(cyc, "S1", "view_q", smp.index, view.hits_q)
                    if view.hits_qmax:
                        tel.forward(cyc, "S1", "view_qmax", smp.index, view.hits_qmax)
                if smp.terminal_next:
                    self.arch_state = None
                    st.c_episodes.value += 1
                else:
                    self.arch_state = s_next
        if stamps is not None:
            stamps.append(perf_counter())
            timer.commit(stamps)

        if tel is not None:
            # Stage occupancy as direct counter adds: one method call per
            # cycle is measurable against the counters-only overhead budget.
            if s1_active:
                tel.occ_s1.value += 1
            if in_s2 is not None:
                tel.occ_s2.value += 1
            if in_s3 is not None:
                tel.occ_s3.value += 1
            if wb is not None:
                tel.occ_s4.value += 1

    def tick(self) -> None:
        """Clock edge: advance registers and commit table writes."""
        self.reg12.tick()
        self.reg23.tick()
        self.reg34.tick()
        if self.manage_commit:
            self.tables.commit()
        self.stats.c_cycles.value += 1

    def step(self) -> None:
        """One full cycle (eval + tick)."""
        self.eval()
        self.tick()

    # ------------------------------------------------------------------ #
    # Run control
    # ------------------------------------------------------------------ #

    @property
    def in_flight(self) -> int:
        """Samples issued but not yet retired."""
        return self.stats.issued - self.stats.retired

    def run(self, num_samples: int, *, max_cycles: Optional[int] = None) -> PipelineStats:
        """Issue and retire exactly ``num_samples`` updates.

        The issue budget stops stage 1 once enough samples have entered;
        the pipeline then drains.  ``max_cycles`` (default: generous bound
        proportional to the worst-case stall schedule) guards against
        deadlock regressions.
        """
        if num_samples < 0:
            raise ValueError("num_samples must be non-negative")
        self._issue_budget = self.stats.issued + num_samples
        if max_cycles is None:
            max_cycles = 8 * num_samples + 64
        c_retired, c_cycles = self.stats.c_retired, self.stats.c_cycles
        start_cycle = c_cycles.value
        while c_retired.value < self._issue_budget:
            if c_cycles.value - start_cycle > max_cycles:
                raise RuntimeError(
                    f"pipeline did not retire {num_samples} samples within "
                    f"{max_cycles} cycles (deadlock?)"
                )
            self.step()
        self._issue_budget = None
        return self.stats

    def enable_trace(self) -> list[TraceRecord]:
        """Start recording (index, s, a, q_new) per retirement."""
        self.trace = []
        return self.trace

    # ------------------------------------------------------------------ #
    # Checkpointing (see repro.robustness.checkpoint)
    # ------------------------------------------------------------------ #

    def state_dict(self) -> dict:
        """Architectural checkpoint, valid only at a *drained* boundary
        (as after :meth:`run` returns): in-flight samples live in pipeline
        registers whose contents are derivable, not architectural, so we
        refuse to snapshot mid-burst rather than capture half a machine."""
        if self.in_flight or self.reg12.valid or self.reg23.valid or self.reg34.valid:
            raise RuntimeError(
                "pipeline checkpoint requires a drained pipeline "
                f"({self.in_flight} samples in flight)"
            )
        return {
            "tables": self.tables.state_dict(),
            "draws": self.draws.state_dict(),
            "arch_state": self.arch_state,
            "pending_behavior": self._pending_behavior,
            "stats": self.stats.as_dict(),
            # The pipeline never hosts target_sync_period > 0, so the
            # rule state is just its name (extra tables are inside
            # "tables" already).
            "rule": self.rule.state_dict(self.tables, 0),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` checkpoint in place."""
        self.tables.load_state_dict(state["tables"])
        self.draws.load_state_dict(state["draws"])
        self.arch_state = state["arch_state"]
        self._pending_behavior = state["pending_behavior"]
        self.reg12.flush()
        self.reg23.flush()
        self.reg34.flush()
        self._latched_issue = None
        self._s2_busy = 0
        self._s2_started_for = -1
        rule_state = state.get("rule")
        if rule_state is not None:
            self.rule.load_state_dict(rule_state)
        for name, value in state["stats"].items():
            # Restore counters only; derived keys ("samples") recompute.
            if name in PipelineStats._FIELDS:
                setattr(self.stats, name, value)

    def q_float(self) -> np.ndarray:
        """Current Q table as floats, ``(S, A)``."""
        return self.tables.q_float_matrix()
