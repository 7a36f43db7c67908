"""In-flight samples, forwarding views, and hazard detection.

Consecutive QRL updates are tightly dependent: sample *k*'s current state
is sample *k-1*'s next state, and any of the three samples ahead in the
pipeline may still be about to write the Q-table entry or Qmax row that
sample *k* reads.  The paper's headline claim (§I, §IV) is that QTAccel
forwards every such in-flight value so the pipeline retires one sample
per clock with *sequential* semantics.

This module provides the pieces the pipeline composes:

* :class:`Sample` — one update in flight, its fields filled stage by
  stage;
* :class:`ForwardingView` — table reads overlaid with the pending writes
  of in-flight samples (applied oldest to newest, so the youngest value
  wins; Qmax overlays apply the monotonic max rule);
* conflict predicates for the ``stall`` hazard mode, which blocks a stage
  until conflicting in-flight samples have drained instead of forwarding.

Timing of visibility (established by the pipeline's evaluation order
S4 -> S3 -> S2 -> S1 within a cycle):

=========  ====================================================
consumer   in-flight producers visible through forwarding
=========  ====================================================
stage 1    S4 pending write (sample k-3), S3 output (sample k-2)
stage 2    S4 pending write (sample k-2), S3 output (sample k-1)
stage 3    S4 pending write (sample k-1)
=========  ====================================================

Stage 2 therefore sees *every* older sample — fully sequential.  The one
hardware-unavoidable exception is a stage-1 e-greedy read (SARSA episode
restart): sample k-1 is only in stage 2 and its new Q-value does not
exist yet, so that read lags by exactly one sample.  The functional
simulator reproduces the same lag (``behavior_lag=True``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .tables import AcceleratorTables


@dataclass(slots=True)
class Sample:
    """One Q-value update in flight through the pipeline."""

    index: int  # global sample number (issue order)
    s: int = -1
    a: int = -1
    pair: int = -1
    s_next: int = -1
    restart: bool = False  # this sample began a fresh episode
    terminal_next: bool = False  # transition enters a terminal state
    q_sa: int = 0  # raw Q(s, a) operand (fixed up as newer values appear)
    r: int = 0  # raw reward
    a_next: int = -1
    pair_next: int = -1  # Q-table address of (s', a') for explored reads
    q_next: int = 0  # raw Q(s', a') operand (terminal-masked)
    q_new: int = 0  # stage-3 result
    exploited: bool = False
    #: Stage-4 Polyak result for the target rule (the value the sample
    #: writes into the target table); forwarded to younger samples'
    #: target-table reads exactly like ``q_new`` is for the Q table.
    t_new: int = 0


class ForwardingView:
    """Table reads overlaid with pending in-flight writes.

    ``sources`` are the in-flight samples whose ``q_new`` is already
    known, ordered oldest first.  Q-table reads take the youngest
    matching pair; Qmax reads apply each source with the hardware's
    monotonic rule (raise value/action if the pending write exceeds the
    current maximum).
    """

    __slots__ = ("tables", "sources", "hits_q", "hits_qmax")

    def __init__(self, tables: AcceleratorTables, sources: Iterable[Optional[Sample]]):
        self.tables = tables
        self.sources = [s for s in sources if s is not None]
        #: Forwarding-path hit counters (overlay applications), read by
        #: the telemetry probes after the stage's selections complete.
        self.hits_q = 0
        self.hits_qmax = 0

    def read_q(self, state: int, action: int) -> int:
        pair = self.tables.pair_addr(state, action)
        value = self.tables.q.read(pair)
        for src in self.sources:
            if src.pair == pair:
                value = src.q_new
                self.hits_q += 1
        return value

    def read_qmax(self, state: int) -> tuple[int, int]:
        from .tables import apply_qmax_rule

        mode = self.tables.config.qmax_mode
        value, action = self.tables.read_qmax(state)
        for src in self.sources:
            if src.s == state:
                value, action = apply_qmax_rule(mode, value, action, src.q_new, src.a)
                self.hits_qmax += 1
        return value, action


def fix_operand_q(sample: Sample, sources: Iterable[Optional[Sample]]) -> int:
    """Refresh a carried ``q_sa`` operand against newer in-flight writes.

    Returns the number of fixups applied (a forwarding-path hit count).
    """
    hits = 0
    for src in sources:
        if src is not None and src.pair == sample.pair:
            sample.q_sa = src.q_new
            hits += 1
    return hits


def fix_operand_qnext(
    sample: Sample, sources: Iterable[Optional[Sample]], qmax_mode: str
) -> int:
    """Refresh a carried ``q_next`` operand against newer in-flight writes.

    The operand's provenance decides the rule: a greedy/exploited read
    came from Qmax (overlay the stage-4 maintenance rule on the state);
    an explored read came from a specific Q-table pair (exact pair
    match).  Terminal-masked operands are pinned to zero and never
    refreshed.  Returns the number of fixups applied.
    """
    from .tables import apply_qmax_rule

    if sample.terminal_next:
        return 0
    hits = 0
    for src in sources:
        if src is None:
            continue
        if sample.exploited:
            if src.s == sample.s_next:
                sample.q_next, sample.a_next = apply_qmax_rule(
                    qmax_mode, sample.q_next, sample.a_next, src.q_new, src.a
                )
                hits += 1
        else:
            if src.pair == sample.pair_next:
                sample.q_next = src.q_new
                hits += 1
    return hits


def conflict_stage1(state: int, in_flight: Iterable[Optional[Sample]]) -> bool:
    """Stall-mode hazard check before issuing a new sample.

    Conservative, state-granular (what a cheap hardware comparator would
    do): any in-flight sample that will write state ``state``'s Q row or
    Qmax entry forces a stall.
    """
    return any(s is not None and s.s == state for s in in_flight)


def conflict_stage2(next_state: int, in_flight: Iterable[Optional[Sample]]) -> bool:
    """Stall-mode hazard check before the stage-2 policy reads of ``s'``."""
    return any(s is not None and s.s == next_state for s in in_flight)
