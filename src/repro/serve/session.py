"""Session bookkeeping: leasing fleet lanes to external clients.

The :class:`SessionManager` is the synchronous heart of the gateway —
it owns the mapping from client sessions to backend lanes and is the
only component that touches the backend.  The asyncio layer in
:mod:`repro.serve.gateway` is a thin transport over it, so everything
behaviourally interesting (admission, recycling, checkpointing, crash
recovery) is testable without a socket.

A *session* is one leased lane plus its replay journal:

* **lease** — ``open()`` pops a free lane, re-seeds it with a fresh
  salt via ``backend.reset_lane`` (salts count up from ``backend.K``
  so they can never collide with the native lane salts ``0..K-1``),
  and snapshots the pristine lane as the journal's base;
* **journal** — every ``learn`` and every *exploring* ``act`` is
  appended (non-exploring queries are pure table reads and consume no
  LFSR draw, so they need no replay).  The journal is re-based onto a
  fresh lane snapshot every ``checkpoint_every`` entries, keeping
  recovery replay O(``checkpoint_every``) regardless of session length;
* **recovery** — when :meth:`maintenance` learns from
  ``backend.check_workers()`` that a crashed shard rolled lanes back,
  each affected session is restored from its journal base and the
  journal replayed.  Replay re-consumes the same LFSR draws in the
  same order, so the recovered lane is bit-identical to the pre-crash
  one (asserted by the test suite);
* **recycle** — ``close()`` returns the lane to the free pool; the
  next lease re-seeds it, so sessions can never observe each other's
  tables.

Per-tenant named checkpoints ride on the existing
:class:`~repro.robustness.checkpoint.CheckpointStore` (a small ring per
session); restoring one also re-bases the journal so crash recovery
and explicit restore compose.
"""

from __future__ import annotations

import itertools
import secrets
import threading
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from ..backends.base import lane_transitions
from ..envs.base import DenseMdp
from ..robustness.checkpoint import CheckpointStore
from .protocol import (
    E_AT_CAPACITY,
    E_BAD_REQUEST,
    E_DEADLINE,
    E_FORBIDDEN,
    E_NO_SESSION,
    ProtocolError,
)
from ..telemetry.slo import DEFAULT_TENANT, sanitize_tenant

#: Reusable no-op context for the untraced hot path (nullcontext is
#: stateless, so one shared instance serves every call).
_NOSPAN = nullcontext()


def serve_world(num_states: int, num_actions: int) -> DenseMdp:
    """A placeholder world for serve-only fleets.

    External transitions bypass the backend's environment tables
    entirely — only the ``(|S|, |A|)`` shape matters — so a gateway
    that never calls ``run()`` can be built over this trivial MDP.
    """
    return DenseMdp(
        next_state=np.zeros((num_states, num_actions), dtype=np.int32),
        rewards=np.zeros((num_states, num_actions), dtype=np.float64),
        terminal=np.zeros(num_states, dtype=bool),
        start_states=np.array([0], dtype=np.int64),
        name=f"serve-{num_states}x{num_actions}",
    )


def default_serve_engine() -> str:
    """The engine a gateway serves on when none is named: ``"native"``
    when a C compiler can build the fused kernel here, else
    ``"vectorized"`` (the same program in numpy)."""
    from ..backends.native import native_available

    return "native" if native_available()[0] else "vectorized"


def build_serve_backend(
    config,
    *,
    engine: Optional[str] = None,
    lanes: int = 64,
    num_states: int = 128,
    num_actions: int = 4,
    num_workers: int = 2,
    mp_context: Optional[str] = None,
    telemetry=None,
    **backend_kw,
):
    """Construct a fleet backend sized for serving (via ``make_engine``).

    ``engine`` defaults to :func:`default_serve_engine`.  Extra keyword
    arguments pass through to the backend constructor (e.g. the sharded
    backend's ``ping_timeout_s``/``hang_timeout_s`` watchdog knobs,
    tightened by the chaos campaign).
    """
    from ..core.engine import make_engine

    if engine is None:
        engine = default_serve_engine()
    world = serve_world(num_states, num_actions)
    kw: dict = {"num_agents": lanes, "telemetry": telemetry, **backend_kw}
    if engine == "sharded":
        kw["num_workers"] = num_workers
        if mp_context is not None:
            kw["mp_context"] = mp_context
        return make_engine(config, engine="sharded", mdps=world, **kw)
    if engine == "scalar":
        from ..backends.base import make_fleet_backend

        return make_fleet_backend(world, config, backend="scalar", **kw)
    return make_engine(config, engine=engine, mdps=world, **kw)


def _columns(rows: Sequence[tuple]) -> tuple[tuple, tuple]:
    """``(s, a, r, ns, t)`` rows transposed: the five field tuples, and
    the five ``apply_transition`` columns built from them."""
    fields = tuple(zip(*rows)) if rows else ((),) * 5
    if len(fields) != 5:
        raise ValueError("each transition must be (s, a, r, ns, t)")
    s, a, r, ns, t = fields
    # np.array keeps the index columns' dtype honest (a float or bool
    # state is refused downstream); rewards and flags convert in one pass.
    return fields, (
        np.array(s), np.array(a), np.fromiter(r, float, len(r)),
        np.array(ns), np.fromiter(t, bool, len(t)),
    )


def _lane_states_equal(a: dict, b: dict) -> bool:
    """Field-wise equality of two ``lane_state`` payloads (bit-exact)."""
    if set(a) != set(b):
        return False
    for key, val in a.items():
        other = b[key]
        if isinstance(val, dict):
            if val != other:
                return False
        elif not np.array_equal(np.asarray(val), np.asarray(other)):
            return False
    return True


@dataclass
class SessionRecord:
    """One live client session: a leased lane plus its replay journal."""

    sid: str
    lane: int
    salt: int
    #: Sanitized tenant label (``anon`` when ``open`` carried none);
    #: keys the per-tenant SLO histograms and error budgets.
    tenant: str = DEFAULT_TENANT
    #: Resume token: a connection that presents it adopts the session.
    token: str = ""
    #: Opaque id of the owning connection (None for direct API users).
    owner: Optional[int] = None
    #: Monotonic time the owning connection dropped (None while owned).
    orphaned_at: Optional[float] = None
    #: Monotonic open time (feeds the retry_after lifetime estimate).
    opened_at: float = 0.0
    #: Highest applied ``seq`` request id, with its cached response —
    #: the exactly-once retry cache (see protocol.py).
    last_seq: int = 0
    last_reply: Optional[dict] = field(default=None, repr=False)
    #: Lane snapshot the journal replays on top of.
    base: dict = field(repr=False, default=None)
    #: Ops since ``base``: ``("learn", s, a, r, ns, t)`` / ``("act", s)``.
    journal: list = field(default_factory=list, repr=False)
    #: Named per-tenant checkpoints (each entry: lane snapshot + journal).
    store: CheckpointStore = field(default_factory=CheckpointStore, repr=False)
    samples: int = 0
    queries: int = 0
    checkpoints: int = 0
    restores: int = 0
    recoveries: int = 0
    audits: int = 0
    repairs: int = 0


class SessionManager:
    """Multiplexes client sessions onto the lanes of one fleet backend.

    Thread-safe: every public method takes the manager lock, so the
    asyncio gateway, the load generator's worker threads and the
    maintenance loop can share one manager.  Admission is *immediate*
    at this layer — ``open()`` raises ``at_capacity`` when no lane is
    free; the queue-with-timeout lives in the gateway, which owns the
    event loop the wait must happen on.
    """

    def __init__(
        self,
        backend,
        *,
        max_sessions: Optional[int] = None,
        checkpoint_every: int = 64,
        store_capacity: int = 4,
        session_linger_s: float = 2.0,
        audit_every: int = 0,
        failover: Optional[str] = "vectorized",
        telemetry=None,
        tracer=None,
        recorder=None,
    ):
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if session_linger_s < 0:
            raise ValueError("session_linger_s must be non-negative")
        self.backend = backend
        self.K = backend.K
        self.max_sessions = min(max_sessions or self.K, self.K)
        if self.max_sessions < 1:
            raise ValueError("need at least one admissible session")
        self.checkpoint_every = checkpoint_every
        self.store_capacity = store_capacity
        #: How long a session whose connection dropped keeps its lane,
        #: waiting for a token-bearing reconnect, before being closed.
        self.session_linger_s = session_linger_s
        #: Audit (journal-replay scrub) this many sessions per
        #: maintenance pass; 0 disables the scrub.
        self.audit_every = audit_every
        #: Backend engine to fail over to when the current backend
        #: quarantines a shard (None disables failover).
        self.failover_to = failover
        self._lock = threading.RLock()
        self._free: deque[int] = deque(range(self.K))
        self._sessions: dict[str, SessionRecord] = {}
        self._lane_owner: dict[int, str] = {}
        # Session salts start past the native lane salts 0..K-1 so a
        # leased lane can never replay a resident agent's draw stream.
        self._salts = itertools.count(self.K)
        self._sids = itertools.count(1)
        self._audit_cursor = 0
        #: EWMA of observed session lifetimes (seconds); seeds the
        #: computed ``retry_after`` hint on admission refusals.
        self._lifetime_ewma: Optional[float] = None
        self.sessions_opened = 0
        self.sessions_closed = 0
        self.sessions_rejected = 0
        self.sessions_shed = 0
        self.sessions_expired = 0
        self.recoveries = 0
        self.failovers = 0
        self.audits = 0
        self.repairs = 0
        self.transitions_total = 0
        self.queries_total = 0
        self.deadline_aborts = 0
        self.throttled = 0
        #: Per-tenant error-budget/lifecycle totals
        #: (``{tenant: {key: n}}``), mirrored into the registry as
        #: ``serve.tenant.<tenant>.<key>`` counters so one noisy tenant
        #: cannot hide another's burn in the OpenMetrics output.
        self.tenant_stats: dict[str, dict[str, int]] = {}
        #: Optional :class:`repro.telemetry.tracing.Tracer` — spans the
        #: structural ops (open/close/checkpoint/restore/batch/replay/
        #: recovery/audit/failover); single learns/acts stay span-free
        #: here because the gateway's per-request server span already
        #: times them.
        self._tracer = tracer
        #: Optional :class:`repro.telemetry.recorder.FlightRecorder` for
        #: structured events (recoveries, failovers, audit repairs,
        #: deadline aborts).
        self._recorder = recorder

        from ..telemetry.session import current_session

        session = telemetry if telemetry is not None else current_session()
        self._telemetry = session
        self._counters = None
        self._tenant_counters = None
        if session is not None:
            session.attach(self, "serve")
            self._counters = session.group("serve.sessions")
            self._tenant_counters = session.group("serve.tenant")

    # ------------------------------------------------------------------ #
    # Capacity
    # ------------------------------------------------------------------ #

    @property
    def open_sessions(self) -> int:
        return len(self._sessions)

    def has_capacity(self) -> bool:
        with self._lock:
            return bool(self._free) and len(self._sessions) < self.max_sessions

    def note_rejected(self, tenant: Optional[str] = None) -> None:
        """Record one admission refusal (called by the gateway on timeout)."""
        with self._lock:
            self.sessions_rejected += 1
            self._count("sessions_rejected", self.sessions_rejected)
            self._tenant_count(tenant, "sessions_rejected")

    def note_shed(self, tenant: Optional[str] = None) -> None:
        """Record one load-shed refusal (admission queue already full)."""
        with self._lock:
            self.sessions_rejected += 1
            self.sessions_shed += 1
            self._count("sessions_rejected", self.sessions_rejected)
            self._count("sessions_shed", self.sessions_shed)
            self._tenant_count(tenant, "sessions_rejected")
            self._tenant_count(tenant, "sessions_shed")

    def note_throttled(self, tenant: Optional[str] = None) -> None:
        """Record one circuit-breaker refusal (gateway ``throttled``)."""
        with self._lock:
            self.throttled += 1
            self._count("throttled", self.throttled)
            self._tenant_count(tenant, "throttled")

    def note_retry(self, tenant: Optional[str] = None) -> None:
        """Record one exactly-once cache replay (a client retried)."""
        with self._lock:
            self._tenant_count(tenant, "retries")

    def retry_after_hint(self, pending: int = 0) -> float:
        """A computed retry hint for ``at_capacity`` refusals, in seconds.

        Scales the EWMA of observed session lifetimes by how many
        turnovers must happen before the caller (plus ``pending``
        earlier waiters) gets a lane.  Falls back to a small constant
        before any session has completed.
        """
        with self._lock:
            est = self._lifetime_ewma
            if est is None:
                return 0.25
            hint = est * (pending + 1) / max(1, self.max_sessions)
            return min(60.0, max(0.05, hint))

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def open(
        self, owner: Optional[int] = None, tenant: Optional[str] = None
    ) -> SessionRecord:
        """Lease a lane for a new session (``at_capacity`` if none free)."""
        with self._lock, self._span("session.open", tenant=tenant):
            if not self.has_capacity():
                self.sessions_rejected += 1
                self._count("sessions_rejected", self.sessions_rejected)
                self._tenant_count(tenant, "sessions_rejected")
                raise ProtocolError(
                    E_AT_CAPACITY,
                    f"all {self.max_sessions} session slots are leased",
                    retry_after=self.retry_after_hint(),
                )
            lane = self._free.popleft()
            salt = next(self._salts)
            sid = f"s{next(self._sids):06d}"
            self.backend.reset_lane(lane, salt)
            rec = SessionRecord(
                sid=sid,
                lane=lane,
                salt=salt,
                tenant=sanitize_tenant(tenant),
                token=secrets.token_hex(8),
                owner=owner,
                opened_at=time.monotonic(),
                base=self.backend.lane_state(lane),
                store=CheckpointStore(capacity=self.store_capacity),
            )
            self._sessions[sid] = rec
            self._lane_owner[lane] = sid
            self.sessions_opened += 1
            self._count("sessions_open", len(self._sessions))
            self._count("sessions_opened", self.sessions_opened)
            self._tenant_count(tenant, "sessions_opened")
            return rec

    def close(self, sid: str) -> None:
        """End a session, returning its lane to the free pool."""
        with self._lock:
            rec = self._get(sid)
            del self._sessions[sid]
            del self._lane_owner[rec.lane]
            self._free.append(rec.lane)
            self.sessions_closed += 1
            lifetime = time.monotonic() - rec.opened_at
            if self._lifetime_ewma is None:
                self._lifetime_ewma = lifetime
            else:
                self._lifetime_ewma += 0.2 * (lifetime - self._lifetime_ewma)
            self._count("sessions_open", len(self._sessions))
            self._count("sessions_closed", self.sessions_closed)
            self._tenant_count(rec.tenant, "sessions_closed")

    def close_all(self) -> None:
        with self._lock:
            for sid in list(self._sessions):
                self.close(sid)

    # ------------------------------------------------------------------ #
    # Ownership: resume tokens, orphan linger
    # ------------------------------------------------------------------ #

    def attach(
        self, sid: str, conn: Optional[int], token: Optional[str] = None
    ) -> SessionRecord:
        """Resolve ``sid`` for a session-scoped op from connection ``conn``.

        The owning connection passes straight through.  Any other
        connection must present the session's resume ``token``, in which
        case it *adopts* the session (reconnect-after-drop); without a
        matching token the request is refused with ``forbidden`` — the
        sid alone must not be enough to hijack a lane.  ``conn=None``
        (direct in-process API use) bypasses the ownership check.
        """
        with self._lock:
            rec = self._get(sid)
            if conn is None or rec.owner == conn:
                return rec
            if token is not None and secrets.compare_digest(token, rec.token):
                rec.owner = conn
                rec.orphaned_at = None
                return rec
            raise ProtocolError(
                E_FORBIDDEN,
                f"session {sid} belongs to another connection; "
                "present its resume token to adopt it",
            )

    def orphan_owned(self, conn: int) -> list[str]:
        """Mark every session owned by ``conn`` as orphaned (conn drop).

        Orphaned sessions keep their lanes for ``session_linger_s`` so a
        reconnecting client can adopt them by token; they are closed by
        :meth:`expire_orphans` once the grace period lapses.
        """
        orphaned = []
        now = time.monotonic()
        with self._lock:
            for rec in self._sessions.values():
                if rec.owner == conn and rec.orphaned_at is None:
                    rec.orphaned_at = now
                    orphaned.append(rec.sid)
        return orphaned

    def expire_orphans(self) -> list[str]:
        """Close orphaned sessions whose linger grace period lapsed."""
        now = time.monotonic()
        expired = []
        with self._lock:
            for sid, rec in list(self._sessions.items()):
                if (
                    rec.orphaned_at is not None
                    and now - rec.orphaned_at >= self.session_linger_s
                ):
                    self.close(sid)
                    expired.append(sid)
            if expired:
                self.sessions_expired += len(expired)
                self._count("sessions_expired", self.sessions_expired)
        return expired

    # ------------------------------------------------------------------ #
    # Exactly-once retry cache (``seq`` request ids)
    # ------------------------------------------------------------------ #

    def seq_check(self, sid: str, seq: int) -> Optional[dict]:
        """Gate a mutating op carrying ``seq``.

        Returns the cached response for a duplicate (retried) request,
        ``None`` when the op should be applied, and raises
        ``bad_request`` for a stale ``seq`` (the client moved on — a
        response would be misattributed).
        """
        with self._lock:
            rec = self._get(sid)
            if seq == rec.last_seq and rec.last_reply is not None:
                return rec.last_reply
            if seq <= rec.last_seq:
                raise ProtocolError(
                    E_BAD_REQUEST,
                    f"stale seq {seq} (last applied {rec.last_seq})",
                )
            return None

    def seq_record(self, sid: str, seq: int, reply: dict) -> None:
        """Record the response of an applied mutating op under ``seq``."""
        with self._lock:
            rec = self._sessions.get(sid)
            if rec is not None:
                rec.last_seq = seq
                rec.last_reply = reply

    # ------------------------------------------------------------------ #
    # Traffic
    # ------------------------------------------------------------------ #

    def learn(
        self,
        sid: str,
        state: int,
        action: int,
        reward: float,
        next_state: int,
        terminal: bool = False,
    ) -> int:
        """Retire one external transition on the session's lane."""
        with self._lock:
            rec = self._get(sid)
            try:
                q_new = self.backend.apply_transition(
                    rec.lane, state, action, reward, next_state, terminal
                )
            except ValueError as exc:
                raise ProtocolError(E_BAD_REQUEST, str(exc)) from None
            rec.journal.append(("learn", state, action, reward, next_state, terminal))
            rec.samples += 1
            self.transitions_total += 1
            self._maybe_rebase(rec)
            if self._counters is not None:
                self._counters.inc("transitions")
            return q_new

    #: Transitions applied between deadline checks inside a batch.
    _BATCH_CHECK = 32

    def learn_batch(
        self,
        sid: str,
        transitions: Iterable[tuple],
        deadline: Optional[float] = None,
    ) -> int:
        """Retire a sequence of ``(s, a, r, ns, t)`` transitions; returns
        the last ``q_new``.

        The rows go to the backend as columns, one ``apply_transition``
        call per chunk, and the whole batch is validated
        (:func:`~repro.backends.base.lane_transitions`) before any row is
        applied: a bad row raises ``bad_request`` with nothing applied.

        ``deadline`` (an absolute ``time.monotonic()`` timestamp) budgets
        the request down into the backend lane-ops: the batch is applied
        in chunks of ``_BATCH_CHECK`` rows with the clock checked before
        each and, if the budget runs out mid-application, the lane is
        **rolled back** to its pre-batch state (journal, counters and
        stats included) and ``deadline_exceeded`` raised — nothing is
        applied, so an idempotent retry of the whole batch stays
        exactly-once.  Without a deadline the batch is one chunk.
        """
        rows = list(transitions)
        with self._lock, self._span("session.learn_batch", size=len(rows)):
            rec = self._get(sid)
            chunk = self._BATCH_CHECK if deadline is not None else max(1, len(rows))
            try:
                fields, columns = _columns(rows)
                if chunk < len(rows):
                    # Chunks apply one by one, so all are checked first; a
                    # single chunk is checked whole by its one lane-op call.
                    lane_transitions(self.backend, rec.lane, *columns)
            except (TypeError, ValueError) as exc:
                raise ProtocolError(E_BAD_REQUEST, f"batch rejected: {exc}") from None
            undo = None
            if deadline is not None:
                # O(S·A) insurance: the pre-batch lane state plus the
                # journal position, so an abort can unwind cleanly even
                # across a mid-batch journal rebase.
                undo = (
                    self.backend.lane_state(rec.lane),
                    rec.base,
                    list(rec.journal),
                )
            entries = list(zip(itertools.repeat("learn"), *fields))
            q_new = 0
            applied = 0
            try:
                while applied < len(rows):
                    if deadline is not None and time.monotonic() >= deadline:
                        raise ProtocolError(
                            E_DEADLINE,
                            f"batch deadline expired after {applied}/"
                            f"{len(rows)} transitions; batch rolled back",
                        )
                    end = applied + chunk
                    q_new = self.backend.apply_transition(
                        rec.lane, *(c[applied:end] for c in columns)
                    )
                    rec.journal.extend(entries[applied:end])
                    applied = min(end, len(rows))
            except ValueError as exc:  # only a single chunk, before any row
                raise ProtocolError(E_BAD_REQUEST, f"batch rejected: {exc}") from None
            except ProtocolError:
                if undo is not None:
                    lane_snap, base, journal = undo
                    self.backend.load_lane_state(rec.lane, lane_snap)
                    rec.base = base
                    rec.journal = journal
                self.deadline_aborts += 1
                self._count("deadline_aborts", self.deadline_aborts)
                self._tenant_count(rec.tenant, "deadline_aborts")
                self._event(
                    "deadline_abort",
                    sid=sid,
                    tenant=rec.tenant,
                    applied=applied,
                    batch=len(rows),
                )
                raise
            rec.samples += applied
            self.transitions_total += applied
            self._maybe_rebase(rec)
            if self._counters is not None and applied:
                self._counters.inc("transitions", applied)
            return q_new

    def act(self, sid: str, state: int, explore: bool = True) -> int:
        """Recommend an action from the session's committed tables."""
        with self._lock:
            rec = self._get(sid)
            action = self.backend.query_action(rec.lane, state, explore)
            if explore:
                # An exploring query consumes one policy draw, so it
                # must be journalled for bit-exact crash replay.
                rec.journal.append(("act", state))
                self._maybe_rebase(rec)
            rec.queries += 1
            self.queries_total += 1
            if self._counters is not None:
                self._counters.inc("queries")
            return action

    def q_row(self, sid: str, state: Optional[int] = None) -> list[int]:
        """Raw Q values — one state's row, or the whole table flattened."""
        with self._lock:
            rec = self._get(sid)
            table = self.backend.q[rec.lane]
            if state is None:
                return [int(v) for v in table]
            A = self.backend.A
            return [int(v) for v in table[state * A : (state + 1) * A]]

    # ------------------------------------------------------------------ #
    # Checkpoint / restore
    # ------------------------------------------------------------------ #

    def checkpoint(self, sid: str, tag: Optional[str] = None) -> str:
        """Snapshot the session's lane under ``tag`` (auto-named if None)."""
        with self._lock, self._span("session.checkpoint"):
            rec = self._get(sid)
            rec.checkpoints += 1
            tag = tag if tag is not None else f"ckpt-{rec.checkpoints}"
            rec.store.push(tag, self.backend.lane_state(rec.lane))
            if self._counters is not None:
                self._counters.inc("checkpoints")
            return tag

    def restore(self, sid: str, tag: Optional[str] = None) -> str:
        """Roll the session's lane back to ``tag`` (default: latest)."""
        with self._lock, self._span("session.restore"):
            rec = self._get(sid)
            if tag is None:
                entry = rec.store.latest()
                if entry is None:
                    raise ProtocolError(
                        E_NO_SESSION, f"session {sid} has no checkpoints"
                    )
                tag, state = entry
            else:
                state = rec.store.get(tag)
                if state is None:
                    raise ProtocolError(
                        E_NO_SESSION, f"session {sid} has no checkpoint {tag!r}"
                    )
            self.backend.load_lane_state(rec.lane, state)
            # The restored snapshot becomes the new journal base so a
            # later crash recovery replays from here, not from before
            # the restore.
            rec.base = state
            rec.journal = []
            rec.restores += 1
            if self._counters is not None:
                self._counters.inc("restores")
            return tag

    # ------------------------------------------------------------------ #
    # Crash recovery
    # ------------------------------------------------------------------ #

    def recover_lanes(self, ranges: Sequence[tuple[int, int]]) -> list[str]:
        """Re-derive sessions whose lanes a shard rollback clobbered.

        ``ranges`` is ``check_workers()``'s list of half-open lane
        intervals that were rolled back to the shard checkpoint.  Each
        affected session is restored from its journal base and the
        journal replayed — the replay re-consumes the identical LFSR
        draws, so the lane lands bit-exactly where it was.
        """
        recovered = []
        with self._lock, self._span("session.recover_lanes", ranges=len(ranges)):
            for lo, hi in ranges:
                for lane in range(lo, hi):
                    sid = self._lane_owner.get(lane)
                    if sid is None:
                        continue  # free lane; next lease re-seeds it anyway
                    rec = self._sessions[sid]
                    with self._span(
                        "session.replay", sid=sid, journal=len(rec.journal)
                    ):
                        self._replay(rec)
                    rec.recoveries += 1
                    self.recoveries += 1
                    recovered.append(sid)
            if recovered:
                self._count("recoveries", self.recoveries)
                self._event(
                    "sessions_recovered",
                    sessions=list(recovered),
                    ranges=[list(r) for r in ranges],
                )
        return recovered

    def _replay(self, rec: SessionRecord) -> None:
        """Re-derive ``rec``'s lane from its journal base + journal.

        Replay re-consumes the identical LFSR draws in the identical
        order, so the lane lands bit-exactly where committed traffic
        left it — the one primitive behind crash recovery, the audit
        scrub and backend failover.
        """
        self.backend.load_lane_state(rec.lane, rec.base)
        for entry in rec.journal:
            if entry[0] == "learn":
                _, s, a, r, ns, t = entry
                self.backend.apply_transition(rec.lane, s, a, r, ns, t)
            else:
                self.backend.query_action(rec.lane, entry[1], True)

    def audit_sessions(self, limit: Optional[int] = None) -> list[str]:
        """Journal-replay scrub: detect + repair silent lane corruption.

        For up to ``limit`` sessions (rotating, so every session is
        eventually covered), snapshot the live lane, re-derive it from
        the journal base, and compare.  A mismatch means something
        corrupted the lane state *outside* the journalled op stream —
        a stray shared-memory write, a radiation-style upset — and the
        re-derivation has already repaired it.  Returns the sids that
        needed repair.
        """
        repaired = []
        with self._lock:
            sids = sorted(self._sessions)
            if not sids:
                return repaired
            if limit is None:
                limit = len(sids)
            for i in range(min(limit, len(sids))):
                sid = sids[(self._audit_cursor + i) % len(sids)]
                rec = self._sessions[sid]
                live = self.backend.lane_state(rec.lane)
                self._replay(rec)
                expected = self.backend.lane_state(rec.lane)
                rec.audits += 1
                self.audits += 1
                if not _lane_states_equal(live, expected):
                    rec.repairs += 1
                    self.repairs += 1
                    repaired.append(sid)
                    self._event("audit_repair", sid=sid, lane=rec.lane)
            self._audit_cursor = (self._audit_cursor + min(limit, len(sids))) % max(
                1, len(sids)
            )
            self._count("lane_audits", self.audits)
            if repaired:
                self._count("lane_repairs", self.repairs)
        return repaired

    def maintenance(self) -> list[str]:
        """Probe backend health; recover sessions hit by a dead worker.

        One pass runs, in order: the worker health probe (dead *and*
        hung workers — ``check_workers`` pings each worker with a
        bounded timeout) with journal-replay session recovery; the
        last-resort backend failover when the probe left a shard
        quarantined; and the rotating journal-replay audit scrub (when
        ``audit_every`` > 0).  Runs under the manager lock: a shard
        rollback must not race a concurrent parent-side lane op.
        """
        with self._lock:
            recovered: list[str] = []
            check = getattr(self.backend, "check_workers", None)
            if check is not None:
                ranges = check()
                if ranges:
                    recovered = self.recover_lanes(ranges)
            if (
                self.failover_to is not None
                and getattr(self.backend, "quarantined_workers", None)
            ):
                self.failover()
            if self.audit_every:
                self.audit_sessions(self.audit_every)
            return recovered

    def failover(self) -> str:
        """Last-resort migration onto a fresh single-process backend.

        Builds a new backend (``failover_to``, default the vectorized
        numpy engine), copies every leased lane's state across through
        the checkpoint surface (``lane_state``/``load_lane_state`` —
        the payloads are backend-independent, so the copy is bit-exact),
        swaps it in and closes the old backend.  Free lanes need no
        copying: the next lease re-seeds them.  Tenants observe nothing
        but a brief stall.
        """
        with self._lock, self._span("session.failover"):
            old = self.backend
            from ..backends.base import make_fleet_backend

            if getattr(old, "_homogeneous", True):
                worlds, num_agents = old.mdps[0], old.K
            else:  # pragma: no cover - serve fleets are homogeneous
                worlds, num_agents = list(old.mdps), None
            new = make_fleet_backend(
                worlds,
                old.config,
                backend=self.failover_to or "vectorized",
                num_agents=num_agents,
                salts=getattr(old, "_salts", None),
                telemetry=self._telemetry,
            )
            for rec in self._sessions.values():
                new.load_lane_state(rec.lane, old.lane_state(rec.lane))
            self.backend = new
            self.failovers += 1
            self._count("failovers", self.failovers)
            self._event(
                "failover",
                to=type(new).__name__,
                sessions=len(self._sessions),
            )
            old_close = getattr(old, "close", None)
            if old_close is not None:
                try:
                    old_close()
                except Exception:  # pragma: no cover - best-effort teardown
                    pass
            return type(new).__name__

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def stats(self, sid: str) -> dict:
        with self._lock:
            rec = self._get(sid)
            return {
                "session": rec.sid,
                "lane": rec.lane,
                "salt": rec.salt,
                "samples": rec.samples,
                "queries": rec.queries,
                "checkpoints": rec.checkpoints,
                "restores": rec.restores,
                "recoveries": rec.recoveries,
                "audits": rec.audits,
                "repairs": rec.repairs,
                "last_seq": rec.last_seq,
                "orphaned": rec.orphaned_at is not None,
                "journal_depth": len(rec.journal),
                "tags": rec.store.tags(),
            }

    def server_info(self) -> dict:
        with self._lock:
            return {
                "lanes": self.K,
                "max_sessions": self.max_sessions,
                "open_sessions": len(self._sessions),
                "free_lanes": len(self._free),
                "sessions_opened": self.sessions_opened,
                "sessions_closed": self.sessions_closed,
                "sessions_rejected": self.sessions_rejected,
                "sessions_shed": self.sessions_shed,
                "sessions_expired": self.sessions_expired,
                "recoveries": self.recoveries,
                "failovers": self.failovers,
                "audits": self.audits,
                "repairs": self.repairs,
                "deadline_aborts": self.deadline_aborts,
                "throttled": self.throttled,
                "tenants": {t: dict(v) for t, v in self.tenant_stats.items()},
                "backend": type(self.backend).__name__,
                "states": self.backend.S,
                "actions": self.backend.A,
            }

    def telemetry_snapshot(self) -> dict:
        """Serve-level counters for a telemetry profile."""
        info = self.server_info()
        with self._lock:
            info["transitions"] = self.transitions_total
            info["queries"] = self.queries_total
        return info

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _get(self, sid: str) -> SessionRecord:
        rec = self._sessions.get(sid)
        if rec is None:
            raise ProtocolError(E_NO_SESSION, f"unknown session {sid!r}")
        return rec

    def _maybe_rebase(self, rec: SessionRecord) -> None:
        if len(rec.journal) >= self.checkpoint_every:
            rec.base = self.backend.lane_state(rec.lane)
            rec.journal = []

    def _count(self, name: str, value: int) -> None:
        if self._counters is not None:
            self._counters.set(name, value)

    def _tenant_count(self, tenant: Optional[str], key: str, n: int = 1) -> None:
        """Bump one per-tenant error-budget/lifecycle counter."""
        t = tenant if tenant in self.tenant_stats else sanitize_tenant(tenant)
        stats = self.tenant_stats.setdefault(t, {})
        stats[key] = stats.get(key, 0) + n
        if self._tenant_counters is not None:
            self._tenant_counters.inc(f"{t}.{key}", n)

    def tenant_of(self, sid: str) -> Optional[str]:
        """The (sanitized) tenant of ``sid``, or ``None`` when unknown."""
        with self._lock:
            rec = self._sessions.get(sid)
            return rec.tenant if rec is not None else None

    def _span(self, name: str, **attrs):
        """A session-layer span, or the shared no-op context untraced."""
        if self._tracer is None:
            return _NOSPAN
        attrs = {k: v for k, v in attrs.items() if v is not None}
        return self._tracer.span(name, attrs=attrs or None)

    def _event(self, kind: str, **fields) -> None:
        """Best-effort structured event into the flight recorder."""
        if self._recorder is not None:
            try:
                self._recorder.record_event(kind, **fields)
            except Exception:  # pragma: no cover - recorder is best-effort
                pass
