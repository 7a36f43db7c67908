"""The asyncio session gateway: NDJSON TCP in front of a fleet backend.

One :class:`Gateway` owns one :class:`~repro.serve.session.SessionManager`
and serves it over two listeners:

* a **TCP** listener speaking the newline-delimited-JSON protocol of
  :mod:`repro.serve.protocol` — the data plane;
* an optional **HTTP** listener answering ``GET /metrics`` with the
  OpenMetrics rendering of the attached telemetry registry and
  ``GET /healthz`` with a liveness probe — the observability plane.

The data plane is one small :class:`asyncio.Protocol` per connection,
not a stream reader/writer pair.  Backend lane operations take
microseconds (one kernel call on ``native``), so the transport, not the
sample, is the cost to cut: the protocol finds complete lines in
``data_received`` and serves each one synchronously — decode, apply,
encode and ``transport.write`` in one event-loop callback, with no
future, task or coroutine.  Only two kinds of request wait, and only
those run as a task: an ``open`` queued for a lane, and any reply while
the ``response_delay_s`` chaos hook is set.  While one is in flight the
connection stops reading and holds the lines it already received, so
replies on one connection stay strictly in request order.
Back-pressure is the transport's own: when a peer stops reading its
replies and the write buffer passes its high-water mark, that
connection stops reading requests until the buffer drains, so a slow
peer stalls only itself.

Admission is a queue-with-timeout: when every lane is leased, an
``open`` waits on a future that session closes (and orphan expiries)
resolve, and is refused with ``at_capacity`` after
``admission_timeout_s``.

A background maintenance task probes worker health every
``maintenance_interval_s`` (via ``SessionManager.maintenance()``, which
recovers sessions hit by a dead or hung shard worker, fails over to a
fresh backend when a shard is quarantined, and scrubs lanes by journal
replay), expires orphaned sessions whose linger lapsed, and pulses the
telemetry session so live exporters stay fresh.

Connections own their sessions, but ownership survives the connection:
a session whose connection drops is *orphaned* for
``session_linger_s`` — a reconnecting client presenting the session's
resume token adopts it mid-stream — and only closed (lane recycled)
when the grace period lapses.

Graceful degradation under pressure (all tenant-visible outcomes are
clean typed errors, never silence):

* the admission queue is **bounded** (``max_admission_queue``): open
  requests beyond it are shed immediately with ``at_capacity`` plus a
  computed ``retry_after`` hint instead of piling up waiters;
* every connection has a small **circuit breaker**: after
  ``breaker_threshold`` consecutive client-fault errors (bad frames,
  forbidden/unknown sessions) further requests are refused with
  ``throttled`` until ``breaker_cooldown_s`` passes, capping the cost
  of a misbehaving or byte-garbling peer;
* a request line longer than :data:`~repro.serve.protocol.MAX_LINE`
  closes that connection only;
* ``response_delay_s`` (chaos hook) injects latency in front of every
  response so client timeout/retry paths can be exercised end-to-end.

Observability (all optional, see :mod:`repro.telemetry`): a ``tracer`` makes
the gateway open one ``server.<op>`` span per request — parented under
the client's span when the request carries the protocol's ``trace``
field — plus a ``server.admit`` span while an ``open`` waits in the
admission queue; a ``recorder`` files structured events (breaker
trips, orphan expiries) into the flight recorder; and when the manager
has a telemetry session, per-tenant SLO latency histograms and
error-budget counters land in the same registry ``/metrics`` renders.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import logging
import threading
import time
from typing import Awaitable, Optional, Union

from . import protocol
from .protocol import ProtocolError
from .session import SessionManager

log = logging.getLogger("repro.serve")

#: Reusable no-op context for the untraced request path.
_NOSPAN = contextlib.nullcontext()

#: Error codes that count against a connection's circuit breaker —
#: client faults only; server-side pressure must not trip the breaker.
_BREAKER_FAULTS = frozenset(
    {protocol.E_BAD_REQUEST, protocol.E_FORBIDDEN, protocol.E_NO_SESSION}
)

#: Per-op server span names, precomputed off the hot path.
_SPAN_NAMES = {op: f"server.{op}" for op in protocol.OPS}


class _Breaker:
    """Per-connection consecutive-fault circuit breaker."""

    __slots__ = ("threshold", "cooldown_s", "faults", "open_until")

    def __init__(self, threshold: int, cooldown_s: float):
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self.faults = 0
        self.open_until = 0.0

    def check(self, now: float) -> float:
        """Seconds until the breaker closes again (0.0 = closed)."""
        return max(0.0, self.open_until - now)

    def record(self, code: Optional[str], now: float) -> bool:
        """Account one response: ``code`` is the error code or None (ok).

        Returns True when this response tripped the breaker open.
        """
        if code is None or code not in _BREAKER_FAULTS:
            self.faults = 0
            return False
        self.faults += 1
        if self.threshold > 0 and self.faults >= self.threshold:
            self.open_until = now + self.cooldown_s
            self.faults = 0
            return True
        return False


async def _reply_later(reply: Union[dict, Awaitable[dict]], delay: float) -> dict:
    """Finish a reply that waits: a queued ``open``, the chaos delay, or both."""
    if not isinstance(reply, dict):
        reply = await reply
    if delay > 0:
        await asyncio.sleep(delay)
    return reply


class _Connection(asyncio.Protocol):
    """One data-plane connection: frames NDJSON lines and serves them in
    order, synchronously unless a request has to wait."""

    def __init__(self, gateway: "Gateway"):
        self._gateway = gateway
        self.conn_id = next(gateway._conn_ids)
        self._breaker = _Breaker(gateway.breaker_threshold, gateway.breaker_cooldown_s)
        self.transport: Optional[asyncio.Transport] = None
        #: Bytes received and not yet served; the newline search resumes
        #: at ``_scan`` so a long line is never rescanned per chunk.
        self._buf = bytearray()
        self._scan = 0
        #: The request in flight as a task; lines behind it wait in ``_buf``.
        self._task: Optional[asyncio.Task] = None
        self._write_paused = False
        self._eof = False
        self._lost = False

    # -- transport callbacks --------------------------------------------- #

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        self._gateway._conns.add(self)

    def data_received(self, data: bytes) -> None:
        self._buf += data
        if self._task is None and not self._write_paused:
            self._serve_buffered()

    def eof_received(self) -> bool:
        # Half-close: answer what was already sent, then close; True
        # keeps the write side open.  A last line without its newline is
        # served too, as a stream ``readline`` returns it.
        self._eof = True
        if self._buf and not self._buf.endswith(b"\n"):
            self._buf += b"\n"
        if self._task is None and not self._write_paused:
            self._serve_buffered()
        return True

    def pause_writing(self) -> None:
        # The peer is not reading its replies: stop reading its requests.
        self._write_paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self._write_paused = False
        self._resume()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._lost = True
        if self._task is not None:
            self._task.cancel()
        gateway = self._gateway
        gateway._conns.discard(self)
        # Orphan (don't close) this connection's sessions: the lane
        # lingers for session_linger_s so a token-bearing reconnect can
        # adopt it; the maintenance loop expires the rest.
        orphaned = gateway.manager.orphan_owned(self.conn_id)
        if orphaned:
            log.info(
                "connection %d dropped; orphaned session(s): %s",
                self.conn_id,
                orphaned,
            )

    # -- framing and ordering -------------------------------------------- #

    def _serve_buffered(self) -> None:
        """Serve the complete lines in the buffer, in order, until one
        has to wait (a task in flight or a full write buffer)."""
        buf = self._buf
        start = 0
        scan = self._scan
        while True:
            end = buf.find(b"\n", scan)
            if end < 0:
                scan = len(buf)
                if scan - start > protocol.MAX_LINE:
                    self._oversized()
                    return
                break
            if end - start > protocol.MAX_LINE:
                self._oversized()
                return
            line = buf[start:end]
            start = scan = end + 1
            self._serve(line)
            if self._task is not None or self._write_paused or self._lost:
                break
        if start:
            del buf[:start]
            scan -= start
        self._scan = scan
        if self._eof and self._task is None and not self._write_paused:
            self.transport.close()

    def _oversized(self) -> None:
        log.warning(
            "connection %d sent a line over %d bytes; closing it",
            self.conn_id,
            protocol.MAX_LINE,
        )
        self._buf.clear()
        self.transport.close()

    def _serve(self, line: bytes) -> None:
        gateway = self._gateway
        reply = gateway._dispatch(line, self.conn_id, self._breaker)
        delay = gateway.response_delay_s
        if delay <= 0 and type(reply) is dict:
            self.transport.write(protocol.encode(reply))
            return
        # A request that waits: stop reading and hold the lines already
        # received until its reply is written.
        self.transport.pause_reading()
        self._task = task = asyncio.ensure_future(_reply_later(reply, delay))
        task.add_done_callback(self._reply_ready)

    def _reply_ready(self, task: asyncio.Task) -> None:
        self._task = None
        if task.cancelled():
            return
        exc = task.exception()
        if exc is not None:  # pragma: no cover - _dispatch answers every error
            log.error("connection %d: reply task failed: %r", self.conn_id, exc)
            self.transport.close()
        elif not self._lost:
            self.transport.write(protocol.encode(task.result()))
            self._resume()

    def _resume(self) -> None:
        """Serve the lines held while blocked, then read again."""
        if self._task is not None or self._write_paused or self._lost:
            return
        self._serve_buffered()
        if self._task is None and not self._write_paused:
            self.transport.resume_reading()


class Gateway:
    """Serve a :class:`SessionManager` over NDJSON TCP (+ HTTP metrics)."""

    def __init__(
        self,
        manager: SessionManager,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        http_port: Optional[int] = None,
        admission_timeout_s: float = 1.0,
        maintenance_interval_s: float = 0.25,
        max_admission_queue: int = 64,
        breaker_threshold: int = 32,
        breaker_cooldown_s: float = 1.0,
        response_delay_s: float = 0.0,
        tracer=None,
        recorder=None,
    ):
        self.manager = manager
        self.host = host
        self.port = port
        self.http_port = http_port
        self.admission_timeout_s = admission_timeout_s
        self.maintenance_interval_s = maintenance_interval_s
        self.max_admission_queue = max_admission_queue
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown_s = breaker_cooldown_s
        #: Chaos hook: sleep this long before writing every response.
        self.response_delay_s = response_delay_s
        self._server: Optional[asyncio.base_events.Server] = None
        self._http_server: Optional[asyncio.base_events.Server] = None
        self._maintenance: Optional[asyncio.Task] = None
        #: Futures of the opens waiting for a lane; a close resolves them.
        self._lane_waiters: set[asyncio.Future] = set()
        self._admission_waiters = 0
        self._conns: set[_Connection] = set()
        self._conn_ids = itertools.count(1)
        self._closing = False
        #: Optional :class:`repro.telemetry.tracing.Tracer` (per-request
        #: ``server.<op>`` spans) and
        #: :class:`repro.telemetry.recorder.FlightRecorder` (structured events).
        self._tracer = tracer
        self._recorder = recorder
        #: Per-tenant SLO instruments, written into the same registry
        #: the ``/metrics`` endpoint renders (None without telemetry).
        self._slo = None
        if manager._telemetry is not None:
            from ..telemetry.slo import SloTracker

            self._slo = SloTracker(manager._telemetry.registry)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        """Bind the listeners (resolving port 0) and start maintenance."""
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: _Connection(self), self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.http_port is not None:
            self._http_server = await asyncio.start_server(
                self._handle_http, self.host, self.http_port
            )
            self.http_port = self._http_server.sockets[0].getsockname()[1]
        self._maintenance = asyncio.create_task(self._maintenance_loop())
        log.info(
            "gateway listening on %s:%d (%d lanes, %d session slots)",
            self.host,
            self.port,
            self.manager.K,
            self.manager.max_sessions,
        )

    async def serve_forever(self) -> None:
        """Serve until cancelled; the caller then awaits :meth:`close`."""
        if self._server is None:
            await self.start()
        await asyncio.get_running_loop().create_future()

    async def close(self) -> None:
        """Graceful shutdown: stop accepting, drop live connections, close
        sessions + backend."""
        self._closing = True
        if self._maintenance is not None:
            self._maintenance.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._maintenance
        servers = [s for s in (self._server, self._http_server) if s is not None]
        for server in servers:
            server.close()
        # Abort, not close: a peer that stopped reading would hold a
        # flushing close open forever, and Server.wait_closed waits for
        # every connection (Python 3.12+).
        for conn in list(self._conns):
            conn.transport.abort()
        for server in servers:
            await server.wait_closed()
        self.manager.close_all()
        backend_close = getattr(self.manager.backend, "close", None)
        if backend_close is not None:
            backend_close()

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #

    async def _maintenance_loop(self) -> None:
        while True:
            await asyncio.sleep(self.maintenance_interval_s)
            try:
                recovered = await asyncio.to_thread(self.manager.maintenance)
                if recovered:
                    log.warning(
                        "recovered %d session(s) after worker failure: %s",
                        len(recovered),
                        recovered,
                    )
                expired = await asyncio.to_thread(self.manager.expire_orphans)
                if expired:
                    log.info("expired %d orphaned session(s): %s", len(expired), expired)
                    self._event("orphans_expired", sessions=expired)
                    self._notify_admission()
            except Exception:  # pragma: no cover - defensive
                log.exception("maintenance probe failed")
            telemetry = self.manager._telemetry
            if telemetry is not None:
                telemetry.pulse()

    # ------------------------------------------------------------------ #
    # TCP data plane (framing and ordering live in _Connection)
    # ------------------------------------------------------------------ #

    def _dispatch(
        self, line: bytes, conn_id: int, breaker: _Breaker
    ) -> Union[dict, Awaitable[dict]]:
        """Serve one request line synchronously and return its reply.

        The one exception is an ``open`` that has to queue for a lane:
        for it this returns a coroutine that finishes the request, which
        the connection runs as a task.
        """
        req: dict = {}
        code: Optional[str] = None
        op = None
        tenant: Optional[str] = None
        queued = None
        t0 = time.perf_counter()
        try:
            req = protocol.decode(line)
            op = req.get("op")
            if type(op) is not str or op not in protocol.OPS:
                raise ProtocolError(
                    protocol.E_BAD_REQUEST, f"unknown op {op!r}"
                )
            if self._closing:
                raise ProtocolError(protocol.E_CLOSED, "gateway is shutting down")
            tenant = self._tenant_for(op, req)
            cooldown = breaker.check(time.monotonic())
            if cooldown > 0:
                code = protocol.E_THROTTLED
                self.manager.note_throttled(tenant)
                return protocol.error(
                    protocol.E_THROTTLED,
                    "circuit breaker open after repeated bad requests",
                    req=req,
                    retry_after=cooldown,
                )
            if (
                op == "open"
                and not self.manager.has_capacity()
                and self._admission_waiters < self.max_admission_queue
            ):
                queued = self._queued_open(req, conn_id, tenant, breaker, t0)
                return queued
            if self._tracer is None or (
                "trace" not in req and op in protocol.SAMPLED_OPS
            ):
                # Hot ops follow the client's head-sampling decision: no
                # incoming context means this request was not sampled, so
                # the server does not trace it either.
                return self._handle_op(op, req, conn_id, tenant)
            with self._request_span(op, req, conn_id):
                return self._handle_op(op, req, conn_id, tenant)
        except Exception as exc:
            code, reply = self._refusal(exc, req)
            return reply
        finally:
            if queued is None:
                self._account(breaker, code, conn_id, op, tenant, t0)

    async def _queued_open(
        self,
        req: dict,
        conn_id: int,
        tenant: Optional[str],
        breaker: _Breaker,
        t0: float,
    ) -> dict:
        """Serve an ``open`` that waits in the admission queue."""
        code: Optional[str] = None
        try:
            with self._request_span("open", req, conn_id):
                deadline = protocol.parse_deadline(req, now=time.monotonic())
                await self._wait_for_lane(deadline, tenant)
                return self._handle_op("open", req, conn_id, tenant)
        except Exception as exc:
            code, reply = self._refusal(exc, req)
            return reply
        finally:
            self._account(breaker, code, conn_id, "open", tenant, t0)

    @staticmethod
    def _refusal(exc: Exception, req: dict) -> tuple[str, dict]:
        """The error code and reply for an exception raised serving ``req``."""
        if isinstance(exc, ProtocolError):
            return exc.code, protocol.error(
                exc.code, exc.detail, req=req, retry_after=exc.retry_after
            )
        # A bug in a handler answers `internal` instead of dropping the
        # connection.
        log.exception("internal error serving %r", req.get("op"))
        return protocol.E_INTERNAL, protocol.error(
            protocol.E_INTERNAL, str(exc), req=req
        )

    def _account(
        self,
        breaker: _Breaker,
        code: Optional[str],
        conn_id: int,
        op,
        tenant: Optional[str],
        t0: float,
    ) -> None:
        """Feed one reply to the breaker and the tenant's SLO instruments."""
        if breaker.record(code, time.monotonic()):
            self._event("breaker_trip", conn=conn_id, tenant=tenant)
        if self._slo is not None and type(op) is str and op in protocol.OPS:
            self._slo.observe(tenant, op, (time.perf_counter() - t0) * 1e3)
            if code is not None:
                self._slo.error(tenant, code)

    def _request_span(self, op: str, req: dict, conn_id: int):
        """The request's ``server.<op>`` span, or a no-op context."""
        if self._tracer is None:
            return _NOSPAN
        ctx = protocol.parse_trace(req)
        if ctx is None and op in protocol.SAMPLED_OPS:
            return _NOSPAN  # a malformed context: not sampled either
        # Parented under the client's span when the request carries a
        # `trace` field.
        span = self._tracer.span(_SPAN_NAMES[op], parent=ctx)
        span.set("conn", conn_id)
        return span

    def _tenant_for(self, op: str, req: dict) -> Optional[str]:
        """Resolve the tenant a request bills to (None -> ``anon``)."""
        if op == "open":
            return protocol.parse_tenant(req)
        sid = req.get("session")
        if isinstance(sid, str):
            return self.manager.tenant_of(sid)
        return None

    def _span(self, name: str, **attrs):
        if self._tracer is None:
            return _NOSPAN
        attrs = {k: v for k, v in attrs.items() if v is not None}
        return self._tracer.span(name, attrs=attrs or None)

    def _event(self, kind: str, **fields) -> None:
        if self._recorder is not None:
            try:
                self._recorder.record_event(kind, **fields)
            except Exception:  # pragma: no cover - recorder is best-effort
                pass

    def _handle_op(
        self, op: str, req: dict, conn_id: int, tenant: Optional[str] = None
    ) -> dict:
        manager = self.manager
        deadline = protocol.parse_deadline(req, now=time.monotonic())
        if op == "ping":
            return protocol.ok({"pong": True}, req=req)
        if op == "server":
            info = manager.server_info()
            info["protocol"] = protocol.PROTOCOL
            return protocol.ok(info, req=req)
        if op == "open":
            rec = self._admit(conn_id, tenant)
            return protocol.ok(
                {
                    "session": rec.sid,
                    "lane": rec.lane,
                    "salt": rec.salt,
                    "token": rec.token,
                    "states": manager.backend.S,
                    "actions": manager.backend.A,
                },
                req=req,
            )

        sid = req.get("session")
        if not isinstance(sid, str):
            raise ProtocolError(
                protocol.E_BAD_REQUEST, "field 'session' must be a string"
            )
        token = req.get("token")
        if token is not None and not isinstance(token, str):
            raise ProtocolError(
                protocol.E_BAD_REQUEST, "field 'token' must be a string"
            )
        # Ownership gate: pass-through for the owner, adoption with the
        # resume token, `forbidden` otherwise.
        manager.attach(sid, conn_id, token)
        seq = protocol.parse_seq(req)
        if op in protocol.MUTATING_OPS and seq is not None:
            cached = manager.seq_check(sid, seq)
            if cached is not None:
                # Retried request: replay the cached reply.  The replay
                # is the server-visible trace of a client retry, so it
                # feeds the tenant's retry budget.
                manager.note_retry(tenant)
                return cached
        if deadline is not None and time.monotonic() >= deadline:
            raise ProtocolError(
                protocol.E_DEADLINE, "deadline expired before the op was applied"
            )
        S, A = manager.backend.S, manager.backend.A

        # NOTE: no awaits between seq_check above and seq_record below —
        # the apply-and-record step is atomic on the event loop (every
        # lane op is served synchronously; only the admission wait of an
        # `open` awaits, and it is not a session op).
        reply: Optional[dict] = None
        if op == "learn":
            if "batch" in req:
                batch = protocol.parse_batch(req, num_states=S, num_actions=A)
                q_new = manager.learn_batch(sid, batch, deadline=deadline)
                reply = protocol.ok({"q": q_new, "n": len(batch)}, req=req)
            else:
                s, a, r, ns, t = protocol.parse_transition(
                    req, num_states=S, num_actions=A
                )
                q_new = manager.learn(sid, s, a, r, ns, t)
                reply = protocol.ok({"q": q_new, "n": 1}, req=req)
        elif op == "act":
            s = protocol.require_int(req, "s", hi=S)
            explore = req.get("explore", True)
            if not isinstance(explore, bool):
                raise ProtocolError(
                    protocol.E_BAD_REQUEST, "field 'explore' must be a boolean"
                )
            reply = protocol.ok({"action": manager.act(sid, s, explore)}, req=req)
        elif op == "table":
            state = None
            if "s" in req:
                state = protocol.require_int(req, "s", hi=S)
            reply = protocol.ok({"q": manager.q_row(sid, state)}, req=req)
        elif op == "checkpoint":
            tag = req.get("tag")
            if tag is not None and not isinstance(tag, str):
                raise ProtocolError(
                    protocol.E_BAD_REQUEST, "field 'tag' must be a string"
                )
            reply = protocol.ok({"tag": manager.checkpoint(sid, tag)}, req=req)
        elif op == "restore":
            tag = req.get("tag")
            if tag is not None and not isinstance(tag, str):
                raise ProtocolError(
                    protocol.E_BAD_REQUEST, "field 'tag' must be a string"
                )
            reply = protocol.ok({"tag": manager.restore(sid, tag)}, req=req)
        elif op == "stats":
            reply = protocol.ok(manager.stats(sid), req=req)
        elif op == "close":
            manager.close(sid)
            reply = protocol.ok({"closed": sid}, req=req)
            self._notify_admission()
            return reply
        if reply is None:
            raise ProtocolError(protocol.E_BAD_REQUEST, f"unhandled op {op!r}")
        if op in protocol.MUTATING_OPS and seq is not None:
            manager.seq_record(sid, seq, reply)
        return reply

    def _admit(self, conn_id: Optional[int], tenant: Optional[str] = None):
        """Open a session on a free lane, or shed the ``open``.

        :meth:`_dispatch` queues an ``open`` that finds no free lane
        while the admission queue has room, so reaching here without
        capacity means the queue is full (``max_admission_queue``
        waiters): the open is shed at once with ``at_capacity`` and a
        computed ``retry_after`` instead of stacking up.
        """
        manager = self.manager
        if manager.has_capacity():
            return manager.open(owner=conn_id, tenant=tenant)
        manager.note_shed(tenant)
        raise ProtocolError(
            protocol.E_AT_CAPACITY,
            f"admission queue full ({self._admission_waiters} waiters); "
            "request shed",
            retry_after=manager.retry_after_hint(self._admission_waiters),
        )

    async def _wait_for_lane(
        self, deadline: Optional[float] = None, tenant: Optional[str] = None
    ) -> None:
        """Wait in the admission queue until a lane is free, for at most
        ``admission_timeout_s`` (a request deadline tightens the budget);
        refuses with ``at_capacity`` when none frees in time."""
        manager = self.manager
        timeout = self.admission_timeout_s
        if deadline is not None:
            timeout = min(timeout, max(0.0, deadline - time.monotonic()))
        loop = asyncio.get_running_loop()
        give_up = loop.time() + timeout
        self._admission_waiters += 1
        try:
            # The queueing wait gets its own span so a merged trace
            # shows admission time distinct from lane execution.
            with self._span("server.admit", tenant=tenant):
                # Every wake-up re-checks: another connection's open may
                # take the freed lane before this task resumes.
                while not manager.has_capacity():
                    remaining = give_up - loop.time()
                    if remaining <= 0:
                        raise asyncio.TimeoutError
                    waiter = loop.create_future()
                    self._lane_waiters.add(waiter)
                    try:
                        await asyncio.wait_for(waiter, remaining)
                    finally:
                        self._lane_waiters.discard(waiter)
        except asyncio.TimeoutError:
            manager.note_rejected(tenant)
            raise ProtocolError(
                protocol.E_AT_CAPACITY,
                f"no session slot freed within {timeout:.3g}s",
                retry_after=manager.retry_after_hint(self._admission_waiters - 1),
            ) from None
        finally:
            self._admission_waiters -= 1

    def _notify_admission(self) -> None:
        """Wake every queued ``open``: a lane may be free."""
        for waiter in self._lane_waiters:
            if not waiter.done():
                waiter.set_result(None)

    # ------------------------------------------------------------------ #
    # HTTP observability plane
    # ------------------------------------------------------------------ #

    async def _handle_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request_line = await reader.readline()
            # Drain headers until the blank line; we only route on the path.
            while True:
                header = await reader.readline()
                if header in (b"\r\n", b"\n", b""):
                    break
            parts = request_line.split()
            path = parts[1].decode("latin-1") if len(parts) >= 2 else "/"
            if path == "/healthz":
                body = b"ok\n"
                ctype = "text/plain; charset=utf-8"
                status = "200 OK"
            elif path == "/metrics":
                body = self._render_metrics().encode()
                ctype = "application/openmetrics-text; version=1.0.0; charset=utf-8"
                status = "200 OK"
            else:
                body = b"not found\n"
                ctype = "text/plain; charset=utf-8"
                status = "404 Not Found"
            writer.write(
                (
                    f"HTTP/1.1 {status}\r\n"
                    f"Content-Type: {ctype}\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    "Connection: close\r\n\r\n"
                ).encode()
                + body
            )
            await writer.drain()
        except (ConnectionError, IndexError):  # pragma: no cover - peer reset
            pass
        finally:
            writer.close()
            with contextlib.suppress(ConnectionError):
                await writer.wait_closed()

    def _render_metrics(self) -> str:
        from ..telemetry.counters import render_openmetrics

        telemetry = self.manager._telemetry
        if telemetry is None:
            return "# EOF\n"
        return render_openmetrics(telemetry.registry, namespace="qtaccel")


def run_gateway_in_thread(gateway: Gateway) -> tuple[threading.Thread, asyncio.AbstractEventLoop]:
    """Boot ``gateway`` on a dedicated event-loop thread (tests, benches).

    Returns once the listeners are bound (``gateway.port`` is resolved).
    Shut down with::

        asyncio.run_coroutine_threadsafe(gateway.close(), loop).result()
        loop.call_soon_threadsafe(loop.stop); thread.join()
    """
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def _run() -> None:
        asyncio.set_event_loop(loop)
        loop.run_until_complete(gateway.start())
        started.set()
        loop.run_forever()
        # Drain cancellations queued by close() before the loop winds down.
        loop.run_until_complete(loop.shutdown_asyncgens())
        loop.close()

    thread = threading.Thread(target=_run, name="serve-gateway", daemon=True)
    thread.start()
    started.wait()
    return thread, loop
