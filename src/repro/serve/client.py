"""A small resilient blocking client for the session gateway.

:class:`ServeClient` wraps one TCP connection to a gateway and exposes
the wire protocol as plain method calls; :class:`ServeSession` scopes
them to one leased session.  Used by the example, the load generator in
:mod:`repro.perf.serve`, the chaos campaign, the CI smokes, and the
end-to-end tests — anything speaking NDJSON (``nc``, a dozen lines of
any language) works just as well.

Resilience (all opt-out via ``max_attempts=1``):

* **reconnect + retry with full-jitter exponential backoff** on
  transport failures (peer reset, timeout, refused reconnect, garbage
  where a response should be).  A request is only retried when doing so
  is provably safe: either it is naturally idempotent (reads, pings) or
  it carries a per-session ``seq`` request id, in which case the
  gateway's exactly-once cache replays the original response instead of
  re-applying the op;
* **response correlation**: :class:`ServeSession` stamps every mutating
  op with a fresh ``seq`` and the client verifies the echo, so a
  desynchronised stream (e.g. a half-delivered earlier response) is
  detected and repaired by reconnecting rather than misattributed;
* **session resumption**: the resume ``token`` from ``open`` rides on
  every session request, so a retry on a *new* TCP connection adopts
  the session server-side and continues the same lane bit-exactly.

Errors come back as :class:`ServeError` carrying the wire error code
(and the server's ``retry_after`` hint when present), so callers can
branch on ``exc.code == "at_capacity"`` etc.

Observability: constructed with a ``tracer``
(:class:`repro.telemetry.tracing.Tracer`), the client opens one
``client.<op>`` span per request — covering every reconnect/retry
attempt, i.e. the tenant-visible round-trip — and sends its context as
the protocol's optional ``trace`` field, so the gateway's server-side
spans parent under it in a merged timeline.  The hot per-transition
ops (``protocol.SAMPLED_OPS``) are *head-sampled*: only every
``1/trace_sample``-th such request starts a trace (default 1-in-16), a
decision the gateway inherits via the presence of the ``trace`` field,
which is what keeps tracing inside its <5% throughput budget — pass
``trace_sample=1.0`` to trace everything.  Structural ops are always
traced.  A ``tenant`` label, when set, rides on every ``open`` for
per-tenant SLO accounting.  All of it is ignored by gateways that
predate the fields.
"""

from __future__ import annotations

import random
import socket
import time
from typing import Iterable, Optional, Sequence

from . import protocol

#: Default head-sampling rate for the hot ops (``SAMPLED_OPS``): one
#: traced request in sixteen.  A sampled request pays the full two-span
#: client+gateway cost (~25us end-to-end on loopback, GIL ping-pong
#: included), so 1-in-16 keeps steady-state tracing at ~1.5% of serve
#: throughput — comfortably inside the 5% budget that
#: :mod:`repro.telemetry.overhead` gates (see there for the measurement).
DEFAULT_TRACE_SAMPLE = 0.0625

#: Per-op client span names, precomputed off the hot path.
_SPAN_NAMES = {op: f"client.{op}" for op in protocol.OPS}


class ServeError(Exception):
    """A gateway-refused request, carrying its wire error code.

    ``retry_after`` (seconds) is the server's computed hint for
    ``at_capacity``/``throttled`` refusals, else ``None``.
    """

    def __init__(self, code: str, detail: str, *, retry_after: Optional[float] = None):
        super().__init__(f"{code}: {detail}")
        self.code = code
        self.detail = detail
        self.retry_after = retry_after


class ServeClient:
    """One blocking NDJSON connection to a gateway, with retries."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        timeout: float = 30.0,
        max_attempts: int = 3,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 2.0,
        rng: Optional[random.Random] = None,
        tracer=None,
        tenant: Optional[str] = None,
        trace_sample: float = DEFAULT_TRACE_SAMPLE,
    ):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.tracer = tracer
        self.tenant = tenant
        # Deterministic stride sampling (cheaper than random() and
        # reproducible in tests): hot ops trace every Nth request.
        self._trace_stride = (
            max(1, round(1.0 / trace_sample)) if trace_sample > 0 else 0
        )
        self._trace_tick = 0
        self._rng = rng if rng is not None else random.Random()
        self.retries = 0
        self.reconnects = 0
        self._sock: Optional[socket.socket] = None
        self._rfile = None
        self._connect()

    # -- plumbing ------------------------------------------------------ #

    def _connect(self) -> None:
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        self._rfile = self._sock.makefile("rb")

    def _drop(self) -> None:
        """Tear the transport down; the next attempt reconnects fresh.

        Always reconnect rather than reuse after a failure: the old
        stream may hold a late response that would desynchronise
        request/response pairing.
        """
        try:
            if self._rfile is not None:
                self._rfile.close()
        except OSError:  # pragma: no cover - best-effort teardown
            pass
        try:
            if self._sock is not None:
                self._sock.close()
        except OSError:  # pragma: no cover - best-effort teardown
            pass
        self._sock = None
        self._rfile = None

    def _backoff(self, attempt: int) -> None:
        cap = min(self.backoff_cap_s, self.backoff_base_s * (2**attempt))
        time.sleep(self._rng.uniform(0.0, cap))

    def _exchange(self, message: dict) -> dict:
        """One send/receive round-trip on the current transport."""
        if self._sock is None:
            self.reconnects += 1
            self._connect()
        self._sock.sendall(protocol.encode(message))
        line = self._rfile.readline()
        if not line:
            raise ConnectionError("gateway closed the connection")
        try:
            response = protocol.decode(line)
        except protocol.ProtocolError:
            # Garbage where a response should be: the stream can no
            # longer be trusted to stay request-aligned.
            raise ConnectionError("undecodable response frame") from None
        if "seq" in message and response.get("seq") != message["seq"]:
            raise ConnectionError(
                f"response seq {response.get('seq')!r} does not match "
                f"request seq {message['seq']!r}; stream desynchronised"
            )
        return response

    def request(self, message: dict, *, idempotent: bool = False) -> dict:
        """Send one request and block for its response (raises ServeError).

        Transport failures are retried (after reconnecting, with
        full-jitter exponential backoff) only when that cannot
        double-apply the op: the request is ``idempotent``, or it
        carries a session ``seq`` so the gateway's exactly-once cache
        absorbs the replay.
        """
        retry_safe = idempotent or ("seq" in message and "session" in message)
        op = message.get("op")
        if self.tenant is not None and op == "open":
            message = {**message, "tenant": self.tenant}
        if self.tracer is None:
            return self._attempts(message, retry_safe)
        if op in protocol.SAMPLED_OPS:
            # Head sampling: only every Nth hot-op request starts a
            # trace; the gateway inherits the decision from the
            # presence (or absence) of the `trace` field.
            tick = self._trace_tick
            self._trace_tick = tick + 1
            if self._trace_stride == 0 or tick % self._trace_stride:
                return self._attempts(message, retry_safe)
        # One client span covers the whole tenant-visible round-trip,
        # reconnects and retries included; its context rides the wire so
        # the gateway's server span parents under it.
        with self.tracer.span(_SPAN_NAMES.get(op, "client.?")) as span:
            traced = {
                **message,
                "trace": {"trace_id": span.trace_id, "span_id": span.span_id},
            }
            before = self.retries
            try:
                return self._attempts(traced, retry_safe)
            finally:
                if self.retries != before:
                    span.set("retries", self.retries - before)

    def _attempts(self, message: dict, retry_safe: bool) -> dict:
        attempts = self.max_attempts if retry_safe else 1
        last_exc: Optional[Exception] = None
        for attempt in range(attempts):
            if attempt:
                self.retries += 1
                self._backoff(attempt - 1)
            try:
                response = self._exchange(message)
            except (ConnectionError, socket.timeout, OSError) as exc:
                self._drop()
                last_exc = exc
                continue
            if not response.get("ok"):
                raise ServeError(
                    response.get("error", protocol.E_INTERNAL),
                    response.get("detail", "no detail"),
                    retry_after=response.get("retry_after"),
                )
            return response
        assert last_exc is not None
        raise last_exc

    def close(self) -> None:
        self._drop()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- connection-scoped ops ----------------------------------------- #

    def ping(self) -> bool:
        return bool(self.request({"op": "ping"}, idempotent=True).get("pong"))

    def server_info(self) -> dict:
        return self.request({"op": "server"}, idempotent=True)

    def open_session(
        self,
        deadline_ms: Optional[float] = None,
        *,
        tenant: Optional[str] = None,
    ) -> "ServeSession":
        """Lease a lane (raises ``ServeError(at_capacity)`` when full)."""
        message: dict = {"op": "open"}
        if deadline_ms is not None:
            message["deadline_ms"] = deadline_ms
        if tenant is not None:
            message["tenant"] = tenant
        resp = self.request(message)
        return ServeSession(self, resp)


class ServeSession:
    """Session-scoped calls over an open :class:`ServeClient`.

    Every request carries the session's resume ``token`` (so a retried
    request on a fresh connection re-adopts the session), and every
    mutating op a strictly increasing ``seq`` (so a retry is applied
    exactly once).
    """

    def __init__(self, client: ServeClient, opened: dict):
        self._client = client
        self.sid = opened["session"]
        self.lane = opened["lane"]
        self.salt = opened["salt"]
        self.token = opened.get("token")
        self.num_states = opened["states"]
        self.num_actions = opened["actions"]
        self._seq = 0

    def _request(
        self,
        message: dict,
        *,
        mutating: bool = False,
        deadline_ms: Optional[float] = None,
    ) -> dict:
        message["session"] = self.sid
        if self.token is not None:
            message["token"] = self.token
        if mutating:
            self._seq += 1
            message["seq"] = self._seq
        if deadline_ms is not None:
            message["deadline_ms"] = deadline_ms
        return self._client.request(message, idempotent=not mutating)

    def learn(
        self,
        state: int,
        action: int,
        reward: float,
        next_state: int,
        terminal: bool = False,
        *,
        deadline_ms: Optional[float] = None,
    ) -> int:
        """Stream one transition; returns the written raw Q value."""
        return self._request(
            {"op": "learn", "s": state, "a": action, "r": reward,
             "ns": next_state, "t": terminal},
            mutating=True,
            deadline_ms=deadline_ms,
        )["q"]

    def learn_batch(
        self,
        transitions: Iterable[Sequence],
        *,
        deadline_ms: Optional[float] = None,
    ) -> int:
        """Stream many transitions in one round-trip; returns last raw Q."""
        return self._request(
            {"op": "learn", "batch": [list(t) for t in transitions]},
            mutating=True,
            deadline_ms=deadline_ms,
        )["q"]

    def act(
        self,
        state: int,
        explore: bool = True,
        *,
        deadline_ms: Optional[float] = None,
    ) -> int:
        """Ask for an action recommendation at ``state``."""
        return self._request(
            {"op": "act", "s": state, "explore": explore},
            mutating=True,
            deadline_ms=deadline_ms,
        )["action"]

    def table(self, state: Optional[int] = None) -> list[int]:
        """Raw Q values: one state's row, or the full flattened table."""
        message: dict = {"op": "table"}
        if state is not None:
            message["s"] = state
        return self._request(message)["q"]

    def checkpoint(self, tag: Optional[str] = None) -> str:
        message: dict = {"op": "checkpoint"}
        if tag is not None:
            message["tag"] = tag
        return self._request(message, mutating=True)["tag"]

    def restore(self, tag: Optional[str] = None) -> str:
        message: dict = {"op": "restore"}
        if tag is not None:
            message["tag"] = tag
        return self._request(message, mutating=True)["tag"]

    def stats(self) -> dict:
        return self._request({"op": "stats"})

    def close(self) -> None:
        """End the session (tolerates it being already gone server-side)."""
        try:
            self._request({"op": "close"})
        except ServeError as exc:
            if exc.code != protocol.E_NO_SESSION:
                raise
