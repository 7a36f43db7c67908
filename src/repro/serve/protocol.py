"""Wire protocol of the session gateway.

The gateway speaks **newline-delimited JSON** over TCP: every request
and every response is one JSON object on one line, UTF-8 encoded,
terminated by ``\\n``.  Requests carry an ``op`` field and (for
session-scoped operations) a ``session`` id; responses always carry
``ok`` plus either the op's payload (``ok: true``) or an ``error``
code and human-readable ``detail`` (``ok: false``).  Clients may tag
any request with an ``id`` field, which is echoed verbatim on the
response — the gateway answers requests from one connection strictly
in order, so the tag is a convenience, not a correlation requirement.

Three optional request fields harden the protocol against partial
failure (all additive — protocol ``qtaccel-serve/2`` accepts every
``/1`` request):

* ``seq`` — a per-session, strictly increasing integer request id on
  mutating ops (``learn``/``act``/``checkpoint``/``restore``).  It is
  echoed on the response, and the gateway remembers the last applied
  ``seq`` per session together with its response: a retried request
  with the same ``seq`` returns the cached response *without
  re-applying the op*, which is what makes client reconnect-and-retry
  exactly-once (a replayed ``learn`` can never double-apply).
* ``deadline_ms`` — a relative time budget for this request.  The
  gateway refuses expired work with ``deadline_exceeded`` and budgets
  the remainder down into backend lane-ops: a ``learn`` batch that
  runs out of budget mid-application is **rolled back** (nothing
  applied, journal untouched), so a retry stays exactly-once.
* ``token`` — the session's resume token (returned by ``open``).  A
  session whose connection dropped lingers server-side for a grace
  period; any connection presenting the token adopts it and continues
  the same lane bit-exactly.  Requests from a connection that neither
  owns the session nor presents the token are refused (``forbidden``).

Two further optional fields feed the observability layer
(:mod:`repro.telemetry`); both are advisory, and — like every unknown
optional field — a ``/2`` peer that does not understand them MUST
ignore them rather than reject the request:

* ``trace`` — a span context ``{"trace_id": str, "span_id": str}``
  naming the client-side span this request belongs to; the gateway
  parents its server-side spans under it so one request's timeline
  spans client, gateway, session and shard worker.  Malformed values
  are ignored (the request is served untraced), never rejected.
* ``tenant`` — on ``open`` only: a tenant label for per-tenant SLO
  accounting (latency histograms, shed/throttle/deadline error
  budgets).  Sessions opened without it are accounted to ``anon``.

Operations (see :doc:`docs/serving.md </serving>` for the full spec):

=============  ==========================================================
``ping``       liveness probe; replies ``{"ok": true, "pong": true}``
``open``       lease a lane; replies session id, lane, salt, (S, A)
``learn``      apply one transition (``s, a, r, ns, t``) or a ``batch``
``act``        recommend an action for ``s`` (``explore`` optional)
``table``      read the session's raw Q row for ``s`` (or the full table)
``checkpoint``  snapshot the session's lane under a ``tag``
``restore``    roll the lane back to a ``tag`` (default: latest)
``stats``      per-session counters
``server``     gateway-level info (capacity, open sessions, backend)
``close``      end the session, recycling its lane
=============  ==========================================================

Error codes are the closed set in :data:`ERROR_CODES`.
"""

from __future__ import annotations

import json
import math
from typing import Any

#: Protocol identifier, echoed by the ``server`` op.
PROTOCOL = "qtaccel-serve/2"

#: Admission refused: every lane is leased and the wait timed out (the
#: response carries a computed ``retry_after`` hint, in seconds).
E_AT_CAPACITY = "at_capacity"
#: The ``session`` id is unknown (never opened, or already closed).
E_NO_SESSION = "no_session"
#: The request is malformed (bad JSON, missing/ill-typed fields).
E_BAD_REQUEST = "bad_request"
#: The gateway hit an unexpected exception serving the request.
E_INTERNAL = "internal"
#: The gateway is shutting down and no longer accepts work.
E_CLOSED = "closed"
#: The request's ``deadline_ms`` budget expired before (or while) the
#: op could be applied; nothing was applied.
E_DEADLINE = "deadline_exceeded"
#: The connection's circuit breaker tripped (too many consecutive
#: errors); the response carries a ``retry_after`` hint.
E_THROTTLED = "throttled"
#: Session exists but belongs to another connection and no (or a
#: wrong) resume ``token`` was presented.
E_FORBIDDEN = "forbidden"

ERROR_CODES = frozenset(
    {
        E_AT_CAPACITY,
        E_NO_SESSION,
        E_BAD_REQUEST,
        E_INTERNAL,
        E_CLOSED,
        E_DEADLINE,
        E_THROTTLED,
        E_FORBIDDEN,
    }
)

#: Ops a client may send.
OPS = frozenset(
    {
        "ping",
        "open",
        "learn",
        "act",
        "table",
        "checkpoint",
        "restore",
        "stats",
        "server",
        "close",
    }
)

#: Ops whose application mutates session state and therefore honour the
#: ``seq`` exactly-once cache (reads are naturally idempotent).
MUTATING_OPS = frozenset({"learn", "act", "checkpoint", "restore"})

#: The hot per-transition ops, traced only when head-sampled: the
#: client decides (1-in-N) whether such a request starts a trace, and
#: the gateway follows that decision by only tracing them when the
#: request carries a ``trace`` context.  Every other op is structural
#: (rare, milliseconds) and is always traced.  This is what keeps full
#: tracing under its <5% overhead budget without losing whole-stack
#: traces: a sampled trace is complete end to end.
SAMPLED_OPS = frozenset({"learn", "act"})

#: Largest accepted ``learn`` batch — bounds per-request gateway latency.
MAX_BATCH = 4096

#: Largest accepted request line, in bytes (a full MAX_BATCH learn fits).
MAX_LINE = 1 << 22


class ProtocolError(Exception):
    """A request the gateway refuses, carrying its wire error code.

    ``retry_after`` (seconds, optional) rides along for the codes that
    hint when a retry might succeed (``at_capacity``, ``throttled``).
    """

    def __init__(self, code: str, detail: str, *, retry_after: float | None = None):
        if code not in ERROR_CODES:
            raise ValueError(f"unknown error code {code!r}")
        super().__init__(detail)
        self.code = code
        self.detail = detail
        self.retry_after = retry_after


#: One compact encoder for every frame: ``json.dumps`` with non-default
#: separators would build a fresh encoder per call.
_ENCODER = json.JSONEncoder(separators=(",", ":"))


def encode(message: dict) -> bytes:
    """One wire frame: compact JSON + newline."""
    return (_ENCODER.encode(message) + "\n").encode()


def decode(line: bytes) -> dict:
    """Parse one wire frame into a request dict.

    Raises :class:`ProtocolError` (``bad_request``) on anything that is
    not a single JSON object.
    """
    try:
        message = json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(E_BAD_REQUEST, f"invalid JSON: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(E_BAD_REQUEST, "request must be a JSON object")
    return message


def ok(payload: dict | None = None, *, req: dict | None = None) -> dict:
    """A success response, echoing the request's ``id``/``seq`` tags."""
    out: dict[str, Any] = {"ok": True}
    if payload:
        out.update(payload)
    if req is not None:
        if "id" in req:
            out["id"] = req["id"]
        if "seq" in req:
            out["seq"] = req["seq"]
    return out


def error(
    code: str,
    detail: str,
    *,
    req: dict | None = None,
    retry_after: float | None = None,
) -> dict:
    """An error response in the canonical shape."""
    if code not in ERROR_CODES:
        code = E_INTERNAL
    out: dict[str, Any] = {"ok": False, "error": code, "detail": detail}
    if retry_after is not None:
        out["retry_after"] = round(float(retry_after), 4)
    if req is not None and isinstance(req, dict):
        if "id" in req:
            out["id"] = req["id"]
        if "seq" in req:
            out["seq"] = req["seq"]
    return out


def require_int(req: dict, field: str, *, lo: int = 0, hi: int | None = None) -> int:
    """Pull a bounded integer field out of a request, or ``bad_request``."""
    value = req.get(field)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(E_BAD_REQUEST, f"field {field!r} must be an integer")
    if value < lo or (hi is not None and value >= hi):
        upper = "" if hi is None else f" < {hi}"
        raise ProtocolError(
            E_BAD_REQUEST, f"field {field!r}={value} out of range (>= {lo}{upper})"
        )
    return value


def parse_seq(req: dict) -> int | None:
    """Pull the optional ``seq`` request id (positive int) out of ``req``."""
    seq = req.get("seq")
    if seq is None:
        return None
    if isinstance(seq, bool) or not isinstance(seq, int) or seq < 1:
        raise ProtocolError(
            E_BAD_REQUEST, "field 'seq' must be a positive integer"
        )
    return seq


def parse_deadline(req: dict, *, now: float) -> float | None:
    """Resolve ``deadline_ms`` into an absolute monotonic deadline.

    Returns ``None`` when the request carries no deadline; raises
    ``deadline_exceeded`` straight away for a non-positive budget.
    """
    budget = req.get("deadline_ms")
    if budget is None:
        return None
    if isinstance(budget, bool) or not isinstance(budget, (int, float)):
        raise ProtocolError(
            E_BAD_REQUEST, "field 'deadline_ms' must be a number"
        )
    if budget <= 0:
        raise ProtocolError(
            E_DEADLINE, f"deadline_ms={budget} already expired on arrival"
        )
    return now + float(budget) / 1e3


def parse_trace(req: dict):
    """Pull the optional ``trace`` span context out of a request.

    Returns a :class:`repro.telemetry.tracing.TraceContext` or ``None``.
    Never raises: a malformed ``trace`` field means "untraced", not
    ``bad_request`` — observability must not break traffic, and peers
    that predate the field must stay compatible with ones that send it.
    """
    field = req.get("trace")
    if field is None:
        return None
    from ..telemetry.tracing import ctx_from_wire

    return ctx_from_wire(field)


def parse_tenant(req: dict) -> str | None:
    """Pull the optional ``open`` tenant label (None when absent/bad).

    Like ``trace``, advisory: a non-string or empty tenant is treated
    as absent rather than rejected.
    """
    tenant = req.get("tenant")
    if isinstance(tenant, str) and tenant.strip():
        return tenant.strip()[:64]
    return None


def parse_transition(req: dict, *, num_states: int, num_actions: int) -> tuple:
    """Validate one ``(s, a, r, ns, t)`` transition from request fields."""
    s = require_int(req, "s", hi=num_states)
    a = require_int(req, "a", hi=num_actions)
    ns = require_int(req, "ns", hi=num_states)
    r = req.get("r", 0.0)
    if isinstance(r, bool) or not isinstance(r, (int, float)):
        raise ProtocolError(E_BAD_REQUEST, "field 'r' must be a number")
    # json.loads accepts NaN, Infinity and integers past the float range;
    # no fixed-point reward represents them.
    try:
        r = float(r)
    except OverflowError:
        r = math.inf
    if not math.isfinite(r):
        raise ProtocolError(E_BAD_REQUEST, "field 'r' must be a finite number")
    t = req.get("t", False)
    if not isinstance(t, bool):
        raise ProtocolError(E_BAD_REQUEST, "field 't' must be a boolean")
    return s, a, r, ns, t


def parse_batch(req: dict, *, num_states: int, num_actions: int) -> list[tuple]:
    """Validate a ``learn`` batch: a list of ``[s, a, r, ns, t]`` rows."""
    rows = req.get("batch")
    if not isinstance(rows, list):
        raise ProtocolError(E_BAD_REQUEST, "field 'batch' must be a list")
    if len(rows) > MAX_BATCH:
        raise ProtocolError(
            E_BAD_REQUEST, f"batch of {len(rows)} exceeds MAX_BATCH={MAX_BATCH}"
        )
    out = []
    for i, row in enumerate(rows):
        if type(row) is list and len(row) == 5:
            # Fast path for the common row: checks inline, no field dict.
            s, a, r, ns, t = row
            if (
                type(s) is int and 0 <= s < num_states
                and type(a) is int and 0 <= a < num_actions
                and type(ns) is int and 0 <= ns < num_states
                and type(r) is float and math.isfinite(r)
                and type(t) is bool
            ):
                out.append((s, a, r, ns, t))
                continue
        if not isinstance(row, (list, tuple)) or not 4 <= len(row) <= 5:
            raise ProtocolError(
                E_BAD_REQUEST, f"batch[{i}] must be [s, a, r, ns] or [s, a, r, ns, t]"
            )
        fields = {"s": row[0], "a": row[1], "r": row[2], "ns": row[3]}
        if len(row) == 5:
            fields["t"] = row[4]
        out.append(
            parse_transition(fields, num_states=num_states, num_actions=num_actions)
        )
    return out
