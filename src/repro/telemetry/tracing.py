"""Traces: per-cycle stage events and distributed spans in one ring.

Two kinds of trace record share one bounded :class:`TraceRing`:

* :class:`TraceEvent` — one interesting thing a pipeline stage did in
  one clock cycle (issue, forward, stall-bubble, Qmax-raise, retire),
  emitted by the probe a :class:`~repro.telemetry.session.TelemetrySession`
  installs on a :class:`~repro.core.pipeline.QTAccelPipeline`;
* :class:`Span` — one timed operation of the serving stack.  A *trace*
  is one causally-related tree of spans (one client request, or one
  watchdog recovery pass) identified by a ``trace_id``; every span
  carries its own ``span_id`` and its ``parent_id`` (``None`` for the
  trace root).  Timestamps are ``time.monotonic()`` — on Linux that is
  ``CLOCK_MONOTONIC``, a single system-wide clock, so spans recorded in
  the gateway process and in a sharded worker process land on one
  comparable timeline.

Span propagation is deliberately tiny:

* in-process, the current span rides a :class:`contextvars.ContextVar`
  (one module-level stack), so parentage flows correctly through
  threads **and** interleaved asyncio tasks (each task runs in its own
  context copy) and across the :class:`Tracer` instances of different
  layers (client / gateway / session / backend share the stack);
* across the wire, :func:`ctx_to_wire` renders the current context as
  the protocol's optional ``trace`` request field
  (``{"trace_id", "span_id"}``) and :func:`ctx_from_wire` parses it on
  the far side — the sender's span id becomes the receiver's parent.
  Parsing is *tolerant*: anything malformed yields ``None`` (no trace)
  rather than an error, because observability must never break
  traffic;
* across a ``multiprocessing`` Pipe, the same wire dict rides as an
  optional trailing command element (see
  :mod:`repro.backends.sharded`), and the worker ships its finished
  spans back in the reply.

A tracer files finished spans in its ring and optionally into a
``sink`` callable (the on-disk
:class:`~repro.telemetry.recorder.FlightRecorder`).
:func:`validate_span_tree` checks the structural invariants of a
merged span set.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import time
from collections import deque
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

#: Stage labels used by the pipeline probes.
STAGES = ("S1", "S2", "S3", "S4")

#: Event kinds emitted by the pipeline probes.
KINDS = (
    "issue",  # S1 accepted a new sample
    "select",  # S2 fired its update-policy selection
    "forward",  # a forwarding path fixed up an in-flight operand (arg = hits)
    "stall",  # a hazard bubble (stall mode) held a stage this cycle
    "hold",  # S2 multi-cycle selection held the pipe this cycle
    "qmax_raise",  # S4 maintenance wrote the Qmax entry
    "retire",  # S4 wrote back a sample
)

#: Default bounded capacity of a ring.
DEFAULT_RING_CAPACITY = 65536


class TraceEvent(NamedTuple):
    """One per-cycle stage event."""

    cycle: int  #: cycle index at which the event happened
    pipe: str  #: producer name (``pipe0`` ... for multi-pipeline runs)
    stage: str  #: one of :data:`STAGES`
    kind: str  #: one of :data:`KINDS`
    index: int  #: sample index, or -1 when no sample is associated
    arg: int = 0  #: kind-specific payload (forwarding hit count, ...)


class TraceRing:
    """Bounded ring of trace records (oldest dropped first).

    Tracing is a flight recorder, not an audit log: memory is bounded
    by construction, so tracing a hundred-million-cycle run costs the
    same as tracing a thousand cycles (you keep the tail, which is what
    the timeline viewers want anyway).  ``append`` is on the pipeline
    and serve hot paths, so it leans on the GIL (``deque.append`` with
    ``maxlen`` is a single atomic operation) instead of a lock; the
    ``total`` counter is best-effort under concurrent writers, which is
    fine for a drop statistic.  Snapshot reads retry around the rare
    concurrent-mutation race.
    """

    __slots__ = ("capacity", "_items", "total")

    def __init__(self, capacity: int = DEFAULT_RING_CAPACITY):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._items: deque = deque(maxlen=capacity)
        self.total = 0  # records ever offered

    def append(self, item) -> None:
        self._items.append(item)
        self.total += 1

    @property
    def dropped(self) -> int:
        return max(0, self.total - len(self._items))

    def __len__(self) -> int:
        return len(self._items)

    def items(self) -> list:
        """A snapshot of the retained records, oldest first."""
        for _ in range(8):
            try:
                return list(self._items)
            except RuntimeError:  # deque mutated during iteration
                continue
        return list(self._items.copy())

    def __iter__(self) -> Iterator:
        return iter(self.items())

    def drain(self) -> list:
        """Remove and return every retained record."""
        out = self.items()
        for _ in out:
            try:
                self._items.popleft()
            except IndexError:
                break
        return out

    def clear(self) -> None:
        self._items.clear()
        self.total = 0

    def __repr__(self) -> str:
        return (
            f"TraceRing({len(self._items)}/{self.capacity} retained, "
            f"{self.dropped} dropped)"
        )


#: The in-process current-span stack, shared by every Tracer so that
#: parentage flows across layer boundaries (gateway -> session -> ...).
#: Held as an immutable tuple: asyncio tasks and threads each see their
#: own context copy, so pushes never leak between concurrent requests.
_SPAN_STACK: contextvars.ContextVar[tuple] = contextvars.ContextVar(
    "qtaccel_span_stack", default=()
)


# Id generation is on the serve hot path (every span needs one or two
# fresh ids), so it must be allocation-cheap: a per-process random
# prefix (collision avoidance across processes) plus a local counter
# (uniqueness within the process).  ~10x faster than os.urandom().
def _id_prefix() -> str:
    return f"{os.getpid() & 0xFFFF:04x}{int.from_bytes(os.urandom(4), 'big'):08x}"


_ID_PREFIX = _id_prefix()
_ID_COUNTER = itertools.count(1)


def new_id() -> str:
    """A fresh process-unique hex id (trace or span)."""
    return f"{_ID_PREFIX}{next(_ID_COUNTER):08x}"


def _reseed_ids() -> None:
    """Refresh the id prefix (called after fork into a worker process)."""
    global _ID_PREFIX, _ID_COUNTER
    _ID_PREFIX = _id_prefix()
    _ID_COUNTER = itertools.count(1)


class TraceContext:
    """The propagated identity of a position in a trace."""

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: str, span_id: str):
        self.trace_id = trace_id
        self.span_id = span_id

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TraceContext(trace={self.trace_id}, span={self.span_id})"


def ctx_to_wire(ctx: Optional[TraceContext]) -> Optional[dict]:
    """Render a context as the protocol's optional ``trace`` field."""
    if ctx is None:
        return None
    return {"trace_id": ctx.trace_id, "span_id": ctx.span_id}


def ctx_from_wire(field) -> Optional[TraceContext]:
    """Parse a ``trace`` request field; tolerant of any malformed shape.

    Returns ``None`` (meaning: no trace context) for anything that is
    not a dict carrying non-empty string ids — tracing is advisory and
    must never turn a valid request into an error.
    """
    if not isinstance(field, dict):
        return None
    trace_id = field.get("trace_id")
    span_id = field.get("span_id")
    if (
        isinstance(trace_id, str)
        and isinstance(span_id, str)
        and 0 < len(trace_id) <= 64
        and 0 < len(span_id) <= 64
    ):
        return TraceContext(trace_id, span_id)
    return None


def _timestamp(payload: dict, key: str) -> float:
    value = payload.get(key, 0.0)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"span {key!r} is not a number: {value!r}")
    return float(value)


class Span:
    """One timed operation in a trace; doubles as its own context
    manager while in flight (single allocation on the serve hot path).
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "proc",
        "start",
        "end",
        "attrs",
        "_tracer",
        "_token",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        proc: str,
        start: float,
        end: float = 0.0,
        attrs: Optional[dict] = None,
        _tracer: Optional["Tracer"] = None,
    ):
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.proc = proc
        self.start = start
        self.end = end
        self.attrs = attrs
        self._tracer = _tracer
        self._token = None

    def set(self, key: str, value) -> None:
        """Attach one attribute to the (in-flight) span."""
        if self.attrs is None:
            self.attrs = {}
        self.attrs[key] = value

    def __enter__(self) -> "Span":
        self._token = _SPAN_STACK.set(_SPAN_STACK.get() + (self.context,))
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        token = self._token
        if token is not None:
            _SPAN_STACK.reset(token)
            self._token = None
        self.end = time.monotonic()
        if exc_type is not None:
            self.set("error", exc_type.__name__)
        tracer = self._tracer
        if tracer is not None:
            self._tracer = None
            tracer.record(self)

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    @property
    def context(self) -> TraceContext:
        return TraceContext(self.trace_id, self.span_id)

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "proc": self.proc,
            "start": self.start,
            "end": self.end,
        }
        if self.attrs:
            out["attrs"] = self.attrs
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        """Rebuild a span; ``ValueError`` on a non-numeric timestamp."""
        return cls(
            str(payload.get("name", "?")),
            str(payload.get("trace_id", "?")),
            str(payload.get("span_id", "?")),
            payload.get("parent_id"),
            str(payload.get("proc", "?")),
            _timestamp(payload, "start"),
            _timestamp(payload, "end"),
            payload.get("attrs"),
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Span({self.name!r}, proc={self.proc}, "
            f"dur={self.duration * 1e3:.3f}ms)"
        )


class Tracer:
    """Creates spans for one layer (``proc`` label) into one ring.

    Several tracers may share a ring (one merged per-process buffer,
    distinct ``proc`` labels) — the ambient parent stack is
    module-global either way, so a ``session.learn`` span opened under
    a ``server.learn`` span parents correctly even though different
    Tracer instances created them.
    """

    def __init__(
        self,
        proc: str = "main",
        *,
        capacity: int = DEFAULT_RING_CAPACITY,
        ring: Optional[TraceRing] = None,
        sink: Optional[Callable[[Span], None]] = None,
    ):
        self.proc = proc
        self.ring = ring if ring is not None else TraceRing(capacity)
        self.sink = sink

    def fork(self, proc: str) -> "Tracer":
        """A tracer for another layer sharing this ring and sink."""
        return Tracer(proc, ring=self.ring, sink=self.sink)

    # -- ambient context ------------------------------------------------ #

    @staticmethod
    def current_context() -> Optional[TraceContext]:
        stack = _SPAN_STACK.get()
        return stack[-1] if stack else None

    # -- span creation --------------------------------------------------- #

    def span(
        self,
        name: str,
        *,
        parent: Optional[TraceContext] = None,
        attrs: Optional[dict] = None,
    ) -> Span:
        """Open a span: child of ``parent``, else of the ambient span,
        else the root of a fresh trace.  Use as a context manager."""
        if parent is None:
            stack = _SPAN_STACK.get()
            parent = stack[-1] if stack else None
        span_id = new_id()
        if parent is None:
            # Root convention: the trace id IS the root's span id.
            trace_id, parent_id = span_id, None
        else:
            trace_id, parent_id = parent.trace_id, parent.span_id
        return Span(
            name,
            trace_id,
            span_id,
            parent_id,
            self.proc,
            time.monotonic(),
            0.0,
            attrs,
            self,
        )

    def record(self, span: Span) -> None:
        """File one finished span (ring + optional sink)."""
        self.ring.append(span)
        sink = self.sink
        if sink is not None:
            try:
                sink(span)
            except Exception:  # pragma: no cover - sinks are best-effort
                pass

    def adopt(self, spans: Iterable) -> int:
        """File spans shipped back from another process (dicts or Spans)."""
        n = 0
        for item in spans or ():
            self.record(as_span(item))
            n += 1
        return n


# ---------------------------------------------------------------------- #
# Merging and validating span sets
# ---------------------------------------------------------------------- #

SpanLike = Union[Span, dict]

#: Tolerance (seconds) when comparing child/root end times: monotonic
#: reads in different processes are the same clock on Linux, but a
#: child's recorded end and its parent's can be captured arbitrarily
#: close together.
_END_SLACK_S = 1e-9


def as_span(item: SpanLike) -> Span:
    return item if isinstance(item, Span) else Span.from_dict(item)


def merge_spans(*sources: Union[TraceRing, Iterable[SpanLike]]) -> list[Span]:
    """Merge span sources (rings, span lists, dict lists) by start time."""
    out: list[Span] = []
    for source in sources:
        if source is not None:
            out.extend(as_span(item) for item in source)
    out.sort(key=lambda s: (s.start, s.end))
    return out


def validate_span_tree(spans: Sequence[SpanLike]) -> list[str]:
    """Structural problems in a merged span set (empty list == valid).

    Checks, per trace:

    * unique span ids;
    * every ``parent_id`` resolves to a span of the *same* trace, and
      following parents always reaches a root (no cycles);
    * exactly the parentless spans are roots, and no span ends after
      its trace's root ends (children close before their parents — the
      "no span outlives its trace's root" property).
    """
    problems: list[str] = []
    by_trace: dict[str, dict[str, Span]] = {}
    for item in spans:
        span = as_span(item)
        trace = by_trace.setdefault(span.trace_id, {})
        if span.span_id in trace:
            problems.append(
                f"trace {span.trace_id}: duplicate span id {span.span_id}"
            )
            continue
        trace[span.span_id] = span

    for trace_id, trace in by_trace.items():
        roots = [s for s in trace.values() if s.parent_id is None]
        if not roots:
            problems.append(f"trace {trace_id}: no root span")
        root_end = max((r.end for r in roots), default=None)
        for span in trace.values():
            if span.end < span.start:
                problems.append(
                    f"trace {trace_id}: span {span.name} ends before it starts"
                )
            # Walk to the root, flagging dangling parents and cycles.
            seen = {span.span_id}
            node = span
            while node.parent_id is not None:
                parent = trace.get(node.parent_id)
                if parent is None:
                    problems.append(
                        f"trace {trace_id}: span {span.name} "
                        f"({span.span_id}) has unreachable parent "
                        f"{node.parent_id}"
                    )
                    break
                if parent.span_id in seen:
                    problems.append(
                        f"trace {trace_id}: parent cycle at {span.span_id}"
                    )
                    break
                seen.add(parent.span_id)
                node = parent
            if (
                root_end is not None
                and span.parent_id is not None
                and span.end > root_end + _END_SLACK_S
            ):
                problems.append(
                    f"trace {trace_id}: span {span.name} ({span.span_id}) "
                    f"outlives its trace root by "
                    f"{(span.end - root_end) * 1e3:.3f}ms"
                )
    return problems
