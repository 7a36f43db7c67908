"""The :class:`TelemetrySession` — wiring counters and traces into engines.

A session owns one :class:`~repro.telemetry.counters.CounterRegistry`
and (optionally) one :class:`~repro.telemetry.tracing.TraceRing` of
cycle events, and knows how to *attach* to the library's engines:

* :class:`~repro.core.pipeline.QTAccelPipeline` — a
  :class:`PipelineProbe` is installed on the pipeline's single hook
  point (``pipe._tel``); the four stages and the forwarding paths emit
  events/counters through it.  Detached pipelines hold ``None`` there
  and pay one pointer test per instrumented site.
* Anything exposing ``telemetry_snapshot()`` (e.g.
  :class:`~repro.rtl.memory.TableRam`,
  :class:`~repro.rtl.clock.Simulation`) — snapshotted at profile time,
  zero run-time cost.
* Anything exposing ``.stats`` (batch fleets, functional simulators) —
  likewise snapshotted.

Sessions are context managers; inside a ``with`` block the session is
*ambient* (:func:`current_session`), and every engine constructed in
that window attaches itself — which is how ``--telemetry`` reaches
experiments without threading a parameter through every harness.

Long-running engines (the shared and batch fleets, the fleet
supervisor) :meth:`~TelemetrySession.pulse` their session inside their
run loops; each registered emitter (:class:`JsonlEmitter`,
:class:`OpenMetricsTextfileEmitter`) rate-limits itself, so a
mid-flight scrape costs nothing when no emitter is registered and a
clock check when one is.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from pathlib import Path
from typing import Optional

from .counters import CounterRegistry, render_openmetrics
from .export import write_chrome_trace, write_profile_csv, write_profile_json
from .tracing import TraceEvent, TraceRing

#: Stack of ambient sessions (innermost last).
_ACTIVE: list["TelemetrySession"] = []


def current_session() -> Optional["TelemetrySession"]:
    """The innermost active session, or ``None`` (the common case)."""
    return _ACTIVE[-1] if _ACTIVE else None


#: Forwarding paths instrumented in the pipeline, ``(stage, hazard kind)``:
#: carried-operand fixups (RAW on Q(s,a) / on the bootstrap operand) and
#: read-path overlays (the ForwardingView serving stage-1/2 reads).
FORWARD_PATHS = (
    ("S3", "q_operand"),
    ("S3", "qnext"),
    ("S2", "q_operand"),
    ("S2", "view_q"),
    ("S2", "view_qmax"),
    ("S1", "view_q"),
    ("S1", "view_qmax"),
)


class PipelineProbe:
    """Per-pipeline hook object the instrumented stages call into.

    Counter updates are direct attribute adds; the pure-trace stage
    events (issue, select, hold, stall, retire) are appended by the
    pipeline straight into :attr:`ring` as :class:`TraceEvent` records.
    A pipeline holds at most one probe; ``pipe._tel is None`` is the
    disabled fast path.
    """

    __slots__ = (
        "name",
        "ring",
        "occ_s1",
        "occ_s2",
        "occ_s3",
        "occ_s4",
        "c_qmax_raise",
        "fwd",
    )

    def __init__(self, name: str, registry: CounterRegistry, ring):
        self.name = name
        self.ring = ring
        p = name + "."
        self.occ_s1 = registry.counter(p + "stage.S1.active")
        self.occ_s2 = registry.counter(p + "stage.S2.active")
        self.occ_s3 = registry.counter(p + "stage.S3.active")
        self.occ_s4 = registry.counter(p + "stage.S4.active")
        self.c_qmax_raise = registry.counter(p + "qmax_raises")
        self.fwd = {
            (stage, kind): registry.counter(f"{p}forward.{stage}.{kind}")
            for stage, kind in FORWARD_PATHS
        }

    def qmax_raise(self, cycle: int, index: int) -> None:
        self.c_qmax_raise.value += 1
        if self.ring is not None:
            self.ring.append(TraceEvent(cycle, self.name, "S4", "qmax_raise", index))

    def forward(self, cycle: int, stage: str, kind: str, index: int, hits: int) -> None:
        self.fwd[(stage, kind)].value += hits
        if self.ring is not None:
            self.ring.append(TraceEvent(cycle, self.name, stage, "forward", index, hits))


class CounterGroup:
    """A namespaced get-or-create view over the session registry, for
    engines (bandits, batch fleets) that only need counters/gauges."""

    __slots__ = ("registry", "prefix")

    def __init__(self, registry: CounterRegistry, prefix: str):
        self.registry = registry
        self.prefix = prefix

    def inc(self, key: str, n: int = 1) -> None:
        self.registry.counter(f"{self.prefix}.{key}").value += n

    def set(self, key: str, value) -> None:
        self.registry.gauge(f"{self.prefix}.{key}").set(value)

    def observe(self, key: str, value) -> None:
        self.registry.histogram(f"{self.prefix}.{key}").observe(value)


def _stats_dict(stats) -> dict:
    """Best-effort scalar dict from an engine's ``stats`` object."""
    as_dict = getattr(stats, "as_dict", None)
    if callable(as_dict):
        return as_dict()
    if dataclasses.is_dataclass(stats):
        return {
            f.name: getattr(stats, f.name)
            for f in dataclasses.fields(stats)
            if isinstance(getattr(stats, f.name), (int, float, bool))
        }
    return {
        k: v
        for k, v in vars(stats).items()
        if isinstance(v, (int, float, bool))
    }


class TelemetrySession:
    """Collects counters and (optionally) a cycle-level trace for one run.

    Use as a context manager to make the session ambient — engines
    constructed inside the ``with`` block attach automatically — or call
    :meth:`attach` explicitly.  Exports stay valid after exit; the
    session merely stops being ambient.
    """

    def __init__(
        self,
        *,
        trace: bool = True,
        trace_capacity: int = 65536,
    ):
        self.registry = CounterRegistry()
        #: Bounded ring of the attached pipelines' cycle events.
        self.ring: Optional[TraceRing] = TraceRing(trace_capacity) if trace else None
        self._pipes: list[tuple[str, object]] = []
        self._snapshots: list[tuple[str, object]] = []
        self._names: set[str] = set()
        self._seen_ids: dict[int, str] = {}
        self._device: Optional[tuple[object, int, Optional[int]]] = None
        #: Live-export hooks offered a chance to emit on every :meth:`pulse`.
        self._emitters: list = []

    # ------------------------------------------------------------------ #
    # Ambient activation
    # ------------------------------------------------------------------ #

    def __enter__(self) -> "TelemetrySession":
        _ACTIVE.append(self)
        return self

    def __exit__(self, *exc) -> None:
        if not _ACTIVE or _ACTIVE[-1] is not self:
            raise RuntimeError("telemetry session stack out of order")
        _ACTIVE.pop()

    # ------------------------------------------------------------------ #
    # Attachment
    # ------------------------------------------------------------------ #

    def _unique(self, base: str) -> str:
        if base not in self._names:
            self._names.add(base)
            return base
        i = 1
        while f"{base}_{i}" in self._names:
            i += 1
        name = f"{base}_{i}"
        self._names.add(name)
        return name

    def attach(self, obj, name: Optional[str] = None) -> str:
        """Wire ``obj`` into this session; returns its assigned name.

        Attaching the same object twice is a no-op returning the first
        name (pipelines built inside an ambient ``with`` block are
        already attached when a deployment wrapper attaches them again).
        """
        prior = self._seen_ids.get(id(obj))
        if prior is not None:
            return prior
        from ..core.pipeline import QTAccelPipeline  # lazy: avoids an import cycle

        if isinstance(obj, QTAccelPipeline):
            assigned = self._unique(name or f"pipe{len(self._pipes)}")
            probe = PipelineProbe(assigned, self.registry, self.ring)
            obj._tel = probe
            self._pipes.append((assigned, obj))
            self._seen_ids[id(obj)] = assigned
            self.attach(obj.tables, f"{assigned}.mem")
            return assigned
        assigned = self._unique(name or type(obj).__name__.lower())
        self._snapshots.append((assigned, obj))
        self._seen_ids[id(obj)] = assigned
        return assigned

    def group(self, name: str) -> CounterGroup:
        """A namespaced counter group for counter-only engines."""
        return CounterGroup(self.registry, self._unique(name))

    # ------------------------------------------------------------------ #
    # Live export (mid-flight scraping)
    # ------------------------------------------------------------------ #

    def add_emitter(self, emitter) -> None:
        """Register a live-metrics emitter (an object with
        ``maybe_emit(session)``, e.g. :class:`JsonlEmitter`)."""
        self._emitters.append(emitter)

    def pulse(self) -> None:
        """Offer every registered emitter a chance to emit.

        Engines call this inside their run loops (the shared and batch
        fleets, the fleet supervisor); with no emitters registered it is
        one empty-list iteration, so the hook is safe on hot-ish paths.
        """
        for emitter in self._emitters:
            emitter.maybe_emit(self)

    def record_device(
        self,
        resource_report,
        *,
        pipelines: int = 1,
        cycles: Optional[int] = None,
    ) -> None:
        """Join this session's cycle counts with the device models.

        ``resource_report`` is a
        :class:`~repro.device.resources.ResourceReport`; the profile
        will include the modelled clock, wall-time and energy for the
        cycles the attached pipelines actually consumed (or an explicit
        ``cycles`` override).
        """
        self._device = (resource_report, pipelines, cycles)

    # ------------------------------------------------------------------ #
    # Profile assembly
    # ------------------------------------------------------------------ #

    def _max_cycles(self) -> int:
        return max((p.stats.cycles for _, p in self._pipes), default=0)

    def profile(self) -> dict:
        """Assemble the flat-exportable profile summary."""
        counters = self.registry.as_dict()
        pipes: dict = {}
        total_retired = 0
        for name, pipe in self._pipes:
            st = pipe.stats
            stats = st.as_dict()
            total_retired += st.retired
            cycles = st.cycles
            occ = {
                s: (counters.get(f"{name}.stage.{s}.active", 0) / cycles if cycles else 0.0)
                for s in ("S1", "S2", "S3", "S4")
            }
            fwd_total = sum(
                counters.get(f"{name}.forward.{stage}.{kind}", 0)
                for stage, kind in FORWARD_PATHS
            )
            pipes[name] = {
                "stats": stats,
                "derived": {
                    "cycles_per_sample": st.cycles_per_sample
                    if st.retired
                    else None,
                    "ipc": st.retired / cycles if cycles else 0.0,
                    "occupancy": occ,
                    "forward_hits_total": fwd_total,
                    "qmax_raises": counters.get(f"{name}.qmax_raises", 0),
                },
            }
        engines: dict = {}
        for name, obj in self._snapshots:
            snap_fn = getattr(obj, "telemetry_snapshot", None)
            engines[name] = snap_fn() if callable(snap_fn) else _stats_dict(obj.stats)
        cycles = self._max_cycles()
        profile: dict = {
            "meta": {
                "instruments": len(self.registry),
                "events_total": self.ring.total if self.ring else 0,
                "events_retained": len(self.ring) if self.ring else 0,
                "events_dropped": self.ring.dropped if self.ring else 0,
            },
            "totals": {
                "cycles": cycles,
                "retired": total_retired,
                "ipc": total_retired / cycles if cycles else 0.0,
            },
            "counters": counters,
            "pipes": pipes,
            "engines": engines,
        }
        if self._device is not None:
            report, n_pipes, cyc_override = self._device
            cyc = cyc_override if cyc_override is not None else cycles
            from ..device.power import energy_mj, power_mw
            from ..device.timing import clock_mhz, wall_time_s

            clock = clock_mhz(
                report.bram_blocks / report.part.bram36, part=report.part
            )
            profile["device"] = {
                "part": report.part.name,
                "pipelines": n_pipes,
                "clock_mhz": clock,
                "cycles": cyc,
                "wall_time_s": wall_time_s(cyc, clock),
                "power_mw": power_mw(report, clock=clock),
                "energy_mj": energy_mj(report, cyc, clock=clock),
            }
        return profile

    # ------------------------------------------------------------------ #
    # Exports
    # ------------------------------------------------------------------ #

    def export_chrome_trace(self, path) -> None:
        """Write the retained trace as Chrome ``trace_event`` JSON."""
        if self.ring is None:
            raise RuntimeError("session was created with trace=False")
        write_chrome_trace(path, self.ring.items())

    def export_profile(self, path, *, fmt: str = "json") -> None:
        """Write the profile summary as JSON or two-column CSV."""
        profile = self.profile()
        if fmt == "json":
            write_profile_json(path, profile)
        elif fmt == "csv":
            write_profile_csv(path, profile)
        else:
            raise ValueError(f"unknown profile format {fmt!r}; use 'json' or 'csv'")


# ---------------------------------------------------------------------- #
# Live emitters (registered with TelemetrySession.add_emitter)
# ---------------------------------------------------------------------- #


class _PeriodicEmitter:
    """Shared rate limiting: emit at most once per ``interval_s``.

    ``interval_s=0`` emits on every pulse — what the tests use for
    deterministic line counts.  ``clock`` is injectable for testing.
    Subclasses implement ``emit(session)``; ``emits`` counts the calls.
    """

    def __init__(self, path, *, interval_s: float = 1.0, clock=time.monotonic):
        if interval_s < 0:
            raise ValueError("interval_s must be non-negative")
        self.path = Path(path)
        self.interval_s = interval_s
        self.emits = 0
        self._clock = clock
        self._last: Optional[float] = None

    def maybe_emit(self, session) -> bool:
        now = self._clock()
        if self._last is not None and now - self._last < self.interval_s:
            return False
        self._last = now
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.emit(session)
        self.emits += 1
        return True


class JsonlEmitter(_PeriodicEmitter):
    """Append one JSON object per emit: a scrapeable counter time series.

    Each line carries the emit sequence number, a wall-clock timestamp,
    and the registry's flat counter snapshot, so a long fleet run can be
    tailed (``tail -f run.metrics.jsonl | jq``) or loaded as a frame per
    line after the fact.
    """

    def emit(self, session) -> None:
        record = {
            "seq": self.emits,
            "time_unix": time.time(),
            "counters": session.registry.as_dict(),
        }
        with open(self.path, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


class OpenMetricsTextfileEmitter(_PeriodicEmitter):
    """Atomically rewrite an OpenMetrics textfile on each emit.

    The node-exporter textfile-collector pattern: a scraper reads the
    file at its own cadence and always sees a complete exposition
    (write to ``<path>.tmp``, then rename).
    """

    def __init__(
        self,
        path,
        *,
        interval_s: float = 1.0,
        namespace: str = "qtaccel",
        labels: Optional[dict[str, str]] = None,
        clock=time.monotonic,
    ):
        super().__init__(path, interval_s=interval_s, clock=clock)
        self.namespace = namespace
        self.labels = labels

    def emit(self, session) -> None:
        text = render_openmetrics(
            session.registry, namespace=self.namespace, labels=self.labels
        )
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        tmp.write_text(text)
        os.replace(tmp, self.path)
