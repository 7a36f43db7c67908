"""Serve-path saturation bench: sessions/sec and action-query latency.

The gateway (:mod:`repro.serve`) turns fleet lanes into a multi-tenant
service; this module measures what that service sustains.  A gateway is
booted in-process on an ephemeral port, ``concurrency`` client threads
drain a shared queue of ``sessions`` session workloads (open → stream
``transitions_per_session`` learns, with an ``act`` query every
``act_every`` learns → read the table → close), and the record reports:

* ``sessions_per_sec`` — completed session workloads per wall second,
  the saturation number;
* ``transitions_per_sec`` — learns retired per wall second across all
  clients (the serve-path analogue of the fleet sweeps' updates/sec);
* ``act_latency_ms`` — p50/p99/mean round-trip of the ``act`` op, the
  tenant-visible interactive number.

Results land in BENCH snapshots under the top-level
``serve_throughput`` key (``python -m repro.perf serve``), and the
regression sentinel gates them on same-machine comparisons with a
serving-appropriate tolerance (sockets are noisier than numpy loops —
see ``SERVE_REL_TOL`` in :mod:`repro.perf.compare`).

Everything here is loopback TCP on one host, so the numbers include
the full protocol cost (JSON, syscalls, the asyncio loop) but no
network; treat them as upper bounds for remote deployments.

``chaos=True`` (CLI: ``python -m repro.perf serve --chaos``) runs the
same workload *degraded*: the sharded backend boots with tight hang
timeouts, worker 0 is SIGSTOP'd just before the load starts, and the
hung-worker watchdog must detect it, SIGKILL it, restart the shard and
journal-replay every leased lane mid-bench.  The resulting record lands
under the snapshot's ``degraded_throughput`` key, so the regression
sentinel gates not just how fast the gateway is, but how fast it is
*while recovering* — the robustness number a deployment actually
plans around.

``tracing=True`` (CLI: ``--trace PATH``) attaches a shared-ring
tracer to every layer — the client threads, the gateway, the session
manager and the sharded parent (whose workers ship their spans back
through the Pipe) — with hot-op sampling forced to 1.0 so *every*
request yields a complete trace, merges the ring into one validated
Chrome ``trace_event`` file at ``trace_path``, and reports the span
census under the record's ``trace`` key.  ``recorder_dir`` adds an
on-disk flight recorder capturing structured chaos events (worker
kills, restarts, replays) alongside the spans.  The *healthy* bench is
left untraced so ``serve_throughput`` stays comparable across
snapshots; tracing cost is pinned separately by
:mod:`repro.telemetry.overhead`.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Callable, Optional

#: Default shape of the full bench.
DEFAULT_LANES = 32
DEFAULT_CONCURRENCY = 8
DEFAULT_SESSIONS = 48
DEFAULT_TRANSITIONS = 256

#: Quick (CI smoke / test) shape.
QUICK_LANES = 8
QUICK_CONCURRENCY = 4
QUICK_SESSIONS = 12
QUICK_TRANSITIONS = 48


def _percentile(sorted_values: list[float], q: float) -> Optional[float]:
    """Nearest-rank percentile of an ascending list (None when empty)."""
    if not sorted_values:
        return None
    rank = max(1, int(round(q * len(sorted_values) + 0.5)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def run_serve_throughput(
    *,
    engine: str = "vectorized",
    lanes: int = DEFAULT_LANES,
    concurrency: int = DEFAULT_CONCURRENCY,
    sessions: int = DEFAULT_SESSIONS,
    transitions_per_session: int = DEFAULT_TRANSITIONS,
    act_every: int = 4,
    num_states: int = 64,
    num_actions: int = 4,
    num_workers: int = 2,
    mp_context: Optional[str] = None,
    quick: bool = False,
    chaos: bool = False,
    tracing: bool = False,
    trace_path: Optional[str] = None,
    recorder_dir: Optional[str] = None,
    clock: Callable[[], float] = time.perf_counter,
) -> dict:
    """Measure gateway throughput and action latency under load.

    ``quick`` shrinks every axis to the CI smoke shape.  Returns the
    snapshot-embeddable record stored under ``serve_throughput`` — or,
    with ``chaos=True`` (sharded engine only), under
    ``degraded_throughput``: worker 0 is SIGSTOP'd before the load
    starts and the bench times the gateway *through* the watchdog's
    kill/restart/journal-replay recovery.

    ``tracing`` (implied by ``trace_path``) runs the whole stack
    traced at sample rate 1.0; ``recorder_dir`` attaches and dumps a
    flight recorder.  See the module docstring.
    """
    if chaos and engine != "sharded":
        raise ValueError(
            "chaos mode hangs a shard worker; it requires engine='sharded'"
        )
    if quick:
        lanes = min(lanes, QUICK_LANES)
        concurrency = min(concurrency, QUICK_CONCURRENCY)
        sessions = min(sessions, QUICK_SESSIONS)
        transitions_per_session = min(transitions_per_session, QUICK_TRANSITIONS)
    if concurrency < 1 or sessions < 1 or transitions_per_session < 1:
        raise ValueError("concurrency, sessions and transitions must be positive")
    if concurrency > lanes:
        raise ValueError(
            f"concurrency {concurrency} exceeds lanes {lanes}; clients would "
            "spend the bench waiting on admission"
        )

    import asyncio
    import random

    from ..core.config import QTAccelConfig
    from ..serve.client import ServeClient
    from ..serve.gateway import Gateway, run_gateway_in_thread
    from ..serve.session import SessionManager, build_serve_backend

    tracing = tracing or trace_path is not None
    tracer = None
    recorder = None
    if tracing:
        from ..telemetry.tracing import TraceRing, Tracer

        tracer = Tracer("client", ring=TraceRing(1 << 17))
    if recorder_dir:
        from ..telemetry.recorder import open_recorder

        recorder = open_recorder(recorder_dir)

    config = QTAccelConfig.qlearning(seed=11)
    backend_kw: dict = {}
    if chaos:
        # Tight watchdog so the SIGSTOP'd worker is detected, killed and
        # replay-recovered well inside the bench window.
        backend_kw = dict(
            ping_timeout_s=0.5, hang_timeout_s=1.0, stop_timeout_s=2.0
        )
    backend = build_serve_backend(
        config,
        engine=engine,
        lanes=lanes,
        num_states=num_states,
        num_actions=num_actions,
        num_workers=num_workers,
        mp_context=mp_context,
        **backend_kw,
    )
    manager = SessionManager(
        backend,
        checkpoint_every=128,
        tracer=tracer.fork("session") if tracer else None,
        recorder=recorder,
    )
    gateway = Gateway(
        manager,
        port=0,
        admission_timeout_s=30.0,
        maintenance_interval_s=0.1 if chaos else 0.25,
        tracer=tracer.fork("gateway") if tracer else None,
        recorder=recorder,
    )
    # The sharded parent adopts worker-shipped spans into the shared
    # ring; other engines have no worker processes to trace.
    if hasattr(backend, "obs_tracer"):
        backend.obs_tracer = tracer.fork("backend") if tracer else None
        backend.obs_recorder = recorder
    thread, loop = run_gateway_in_thread(gateway)
    if chaos:
        backend.hang_worker(0)

    work: "queue.SimpleQueue[int]" = queue.SimpleQueue()
    for i in range(sessions):
        work.put(i)
    latencies: list[float] = []
    errors: list[str] = []
    completed = [0]
    lock = threading.Lock()

    def _client(worker_idx: int) -> None:
        rng = random.Random(0xBEEF + worker_idx)
        local_lat: list[float] = []
        done = 0
        try:
            # Sample 1.0 when traced: the bench exists to produce
            # complete traces, not to measure tracing cost (that is
            # repro.telemetry.overhead's job).
            with ServeClient(
                port=gateway.port, tracer=tracer, trace_sample=1.0
            ) as client:
                while True:
                    try:
                        work.get_nowait()
                    except queue.Empty:
                        break
                    sess = client.open_session()
                    for i in range(transitions_per_session):
                        s = rng.randrange(num_states)
                        a = rng.randrange(num_actions)
                        r = rng.uniform(-1.0, 1.0)
                        ns = rng.randrange(num_states)
                        sess.learn(s, a, r, ns, rng.random() < 0.02)
                        if i % act_every == 0:
                            t0 = clock()
                            sess.act(ns, explore=True)
                            local_lat.append(clock() - t0)
                    sess.table(0)
                    sess.close()
                    done += 1
        except Exception as exc:  # noqa: BLE001 - reported in the record
            with lock:
                errors.append(f"{type(exc).__name__}: {exc}")
        finally:
            with lock:
                latencies.extend(local_lat)
                completed[0] += done

    clients = [
        threading.Thread(target=_client, args=(i,), name=f"serve-load-{i}")
        for i in range(concurrency)
    ]
    t_start = clock()
    for c in clients:
        c.start()
    for c in clients:
        c.join()
    if chaos:
        # The degraded clock stays open until the watchdog has detected
        # the SIGSTOP'd worker and restarted its shard, so the recovery
        # window is *inside* the measured wall time even when the load
        # itself drains quickly (lane ops are served off shared memory
        # by the parent, so a tiny load can finish before detection).
        recover_by = time.monotonic() + 30.0
        while time.monotonic() < recover_by and (
            backend.hangs < 1 or backend.restarts < 1
        ):
            time.sleep(0.02)
    wall = clock() - t_start

    info = manager.server_info()
    trace_report: Optional[dict] = None
    if tracer is not None:
        from ..telemetry import validate_span_tree, write_chrome_trace

        spans = tracer.ring.items()
        problems = validate_span_tree(spans)
        trace_report = {
            "spans": len(spans),
            "dropped": tracer.ring.dropped,
            "procs": sorted({s.proc for s in spans}),
            "problems": problems,
        }
        if trace_path is not None:
            try:
                write_chrome_trace(
                    trace_path,
                    spans,
                    meta={"bench": "serve", "chaos": bool(chaos)},
                )
                trace_report["path"] = str(trace_path)
            except (OSError, ValueError) as exc:
                trace_report["problems"] = list(problems) + [
                    f"chrome trace not written: {exc}"
                ]
        if recorder is not None:
            trace_report["recorder"] = recorder.dump(spans=spans)
    elif recorder is not None:
        recorder.dump()
    if recorder is not None:
        recorder.close()
    asyncio.run_coroutine_threadsafe(gateway.close(), loop).result(timeout=30)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(timeout=10)

    latencies.sort()
    n_done = completed[0]
    total_transitions = n_done * transitions_per_session
    record = {
        "engine": engine,
        "lanes": lanes,
        "concurrency": concurrency,
        "sessions": sessions,
        "sessions_completed": n_done,
        "transitions_per_session": transitions_per_session,
        "quick": quick,
        "seconds": wall,
        "sessions_per_sec": n_done / wall if wall > 0 else None,
        "transitions_per_sec": total_transitions / wall if wall > 0 else None,
        "act_latency_ms": {
            "samples": len(latencies),
            "p50": _ms(_percentile(latencies, 0.50)),
            "p99": _ms(_percentile(latencies, 0.99)),
            "mean": _ms(sum(latencies) / len(latencies)) if latencies else None,
            "max": _ms(latencies[-1]) if latencies else None,
        },
        "rejected": info["sessions_rejected"],
        "recoveries": info["recoveries"],
        "errors": errors,
    }
    if trace_report is not None:
        record["trace"] = trace_report
        if trace_report["problems"]:
            record["errors"] = list(record["errors"]) + [
                f"trace: {p}" for p in trace_report["problems"][:5]
            ]
    if chaos:
        record["chaos"] = True
        record["hangs"] = getattr(backend, "hangs", 0)
        record["restarts"] = getattr(backend, "restarts", 0)
        if record["hangs"] < 1:
            record["errors"] = list(errors) + [
                "chaos: the SIGSTOP'd worker was never detected as hung"
            ]
    return record


def _ms(seconds: Optional[float]) -> Optional[float]:
    return None if seconds is None else seconds * 1e3


def render_serve_throughput(record: dict) -> str:
    """Human-readable rendering of one serve bench record."""
    lat = record.get("act_latency_ms") or {}

    def _fmt(v, suffix=""):
        return f"{v:,.1f}{suffix}" if isinstance(v, (int, float)) else "-"

    label = "degraded (chaos) throughput" if record.get("chaos") else "serve throughput"
    out = [
        f"{label} "
        f"(engine={record.get('engine')}, lanes={record.get('lanes')}, "
        f"concurrency={record.get('concurrency')}):",
        f"  sessions:    {record.get('sessions_completed')}/{record.get('sessions')} "
        f"completed at {_fmt(record.get('sessions_per_sec'), '/s')}",
        f"  transitions: {_fmt(record.get('transitions_per_sec'), '/s')} "
        f"({record.get('transitions_per_session')} per session)",
        f"  act latency: p50 {_fmt(lat.get('p50'), 'ms')}  "
        f"p99 {_fmt(lat.get('p99'), 'ms')}  mean {_fmt(lat.get('mean'), 'ms')} "
        f"({lat.get('samples')} queries)",
    ]
    if record.get("rejected"):
        out.append(f"  rejected:    {record['rejected']} admission refusals")
    if record.get("recoveries"):
        out.append(f"  recoveries:  {record['recoveries']} session recoveries")
    if record.get("chaos"):
        out.append(
            f"  chaos:       {record.get('hangs', 0)} hung worker(s) detected, "
            f"{record.get('restarts', 0)} shard restart(s)"
        )
    trace = record.get("trace")
    if trace:
        line = (
            f"  trace:       {trace.get('spans')} span(s) across "
            f"{', '.join(trace.get('procs', []))}"
        )
        if trace.get("path"):
            line += f" -> {trace['path']}"
        out.append(line)
        if trace.get("recorder"):
            out.append(f"  recorder:    {trace['recorder']}")
    if record.get("errors"):
        out.append(f"  ERRORS: {record['errors']}")
    return "\n".join(out)
