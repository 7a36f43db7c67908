"""The chaos campaign: a seeded fault schedule against a live gateway.

:func:`run_chaos_campaign` boots a **sharded** gateway, puts the
:class:`~repro.chaos.proxy.ChaosProxy` between it and a fleet of
resilient tenant clients, fires a seeded
:func:`~repro.chaos.orchestrator.default_schedule` fault timeline at
every layer (worker SIGSTOP/SIGKILL, connection sever / mid-batch cut /
garbage / stall, gateway response delay, shared-memory lane
corruption, an overload burst), and then holds the stack to the only
two acceptable outcomes per tenant:

* **bit-exact**: the session's final Q-table equals an uninterrupted
  :class:`~repro.core.functional.FunctionalSimulator` replay of exactly
  the transitions/queries the tenant got acknowledgements for — the
  end-state equivalence check (hangs, kills, retries, reconnects and
  scrub repairs all invisible); or
* **clean typed errors**: ``at_capacity``/``throttled``/
  ``deadline_exceeded`` refusals, or transport exhaustion after
  bounded retries — never a wrong answer, never a wedged server.

Every tenant op is acknowledged-before-journalled, and every mutating
op carries a ``seq``, so the reference journal is exact even across
reconnects: an op is in the journal iff the gateway applied it exactly
once.

With ``recorder_dir`` set, a :class:`~repro.telemetry.recorder.FlightRecorder`
rides along: every fired fault and every worker/session lifecycle event
lands in the on-disk ring as it happens, and when the campaign *fails*
the surviving ring is merged into ``flight_dump.jsonl`` — the crashed
run's own post-mortem, which CI uploads as an artifact.  ``tracing``
additionally attaches a full-sampling tracer to every layer and folds
the span ring into the dump.
"""

from __future__ import annotations

import asyncio
import random
import threading
import time
from typing import Optional

from ..core.config import QTAccelConfig
from ..serve.client import ServeClient, ServeError
from ..serve.gateway import Gateway, run_gateway_in_thread
from ..serve.session import SessionManager, build_serve_backend
from ..serve.smoke import replay_reference
from .orchestrator import FaultEvent, default_schedule
from .proxy import ChaosProxy

#: ServeError codes a tenant may cleanly observe under chaos.
CLEAN_CODES = frozenset(
    {"at_capacity", "throttled", "deadline_exceeded", "no_session"}
)


def _tenant_worker(
    proxy_port: int,
    idx: int,
    seed: int,
    seconds: float,
    config,
    results: list,
    lock: threading.Lock,
    tracer=None,
) -> None:
    """One resilient tenant: random traffic, ack-gated reference journal."""
    outcome: dict = {"idx": idx, "status": "error", "detail": None}
    rng = random.Random((seed << 8) ^ (0xBEEF + idx))
    try:
        with ServeClient(
            port=proxy_port,
            timeout=3.0,
            max_attempts=6,
            rng=random.Random(rng.getrandbits(32)),
            tracer=tracer,
            trace_sample=1.0,
            tenant=f"tenant{idx}",
        ) as client:
            try:
                sess = client.open_session()
            except ServeError as exc:
                if exc.code == "at_capacity":
                    outcome.update(status="rejected", detail=exc.detail)
                else:
                    outcome["detail"] = f"open: {exc.code}: {exc.detail}"
                return
            S, A = sess.num_states, sess.num_actions
            journal: list = []
            clean_errors = 0
            deadline = time.monotonic() + seconds
            while time.monotonic() < deadline:
                try:
                    roll = rng.random()
                    if roll < 0.60:
                        s, a = rng.randrange(S), rng.randrange(A)
                        r, ns = rng.uniform(-1.0, 1.0), rng.randrange(S)
                        t = rng.random() < 0.02
                        sess.learn(s, a, r, ns, t)
                        journal.append(("learn", s, a, r, ns, t))
                    elif roll < 0.80:
                        rows = [
                            (
                                rng.randrange(S),
                                rng.randrange(A),
                                rng.uniform(-1.0, 1.0),
                                rng.randrange(S),
                                rng.random() < 0.02,
                            )
                            for _ in range(rng.randrange(8, 33))
                        ]
                        budget = 250.0 if rng.random() < 0.15 else None
                        sess.learn_batch(rows, deadline_ms=budget)
                        journal.extend(("learn",) + row for row in rows)
                    else:
                        s = rng.randrange(S)
                        sess.act(s, explore=True)
                        journal.append(("act", s))
                except ServeError as exc:
                    if exc.code not in CLEAN_CODES:
                        outcome["detail"] = f"{exc.code}: {exc.detail}"
                        return
                    if exc.code == "no_session":
                        # Linger expired mid-outage: a designed, clean end.
                        outcome.update(status="expired", detail=exc.code)
                        return
                    clean_errors += 1  # typed refusal; nothing was applied
            try:
                table = sess.table()
                stats = sess.stats()
                sess.close()
            except ServeError as exc:
                if exc.code in CLEAN_CODES:
                    outcome.update(status="expired", detail=exc.code)
                    return
                raise
            ref = replay_reference(
                config, sess.salt, journal, num_states=S, num_actions=A
            )
            if table != [int(v) for v in ref.tables.q.data]:
                outcome["detail"] = (
                    f"final table diverged from reference replay "
                    f"({stats['samples']} samples, "
                    f"{stats['recoveries']} recoveries)"
                )
                return
            outcome.update(
                status="ok",
                detail=None,
                ops=len(journal),
                clean_errors=clean_errors,
                recoveries=stats["recoveries"],
                retries=client.retries,
                reconnects=client.reconnects,
            )
    except (ConnectionError, OSError, TimeoutError) as exc:
        # Transport exhausted after bounded retries: clean, not silent.
        outcome.update(status="aborted", detail=f"{type(exc).__name__}: {exc}")
    except Exception as exc:  # noqa: BLE001 - every failure mode must surface
        outcome["detail"] = f"{type(exc).__name__}: {exc}"
    finally:
        with lock:
            results.append(outcome)


def _burst_worker(gateway_port: int, results: list, lock: threading.Lock) -> None:
    """One overload-burst client: open must succeed or refuse cleanly."""
    entry = {"status": "error", "detail": None}
    try:
        with ServeClient(port=gateway_port, timeout=5.0, max_attempts=1) as client:
            try:
                sess = client.open_session()
            except ServeError as exc:
                if exc.code in ("at_capacity", "throttled"):
                    entry.update(
                        status="rejected", retry_after=exc.retry_after
                    )
                else:
                    entry["detail"] = f"{exc.code}: {exc.detail}"
                return
            sess.close()
            entry.update(status="ok")
    except Exception as exc:  # noqa: BLE001
        entry["detail"] = f"{type(exc).__name__}: {exc}"
    finally:
        with lock:
            results.append(entry)


def run_chaos_campaign(
    *,
    seed: int = 20260808,
    seconds: float = 6.0,
    lanes: int = 6,
    workers: int = 2,
    clients: Optional[int] = None,
    burst_clients: int = 10,
    num_states: int = 48,
    num_actions: int = 4,
    mp_context: str = "fork",
    extras: int = 3,
    verbose: bool = False,
    recorder_dir: Optional[str] = None,
    tracing: bool = False,
    dump_always: bool = False,
) -> dict:
    """Run one seeded chaos campaign; returns a verdict + evidence dict.

    ``result["ok"]`` is True iff every tenant ended bit-exact or with a
    clean typed outcome, the injected worker hang and kill were both
    detected and recovered, and the overload burst was shed cleanly
    with ``retry_after`` hints.

    ``recorder_dir`` attaches a flight recorder (fault + lifecycle
    events; dumped on failure, or unconditionally with
    ``dump_always`` so CI can upload the artifact from green runs
    too), ``tracing`` a full-sampling tracer whose spans join the
    dump; see the module docstring.
    """
    clients = lanes if clients is None else clients
    recorder = None
    tracer = None
    if recorder_dir:
        from ..telemetry.recorder import open_recorder

        recorder = open_recorder(recorder_dir)
    if tracing:
        from ..telemetry.tracing import TraceRing, Tracer

        tracer = Tracer("client", ring=TraceRing(1 << 17))
    config = QTAccelConfig.qlearning(seed=11)
    backend = build_serve_backend(
        config,
        engine="sharded",
        lanes=lanes,
        num_states=num_states,
        num_actions=num_actions,
        num_workers=workers,
        mp_context=mp_context,
        ping_timeout_s=0.5,
        hang_timeout_s=1.0,
        stop_timeout_s=2.0,
    )
    manager = SessionManager(
        backend,
        checkpoint_every=32,
        session_linger_s=5.0,
        audit_every=lanes,
        failover="vectorized",
        tracer=tracer.fork("session") if tracer else None,
        recorder=recorder,
    )
    gateway = Gateway(
        manager,
        port=0,
        admission_timeout_s=0.25,
        maintenance_interval_s=0.1,
        max_admission_queue=4,
        tracer=tracer.fork("gateway") if tracer else None,
        recorder=recorder,
    )
    if hasattr(backend, "obs_tracer"):
        backend.obs_tracer = tracer.fork("backend") if tracer else None
        backend.obs_recorder = recorder
    thread, loop = run_gateway_in_thread(gateway)
    proxy = ChaosProxy(gateway.port)

    results: list[dict] = []
    burst_results: list[dict] = []
    lock = threading.Lock()
    tenants = [
        threading.Thread(
            target=_tenant_worker,
            args=(proxy.port, i, seed, seconds, config, results, lock, tracer),
        )
        for i in range(clients)
    ]
    burst_threads: list[threading.Thread] = []
    fault_log: list[str] = []
    corrupt_rng = random.Random(seed ^ 0x5EED)

    def _fire(ev: FaultEvent) -> None:
        if ev.kind == "worker_hang":
            backend.hang_worker(0)
        elif ev.kind == "worker_kill":
            loop.call_soon_threadsafe(
                backend.kill_worker, min(1, backend.num_workers - 1)
            )
        elif ev.kind == "conn_drop_mid_batch":
            proxy.drop_next_request_mid_frame()
        elif ev.kind == "overload_burst":
            for _ in range(burst_clients):
                t = threading.Thread(
                    target=_burst_worker,
                    args=(gateway.port, burst_results, lock),
                )
                t.start()
                burst_threads.append(t)
        elif ev.kind == "sever":
            proxy.sever_all()
        elif ev.kind == "stall":
            proxy.stall(ev.arg or 0.25)
        elif ev.kind == "garbage":
            proxy.corrupt_next_response()
        elif ev.kind == "gateway_delay":
            gateway.response_delay_s = ev.arg or 0.02
            timer = threading.Timer(
                0.5, lambda: setattr(gateway, "response_delay_s", 0.0)
            )
            timer.daemon = True
            timer.start()
        elif ev.kind == "lane_corrupt":
            # A stray bit flip in the shared Q block, under the manager
            # lock so it cannot tear a concurrent lane op; the rotating
            # journal-replay audit must detect and repair it.
            with manager._lock:
                recs = list(manager._sessions.values())
                if recs:
                    rec = corrupt_rng.choice(recs)
                    col = corrupt_rng.randrange(num_states * num_actions)
                    bit = corrupt_rng.randrange(12)
                    manager.backend.q[rec.lane, col] = int(
                        manager.backend.q[rec.lane, col]
                    ) ^ (1 << bit)
        fault_log.append(f"{ev.at:.2f}s {ev.kind}")
        if recorder is not None:
            try:
                recorder.record_event("fault", kind_fired=ev.kind, at=ev.at)
            except Exception:  # noqa: BLE001 - recorder is best-effort
                pass
        if verbose:
            print(f"chaos: t={ev.at:.2f}s fired {ev.kind}")

    schedule = default_schedule(seed, seconds, extras=extras)
    start = time.monotonic()
    for t in tenants:
        t.start()
    try:
        for ev in schedule:
            delay = start + ev.at - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            _fire(ev)
        for t in tenants:
            t.join(timeout=seconds + 60.0)
        for t in burst_threads:
            t.join(timeout=60.0)
    finally:
        hangs = backend.hangs
        restarts = backend.restarts
        recoveries = manager.recoveries
        server = manager.server_info()
        proxy_stats = proxy.stats()
        proxy.close()
        asyncio.run_coroutine_threadsafe(gateway.close(), loop).result(timeout=30)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)

    verified = [r for r in results if r["status"] == "ok"]
    clean = [r for r in results if r["status"] in ("rejected", "aborted", "expired")]
    failed = [r for r in results if r["status"] == "error"]
    burst_rejected = [r for r in burst_results if r["status"] == "rejected"]
    burst_failed = [r for r in burst_results if r["status"] == "error"]
    problems: list[str] = []
    if failed:
        problems.append(f"{len(failed)} tenant(s) saw unclean failures")
    if not verified:
        problems.append("no tenant session completed bit-exact")
    if hangs < 1:
        problems.append("the SIGSTOP'd worker was never detected as hung")
    if recoveries < 1:
        problems.append("no session was journal-replay recovered")
    if burst_failed:
        problems.append(f"{len(burst_failed)} burst client(s) failed uncleanly")
    if server["sessions_rejected"] < 1:
        problems.append("the overload burst produced no clean rejections")
    if burst_rejected and not any(
        r.get("retry_after") is not None for r in burst_rejected
    ):
        problems.append("rejections carried no retry_after hint")
    recorder_info = None
    if recorder is not None:
        recorder_info = {"directory": str(recorder.directory), "dump": None}
        recorder_info.update(recorder.stats())
        if problems or dump_always:
            # The post-mortem: surviving events (+ spans when traced)
            # merged into one artifact for CI to upload.
            spans = tracer.ring.items() if tracer is not None else None
            recorder_info["dump"] = recorder.dump(spans=spans)
        recorder.close()
    trace_info = None
    if tracer is not None:
        spans = tracer.ring.items()
        trace_info = {
            "spans": len(spans),
            "dropped": tracer.ring.dropped,
            "procs": sorted({s.proc for s in spans}),
        }
    return {
        "ok": not problems,
        "recorder": recorder_info,
        "trace": trace_info,
        "problems": problems,
        "seed": seed,
        "seconds": seconds,
        "schedule": fault_log,
        "tenants": {
            "verified": len(verified),
            "clean": len(clean),
            "failed": len(failed),
            "outcomes": results,
        },
        "burst": {
            "rejected": len(burst_rejected),
            "ok": len([r for r in burst_results if r["status"] == "ok"]),
            "failed": len(burst_failed),
        },
        "backend": {"hangs": hangs, "restarts": restarts},
        "server": server,
        "proxy": proxy_stats,
    }
