"""Fault-injection smoke gate for the session gateway (CI entry point).

``python -m repro.serve.smoke`` boots a gateway over a **sharded**
backend, drives it with more concurrent client threads than session
slots for a few seconds, SIGKILLs a shard worker mid-run, and asserts:

* every client either completes its session or is *cleanly* rejected
  with ``at_capacity`` — no other error surfaces to any client;
* at least one worker kill was injected and recovered;
* every completed session's final Q-table is **bit-identical** to the
  same op stream replayed on a standalone
  :class:`~repro.core.functional.FunctionalSimulator` seeded with the
  session's salt — i.e. the crash, the shard rollback and the journal
  replay were all invisible to the tenant.

Exit status 0 on success, 1 on any violation (the CI job gates on it).

``--obs-dir DIR`` attaches a flight recorder (see
:mod:`repro.telemetry.recorder`); on a red run the surviving event ring is
merged into ``DIR/flight_dump.jsonl`` so the failure ships its own
post-mortem.
"""

from __future__ import annotations

import argparse
import asyncio
import random
import threading
import time

from ..core.config import QTAccelConfig
from ..core.functional import FunctionalSimulator
from ..core.policies import PolicyDraws
from .client import ServeClient, ServeError
from .gateway import Gateway, run_gateway_in_thread
from .session import SessionManager, build_serve_backend, serve_world


def replay_reference(config, salt: int, journal: list, *, num_states: int, num_actions: int):
    """The session's op stream on a dedicated scalar simulator."""
    sim = FunctionalSimulator(
        serve_world(num_states, num_actions),
        config,
        draws=PolicyDraws.from_config(config, salt=salt),
    )
    for entry in journal:
        if entry[0] == "learn":
            _, s, a, r, ns, t = entry
            sim.apply_transition(s, a, r, ns, t)
        else:
            sim.query_action(entry[1], explore=True)
    return sim


def _client_worker(port: int, idx: int, seconds: float, config, results: list, lock):
    outcome = {"idx": idx, "status": "error", "detail": None}
    try:
        with ServeClient(port=port) as client:
            try:
                sess = client.open_session()
            except ServeError as exc:
                if exc.code == "at_capacity":
                    outcome.update(status="rejected", detail=exc.detail)
                else:
                    outcome["detail"] = f"{exc.code}: {exc.detail}"
                return
            rng = random.Random(0xC0FFEE + idx)
            S, A = sess.num_states, sess.num_actions
            journal: list = []
            deadline = time.monotonic() + seconds
            while time.monotonic() < deadline:
                s = rng.randrange(S)
                a = rng.randrange(A)
                r = rng.uniform(-1.0, 1.0)
                ns = rng.randrange(S)
                t = rng.random() < 0.02
                sess.learn(s, a, r, ns, t)
                journal.append(("learn", s, a, r, ns, t))
                if rng.random() < 0.25:
                    sess.act(ns, explore=True)
                    journal.append(("act", ns))
            table = sess.table()
            stats = sess.stats()
            sess.close()
            # Bit-identity: gateway table vs dedicated scalar replay.
            ref = replay_reference(
                config, sess.salt, journal, num_states=S, num_actions=A
            )
            if table != [int(v) for v in ref.tables.q.data]:
                outcome["detail"] = "final table diverged from scalar replay"
                return
            outcome.update(
                status="ok",
                detail=None,
                samples=stats["samples"],
                recoveries=stats["recoveries"],
            )
    except Exception as exc:  # noqa: BLE001 - every failure mode must surface
        outcome["detail"] = f"{type(exc).__name__}: {exc}"
    finally:
        with lock:
            results.append(outcome)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.serve.smoke")
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--clients", type=int, default=12)
    parser.add_argument("--lanes", type=int, default=8)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--states", type=int, default=64)
    parser.add_argument("--actions", type=int, default=4)
    parser.add_argument(
        "--mp-context", default=None, help="multiprocessing start method"
    )
    parser.add_argument(
        "--kill-at", type=float, default=0.4,
        help="inject the worker kill at this fraction of the run",
    )
    parser.add_argument(
        "--obs-dir", default=None,
        help="flight-recorder directory (dumped on failure)",
    )
    args = parser.parse_args(argv)

    from ..telemetry.recorder import open_recorder

    recorder = open_recorder(args.obs_dir)
    config = QTAccelConfig.qlearning(seed=11)
    backend = build_serve_backend(
        config,
        engine="sharded",
        lanes=args.lanes,
        num_states=args.states,
        num_actions=args.actions,
        num_workers=args.workers,
        mp_context=args.mp_context,
    )
    manager = SessionManager(backend, checkpoint_every=32, recorder=recorder)
    gateway = Gateway(
        manager,
        port=0,
        admission_timeout_s=0.25,
        maintenance_interval_s=0.1,
        recorder=recorder,
    )
    if hasattr(backend, "obs_recorder"):
        backend.obs_recorder = recorder
    thread, loop = run_gateway_in_thread(gateway)

    results: list[dict] = []
    results_lock = threading.Lock()
    workers = [
        threading.Thread(
            target=_client_worker,
            args=(gateway.port, i, args.seconds, config, results, results_lock),
        )
        for i in range(args.clients)
    ]
    for w in workers:
        w.start()

    # Fault injection: SIGKILL shard worker 0 mid-run, on the loop thread
    # so it cannot race the maintenance probe's own recovery.
    time.sleep(args.seconds * args.kill_at)
    loop.call_soon_threadsafe(backend.kill_worker, 0)
    print("smoke: killed shard worker 0")

    for w in workers:
        w.join()

    recoveries = manager.recoveries
    info = manager.server_info()
    asyncio.run_coroutine_threadsafe(gateway.close(), loop).result(timeout=30)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(timeout=10)

    ok = [r for r in results if r["status"] == "ok"]
    rejected = [r for r in results if r["status"] == "rejected"]
    failed = [r for r in results if r["status"] == "error"]
    print(
        f"smoke: {len(ok)} completed bit-exact, {len(rejected)} cleanly "
        f"rejected, {len(failed)} failed; {recoveries} session recoveries; "
        f"server={info}"
    )
    for r in failed:
        print(f"smoke: client {r['idx']} FAILED: {r['detail']}")

    verdict = 0
    if failed:
        verdict = 1
    elif not ok:
        print("smoke: no session completed — nothing was exercised")
        verdict = 1
    elif recoveries == 0:
        print("smoke: worker kill was never recovered")
        verdict = 1
    if recorder is not None:
        if verdict:
            print(f"smoke: flight dump: {recorder.dump()}")
        recorder.close()
    if verdict == 0:
        print("smoke: OK")
    return verdict


if __name__ == "__main__":
    raise SystemExit(main())
