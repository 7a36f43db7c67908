"""The chaos layer and the graceful-degradation machinery (`repro.chaos`).

Coverage, fault by fault:

* the seeded fault orchestrator — deterministic schedules, every core
  fault kind present, events inside the campaign window;
* the byte-level :class:`ChaosProxy` against a live gateway — mid-frame
  request cuts, garbage responses, connection severing and stalls, each
  survived by the client's reconnect+retry with **exactly-once**
  semantics (the final table equals the single-application reference);
* deadline propagation — an expired `deadline_ms` budget rolls a
  `learn` batch back all-or-nothing, lane and journal untouched;
* the `seq` exactly-once cache at the wire level — duplicate requests
  replay the cached response, stale ones are refused;
* hung-worker recovery — a SIGSTOP'd shard worker is detected by the
  heartbeat watchdog, SIGKILLed, restarted and journal-replayed
  bit-exactly; `close()` stays bounded with a worker still stopped;
* graceful degradation — `retry_after` hints on `at_capacity`,
  the `sessions_shed` counter, and the per-connection circuit breaker
  (`throttled`, then recovery after the cooldown);
* the journal-replay audit scrub detecting and repairing silent lane
  corruption above the ECC layer;
* sharded→vectorized backend failover, bit-exact through the
  checkpoint surface;
* one full seeded campaign (`run_chaos_campaign`) holding every tenant
  to bit-exact-or-clean-typed-error.
"""

from __future__ import annotations

import json
import random
import socket
import time

import pytest

from repro.chaos import ChaosProxy, FaultEvent, default_schedule, run_chaos_campaign
from repro.chaos.orchestrator import CORE_KINDS
from repro.core.config import QTAccelConfig
from repro.serve import (
    Gateway,
    ProtocolError,
    ServeClient,
    ServeError,
    SessionManager,
    build_serve_backend,
    run_gateway_in_thread,
)
from repro.serve.smoke import replay_reference

S, A = 16, 4


def _config(**kw):
    kw.setdefault("seed", 23)
    return QTAccelConfig.qlearning(**kw)


def _backend(engine="vectorized", lanes=3, config=None, **kw):
    if engine == "sharded":
        kw.setdefault("num_workers", 2)
        kw.setdefault("mp_context", "fork")
        kw.setdefault("ping_timeout_s", 0.4)
        kw.setdefault("hang_timeout_s", 0.8)
        kw.setdefault("stop_timeout_s", 2.0)
    return build_serve_backend(
        config or _config(),
        engine=engine,
        lanes=lanes,
        num_states=S,
        num_actions=A,
        **kw,
    )


def _ref_table(config, salt, ops):
    ref = replay_reference(config, salt, ops, num_states=S, num_actions=A)
    return [int(v) for v in ref.tables.q.data]


def _stream(rng, n):
    ops = []
    for _ in range(n):
        if rng.random() < 0.25:
            ops.append(("act", rng.randrange(S)))
        else:
            ops.append(
                ("learn", rng.randrange(S), rng.randrange(A),
                 rng.uniform(-2.0, 2.0), rng.randrange(S), rng.random() < 0.05)
            )
    return ops


def _apply(manager, sid, ops):
    for op in ops:
        if op[0] == "learn":
            manager.learn(sid, *op[1:])
        else:
            manager.act(sid, op[1], True)


# ---------------------------------------------------------------------- #
# Orchestrator: seeded fault schedules
# ---------------------------------------------------------------------- #


class TestSchedule:
    def test_deterministic_and_sorted(self):
        a = default_schedule(99, 6.0, extras=3)
        b = default_schedule(99, 6.0, extras=3)
        assert a == b
        assert all(x.at <= y.at for x, y in zip(a, a[1:]))
        assert default_schedule(100, 6.0, extras=3) != a

    def test_core_kinds_always_present_inside_window(self):
        for seed in (1, 7, 20260808):
            sched = default_schedule(seed, 8.0, extras=2)
            kinds = [ev.kind for ev in sched]
            for kind in CORE_KINDS:
                assert kind in kinds, (seed, kind)
            assert len(sched) == len(CORE_KINDS) + 2
            assert all(0.0 < ev.at < 8.0 for ev in sched)

    def test_event_is_frozen(self):
        ev = FaultEvent(at=1.0, kind="sever")
        with pytest.raises(AttributeError):
            ev.at = 2.0


# ---------------------------------------------------------------------- #
# ChaosProxy between a resilient client and a live gateway
# ---------------------------------------------------------------------- #


import asyncio
import threading


def _shutdown(gateway, thread, loop):
    asyncio.run_coroutine_threadsafe(gateway.close(), loop).result(timeout=10)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(timeout=10)


@pytest.fixture
def served():
    """A vectorized gateway tuned for fast chaos tests."""
    config = _config()
    backend = _backend(lanes=2, config=config)
    manager = SessionManager(backend, checkpoint_every=16, session_linger_s=5.0)
    gateway = Gateway(
        manager,
        admission_timeout_s=0.2,
        maintenance_interval_s=0.05,
        breaker_threshold=3,
        breaker_cooldown_s=0.6,
    )
    thread, loop = run_gateway_in_thread(gateway)
    try:
        yield gateway, config
    finally:
        _shutdown(gateway, thread, loop)


@pytest.fixture
def proxied(served):
    gateway, config = served
    with ChaosProxy(gateway.port) as proxy:
        yield proxy, gateway, config


class TestProxyFaults:
    def test_mid_frame_cut_is_exactly_once(self, proxied):
        """A request cut mid-JSON is retried on a fresh connection and
        applied exactly once (the reference journal has it once)."""
        proxy, gateway, config = proxied
        with ServeClient(port=proxy.port, timeout=5.0, max_attempts=4) as client:
            sess = client.open_session()
            sess.learn(0, 1, 0.5, 2)
            proxy.drop_next_request_mid_frame()
            sess.learn(3, 2, -1.0, 4)
            assert client.retries >= 1 and client.reconnects >= 1
            ops = [("learn", 0, 1, 0.5, 2, False), ("learn", 3, 2, -1.0, 4, False)]
            assert sess.table() == _ref_table(config, sess.salt, ops)
            assert proxy.stats()["frames_dropped"] == 1
            sess.close()

    def test_garbage_response_reconnect_replays_cached_reply(self, proxied):
        """Garbage where a response should be desynchronises the stream;
        the retry gets the exactly-once cached reply, not a re-apply."""
        proxy, gateway, config = proxied
        with ServeClient(port=proxy.port, timeout=5.0, max_attempts=4) as client:
            sess = client.open_session()
            proxy.corrupt_next_response()
            sess.learn(1, 0, 1.0, 2)
            assert client.reconnects >= 1
            ops = [("learn", 1, 0, 1.0, 2, False)]
            assert sess.table() == _ref_table(config, sess.salt, ops)
            assert sess.stats()["samples"] == 1  # applied once, not twice
            assert proxy.stats()["garbage_injected"] == 1
            sess.close()

    def test_sever_all_then_token_adoption(self, proxied):
        proxy, gateway, config = proxied
        with ServeClient(port=proxy.port, timeout=5.0, max_attempts=4) as client:
            sess = client.open_session()
            sess.learn(2, 1, 0.25, 3)
            assert proxy.sever_all() >= 1
            # The next op rides a fresh connection and adopts the
            # orphaned session by token.
            sess.learn(4, 0, -0.5, 5)
            ops = [("learn", 2, 1, 0.25, 3, False), ("learn", 4, 0, -0.5, 5, False)]
            assert sess.table() == _ref_table(config, sess.salt, ops)
            sess.close()

    def test_stall_delays_but_completes(self, proxied):
        proxy, gateway, config = proxied
        with ServeClient(port=proxy.port, timeout=10.0, max_attempts=2) as client:
            sess = client.open_session()
            proxy.stall(0.4)
            t0 = time.monotonic()
            sess.learn(0, 0, 1.0, 1)
            assert time.monotonic() - t0 >= 0.25
            assert sess.table() == _ref_table(
                config, sess.salt, [("learn", 0, 0, 1.0, 1, False)]
            )
            sess.close()


# ---------------------------------------------------------------------- #
# Deadline propagation
# ---------------------------------------------------------------------- #


class TestDeadlines:
    def test_expired_batch_rolls_back_all_or_nothing(self):
        config = _config()
        manager = SessionManager(_backend(lanes=1, config=config))
        rec = manager.open()
        pre = [("learn", 0, 1, 0.5, 2, False)]
        _apply(manager, rec.sid, pre)
        before = manager.q_row(rec.sid)
        rows = [(s % S, s % A, 0.5, (s + 1) % S, False) for s in range(40)]
        with pytest.raises(ProtocolError) as exc:
            manager.learn_batch(rec.sid, rows, deadline=time.monotonic() - 1.0)
        assert exc.value.code == "deadline_exceeded"
        # Nothing applied: lane, journal, counters all unwound.
        assert manager.q_row(rec.sid) == before
        assert manager.stats(rec.sid)["samples"] == 1
        assert manager.deadline_aborts == 1
        assert manager.q_row(rec.sid) == _ref_table(config, rec.salt, pre)

    def test_deadline_ms_over_the_wire(self, served):
        gateway, config = served
        with ServeClient(port=gateway.port) as client:
            sess = client.open_session()
            with pytest.raises(ServeError) as exc:
                sess.learn_batch(
                    [(0, 0, 0.5, 1, False)] * 8, deadline_ms=1e-6
                )
            assert exc.value.code == "deadline_exceeded"
            assert sess.table() == _ref_table(config, sess.salt, [])
            # A sane budget goes straight through.
            sess.learn(0, 1, 1.0, 2, deadline_ms=30_000)
            sess.close()

    def test_non_positive_budget_is_refused(self, served):
        gateway, _ = served
        with ServeClient(port=gateway.port) as client:
            with pytest.raises(ServeError) as exc:
                client.request({"op": "ping", "deadline_ms": -5})
            assert exc.value.code == "deadline_exceeded"


# ---------------------------------------------------------------------- #
# seq: exactly-once at the wire level
# ---------------------------------------------------------------------- #


class TestSeqExactlyOnce:
    def test_duplicate_seq_replays_cached_reply(self, served):
        gateway, _ = served
        with socket.create_connection(("127.0.0.1", gateway.port), timeout=10) as sock:
            rfile = sock.makefile("rb")

            def rt(obj: dict) -> dict:
                sock.sendall(json.dumps(obj).encode() + b"\n")
                return json.loads(rfile.readline())

            opened = rt({"op": "open"})
            sid = opened["session"]
            req = {"op": "learn", "session": sid, "seq": 1,
                   "s": 0, "a": 1, "r": 0.5, "ns": 2}
            first = rt(req)
            dup = rt(req)  # a retry after a lost response
            assert first["ok"] and dup == first and dup["seq"] == 1
            assert rt({"op": "stats", "session": sid})["samples"] == 1

            second = rt(dict(req, seq=2, s=3))
            assert second["ok"] and second["seq"] == 2
            stale = rt(dict(req, seq=1))
            assert not stale["ok"] and stale["error"] == "bad_request"
            assert rt({"op": "stats", "session": sid})["samples"] == 2

    def test_seq_must_be_a_positive_int(self, served):
        gateway, _ = served
        with ServeClient(port=gateway.port) as client:
            sess = client.open_session()
            # Three probes only: the fixture's breaker trips at 3
            # consecutive client faults (tested separately below).
            for bad in (0, -1, "1"):
                with pytest.raises(ServeError) as exc:
                    client.request(
                        {"op": "learn", "session": sess.sid, "token": sess.token,
                         "seq": bad, "s": 0, "a": 0, "r": 0.0, "ns": 0}
                    )
                assert exc.value.code == "bad_request"


# ---------------------------------------------------------------------- #
# Hung-worker detection and bounded teardown (sharded)
# ---------------------------------------------------------------------- #


class TestHungWorker:
    def test_sigstop_worker_detected_killed_and_replayed(self):
        config = _config(seed=29)
        backend = _backend(engine="sharded", lanes=4, config=config)
        try:
            manager = SessionManager(backend, checkpoint_every=8)
            rng = random.Random(0x57A11)
            recs, streams = [], []
            for _ in range(3):
                rec = manager.open()
                ops = _stream(rng, 25)
                _apply(manager, rec.sid, ops)
                recs.append(rec)
                streams.append(list(ops))

            backend.hang_worker(0)  # SIGSTOP: alive but frozen
            recovered = manager.maintenance()
            assert backend.hangs >= 1  # detected as hung, not dead
            assert backend.restarts >= 1
            # Worker 0 owns lanes [0, 2): every leased one replayed.
            assert set(recovered) == {r.sid for r in recs if r.lane < 2}

            for rec, ops in zip(recs, streams):
                more = _stream(rng, 10)
                _apply(manager, rec.sid, more)
                ops.extend(more)
                assert manager.q_row(rec.sid) == _ref_table(config, rec.salt, ops)
        finally:
            manager.backend.close()

    def test_close_is_bounded_with_a_stopped_worker(self):
        backend = _backend(engine="sharded", lanes=4, stop_timeout_s=1.0)
        backend.hang_worker(1)
        t0 = time.monotonic()
        backend.close()
        # Bounded: stop_timeout per phase, not a forever-join.
        assert time.monotonic() - t0 < 15.0
        assert all(p is None or not p.is_alive() for p in backend._procs)

    def test_hang_resume_is_clean(self):
        """A worker resumed before the watchdog fires keeps working."""
        backend = _backend(engine="sharded", lanes=4, hang_timeout_s=30.0,
                           ping_timeout_s=30.0)
        try:
            backend.hang_worker(0)
            backend.resume_worker(0)
            assert backend.check_workers(timeout=5.0) == []
            assert backend.hangs == 0
        finally:
            backend.close()


# ---------------------------------------------------------------------- #
# Graceful degradation: shedding, retry_after, the breaker
# ---------------------------------------------------------------------- #


class TestDegradation:
    def test_at_capacity_carries_retry_after(self):
        manager = SessionManager(_backend(lanes=1))
        manager.open()
        with pytest.raises(ProtocolError) as exc:
            manager.open()
        assert exc.value.code == "at_capacity"
        assert exc.value.retry_after and exc.value.retry_after > 0

    def test_retry_after_hint_tracks_session_lifetimes(self):
        manager = SessionManager(_backend(lanes=2))
        assert manager.retry_after_hint() == 0.25  # cold fallback
        rec = manager.open()
        manager.close(rec.sid)
        hint = manager.retry_after_hint(pending=3)
        assert 0.05 <= hint <= 60.0

    def test_note_shed_counts(self):
        manager = SessionManager(_backend(lanes=1))
        manager.note_shed()
        assert manager.sessions_shed == 1 and manager.sessions_rejected == 1
        assert manager.server_info()["sessions_shed"] == 1

    def test_shed_over_the_wire_when_queue_is_full(self, served):
        gateway, _ = served
        manager = gateway.manager
        gateway.max_admission_queue = 0  # every queued open sheds instantly
        with ServeClient(port=gateway.port) as c1, ServeClient(port=gateway.port) as c2:
            held = [c1.open_session(), c1.open_session()]
            with pytest.raises(ServeError) as exc:
                c2.open_session()
            assert exc.value.code == "at_capacity"
            assert exc.value.retry_after and exc.value.retry_after > 0
            assert manager.sessions_shed >= 1
            for sess in held:
                sess.close()

    def test_circuit_breaker_throttles_then_recovers(self, served):
        gateway, _ = served  # breaker_threshold=3, cooldown 0.6s
        with socket.create_connection(("127.0.0.1", gateway.port), timeout=10) as sock:
            rfile = sock.makefile("rb")

            def rt(obj: dict) -> dict:
                sock.sendall(json.dumps(obj).encode() + b"\n")
                return json.loads(rfile.readline())

            for _ in range(3):
                assert rt({"op": "frobnicate"})["error"] == "bad_request"
            tripped = rt({"op": "ping"})
            assert tripped["error"] == "throttled"
            assert tripped["retry_after"] > 0
            time.sleep(tripped["retry_after"] + 0.2)
            assert rt({"op": "ping"})["ok"]  # breaker closed again


# ---------------------------------------------------------------------- #
# Journal-replay audit scrub
# ---------------------------------------------------------------------- #


class TestAuditScrub:
    def test_detects_and_repairs_silent_lane_corruption(self):
        config = _config(seed=31)
        manager = SessionManager(_backend(lanes=2, config=config))
        rec = manager.open()
        ops = _stream(random.Random(11), 30)
        _apply(manager, rec.sid, ops)
        good = _ref_table(config, rec.salt, ops)
        assert manager.q_row(rec.sid) == good

        # A stray bit flip above the ECC layer: not in the journal, so
        # only the replay audit can see it.
        manager.backend.q[rec.lane, 5] = int(manager.backend.q[rec.lane, 5]) ^ (1 << 6)
        assert manager.q_row(rec.sid) != good
        assert manager.audit_sessions() == [rec.sid]
        assert manager.repairs == 1 and manager.audits >= 1
        assert manager.q_row(rec.sid) == good
        # A clean pass audits without repairing.
        assert manager.audit_sessions() == []
        assert manager.repairs == 1


# ---------------------------------------------------------------------- #
# Backend failover (sharded -> vectorized)
# ---------------------------------------------------------------------- #


class TestFailover:
    def test_failover_is_bit_exact_and_traffic_continues(self):
        config = _config(seed=37)
        backend = _backend(engine="sharded", lanes=4, config=config)
        manager = SessionManager(backend, checkpoint_every=8)
        try:
            rng = random.Random(0xFA11)
            recs, streams = [], []
            for _ in range(2):
                rec = manager.open()
                ops = _stream(rng, 25)
                _apply(manager, rec.sid, ops)
                recs.append(rec)
                streams.append(list(ops))

            name = manager.failover()
            assert name == "VectorizedFleetBackend"
            assert manager.backend is not backend
            assert manager.failovers == 1
            assert all(
                p is None or not p.is_alive() for p in backend._procs
            )  # old backend torn down

            for rec, ops in zip(recs, streams):
                assert manager.q_row(rec.sid) == _ref_table(config, rec.salt, ops)
                more = _stream(rng, 15)
                _apply(manager, rec.sid, more)
                ops.extend(more)
                assert manager.q_row(rec.sid) == _ref_table(config, rec.salt, ops)

            # Lanes freed before failover re-seed cleanly on the new
            # backend too.
            fresh = manager.open()
            manager.learn(fresh.sid, 0, 0, 1.0, 1)
            assert manager.q_row(fresh.sid) == _ref_table(
                config, fresh.salt, [("learn", 0, 0, 1.0, 1, False)]
            )
        finally:
            getattr(manager.backend, "close", lambda: None)()


# ---------------------------------------------------------------------- #
# The full seeded campaign
# ---------------------------------------------------------------------- #


def test_chaos_campaign_quick():
    """One seeded campaign end to end: every tenant bit-exact or cleanly
    errored, the hang and kill detected, the burst shed with hints."""
    result = run_chaos_campaign(
        seed=20260808,
        seconds=4.0,
        lanes=4,
        workers=2,
        burst_clients=8,
        num_states=32,
        extras=2,
    )
    assert result["ok"], result["problems"]
    assert result["tenants"]["failed"] == 0
    assert result["backend"]["hangs"] >= 1
    # A serving fleet runs no epochs: each shard restores its committed
    # generation, which already holds every lane op, and replays nothing.
    assert result["backend"]["replayed_samples"] == 0
    assert result["server"]["recoveries"] >= 1
