"""The multi-tenant session gateway (`repro.serve`).

Coverage, bottom up:

* the NDJSON wire helpers (`protocol.py`) — encoding, id echo,
  validation errors;
* the :class:`SessionManager` — lease/recycle, admission, the
  lane-recycling isolation property (more sequential sessions than
  lanes, every one bit-identical to a dedicated scalar simulator),
  checkpoint/restore, journal re-basing;
* crash recovery — a SIGKILLed shard worker mid-traffic, recovered
  bit-exactly through the session journal; hypothesis properties for
  back-to-back kills inside one checkpoint interval and for
  checkpoint-mediated sharded→vectorized failover migration;
* protocol /2 resilience surface — `seq` echoed on every response
  (the exactly-once correlation handle), degraded-bench sentinel
  gating (the chaos tests proper live in `tests/test_chaos.py`);
* the asyncio gateway end to end over real sockets, on the vectorized
  *and* sharded backends (the acceptance bit-identity claim), plus
  admission queue-with-timeout behaviour and wire-level error codes;
* wire framing: pipelined and byte-at-a-time requests, oversized lines,
  reply order around requests that wait, and back-pressure from a peer
  that does not read;
* the SIGTERM leak regression for the sharded backend's signal hooks;
* the serve throughput bench record round-tripping through a snapshot
  and the regression sentinel.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.native import native_available
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
from repro.serve.protocol import (
    E_AT_CAPACITY,
    E_BAD_REQUEST,
    E_NO_SESSION,
    MAX_BATCH,
    MAX_LINE,
    decode,
    encode,
    error,
    ok,
    parse_batch,
    parse_transition,
    require_int,
)
from repro.serve import session as session_mod
from repro.serve.session import _lane_states_equal
from repro.serve.smoke import replay_reference

S, A = 16, 4

#: Single-process engines the gateway tests run on; ``native`` is the CLI
#: default wherever a C compiler exists.
ENGINES = ["vectorized", "native"]


def _skip_without_compiler(engine: str) -> None:
    if engine == "native" and not native_available()[0]:
        pytest.skip("no C compiler for the fused kernel")


def _config(**kw):
    kw.setdefault("seed", 9)
    return QTAccelConfig.qlearning(**kw)


def _backend(engine="vectorized", lanes=3, config=None, **kw):
    if engine == "sharded":
        kw.setdefault("num_workers", 2)
        kw.setdefault("mp_context", "fork")
    return build_serve_backend(
        config or _config(),
        engine=engine,
        lanes=lanes,
        num_states=S,
        num_actions=A,
        **kw,
    )


def _random_stream(rng, n, explore_frac=0.25):
    """A reproducible mixed op stream in journal form."""
    ops = []
    for _ in range(n):
        if rng.random() < explore_frac:
            ops.append(("act", rng.randrange(S)))
        else:
            ops.append(
                (
                    "learn",
                    rng.randrange(S),
                    rng.randrange(A),
                    rng.uniform(-2.0, 2.0),
                    rng.randrange(S),
                    rng.random() < 0.05,
                )
            )
    return ops


def _apply_via_manager(manager, sid, ops):
    for op in ops:
        if op[0] == "learn":
            manager.learn(sid, *op[1:])
        else:
            manager.act(sid, op[1], True)


def _ref_table(config, salt, ops):
    ref = replay_reference(config, salt, ops, num_states=S, num_actions=A)
    return [int(v) for v in ref.tables.q.data]


# ---------------------------------------------------------------------- #
# Protocol helpers
# ---------------------------------------------------------------------- #


class TestProtocol:
    def test_encode_decode_roundtrip(self):
        msg = {"op": "learn", "s": 1, "r": -0.5, "id": "x"}
        line = encode(msg)
        assert line.endswith(b"\n") and b" " not in line.split(b'"detail"')[0][:2]
        assert decode(line) == msg

    def test_decode_rejects_non_object(self):
        with pytest.raises(ProtocolError) as exc:
            decode(b"[1,2]\n")
        assert exc.value.code == E_BAD_REQUEST

    def test_decode_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            decode(b"{nope\n")

    def test_id_echo(self):
        assert ok({"a": 1}, req={"op": "ping", "id": 7})["id"] == 7
        assert error(E_NO_SESSION, "gone", req={"id": "t"})["id"] == "t"
        assert "id" not in ok({}, req={"op": "ping"})

    def test_require_int_bounds(self):
        assert require_int({"s": 3}, "s", lo=0, hi=15) == 3
        for bad in ({"s": -1}, {"s": 16}, {"s": 1.5}, {"s": "3"}, {}):
            with pytest.raises(ProtocolError) as exc:
                require_int(bad, "s", lo=0, hi=15)
            assert exc.value.code == E_BAD_REQUEST

    def test_parse_transition(self):
        req = {"s": 1, "a": 2, "r": 0.25, "ns": 3, "t": True}
        assert parse_transition(req, num_states=S, num_actions=A) == (
            1, 2, 0.25, 3, True,
        )
        with pytest.raises(ProtocolError):
            parse_transition(
                {"s": 1, "a": 9, "r": 0, "ns": 0}, num_states=S, num_actions=A
            )

    def test_parse_batch_shapes_and_cap(self):
        rows = [[0, 1, 0.5, 2], [3, 0, -1.0, 4, True]]
        parsed = parse_batch({"batch": rows}, num_states=S, num_actions=A)
        assert parsed == [(0, 1, 0.5, 2, False), (3, 0, -1.0, 4, True)]
        too_big = {"batch": [[0, 0, 0.0, 0]] * (MAX_BATCH + 1)}
        with pytest.raises(ProtocolError):
            parse_batch(too_big, num_states=S, num_actions=A)


# ---------------------------------------------------------------------- #
# SessionManager
# ---------------------------------------------------------------------- #


class TestSessionManager:
    def test_lease_recycle_and_admission(self):
        manager = SessionManager(_backend(lanes=2))
        a, b = manager.open(), manager.open()
        assert {a.lane, b.lane} == {0, 1}
        assert a.salt != b.salt and min(a.salt, b.salt) >= manager.K
        with pytest.raises(ProtocolError) as exc:
            manager.open()
        assert exc.value.code == E_AT_CAPACITY
        assert manager.sessions_rejected == 1
        manager.close(a.sid)
        c = manager.open()
        assert c.lane == a.lane and c.salt not in (a.salt, b.salt)
        with pytest.raises(ProtocolError) as exc:
            manager.learn(a.sid, 0, 0, 0.0, 0)
        assert exc.value.code == E_NO_SESSION

    def test_sequential_sessions_never_cross_contaminate(self):
        """N sessions over K < N lanes: recycling leaks no state.

        Each session's final table must be bit-identical to a dedicated
        FunctionalSimulator replaying only that session's ops — any
        cross-session leakage through a recycled lane breaks this.
        """
        config = _config(seed=21)
        manager = SessionManager(_backend(lanes=3, config=config))
        rng = random.Random(0xA11CE)
        live: list = []
        for i in range(9):
            rec = manager.open()
            ops = _random_stream(rng, 40 + 10 * (i % 3))
            _apply_via_manager(manager, rec.sid, ops)
            live.append((rec, ops))
            # Interleave lifetimes so lanes are recycled mid-run, not
            # in strict open/close lockstep.
            if len(live) == 3:
                for rec, ops in live:
                    got = manager.q_row(rec.sid)
                    assert got == _ref_table(config, rec.salt, ops), rec.sid
                    manager.close(rec.sid)
                live = []

    @pytest.mark.parametrize("engine", ["sharded"])
    def test_sequential_sessions_sharded(self, engine):
        config = _config(seed=4)
        backend = _backend(engine=engine, lanes=3, config=config)
        try:
            manager = SessionManager(backend)
            rng = random.Random(7)
            for _ in range(5):
                rec = manager.open()
                ops = _random_stream(rng, 30)
                _apply_via_manager(manager, rec.sid, ops)
                assert manager.q_row(rec.sid) == _ref_table(config, rec.salt, ops)
                manager.close(rec.sid)
        finally:
            backend.close()

    def test_checkpoint_restore_rebases_journal(self):
        config = _config(seed=2)
        manager = SessionManager(_backend(lanes=1, config=config))
        rec = manager.open()
        rng = random.Random(3)
        pre = _random_stream(rng, 25)
        _apply_via_manager(manager, rec.sid, pre)
        tag = manager.checkpoint(rec.sid, "mark")
        at_mark = manager.q_row(rec.sid)
        _apply_via_manager(manager, rec.sid, _random_stream(rng, 25))
        assert manager.q_row(rec.sid) != at_mark  # drifted
        assert manager.restore(rec.sid) == tag  # default = latest
        assert manager.q_row(rec.sid) == at_mark
        stats = manager.stats(rec.sid)
        assert stats["journal_depth"] == 0 and stats["tags"] == ["mark"]
        # Post-restore traffic continues the same draw stream the
        # checkpoint froze: replay pre-ops then post-ops on a reference.
        post = _random_stream(rng, 20)
        _apply_via_manager(manager, rec.sid, post)
        assert manager.q_row(rec.sid) == _ref_table(config, rec.salt, pre + post)

    def test_restore_missing_checkpoint_is_no_session(self):
        """Restoring a session with no checkpoint, or an unknown tag, is a
        typed ``no_session`` refusal that leaves the lane untouched."""
        manager = SessionManager(_backend(lanes=1))
        rec = manager.open()
        _apply_via_manager(manager, rec.sid, _random_stream(random.Random(8), 15))

        def assert_refused(tag):
            before = manager.backend.lane_state(rec.lane)
            depth = manager.stats(rec.sid)["journal_depth"]
            with pytest.raises(ProtocolError) as exc:
                manager.restore(rec.sid, tag)
            assert exc.value.code == E_NO_SESSION
            assert _lane_states_equal(manager.backend.lane_state(rec.lane), before)
            assert manager.stats(rec.sid)["journal_depth"] == depth

        assert_refused(None)  # no checkpoint yet
        manager.checkpoint(rec.sid, "mark")
        _apply_via_manager(manager, rec.sid, _random_stream(random.Random(9), 5))
        assert_refused("nope")  # unknown tag

    def test_journal_rebase_caps_depth(self):
        manager = SessionManager(_backend(lanes=1), checkpoint_every=8)
        rec = manager.open()
        rng = random.Random(5)
        _apply_via_manager(manager, rec.sid, _random_stream(rng, 50))
        assert manager.stats(rec.sid)["journal_depth"] < 8

    @pytest.mark.parametrize("engine", ENGINES)
    def test_deadline_after_first_chunk_rolls_back(self, engine, monkeypatch):
        """A deadline that expires after the first chunk has been applied
        unwinds the whole batch; the retried batch lands exactly once."""
        _skip_without_compiler(engine)
        config = _config(seed=21)
        manager = SessionManager(_backend(engine=engine, lanes=2, config=config),
                                 checkpoint_every=16)
        rec = manager.open()
        rng = random.Random(12)
        pre = _random_stream(rng, 10)
        _apply_via_manager(manager, rec.sid, pre)
        rows = [op[1:] for op in _random_stream(rng, 3 * manager._BATCH_CHECK + 5,
                                                 explore_frac=0.0)]
        before = (manager.backend.lane_state(rec.lane), list(rec.journal),
                  rec.samples, manager.transitions_total)

        clock = iter([0.0] + [10.0] * 8)  # fresh before chunk 1, expired after
        monkeypatch.setattr(session_mod.time, "monotonic", lambda: next(clock))
        with pytest.raises(ProtocolError) as exc:
            manager.learn_batch(rec.sid, rows, deadline=5.0)
        monkeypatch.undo()
        assert exc.value.code == "deadline_exceeded"
        assert "after 32/" in exc.value.detail  # one chunk had been applied
        after = (manager.backend.lane_state(rec.lane), list(rec.journal),
                 rec.samples, manager.transitions_total)
        assert _lane_states_equal(after[0], before[0]) and after[1:] == before[1:]
        assert manager.deadline_aborts == 1

        manager.learn_batch(rec.sid, rows, deadline=time.monotonic() + 60.0)
        ops = pre + [("learn", *row) for row in rows]
        assert manager.q_row(rec.sid) == _ref_table(config, rec.salt, ops)
        assert manager.stats(rec.sid)["samples"] == sum(op[0] == "learn" for op in ops)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_bad_row_rejects_whole_batch(self, engine):
        """A batch with a bad row anywhere raises bad_request and applies
        nothing, so samples, journal and the table are unchanged."""
        _skip_without_compiler(engine)
        config = _config(seed=22)
        manager = SessionManager(_backend(engine=engine, lanes=1, config=config))
        rec = manager.open()
        good = [(1, 1, 1.0, 2, False), (2, 1, 1.0, 3, False)]
        for bad in ((3, 1, float("nan"), 2, False), (3, A, 0.5, 2, False),
                    (3, 1, 0.5, -1, False), (3, 1, 0.5, 2)):
            with pytest.raises(ProtocolError) as exc:
                manager.learn_batch(rec.sid, good * 20 + [bad])
            assert exc.value.code == "bad_request"
            assert manager.q_row(rec.sid) == _ref_table(config, rec.salt, [])
            assert rec.samples == 0 and rec.journal == []
            assert manager.transitions_total == 0

    def test_q_row_slices_one_state(self):
        manager = SessionManager(_backend(lanes=1))
        rec = manager.open()
        manager.learn(rec.sid, 2, 1, 1.0, 3)
        full = manager.q_row(rec.sid)
        assert len(full) == S * A
        assert manager.q_row(rec.sid, 2) == full[2 * A : 3 * A]


# ---------------------------------------------------------------------- #
# Crash recovery (sharded)
# ---------------------------------------------------------------------- #


class TestCrashRecovery:
    def test_killed_worker_recovers_sessions_bit_exactly(self):
        config = _config(seed=17)
        backend = _backend(engine="sharded", lanes=4, config=config)
        try:
            manager = SessionManager(backend, checkpoint_every=8)
            rng = random.Random(0xDEAD)
            recs, streams = [], []
            for _ in range(3):
                rec = manager.open()
                ops = _random_stream(rng, 30)
                _apply_via_manager(manager, rec.sid, ops)
                recs.append(rec)
                streams.append(list(ops))

            backend.kill_worker(0)
            recovered = manager.maintenance()
            # Worker 0 owns lanes [0, 2): both leased, so both sessions
            # must have been restored+replayed.
            assert set(recovered) == {
                rec.sid for rec in recs if rec.lane < 2
            } and recovered
            assert manager.recoveries == len(recovered)

            # Post-crash traffic continues bit-exactly on every session.
            for rec, ops in zip(recs, streams):
                more = _random_stream(rng, 15)
                _apply_via_manager(manager, rec.sid, more)
                ops.extend(more)
                assert manager.q_row(rec.sid) == _ref_table(config, rec.salt, ops)
        finally:
            backend.close()

    def test_maintenance_noop_without_check_workers(self):
        manager = SessionManager(_backend(lanes=1))
        assert manager.maintenance() == []


# ---------------------------------------------------------------------- #
# Recovery properties (hypothesis)
# ---------------------------------------------------------------------- #


class TestRecoveryProperties:
    @settings(max_examples=5, deadline=None)
    @given(
        seed=st.integers(0, 2**16 - 1),
        n1=st.integers(4, 24),
        n2=st.integers(1, 8),
    )
    def test_back_to_back_kills_within_one_checkpoint_interval(self, seed, n1, n2):
        """Two SIGKILLs of the same shard inside ONE journal-rebase
        interval still recover bit-exactly: both replays re-derive the
        lane from the same base, so the second crash cannot observe a
        half-rebased journal."""
        config = _config(seed=5)
        backend = _backend(engine="sharded", lanes=4, config=config)
        try:
            # checkpoint_every far above the traffic: the journal never
            # rebases, so both kills land in one checkpoint interval.
            manager = SessionManager(backend, checkpoint_every=10_000)
            rng = random.Random(seed)
            rec = manager.open()  # lane 0: worker 0's shard
            ops = _random_stream(rng, n1)
            _apply_via_manager(manager, rec.sid, ops)

            backend.kill_worker(0)
            assert rec.sid in manager.maintenance()
            mid = _random_stream(rng, n2)
            _apply_via_manager(manager, rec.sid, mid)
            ops.extend(mid)

            backend.kill_worker(0)  # the restarted worker dies again
            assert rec.sid in manager.maintenance()
            more = _random_stream(rng, 6)
            _apply_via_manager(manager, rec.sid, more)
            ops.extend(more)

            assert manager.q_row(rec.sid) == _ref_table(config, rec.salt, ops)
        finally:
            manager.backend.close()

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**16 - 1), n=st.integers(1, 40))
    def test_checkpoint_migration_sharded_to_vectorized(self, seed, n):
        """Failover migrates live sessions sharded→vectorized through
        the checkpoint surface bit-exactly, and traffic continues on
        the identical draw stream."""
        config = _config(seed=6)
        backend = _backend(engine="sharded", lanes=2, config=config)
        manager = SessionManager(backend, checkpoint_every=16)
        try:
            rng = random.Random(seed)
            rec = manager.open()
            ops = _random_stream(rng, n)
            _apply_via_manager(manager, rec.sid, ops)

            manager.failover()
            assert type(manager.backend).__name__ == "VectorizedFleetBackend"
            assert manager.q_row(rec.sid) == _ref_table(config, rec.salt, ops)

            more = _random_stream(rng, 10)
            _apply_via_manager(manager, rec.sid, more)
            ops.extend(more)
            assert manager.q_row(rec.sid) == _ref_table(config, rec.salt, ops)
        finally:
            # After failover the backend is vectorized (no close()); the
            # sharded workers were already shut down by failover itself.
            getattr(manager.backend, "close", lambda: None)()

    def test_failover_keeps_a_scalar_fleet_scalar(self):
        """A scalar fleet's lane payloads are its own: failover migrates
        them onto a fresh scalar fleet, bit-exactly."""
        config = _config(seed=8)
        manager = SessionManager(_backend(engine="scalar", lanes=2, config=config))
        rng = random.Random(11)
        rec = manager.open()
        ops = _random_stream(rng, 20)
        _apply_via_manager(manager, rec.sid, ops)

        assert manager.failover() == "ScalarFleetBackend"
        assert manager.q_row(rec.sid) == _ref_table(config, rec.salt, ops)
        more = _random_stream(rng, 10)
        _apply_via_manager(manager, rec.sid, more)
        assert manager.q_row(rec.sid) == _ref_table(config, rec.salt, ops + more)


# ---------------------------------------------------------------------- #
# Gateway over real sockets
# ---------------------------------------------------------------------- #


def _shutdown(gateway, thread, loop):
    asyncio.run_coroutine_threadsafe(gateway.close(), loop).result(timeout=10)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(timeout=10)


@pytest.fixture
def served(request):
    """A live gateway on an ephemeral port; param selects the engine
    (tests parametrize it over :data:`ENGINES`, or ``sharded``)."""
    engine = getattr(request, "param", "vectorized")
    _skip_without_compiler(engine)
    config = _config(seed=13)
    backend = _backend(engine=engine, lanes=2, config=config)
    manager = SessionManager(backend, checkpoint_every=16)
    gateway = Gateway(
        manager,
        admission_timeout_s=0.2,
        maintenance_interval_s=0.05 if engine == "sharded" else 1.0,
    )
    thread, loop = run_gateway_in_thread(gateway)
    try:
        yield gateway, config
    finally:
        _shutdown(gateway, thread, loop)
        if hasattr(backend, "close"):
            backend.close()


class TestGateway:
    @pytest.mark.parametrize("served", ["vectorized", "sharded", "native"], indirect=True)
    def test_end_to_end_bit_identity(self, served):
        """A TCP session's table equals the standalone functional replay."""
        gateway, config = served
        with ServeClient(port=gateway.port) as client:
            assert client.ping()
            sess = client.open_session()
            assert (sess.num_states, sess.num_actions) == (S, A)
            rng = random.Random(31)
            ops = _random_stream(rng, 60)
            for op in ops:
                if op[0] == "learn":
                    sess.learn(*op[1:])
                else:
                    sess.act(op[1], explore=True)
            # Greedy acts are pure reads — not journalled, not replayed.
            greedy = sess.act(0, explore=False)
            assert 0 <= greedy < A
            ref = replay_reference(config, sess.salt, ops, num_states=S, num_actions=A)
            assert sess.table() == [int(v) for v in ref.tables.q.data]
            row = sess.table(3)
            assert row == [int(v) for v in ref.tables.q.data][3 * A : 4 * A]
            stats = sess.stats()
            assert stats["samples"] == sum(1 for op in ops if op[0] == "learn")
            sess.close()

    def test_learn_batch_and_checkpoint_over_wire(self, served):
        gateway, config = served
        with ServeClient(port=gateway.port) as client:
            sess = client.open_session()
            rows = [(0, 1, 0.5, 2, False), (2, 0, -1.0, 3, True), (3, 2, 1.0, 4, False)]
            sess.learn_batch(rows)
            tag = sess.checkpoint("t0")
            at_tag = sess.table()
            sess.learn(5, 1, 2.0, 6)
            assert sess.table() != at_tag
            assert sess.restore(tag) == "t0"
            assert sess.table() == at_tag
            ops = [("learn",) + r for r in rows]
            assert sess.table() == _ref_table(config, sess.salt, ops)
            sess.close()

    def test_restore_missing_checkpoint_over_wire(self, served):
        """Over the wire the same refusals reply ``no_session`` (not
        ``internal``) and the session keeps its table."""
        gateway, _ = served
        with ServeClient(port=gateway.port) as client:
            sess = client.open_session()

            def assert_refused(tag):
                table = sess.table()
                with pytest.raises(ServeError) as exc:
                    sess.restore(tag)
                assert exc.value.code == E_NO_SESSION
                assert sess.table() == table

            sess.learn(1, 2, 0.5, 3)
            assert_refused(None)  # no checkpoint yet
            sess.checkpoint("mark")
            sess.learn(4, 1, -1.0, 5)
            assert_refused("nope")  # unknown tag
            sess.close()

    @pytest.mark.parametrize("served", ENGINES, indirect=True)
    def test_large_batch_over_wire_is_bit_exact(self, served):
        """Batches of many rows (several deadline chunks when budgeted)
        land bit-exactly, with and without a deadline."""
        gateway, config = served
        rng = random.Random(47)
        with ServeClient(port=gateway.port) as client:
            sess = client.open_session()
            ops = []
            for budget in (None, 30_000, None):
                rows = [op[1:] for op in _random_stream(rng, 100, explore_frac=0.0)]
                sess.learn_batch(rows, deadline_ms=budget)
                ops.extend(("learn", *row) for row in rows)
            assert sess.table() == _ref_table(config, sess.salt, ops)
            assert sess.stats()["samples"] == 300
            sess.close()

    @pytest.mark.parametrize("served", ENGINES, indirect=True)
    def test_non_finite_reward_rejected_on_the_wire(self, served):
        """Raw NDJSON NaN/Infinity rewards (which json.loads accepts) are
        refused with bad_request, and a batch carrying one applies none
        of its rows: table, samples and seq cache stay unchanged."""
        gateway, config = served
        with socket.create_connection(("127.0.0.1", gateway.port), timeout=10) as sock:
            rfile = sock.makefile("rb")

            def roundtrip(raw: bytes) -> dict:
                sock.sendall(raw)
                return json.loads(rfile.readline())

            opened = roundtrip(b'{"op":"open"}\n')
            sid = opened["session"].encode()
            pristine = roundtrip(b'{"op":"table","session":"%s"}\n' % sid)["q"]
            for bad in (b"NaN", b"Infinity", b"-Infinity", b"1e999"):
                batch = roundtrip(
                    b'{"op":"learn","session":"%s","seq":1,"batch":'
                    b'[[1,1,1.0,2,false],[2,1,1.0,3,false],[3,1,%s,2,false]]}\n'
                    % (sid, bad)
                )
                assert batch["error"] == "bad_request" and batch["seq"] == 1, batch
                single = roundtrip(
                    b'{"op":"learn","session":"%s","s":1,"a":1,"r":%s,"ns":2}\n'
                    % (sid, bad)
                )
                assert single["error"] == "bad_request", single
            assert roundtrip(b'{"op":"table","session":"%s"}\n' % sid)["q"] == pristine
            stats = roundtrip(b'{"op":"stats","session":"%s"}\n' % sid)
            assert stats["samples"] == 0 and stats["last_seq"] == 0
            # The retried batch with a finite reward lands exactly once.
            good = roundtrip(
                b'{"op":"learn","session":"%s","seq":1,"batch":'
                b'[[1,1,1.0,2,false],[2,1,1.0,3,false],[3,1,0.5,2,false]]}\n' % sid
            )
            assert good["ok"] and good["n"] == 3
            ops = [("learn", 1, 1, 1.0, 2, False), ("learn", 2, 1, 1.0, 3, False),
                   ("learn", 3, 1, 0.5, 2, False)]
            table = roundtrip(b'{"op":"table","session":"%s"}\n' % sid)["q"]
            assert table == _ref_table(config, opened["salt"], ops)

    def test_admission_rejects_then_queues(self, served):
        gateway, _ = served
        with ServeClient(port=gateway.port) as c1, ServeClient(port=gateway.port) as c2:
            held = [c1.open_session(), c1.open_session()]  # both lanes leased
            with pytest.raises(ServeError) as exc:
                c2.open_session()
            assert exc.value.code == "at_capacity"
            info = c2.server_info()
            assert info["open_sessions"] == 2 and info["sessions_rejected"] >= 1

            # Queue-with-timeout: an open that arrives while full succeeds
            # once a lane frees up within the admission window.
            got: dict = {}

            def _waiter():
                with ServeClient(port=gateway.port) as c3:
                    c3.request({"op": "server"})  # connection is live
                    gateway.admission_timeout_s = 5.0
                    try:
                        got["sess"] = c3.open_session().sid
                    except ServeError as err:
                        got["err"] = err.code

            gateway.admission_timeout_s = 5.0
            t = threading.Thread(target=_waiter)
            t.start()
            time.sleep(0.15)
            held.pop().close()
            t.join(timeout=10)
            assert got.get("sess"), got

    def test_wire_error_codes(self, served):
        gateway, _ = served
        with socket.create_connection(("127.0.0.1", gateway.port), timeout=10) as sock:
            rfile = sock.makefile("rb")

            def roundtrip(raw: bytes) -> dict:
                sock.sendall(raw)
                return json.loads(rfile.readline())

            bad = roundtrip(b"this is not json\n")
            assert bad == {"ok": False, "error": "bad_request", "detail": bad["detail"]}
            gone = roundtrip(b'{"op":"learn","session":"s999999","s":0,"a":0,"r":0,"ns":0}\n')
            assert gone["error"] == "no_session"
            unknown = roundtrip(b'{"op":"frobnicate","id":42}\n')
            assert unknown["error"] == "bad_request" and unknown["id"] == 42
            echoed = roundtrip(b'{"op":"ping","id":"tag-1"}\n')
            assert echoed["ok"] and echoed["id"] == "tag-1"
            unhashable = roundtrip(b'{"op":["open"]}\n')
            assert unhashable["error"] == "bad_request"

    def test_unknown_optional_fields_tolerated(self, served):
        """`/2` peers must IGNORE unknown optional fields, not reject them.

        The `trace` span context added for distributed tracing rides on
        this guarantee: an old gateway (or one built without the obs
        layer) must serve a traced request normally.  Same for any
        future optional field — and a malformed `trace` value must
        degrade to "untraced", never to an error.
        """
        gateway, _ = served
        with socket.create_connection(("127.0.0.1", gateway.port), timeout=10) as sock:
            rfile = sock.makefile("rb")

            def roundtrip(obj: dict) -> dict:
                sock.sendall(json.dumps(obj).encode() + b"\n")
                return json.loads(rfile.readline())

            opened = roundtrip({"op": "open", "x_future_field": {"a": [1, 2]}})
            assert opened["ok"], opened
            sid = opened["session"]
            # Well-formed trace context: served, and not echoed back.
            good = roundtrip(
                {"op": "learn", "session": sid, "s": 0, "a": 0, "r": 0.5,
                 "ns": 1, "trace": {"trace_id": "t" * 16, "span_id": "s" * 16}}
            )
            assert good["ok"] and "trace" not in good
            # Malformed trace values of every JSON shape: still served.
            for garbage in ("not-a-dict", 17, [1, 2], {"trace_id": 9},
                            {"trace_id": "x" * 999, "span_id": "ok"}, None):
                resp = roundtrip(
                    {"op": "learn", "session": sid, "s": 1, "a": 1,
                     "r": 0.25, "ns": 2, "trace": garbage}
                )
                assert resp["ok"], (garbage, resp)
            # Unknown fields on a read op too.
            acted = roundtrip(
                {"op": "act", "session": sid, "s": 0, "explore": True,
                 "trace": {"trace_id": "t" * 16, "span_id": "u" * 16},
                 "baggage": {"k": "v"}}
            )
            assert acted["ok"] and 0 <= acted["action"] < A

    def test_seq_echoed_in_every_response(self, served):
        """`seq` rides back on success AND error responses, so clients
        can correlate retries; requests without one get no echo."""
        gateway, _ = served
        with socket.create_connection(("127.0.0.1", gateway.port), timeout=10) as sock:
            rfile = sock.makefile("rb")

            def roundtrip(obj: dict) -> dict:
                sock.sendall(json.dumps(obj).encode() + b"\n")
                return json.loads(rfile.readline())

            opened = roundtrip({"op": "open"})
            assert opened["ok"] and "seq" not in opened and opened["token"]
            sid = opened["session"]
            good = roundtrip(
                {"op": "learn", "session": sid, "seq": 1,
                 "s": 0, "a": 0, "r": 0.5, "ns": 1}
            )
            assert good["ok"] and good["seq"] == 1
            bad = roundtrip(
                {"op": "learn", "session": sid, "seq": 2,
                 "s": 99, "a": 0, "r": 0.5, "ns": 1}
            )
            assert not bad["ok"] and bad["seq"] == 2

    def test_disconnect_closes_owned_sessions(self, served):
        gateway, _ = served
        manager = gateway.manager
        client = ServeClient(port=gateway.port)
        client.open_session()
        assert manager.open_sessions == 1
        client.close()
        deadline = time.monotonic() + 5
        while manager.open_sessions and time.monotonic() < deadline:
            time.sleep(0.01)
        assert manager.open_sessions == 0

    # -- wire framing and reply order -------------------------------- #

    @staticmethod
    def _replies(rfile, n: int) -> list:
        return [json.loads(rfile.readline()) for _ in range(n)]

    def test_pipelined_requests_reply_in_order(self, served):
        gateway, _ = served
        with socket.create_connection(("127.0.0.1", gateway.port), timeout=10) as sock:
            rfile = sock.makefile("rb")
            sock.sendall(b'{"op":"open","id":0}\n')
            sid = self._replies(rfile, 1)[0]["session"].encode()
            burst = b"".join(
                [b'{"op":"ping","id":1}\n', b"garbage\n"]
                + [
                    b'{"op":"learn","session":"%s","id":%d,"seq":%d,'
                    b'"s":1,"a":2,"r":0.5,"ns":3}\n' % (sid, i, i)
                    for i in range(2, 40)
                ]
                + [b'{"op":"stats","session":"%s","id":40}\n' % sid]
            )
            sock.sendall(burst)
            replies = self._replies(rfile, 41)
        assert [r.get("id") for r in replies] == [1, None, *range(2, 41)]
        assert replies[1]["error"] == "bad_request"
        assert all(r["ok"] for i, r in enumerate(replies) if i != 1)
        assert replies[-1]["samples"] == 38

    def test_request_sent_one_byte_at_a_time(self, served):
        gateway, _ = served
        with socket.create_connection(("127.0.0.1", gateway.port), timeout=10) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for byte in b'{"op":"ping","id":"slow"}\n':
                sock.sendall(bytes([byte]))
                time.sleep(0.001)
            assert self._replies(sock.makefile("rb"), 1) == [{"ok": True, "pong": True, "id": "slow"}]

    def test_half_close_answers_the_last_line(self, served):
        """A last request without a newline is answered at EOF, as a
        stream ``readline`` returns it."""
        gateway, _ = served
        with socket.create_connection(("127.0.0.1", gateway.port), timeout=10) as sock:
            sock.sendall(b'{"op":"ping","id":1}\n{"op":"ping","id":2}')
            sock.shutdown(socket.SHUT_WR)
            rfile = sock.makefile("rb")
            assert [json.loads(line)["id"] for line in rfile] == [1, 2]

    def test_oversized_line_closes_only_that_connection(self, served):
        gateway, _ = served
        with ServeClient(port=gateway.port) as bystander:
            sess = bystander.open_session()
            with socket.create_connection(("127.0.0.1", gateway.port), timeout=10) as sock:
                with pytest.raises(OSError):
                    # Closed by the gateway: the send or the read fails,
                    # or the read sees EOF.
                    sock.sendall(b'{"op":"ping","pad":"' + b"x" * MAX_LINE + b'"}\n')
                    if not sock.recv(1):
                        raise ConnectionResetError("EOF")
            assert bystander.ping()
            sess.learn(1, 2, 0.5, 3)
            assert sess.stats()["samples"] == 1

    def test_queued_open_keeps_replies_in_order(self, served):
        """A ping behind an ``open`` waiting for a lane is answered after
        the open, once a lane frees."""
        gateway, _ = served
        gateway.admission_timeout_s = 5.0
        with ServeClient(port=gateway.port) as holder:
            held = [holder.open_session(), holder.open_session()]
            with socket.create_connection(("127.0.0.1", gateway.port), timeout=10) as sock:
                sock.sendall(b'{"op":"open","id":1}\n{"op":"ping","id":2}\n')
                sock.settimeout(0.2)
                with pytest.raises(socket.timeout):
                    sock.recv(1)  # both wait behind the queued open
                sock.settimeout(10)
                held.pop().close()
                opened, pong = self._replies(sock.makefile("rb"), 2)
        assert opened["id"] == 1 and opened["ok"] and opened["session"]
        assert pong == {"ok": True, "pong": True, "id": 2}

    def test_response_delay_keeps_replies_in_order(self, served):
        gateway, _ = served
        gateway.response_delay_s = 0.01
        try:
            with socket.create_connection(("127.0.0.1", gateway.port), timeout=10) as sock:
                sock.sendall(
                    b"".join(b'{"op":"ping","id":%d}\n' % i for i in range(8))
                    + b'{"op":"open","id":8}\n{"op":"server","id":9}\n'
                )
                replies = self._replies(sock.makefile("rb"), 10)
        finally:
            gateway.response_delay_s = 0.0
        assert [r["id"] for r in replies] == list(range(10))
        assert all(r["ok"] for r in replies)

    def test_unread_replies_bound_the_write_buffer(self, served):
        """A peer that sends requests and reads no replies stalls only
        itself: the gateway stops reading it, its write buffer stays at
        the transport's high-water mark, and other peers are served."""
        gateway, _ = served
        loop = gateway._server.get_loop()

        def buffers() -> list:
            async def probe():
                return [
                    (c.transport.get_write_buffer_size(), c.transport.is_reading())
                    for c in gateway._conns
                ]

            return asyncio.run_coroutine_threadsafe(probe(), loop).result(timeout=10)

        hog = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        hog.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        hog.settimeout(30)
        hog.connect(("127.0.0.1", gateway.port))
        hog.sendall(b'{"op":"open"}\n')
        sid = self._replies(hog.makefile("rb"), 1)[0]["session"].encode()
        flood = b'{"op":"table","session":"%s"}\n' % sid * 200_000

        def send_flood():
            with contextlib.suppress(OSError):
                hog.sendall(flood)

        sender = threading.Thread(target=send_flood, daemon=True)
        sender.start()
        try:
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                stalled = [size for size, reading in buffers() if not reading]
                if stalled:
                    break
                time.sleep(0.05)
            assert stalled, "the gateway never stopped reading the flooding peer"
            # One reply past the high-water mark at most.
            high = 64 * 1024
            assert max(size for size, _ in buffers()) <= high + 4096
            with ServeClient(port=gateway.port) as other:
                assert other.ping()
                assert len(other.open_session().table()) == S * A
            assert max(size for size, _ in buffers()) <= high + 4096
        finally:
            hog.shutdown(socket.SHUT_RDWR)
            hog.close()
            sender.join(timeout=10)


# ---------------------------------------------------------------------- #
# SIGTERM leak regression (satellite: signal-safe sharded cleanup)
# ---------------------------------------------------------------------- #

_SIGTERM_SCRIPT = """
import json, os, sys, time
from repro.backends.sharded import ShardedFleetBackend, install_signal_cleanup
from repro.core.config import QTAccelConfig
from repro.serve.session import serve_world

install_signal_cleanup()
backend = ShardedFleetBackend(
    serve_world(8, 4), QTAccelConfig.qlearning(seed=1),
    num_agents=2, num_workers=2, mp_context="fork",
)
print(json.dumps({
    "shm": backend._shm.name,
    "pids": [p.pid for p in backend._procs],
}), flush=True)
time.sleep(60)
"""


def test_sigterm_leaks_nothing():
    """SIGTERM reaps the workers and unlinks the /dev/shm block."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.abspath("src"), env.get("PYTHONPATH", "")])
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", _SIGTERM_SCRIPT],
        stdout=subprocess.PIPE,
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    try:
        info = json.loads(proc.stdout.readline())
        shm_path = "/dev/shm/" + info["shm"].lstrip("/")
        assert os.path.exists(shm_path)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) != 0  # died by signal, not exit(0)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            workers_dead = all(not _pid_alive(p) for p in info["pids"])
            if workers_dead and not os.path.exists(shm_path):
                break
            time.sleep(0.05)
        assert not os.path.exists(shm_path), "shared memory leaked"
        for pid in info["pids"]:
            assert not _pid_alive(pid), f"worker {pid} leaked"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    # Zombies are "alive" to kill(0); check the state field.
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().split(") ", 1)[1][0] != "Z"
    except (FileNotFoundError, IndexError):
        return False


# ---------------------------------------------------------------------- #
# Bench record → snapshot → sentinel
# ---------------------------------------------------------------------- #


def test_serve_bench_snapshot_passes_sentinel(tmp_path):
    from repro.perf.compare import compare_snapshots
    from repro.perf.serve import run_serve_throughput
    from repro.perf.snapshot import build_snapshot, load_snapshot, write_snapshot

    record = run_serve_throughput(
        engine="vectorized",
        lanes=4,
        concurrency=2,
        sessions=4,
        transitions_per_session=24,
        num_states=S,
        num_actions=A,
    )
    assert record["errors"] == []
    assert record["sessions_completed"] == 4
    assert record["sessions_per_sec"] > 0 and record["transitions_per_sec"] > 0
    assert record["act_latency_ms"]["p99"] >= record["act_latency_ms"]["p50"]

    snap = build_snapshot({}, source="test", serve_throughput=record)
    path = write_snapshot(snap, tmp_path / "BENCH_serve.json")
    loaded = load_snapshot(path)
    assert loaded["serve_throughput"]["engine"] == "vectorized"

    result = compare_snapshots(loaded, loaded)
    assert result.ok
    serve_findings = [f for f in result.findings if "serve" in f.case]
    assert serve_findings and all(f.verdict != "regression" for f in serve_findings)

    # A different load shape must be skipped, not gated.
    other = dict(record, concurrency=record["concurrency"] + 1)
    skew = build_snapshot({}, source="test2", serve_throughput=other)
    assert compare_snapshots(loaded, skew).ok


def test_degraded_throughput_gated_by_sentinel():
    """The chaos-mode serve record rides the snapshot's
    degraded_throughput key and regresses independently of the healthy
    numbers."""
    from repro.perf.compare import compare_snapshots
    from repro.perf.snapshot import build_snapshot

    degraded = {
        "engine": "sharded", "lanes": 8, "concurrency": 4, "sessions": 12,
        "transitions_per_session": 48, "chaos": True, "hangs": 1, "restarts": 1,
        "sessions_per_sec": 20.0, "transitions_per_sec": 960.0,
        "act_latency_ms": {"p50": 0.3, "p99": 1.0},
    }
    base = build_snapshot({}, source="base", degraded_throughput=degraded)
    same = compare_snapshots(base, base)
    assert same.ok and any(f.case == "degraded.sessions_per_sec" for f in same.findings)

    slower = dict(degraded, sessions_per_sec=10.0)
    worse = build_snapshot({}, source="new", degraded_throughput=slower)
    result = compare_snapshots(base, worse)
    assert not result.ok
    assert [f.case for f in result.regressions] == ["degraded.sessions_per_sec"]

    # A healthy (non-chaos) record never compares against a degraded one.
    healthy = {k: v for k, v in degraded.items() if k not in ("chaos", "hangs", "restarts")}
    mixed = build_snapshot({}, source="new2", degraded_throughput=healthy)
    assert compare_snapshots(base, mixed).ok
