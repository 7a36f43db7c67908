"""Serve workloads: tenants driving a gateway started as ``python -m repro.serve``.

The gateway runs in its own process, launched with the CLI defaults except
:data:`GATEWAY_ARGS`; its engine is not pinned, so the benchmark measures
what a deployment gets.  The load is one process of :data:`CONNECTIONS`
threads, each a closed loop on its own ``ServeClient`` connection:

* ``serve_interactive`` — each connection is one agent: ``act(s)`` then
  ``learn(s, a, r, ns, t)`` per environment step, reopening its session
  every :data:`STEPS_PER_SESSION` steps.  Every request carries one tiny
  lane op, so client, codec, wire and gateway dispatch dominate.
* ``serve_ingest`` — the connection streams ``learn`` batches of
  :data:`BATCH_ROWS` transitions, with open, full ``table`` read and close
  around every :data:`BATCHES_PER_SESSION` batches.  The session's per-row
  loop, ``apply_transition`` and the journal rebase dominate.

States, rewards, next states and terminal flags come from the workload
seed; the action an agent learns from is the one the gateway recommended.
Every session's final table must equal
:func:`repro.serve.smoke.replay_reference` over the ops the client sent.

The traced run (:func:`trace`) repeats a shorter live loop for the client
round trips, then replays the recorded ops in process against a backend
and ``SessionManager`` built from the same CLI arguments, timing the codec,
the session layer and the backend lane ops through their public functions.
"""

from __future__ import annotations

import math
import os
import queue
import random
import re
import signal
import subprocess
import sys
import threading
import time
from collections import defaultdict, deque
from dataclasses import dataclass, field

import numpy as np

from bench_stats import Outcome, cpu_probe, end_to_end, median, residual, segment_median, tail

GATEWAY_ARGS = ("--port", "0", "--lanes", "64", "--states", "256", "--actions", "8")
#: Load threads, one connection each.  Ingest runs one: with two, each
#: batch waits for a varying share of the other's ~3 ms at the single-threaded
#: gateway, and whether the two streams run in or out of step held for
#: seconds, so median batch time of one commit moved between 3.2 and 5.0 ms
#: from run to run.
CONNECTIONS = {"interactive": 2, "ingest": 1}
#: Gateway launches per run; ``setup_s`` is the median launch-to-ping time.
SETUP_REPEATS = 5
STEPS_PER_SESSION = 256
BATCH_ROWS = 256
BATCHES_PER_SESSION = 64
#: Probability that a generated transition ends its episode.
TERMINAL_P = 0.05
#: Work per throughput segment: env steps (interactive), transitions
#: (ingest).  About 10 ms each, so that the median segment holds none of the
#: millisecond scheduling stalls a shared host puts into about 1% of steps.
SEGMENT_WORK = {"interactive": 32, "ingest": 4 * BATCH_ROWS}
#: Share of a traced stack's time spent on the live loop; the rest replays
#: the recorded ops in process.
LIVE_SHARE = 0.6
#: The load pauses this often for a CPU probe (see ``bench_stats``).
PROBE_EVERY_S = 0.25
#: A connection gives up after this many failed requests.
MAX_FAILURES = 10
_STARTUP_TIMEOUT_S = 60.0
_STOP_TIMEOUT_S = 15.0


class GatewayError(RuntimeError):
    """The gateway process did not come up."""


def cli_args():
    """The gateway's arguments, parsed by the CLI's own parser."""
    from repro.serve.__main__ import build_parser

    return build_parser().parse_args(list(GATEWAY_ARGS))


def serve_config(args):
    """The learner configuration the CLI builds from ``args``."""
    from repro.core.config import QTAccelConfig

    return getattr(QTAccelConfig, args.preset)(seed=args.seed)


class GatewayProcess:
    """One ``python -m repro.serve`` process, up once it answers ``ping``.

    ``setup_s`` is the time from launch to the first successful ping.
    """

    def __init__(self, src_dir: str):
        from repro.serve.client import ServeClient

        env = dict(os.environ, PYTHONPATH=src_dir)
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", *GATEWAY_ARGS],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        # Both pipes are drained for the process's whole life: the gateway
        # logs every connection drop, and a full pipe would stall it.
        self._lines: queue.Queue = queue.Queue()
        self._stderr: deque = deque(maxlen=200)
        self._drains = [
            threading.Thread(target=self._drain, args=(self.proc.stdout, self._lines.put)),
            threading.Thread(target=self._drain, args=(self.proc.stderr, self._stderr.append)),
        ]
        for t in self._drains:
            t.start()
        try:
            line = self._lines.get(timeout=_STARTUP_TIMEOUT_S)
            match = re.search(r":(\d+)\s*$", line or "")
            if match is None:
                raise GatewayError(f"gateway printed no address: {line!r}")
            self.port = int(match.group(1))
            with ServeClient(port=self.port, timeout=_STARTUP_TIMEOUT_S) as client:
                client.ping()
        except (queue.Empty, GatewayError, OSError) as exc:
            self.stop()
            raise GatewayError(f"gateway did not come up: {exc}; stderr:\n{self.stderr}") from exc
        self.setup_s = time.perf_counter() - t0

    @staticmethod
    def _drain(pipe, sink) -> None:
        for line in pipe:
            sink(line)
        sink(None)

    @property
    def stderr(self) -> str:
        return "".join(line for line in self._stderr if line)

    def stop(self) -> list[str]:
        """SIGTERM the gateway and wait for it; returns teardown problems.

        ``python -m repro.serve`` closes its backends on SIGTERM and then
        re-raises the signal so its status reports it
        (``repro.backends.sharded.install_signal_cleanup``): death by
        SIGTERM is the documented clean exit, as is status 0.
        """
        problems = []
        if self.proc.poll() is not None:
            problems.append(f"gateway had already exited with {self.proc.returncode}")
        else:
            self.proc.send_signal(signal.SIGTERM)
            try:
                rc = self.proc.wait(timeout=_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                problems.append(f"gateway ignored SIGTERM for {_STOP_TIMEOUT_S} s and was killed")
            else:
                if rc not in (0, -signal.SIGTERM):
                    problems.append(f"gateway exited with status {rc} on SIGTERM")
        for t in self._drains:
            t.join()
        if "Traceback" in self.stderr:
            problems.append(f"gateway logged a traceback:\n{self.stderr}")
        return problems


def launch(src_dir: str, out: Outcome, probes: list) -> tuple[GatewayProcess, list[float]]:
    """Launch the gateway :data:`SETUP_REPEATS` times, each after a CPU
    probe; keeps the last one up."""
    setups = []
    for i in range(SETUP_REPEATS):
        probes.append(cpu_probe())
        gateway = GatewayProcess(src_dir)
        setups.append(gateway.setup_s)
        if i < SETUP_REPEATS - 1:
            out.problems.extend(gateway.stop())
    return gateway, setups


# ---------------------------------------------------------------------- #
# Closed-loop load
# ---------------------------------------------------------------------- #


class _OpFailed(Exception):
    pass


class Progress:
    """Clock readings at every ``per_segment`` units of completed work, on a
    clock that stops while the load is paused."""

    def __init__(self, per_segment: int):
        self.per = per_segment
        self.done = 0
        #: Seconds the load has spent paused so far.
        self.paused = 0.0
        self.marks = [time.perf_counter()]
        self._lock = threading.Lock()

    def add(self, n: int) -> None:
        now = time.perf_counter() - self.paused
        with self._lock:
            crossed = (self.done + n) // self.per - self.done // self.per
            self.done += n
            self.marks.extend([now] * crossed)


class Gate:
    """Lets the main thread park every load thread between requests."""

    def __init__(self, threads: int):
        self._cond = threading.Condition()
        self._open = True
        self._parked = 0
        self._live = threads

    def checkpoint(self) -> None:
        """Called by a load thread between requests; blocks while closed."""
        if self._open:
            return
        with self._cond:
            self._parked += 1
            self._cond.notify_all()
            self._cond.wait_for(lambda: self._open)
            self._parked -= 1

    def leave(self) -> None:
        with self._cond:
            self._live -= 1
            self._cond.notify_all()

    def pause(self) -> None:
        with self._cond:
            self._open = False
            self._cond.wait_for(lambda: self._parked >= self._live, timeout=_STOP_TIMEOUT_S)

    def resume(self) -> None:
        with self._cond:
            self._open = True
            self._cond.notify_all()


@dataclass
class Connection:
    """What one client connection did and measured."""

    index: int
    latencies: dict = field(default_factory=lambda: defaultdict(list))
    #: ``(salt, ops, table)`` of every session that ended cleanly.
    sessions: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    retries: int = 0
    reconnects: int = 0

    def call(self, op: str, fn, *args):
        """One timed request; a failure is recorded and raised as _OpFailed."""
        from repro.serve.client import ServeError

        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except (ServeError, OSError) as exc:
            self.failed += 1
            self.latencies[op].append(math.inf)
            self.errors.append(f"{op}: {type(exc).__name__}: {exc}")
            raise _OpFailed from exc
        self.latencies[op].append(time.perf_counter() - t0)
        return result


def _batch_rows(rng: np.random.Generator, S: int, A: int) -> list[list]:
    n = BATCH_ROWS
    return [
        list(row)
        for row in zip(
            rng.integers(0, S, n).tolist(),
            rng.integers(0, A, n).tolist(),
            rng.uniform(-1.0, 1.0, n).tolist(),
            rng.integers(0, S, n).tolist(),
            (rng.random(n) < TERMINAL_P).tolist(),
        )
    ]


def _interactive_session(conn: Connection, client, rng, stop, gate, progress) -> None:
    sess = conn.call("open", client.open_session)
    S, ops = sess.num_states, []
    s = rng.randrange(S)
    for _ in range(STEPS_PER_SESSION):
        gate.checkpoint()
        if stop.is_set():
            break
        t0 = time.perf_counter()
        try:
            a = conn.call("act", sess.act, s, True)
            ops.append(("act", s))
            r, ns, t = rng.uniform(-1.0, 1.0), rng.randrange(S), rng.random() < TERMINAL_P
            conn.call("learn", sess.learn, s, a, r, ns, t)
        except _OpFailed:
            conn.latencies["step"].append(math.inf)
            raise
        conn.latencies["step"].append(time.perf_counter() - t0)
        ops.append(("learn", s, a, r, ns, t))
        progress.add(1)
        s = rng.randrange(S) if t else ns
    table = conn.call("table", sess.table)
    conn.call("close", sess.close)
    conn.sessions.append((sess.salt, ops, table))


def _ingest_session(conn: Connection, client, rng, stop, gate, progress) -> None:
    sess = conn.call("open", client.open_session)
    S, A, ops = sess.num_states, sess.num_actions, []
    for _ in range(BATCHES_PER_SESSION):
        gate.checkpoint()
        if stop.is_set():
            break
        rows = _batch_rows(rng, S, A)
        conn.call("batch", sess.learn_batch, rows)
        ops.append(("batch", rows))
        progress.add(len(rows))
    table = conn.call("table", sess.table)
    conn.call("close", sess.close)
    conn.sessions.append((sess.salt, ops, table))


def _connection_main(kind: str, conn: Connection, port: int, seed: int, stop, gate, progress) -> None:
    from repro.serve.client import ServeClient

    if kind == "interactive":
        rng, one_session = random.Random(seed * 1000 + conn.index), _interactive_session
    else:
        rng, one_session = np.random.default_rng([seed, conn.index]), _ingest_session
    try:
        with ServeClient(port=port) as client:
            while not stop.is_set() and conn.failed < MAX_FAILURES:
                try:
                    one_session(conn, client, rng, stop, gate, progress)
                except _OpFailed:
                    pass  # the session's state is unknown: it is not checked
            conn.retries, conn.reconnects = client.retries, client.reconnects
    except Exception as exc:  # noqa: BLE001 - a dead load thread must be reported
        conn.failed += 1
        conn.errors.append(f"connection {conn.index}: {type(exc).__name__}: {exc}")
    finally:
        gate.leave()


def closed_loop(kind: str, port: int, seed: int, seconds: float):
    """Run the closed loops of ``kind`` for ``seconds`` of load, pausing
    them every :data:`PROBE_EVERY_S` for a CPU probe.

    Returns the connections, the progress marks and the probe times.
    """
    stop = threading.Event()
    gate = Gate(CONNECTIONS[kind])
    progress = Progress(SEGMENT_WORK[kind])
    conns = [Connection(i) for i in range(CONNECTIONS[kind])]
    threads = [
        threading.Thread(target=_connection_main,
                         args=(kind, c, port, seed, stop, gate, progress))
        for c in conns
    ]
    for t in threads:
        t.start()
    probes = []
    end = time.perf_counter() + seconds
    while (left := end + progress.paused - time.perf_counter()) > 0:
        time.sleep(min(PROBE_EVERY_S, left))
        t0 = time.perf_counter()
        gate.pause()
        probes.append(cpu_probe())
        progress.paused += time.perf_counter() - t0
        gate.resume()
    stop.set()
    for t in threads:
        t.join()
    return conns, progress, probes


def journal(ops: list) -> list:
    """The session's ops in the journal form ``replay_reference`` takes."""
    out = []
    for op in ops:
        if op[0] == "batch":
            out.extend(("learn", *row) for row in op[1])
        else:
            out.append(op)
    return out


def check_sessions(sessions, label: str, out: Outcome) -> None:
    """Every session's final table must equal the scalar replay of its ops."""
    from repro.serve.smoke import replay_reference

    args = cli_args()
    config = serve_config(args)
    bad = 0
    for salt, ops, table in sessions:
        ref = replay_reference(
            config, salt, journal(ops), num_states=args.states, num_actions=args.actions
        )
        bad += table != [int(v) for v in ref.tables.q.data]
    out.check(bool(sessions), f"{label}: no session completed")
    out.check(bad == 0, f"{label}: {bad} of {len(sessions)} session tables differ from replay")


def _server_info(port: int) -> dict:
    from repro.serve.client import ServeClient

    with ServeClient(port=port) as client:
        return client.server_info()


def _sum_conns(conns) -> dict:
    lat = defaultdict(list)
    for c in conns:
        for op, samples in c.latencies.items():
            lat[op].extend(samples)
    return {
        "latencies": lat,
        "sessions": [s for c in conns for s in c.sessions],
        "attempted": sum(c.attempted for c in conns),
        "failed": sum(c.failed for c in conns),
        "retries": sum(c.retries for c in conns),
        "reconnects": sum(c.reconnects for c in conns),
        "errors": [e for c in conns for e in c.errors],
    }


# The issue-facing names of each workload's figures.
_NAMES = {
    "interactive": ("serve_steps_per_s", "act+learn pairs/s", "step",
                    (("act", "act"), ("learn", "learn"))),
    "ingest": ("serve_transitions_per_s", "transitions/s", "batch", (("batch", "batch"),)),
}


def run_workload(kind: str, src_dir: str, seed: int, seconds: float) -> Outcome:
    """The untraced serve workload ``kind`` (``interactive`` or ``ingest``)."""
    out = Outcome()
    setup_probes: list[float] = []
    gateway, setups = launch(src_dir, out, setup_probes)
    try:
        conns, progress, probes = closed_loop(kind, gateway.port, seed, seconds)
        info = _server_info(gateway.port)
    finally:
        out.problems.extend(gateway.stop())
    done = _sum_conns(conns)
    out.attempted, out.failed = done["attempted"], done["failed"]
    out.problems.extend(done["errors"][:5])
    check_sessions(done["sessions"], f"serve_{kind}", out)

    issue_name, unit, main_op, per_op = _NAMES[kind]
    rate = segment_median(progress.marks, progress.per)
    main_ms = [x * 1e3 for x in done["latencies"][main_op]]
    end_to_end(
        out,
        rate=rate,
        rate_note=f"{unit}, median of {len(progress.marks) - 1} segments",
        latencies_ms=main_ms,
        latency_note=f"{main_op} round trip, n={len(main_ms)}",
        setups_s=setups,
        setup_note=f"median of {SETUP_REPEATS} CLI launches to first ping",
        run_probes=probes,
        setup_probes=setup_probes,
    )
    out.show(issue_name, rate, unit, "as measured")
    for op, name in per_op:
        ms = [x * 1e3 for x in done["latencies"][op]]
        t = tail(ms)
        out.show(f"{name}_p50_ms", median(ms), "ms", f"as measured, n={len(ms)}")
        out.show(f"{name}_p99_ms", t.value, "ms", f"as measured, {t.label}")
    out.show("failed_ops_frac", out.failed / max(1, out.attempted), "ratio",
             f"{out.failed} of {out.attempted} requests")
    out.show("client.retries", done["retries"], "count")
    out.show("client.reconnects", done["reconnects"], "count")
    for key in ("sessions_rejected", "sessions_shed", "deadline_aborts", "throttled"):
        out.show(f"server.{key}", info[key], "count")
    return out


# ---------------------------------------------------------------------- #
# Traced layers
# ---------------------------------------------------------------------- #


class CallTimer:
    """Replaces ``obj.name`` with a wrapper that times every call."""

    def __init__(self, obj, name: str):
        self.samples: list[float] = []
        self.total = 0.0
        inner = getattr(obj, name)

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                d = time.perf_counter() - t0
                self.samples.append(d)
                self.total += d

        setattr(obj, name, timed)


class _Codec:
    """Times the four codec steps of one message kind."""

    def __init__(self):
        self.times = defaultdict(list)

    def round(self, kind: str, message: dict, direction: str) -> None:
        from repro.serve import protocol

        t0 = time.perf_counter()
        line = protocol.encode(message)
        t1 = time.perf_counter()
        protocol.decode(line)
        t2 = time.perf_counter()
        self.times[f"{kind}_{direction}_encode"].append(t1 - t0)
        self.times[f"{kind}_{direction}_decode"].append(t2 - t1)

    def total_us(self, kind: str) -> float:
        return sum(
            median(self.times[f"{kind}_{d}_{step}"]) * 1e6
            for d in ("request", "reply") for step in ("encode", "decode")
        )


def _replay(kind: str, sessions: list, seconds: float, out: Outcome) -> dict:
    """Replay recorded sessions in process; returns per-layer samples."""
    from repro.serve import protocol
    from repro.serve.session import SessionManager, build_serve_backend
    from repro.serve.smoke import replay_reference
    from repro.telemetry.session import TelemetrySession

    args = cli_args()
    config = serve_config(args)
    codec = _Codec()
    calls = defaultdict(list)  # session op -> [(total, backend share)]
    structural = defaultdict(list)
    with TelemetrySession(trace=False) as telemetry:
        backend = build_serve_backend(
            config, engine=args.engine, lanes=args.lanes, num_states=args.states,
            num_actions=args.actions, num_workers=args.workers, telemetry=telemetry,
        )
        try:
            manager = SessionManager(
                backend, max_sessions=args.max_sessions,
                checkpoint_every=args.checkpoint_every, telemetry=telemetry,
            )
            timers = {name: CallTimer(backend, name)
                      for name in ("query_action", "apply_transition", "lane_state")}

            def session_call(op: str, fn, *fn_args):
                before = sum(t.total for t in timers.values())
                t0 = time.perf_counter()
                result = fn(*fn_args)
                d = time.perf_counter() - t0
                calls[op].append((d, sum(t.total for t in timers.values()) - before))
                return result

            end = time.perf_counter() + seconds
            for replayed, (_, ops, _) in enumerate(sessions):
                if replayed and time.perf_counter() > end:
                    break
                t0 = time.perf_counter()
                rec = manager.open()
                structural["open"].append(time.perf_counter() - t0)
                base = {"session": rec.sid, "token": rec.token}
                for seq, op in enumerate(ops, 1):
                    if op[0] == "act":
                        req = {"op": "act", "s": op[1], "explore": True, **base, "seq": seq}
                        codec.round("act", req, "request")
                        payload = {"action": session_call("act", manager.act, rec.sid, op[1], True)}
                        msg_kind = "act"
                    elif op[0] == "learn":
                        s, a, r, ns, t = op[1:]
                        req = {"op": "learn", "s": s, "a": a, "r": r, "ns": ns, "t": t,
                               **base, "seq": seq}
                        codec.round("learn", req, "request")
                        payload = {"q": session_call("learn", manager.learn, rec.sid, *op[1:]),
                                   "n": 1}
                        msg_kind = "learn"
                    else:
                        rows = op[1]
                        req = {"op": "learn", "batch": rows, **base, "seq": seq}
                        codec.round("batch", req, "request")
                        batch = [tuple(row) for row in rows]
                        payload = {"q": session_call("learn_batch", manager.learn_batch,
                                                     rec.sid, batch),
                                   "n": len(rows)}
                        msg_kind = "batch"
                    codec.round(msg_kind, protocol.ok(payload, req=req), "reply")
                table = manager.q_row(rec.sid)
                t0 = time.perf_counter()
                manager.close(rec.sid)
                structural["close"].append(time.perf_counter() - t0)
                ref = replay_reference(config, rec.salt, journal(ops),
                                       num_states=args.states, num_actions=args.actions)
                out.check(table == [int(v) for v in ref.tables.q.data],
                          f"in-process serve_{kind} session table differs from replay")
                out.attempted += len(ops) + 2
        finally:
            closer = getattr(backend, "close", None)
            if closer is not None:
                closer()
    return {
        "codec": codec, "calls": calls, "structural": structural,
        "backend": {name: t.samples for name, t in timers.items()},
        "transitions": manager.transitions_total, "queries": manager.queries_total,
    }


def _us(samples) -> float:
    return median(samples) * 1e6


def _trace_stack(kind: str, src_dir: str, seed: int, seconds: float, out: Outcome) -> dict:
    gateway = GatewayProcess(src_dir)
    try:
        conns, progress, _ = closed_loop(kind, gateway.port, seed, seconds * LIVE_SHARE)
        info = _server_info(gateway.port)
    finally:
        out.problems.extend(gateway.stop())
    done = _sum_conns(conns)
    out.problems.extend(done["errors"][:5])
    check_sessions(done["sessions"], f"serve_{kind}", out)
    out.attempted += done["attempted"]
    out.failed += done["failed"]
    layers = _replay(kind, done["sessions"], seconds * (1 - LIVE_SHARE), out)
    lat, codec, calls = done["latencies"], layers["codec"], layers["calls"]

    client_ops = {"interactive": (("act", "act", "act"), ("learn", "learn", "learn")),
                  "ingest": (("batch", "learn_batch", "batch"),)}[kind]
    for wire_op, session_op, msg_kind in client_ops:
        client_us = _us(lat[wire_op])
        session_us = _us([d for d, _ in calls[session_op]])
        out.metric(f"client.{session_op}_us", client_us, "us", "ServeSession round trip")
        out.metric(f"client.{session_op}_p99_us", tail(lat[wire_op]).value * 1e6, "us",
                   tail(lat[wire_op]).label)
        for name, samples in sorted(codec.times.items()):
            if name.startswith(f"{msg_kind}_"):
                out.metric(f"protocol.{name}_us", _us(samples), "us")
        out.metric(f"session.{session_op}_us", session_us, "us", f"SessionManager.{session_op}")
        out.metric(f"session.{session_op}_self_us", _us([d - b for d, b in calls[session_op]]),
                   "us", "session minus backend")
        out.metric(f"gateway_wire.{msg_kind}_residual_us",
                   residual(client_us, (session_us, codec.total_us(msg_kind))), "us",
                   "residual: gateway dispatch, loopback, syscalls")
    if kind == "interactive":
        out.metric("backends.query_action_us", _us(layers["backend"]["query_action"]), "us")
    else:
        out.metric("backends.apply_transition_us", _us(layers["backend"]["apply_transition"]), "us")
        out.metric("backends.lane_state_us", _us(layers["backend"]["lane_state"]), "us",
                   "journal rebase")
        out.metric("serve.open_ms", median(layers["structural"]["open"]) * 1e3, "ms")
        out.metric("serve.close_ms", median(layers["structural"]["close"]) * 1e3, "ms")
    out.metric(f"traced.serve_{kind}.throughput_per_s",
               segment_median(progress.marks, progress.per), "1/s")
    return {
        "client.requests": done["attempted"],
        "client.retries": done["retries"],
        "client.reconnects": done["reconnects"],
        "server.sessions_rejected": info["sessions_rejected"],
        "server.sessions_shed": info["sessions_shed"],
        "server.deadline_aborts": info["deadline_aborts"],
        "server.transitions_total": layers["transitions"],
        "server.queries_total": layers["queries"],
    }


def trace(src_dir: str, seed: int, seconds_per_stack: float) -> Outcome:
    """Per-layer times of both serve stacks, plus client and server counters."""
    out = Outcome()
    totals = defaultdict(int)
    for kind in ("interactive", "ingest"):
        for key, value in _trace_stack(kind, src_dir, seed, seconds_per_stack, out).items():
            totals[key] += value
    for key, value in totals.items():
        out.metric(key, value, "count")
    out.metric("client.retry_ratio", totals["client.retries"] / max(1, totals["client.requests"]),
               "ratio")
    return out
