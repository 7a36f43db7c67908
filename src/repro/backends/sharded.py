"""Sharded multi-core fleet backend: process-parallel lane shards.

The Fig. 9 deployment scales QTAccel by *replicating* independent
pipelines; one Python process caps the software analogue at a single
core however fast its kernel is.  This backend breaks that ceiling:
``n_lanes`` is partitioned into ``num_workers`` contiguous shards, each
shard is a full fleet backend running in its own ``multiprocessing``
worker, and every per-lane state array — Q/Qmax tables, the
architectural latches, the three LFSR banks — lives in one
``multiprocessing.shared_memory`` block that both sides map as numpy
views.

Each shard runs the fused C kernel
(:class:`~repro.backends.native.NativeFleetBackend`) whenever a C
compiler can build it — the rule that picks the gateway's default
engine.  The parent decides
once, at construction (:func:`shard_kernel`), and loads the config's
kernel variant before spawning, so workers never compile it
concurrently.  Without a
compiler the shards run the same program in numpy
(:class:`~repro.backends.vectorized.VectorizedFleetBackend`), the
fallback.  ``telemetry_snapshot()["kernel"]`` reports which one ran
(``"cc"`` or ``"numpy"``).

The parent runs the shard program too: one instance built on the whole
block's live rows, as each worker's is built on its shard's rows (every
program runs on the storage it was built on; see
:class:`~repro.backends.base.LaneLayout`).  Its tables are the fleet's
``q``/``qmax`` views, and it serves the
checkpoint surface and the per-lane serve ops (``apply_transition``
retires a batch in the kernel's lane op), zero-copy and only between
epochs, while the workers are idle.  So every lane of the fleet, from
either side, runs one program.

Bit-identity is preserved by construction: per-lane salts are a pure
function of the lane index (``normalize_fleet`` defaults them to
``range(n_lanes)``), and a shard's worker builds its backend with
exactly the salt slice its lanes would have had in a single-process
fleet — so any worker count, any shard split and either shard program
produces the same per-lane trajectories as ``VectorizedFleetBackend``
(asserted by the test suite across 1/2/odd splits and workers > lanes).

Execution proceeds in *sync epochs* of ``epoch`` lock-step samples:
the parent broadcasts one ``run`` command per worker, collects per-
worker stat deltas, refreshes the aggregate :class:`BatchStats` and
pulses the ambient telemetry session.  Recovery checkpoints cost the
parent nothing per epoch: the block also holds two *shadow generations*
of the lane state, and each worker captures its rows into its spare
generation during the epoch (the C kernel copies each lane out as it
finishes it, while the lane's rows are in cache), which the parent
commits on the worker's ``done`` reply.  A worker that dies mid-epoch
(crash, OOM-kill, :meth:`ShardedFleetBackend.kill_worker` in the tests)
is recovered by the rollback-retry-quarantine discipline of
:mod:`repro.robustness`: its shard's rows are restored from its
committed generation, which a kill mid-capture cannot touch, a fresh
worker is built on the restored rows and replays the failed epoch —
bit-identical thanks to determinism — and a shard that keeps dying is
quarantined so the rest of the fleet continues.  A worker that stops
making progress (SIGSTOP, livelock), mid-epoch or during startup, is
killed after ``hang_timeout_s``.  The existing
:class:`~repro.robustness.checkpoint.FleetSupervisor` composes on top
unchanged (via :class:`~repro.robustness.checkpoint.BatchLanes`),
because the parent exposes the same lane-oriented surface as the
single-process backends.

Observability: the serving layer may assign ``obs_tracer`` /
``obs_recorder`` (:mod:`repro.telemetry`) after construction.  With a tracer
set, pipe commands grow an optional trailing trace-context element
(``("run", n, gen, ctx)``) that the worker uses to parent a ``shard.run``
span built in *its* process, shipped back in the reply and adopted
into the parent's ring — so a merged timeline shows the worker-side
replay of a recovery.  A ``run`` command always carries ``gen`` (None
for a zero-sample run, which captures nothing); only the trace context
is optional.
"""

from __future__ import annotations

import atexit
import bisect
import functools
import multiprocessing as mp
import os
import signal as _signal
import time
import weakref
from contextlib import nullcontext
from multiprocessing import shared_memory
from typing import Sequence

import numpy as np

from ..core.config import QTAccelConfig
from ..envs.base import DenseMdp
from .base import BatchStats, LaneLayout, normalize_fleet
from .vectorized import VectorizedFleetBackend

#: Reusable no-op context for the untraced path.
_NOSPAN = nullcontext()

#: Lane-updates (lanes x steps) a worker retires between heartbeat bumps
#: — the hang watchdog's progress resolution.  On the C kernel a bump is
#: one kernel call, and the lane-outer loop re-streams every lane's
#: tables per call, so the budget is large: a 256-step epoch of a
#: 2048-lane shard is one call (about 20 ms on an x86-64 core).
_HEARTBEAT_UPDATES = 1 << 20

#: Step cap per bump on the numpy fallback, whose fixed per-step
#: dispatch cost dominates small shards.
_HEARTBEAT_NUMPY_STEPS = 64

#: Every live (not yet closed) backend, for the atexit/signal sweeps.
_LIVE_BACKENDS: "weakref.WeakSet" = weakref.WeakSet()

#: Signals :func:`install_signal_cleanup` has already hooked.
_HOOKED_SIGNALS: dict[int, object] = {}


def _atexit_close(ref) -> None:
    """Per-instance atexit callback (weakref: the hook must not keep a
    dead backend's shared-memory block alive until interpreter exit)."""
    backend = ref()
    if backend is not None:
        try:
            backend.close()
        except Exception:  # pragma: no cover - shutdown is best-effort
            pass


def close_all_backends() -> None:
    """Close every live :class:`ShardedFleetBackend` (best-effort).

    Idempotent and safe from atexit or a signal handler: ``close`` stops
    workers, drops the shared-memory views and unlinks the block.
    """
    for backend in list(_LIVE_BACKENDS):
        try:
            backend.close()
        except Exception:  # pragma: no cover - shutdown is best-effort
            pass


def install_signal_cleanup(signals: Sequence[int] = (_signal.SIGTERM, _signal.SIGINT)) -> None:
    """Hook ``signals`` so live backends are closed before the process dies.

    A SIGTERM with the default disposition kills the interpreter without
    running ``atexit`` — orphaning worker processes and leaking the
    ``/dev/shm`` block until reboot.  The installed handler closes every
    live backend, restores the previous (or default) disposition and
    re-raises the signal, so the exit status still reports the signal
    death.  Long-running entry points (``python -m repro.serve``, the CI
    smokes) call this once at startup; calling it twice is a no-op.
    Main-thread only (CPython restricts ``signal.signal``).
    """
    for sig in signals:
        if sig in _HOOKED_SIGNALS:
            continue

        def _handler(signum, frame):
            close_all_backends()
            previous = _HOOKED_SIGNALS.get(signum)
            if callable(previous):
                previous(signum, frame)
                return
            _signal.signal(signum, previous if previous is not None else _signal.SIG_DFL)
            os.kill(os.getpid(), signum)

        _HOOKED_SIGNALS[sig] = _signal.signal(sig, _handler)


class _ShmLayout:
    """The shared segment: three blocks of the fleet's lane state
    (``lane``, a :class:`~repro.backends.base.LaneLayout`), then the
    heartbeat.

    The *live* block holds the rows every program runs on; the other two
    are the *shadow generations*, the double-buffered recovery
    checkpoints.  Worker ``w`` touches only rows ``[lo_w, hi_w)`` of each
    field, so shards never alias each other.  The heartbeat is liveness
    plumbing, not lane state: worker ``w`` bumps slot ``lo_w`` as it
    makes progress through an epoch, and the parent's hang watchdog reads
    it to tell a *slow* worker (heartbeat advancing) from a *stuck* one
    (SIGSTOP, livelock — heartbeat frozen).
    """

    def __init__(self, k: int, s: int, a: int, config: QTAccelConfig):
        self.lane = LaneLayout(k, s, a, config)
        self.nbytes = (3 * self.lane.words + k) * 8

    def views(self, buf, gen: int | None = None) -> dict[str, np.ndarray]:
        """The live block's views, or shadow generation ``gen``'s (0 or 1)."""
        return self.lane.views(buf, 0 if gen is None else (1 + gen) * self.lane.words)

    def heartbeat(self, buf) -> np.ndarray:
        return np.ndarray((self.lane.k,), np.int64, buffer=buf, offset=3 * self.lane.words * 8)


def _attach_shm(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing block without resource-tracker ownership.

    The parent owns the block's lifetime (it unlinks on close).
    Python 3.13+ has ``track=False`` for exactly this.  On older
    versions the attach re-registers the name with the resource
    tracker — harmless, because POSIX ``multiprocessing`` children
    share the parent's tracker process and its cache is a set, so the
    parent's single unlink-time unregister still balances it.  (Do
    *not* unregister here: that would race the parent's unregister on
    the shared tracker.)
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13
        return shared_memory.SharedMemory(name=name)


def shard_kernel(config: QTAccelConfig, *, heterogeneous: bool = False) -> str:
    """The program shard workers run: ``"cc"`` (the fused C kernel) when
    a C compiler can build it, else ``"numpy"`` (the vectorized
    program).

    Choosing ``"cc"`` builds and loads the kernel variants the fleet
    needs in this process — the parent's (one shared world) and, for a
    ``heterogeneous`` fleet, the workers' (per-lane worlds) — so the
    workers spawned afterwards find them compiled.
    """
    from .native import (
        NativeBackendUnavailableError,
        _get_kernel,
        _switches,
        native_available,
    )

    if not native_available()[0]:
        return "numpy"
    try:
        for het in {False, heterogeneous}:
            _get_kernel(_switches(config, het=het))
    except NativeBackendUnavailableError:  # the compiler failed to build it
        return "numpy"
    return "cc"


def _beat_steps(kernel: str, lanes: int) -> int:
    """Steps a worker of ``lanes`` lanes runs between heartbeat bumps."""
    steps = max(1, _HEARTBEAT_UPDATES // lanes)
    return steps if kernel == "cc" else min(steps, _HEARTBEAT_NUMPY_STEPS)


def _program_class(kernel: str) -> type:
    """The shard program for ``kernel`` (a :func:`shard_kernel` result)."""
    if kernel == "cc":
        from .native import NativeFleetBackend

        return NativeFleetBackend
    return VectorizedFleetBackend


def _cpu_ticks(pid: int) -> int:
    """CPU time a process has used, in clock ticks (0 where ``/proc`` is
    absent): a starting worker's progress before it can beat."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return int(fields[11]) + int(fields[12])  # utime + stime
    except (OSError, ValueError, IndexError):
        return 0


def _shard_worker_main(conn, shm_name: str, layout: _ShmLayout, spec: dict) -> None:
    """Entry point of one shard worker process.

    Builds the shard's program (:func:`_program_class` of
    ``spec["kernel"]``) on the live rows ``[lo, hi)`` as they are — seeded
    by the parent, or restored from a checkpoint when the worker replaces
    a failed one — and answers ``("ready", kernel)``.  It then serves
    ``("run", n, gen)`` / ``("ping",)`` / ``("stop",)`` commands over the
    pipe, answering each run with the stat deltas it retired.  A run
    bumps the heartbeat every :func:`_beat_steps` steps, so on the kernel
    a 256-step epoch of a 2048-lane shard is one kernel call.

    A run whose ``gen`` is not None (every run of ``n`` >= 1 samples)
    also captures the shard's rows into that shadow
    generation: the kernel copies each lane out during the
    run's last call, while the lane's rows are still in cache; the numpy
    program copies the rows after the run.  The parent commits the
    generation when the ``done`` reply arrives, so a worker killed
    mid-capture leaves its committed generation intact.

    A ``run`` command may carry an optional trailing trace context
    (the wire ``{"trace_id", "span_id"}`` dict); the worker then times
    the run as a ``shard.run`` span dict in *this* process and ships it
    back as an optional trailing reply element for the parent to adopt.
    """
    from ..telemetry.tracing import _reseed_ids, ctx_from_wire, new_id

    _reseed_ids()  # fresh span-id prefix for this process
    proc_label = f"shard{spec.get('worker', '?')}"
    shm = _attach_shm(shm_name)
    backend = None
    views = shadows = captures = hb = None
    try:
        try:
            views = layout.views(shm.buf)
            shadows = [layout.views(shm.buf, gen) for gen in (0, 1)]
            kernel = spec["kernel"]
            lo, hi = spec["lo"], spec["hi"]
            backend = _program_class(kernel)(
                spec["mdps"],
                spec["config"],
                num_agents=spec["num_agents"],
                storage={key: view[lo:hi] for key, view in views.items()},
            )
            if kernel == "cc":
                captures = [layout.lane.capture_table(views, sh, lo, hi) for sh in shadows]
        except Exception as exc:  # startup failure: report, don't hang
            conn.send(("error", repr(exc)))
            return
        # Heartbeat slot: bumped as the worker makes progress so the
        # parent can distinguish slow from stuck (see _ShmLayout).
        hb = layout.heartbeat(shm.buf)
        hb[lo] += 1
        beat = _beat_steps(kernel, hi - lo)
        conn.send(("ready", kernel))
        while True:
            msg = conn.recv()
            cmd = msg[0]
            if cmd == "run":
                if spec["debug_fail"]:
                    os._exit(17)  # simulated crash (tests)
                n, gen = msg[1], msg[2]
                ctx = ctx_from_wire(msg[3]) if len(msg) > 3 else None
                t0 = time.monotonic()
                st = backend.stats
                before = (st.episodes, st.exploits, st.explores)
                # Run in sub-chunks, bumping the heartbeat between them.
                # run(a); run(b) is bit-identical to run(a+b) (the epoch
                # loop above already relies on this), so chunking changes
                # only the watchdog's resolution, never the trajectories.
                done = 0
                while done < n:
                    chunk = min(beat, n - done)
                    if gen is not None and captures is not None and done + chunk == n:
                        backend.set_capture(captures[gen])
                    backend.run(chunk)
                    done += chunk
                    hb[lo] += 1
                if captures is not None:
                    backend.set_capture(None)
                elif gen is not None:
                    layout.lane.copy_rows(shadows[gen], views, lo, hi)
                spans = None
                if ctx is not None:
                    spans = [
                        {
                            "name": "shard.run",
                            "trace_id": ctx.trace_id,
                            "span_id": new_id(),
                            "parent_id": ctx.span_id,
                            "proc": proc_label,
                            "start": t0,
                            "end": time.monotonic(),
                            "attrs": {"samples": n},
                        }
                    ]
                conn.send(
                    (
                        "done",
                        {
                            "episodes": st.episodes - before[0],
                            "exploits": st.exploits - before[1],
                            "explores": st.explores - before[2],
                        },
                        spans,
                    )
                )
            elif cmd == "ping":
                hb[lo] += 1
                conn.send(("pong", None))
            elif cmd == "stop":
                conn.send(("bye", None))
                return
            else:
                conn.send(("error", f"unknown command {cmd!r}"))
    except (EOFError, KeyboardInterrupt):
        pass
    finally:
        backend = None
        views = shadows = captures = hb = None
        try:
            shm.close()
        except BufferError:  # pragma: no cover - views already dropped
            pass


def _program_table(name: str) -> property:
    """A read-only attribute: the parent program's ``name`` table (its
    shared-memory rows, or None when the update rule has no such table)."""
    return property(lambda self: getattr(self._program, name))


class ShardedFleetBackend:
    """``n_lanes`` learners sharded over ``num_workers`` processes,
    bit-identical per lane to :class:`VectorizedFleetBackend`.

    The parent runs its own instance of the shard program, built on the
    block's live rows: ``q``/``qmax``/``qmax_action``, the
    checkpoint surface and the per-lane serve ops (``reset_lane``,
    ``apply_transition``, ``query_action``) are that program's, so they
    read and write the workers' rows zero-copy and retire serve rows in
    the same code the shards run — only ever between sync epochs, while
    the workers are idle.

    Each worker's recovery checkpoint is a *shadow generation* of its
    rows in the same block: every epoch, the worker captures its rows
    into its spare generation while it computes, and the parent commits
    that generation (with the sample count and the worker's stat totals)
    when the worker's ``done`` reply arrives.  A parent-side lane write
    mirrors the lane's rows into its worker's committed generation, so
    between epochs the committed generations equal the live state and a
    failed worker replays only the epoch it failed in.  The parent copies
    nothing per epoch; :meth:`state_dict` still returns a fresh copy.

    Construction/teardown is explicit: workers and the shared block are
    released by :meth:`close` (also a context manager).  ``epoch`` sets
    the sync-barrier granularity.
    """

    #: Name this engine attaches under in a telemetry session profile.
    _TELEMETRY_NAME = "sharded"

    def __init__(
        self,
        mdps: "DenseMdp | Sequence[DenseMdp]",
        config: QTAccelConfig,
        *,
        num_agents: int | None = None,
        salts: Sequence[int] | None = None,
        telemetry=None,
        num_workers: int | None = None,
        epoch: int = 256,
        max_worker_restarts: int = 2,
        mp_context: str = "spawn",
        debug_fail_workers: Sequence[int] = (),
        ping_timeout_s: float = 5.0,
        hang_timeout_s: float = 10.0,
        stop_timeout_s: float = 5.0,
    ):
        spec = normalize_fleet(mdps, n_lanes=num_agents, salts=salts)
        self.mdps = list(spec.mdps)
        self._homogeneous = spec.homogeneous
        k = spec.n_lanes
        self.config = config
        self.K = k
        self.S, self.A = spec.num_states, spec.num_actions
        self._salts = [int(x) for x in spec.salts]

        if epoch < 1:
            raise ValueError("epoch must be >= 1")
        if max_worker_restarts < 0:
            raise ValueError("max_worker_restarts must be non-negative")
        if num_workers is None:
            num_workers = max(1, min(k, os.cpu_count() or 1))
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        #: Workers never outnumber lanes (a shard must be non-empty).
        self.num_workers = min(num_workers, k)
        self.epoch = epoch
        self.max_worker_restarts = max_worker_restarts
        self._bounds = [
            (i * k) // self.num_workers for i in range(self.num_workers + 1)
        ]
        self._debug_fail = set(debug_fail_workers)
        self._ctx = mp.get_context(mp_context)
        if ping_timeout_s <= 0 or hang_timeout_s <= 0 or stop_timeout_s <= 0:
            raise ValueError("worker timeouts must be positive")
        #: Ping-probe patience of :meth:`check_workers`.
        self.ping_timeout_s = ping_timeout_s
        #: Mid-epoch watchdog: a worker whose heartbeat makes no
        #: progress for this long while a result is owed is declared
        #: hung and escalated to kill + checkpoint-replay recovery.
        self.hang_timeout_s = hang_timeout_s
        #: Patience per worker during :meth:`close` before SIGKILL.
        self.stop_timeout_s = stop_timeout_s

        # The shared lane-state block.
        self._layout = _ShmLayout(k, self.S, self.A, config)
        self._shm = shared_memory.SharedMemory(create=True, size=self._layout.nbytes)
        self._closed = False
        self._program = None
        self._views = self._layout.views(self._shm.buf)
        self._shadows = [self._layout.views(self._shm.buf, gen) for gen in (0, 1)]
        self._heartbeat = self._layout.heartbeat(self._shm.buf)

        # Leak hygiene: close on interpreter exit even if the owner never
        # calls close() (the signal path is opt-in: install_signal_cleanup).
        self._atexit_cb = functools.partial(_atexit_close, weakref.ref(self))
        atexit.register(self._atexit_cb)
        _LIVE_BACKENDS.add(self)

        self.stats = BatchStats(agents=k)
        self._worker_cum = [[0, 0, 0] for _ in range(self.num_workers)]
        #: Per worker, its committed recovery checkpoint: ``(shadow
        #: generation, samples_per_agent, worker_cum)``.  Construction
        #: seeds generation 0 as it seeds the live rows.
        self._ckpt: list[tuple[int, int, list[int]]] = [
            (0, 0, [0, 0, 0]) for _ in range(self.num_workers)
        ]
        #: Recovery bookkeeping (see ``_recover_worker``).
        self.restarts = 0
        #: Samples per lane re-run by successful recoveries, in total.
        self.replayed_samples = 0
        #: Workers the watchdog declared hung (SIGSTOP, livelock) and
        #: escalated to the kill -> checkpoint-replay recovery path.
        self.hangs = 0
        self.quarantined_workers: set[int] = set()
        #: Optional observability wiring, assigned by the serving layer
        #: after construction: a :class:`repro.telemetry.tracing.Tracer` for
        #: ``shard.recover`` spans (plus worker-side ``shard.run`` spans
        #: adopted from replies) and a
        #: :class:`repro.telemetry.recorder.FlightRecorder` for structured
        #: worker lifecycle events (hang/dead/restart/quarantine).
        self.obs_tracer = None
        self.obs_recorder = None

        #: The program every shard runs: ``"cc"`` (the fused C kernel) or
        #: ``"numpy"`` (the vectorized fallback), decided here once and
        #: confirmed by each worker's ``ready`` reply.
        self.shard_kernel = shard_kernel(config, heterogeneous=not self._homogeneous)
        self._procs: list = [None] * self.num_workers
        self._conns: list = [None] * self.num_workers
        try:
            for w in range(self.num_workers):
                self._spawn_worker(w)
            # While the workers start up: seed the fresh, zero-filled live
            # rows and generation 0, then build the parent's program on
            # the live rows.  Lane ops never read env tables, so one world
            # serves a heterogeneous fleet too.
            for views in (self._views, self._shadows[0]):
                self._layout.lane.seed(views, spec.salts)
            self._program = _program_class(self.shard_kernel)(
                self.mdps[0], config, num_agents=k, telemetry=False, storage=self._views
            )
            for w in range(self.num_workers):
                self._await_ready(w)
        except BaseException:
            self.close()
            raise

        from ..telemetry.session import current_session

        session = telemetry if telemetry is not None else current_session()
        #: Session pulsed once per sync epoch for live-metrics export.
        self._session = session
        if session is not None:
            session.attach(self, self._TELEMETRY_NAME)

    # ------------------------------------------------------------------ #
    # Worker lifecycle
    # ------------------------------------------------------------------ #

    def _worker_spec(self, w: int) -> dict:
        lo, hi = self._bounds[w], self._bounds[w + 1]
        if self._homogeneous:
            worlds: object = self.mdps[0]
            num_agents = hi - lo
        else:
            worlds = self.mdps[lo:hi]
            num_agents = None
        return {
            "lo": lo,
            "hi": hi,
            "worker": w,
            "mdps": worlds,
            "num_agents": num_agents,
            "config": self.config,
            "debug_fail": w in self._debug_fail,
            "kernel": self.shard_kernel,
        }

    def _spawn_worker(self, w: int) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_shard_worker_main,
            args=(
                child_conn,
                self._shm.name,
                self._layout,
                self._worker_spec(w),
            ),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._procs[w] = proc
        self._conns[w] = parent_conn

    def _await_ready(self, w: int) -> None:
        """Wait for worker ``w``'s ``ready`` reply and record its kernel.

        Raises :class:`RuntimeError` naming the worker if it dies or
        fails during startup, or — after SIGKILLing it — if it makes no
        progress for ``hang_timeout_s``.  A starting worker's CPU time
        counts as progress, so a slow start is waited on and a stopped
        one is not.
        """
        if not self._await_result(w, starting=True):
            raise RuntimeError(
                f"shard worker {w} made no startup progress for "
                f"{self.hang_timeout_s:g} s; killed"
            )
        try:
            msg = self._conns[w].recv()
        except (EOFError, OSError) as exc:
            raise RuntimeError(f"shard worker {w} died during startup") from exc
        if msg[0] != "ready":
            raise RuntimeError(f"shard worker {w} failed to start: {msg[1]}")
        self.shard_kernel = msg[1]

    # -- observability plumbing (no-ops until obs_tracer/obs_recorder
    #    are assigned by the serving layer) ---------------------------- #

    def _wire_ctx(self):
        """The ambient trace context as a pipe-command trailing element."""
        if self.obs_tracer is None:
            return None
        from ..telemetry.tracing import Tracer, ctx_to_wire

        return ctx_to_wire(Tracer.current_context())

    def _obs_span(self, name: str, **attrs):
        if self.obs_tracer is None:
            return _NOSPAN
        return self.obs_tracer.span(name, attrs=attrs or None)

    def _obs_event(self, kind: str, **fields) -> None:
        if self.obs_recorder is not None:
            try:
                self.obs_recorder.record_event(kind, **fields)
            except Exception:  # pragma: no cover - recorder is best-effort
                pass

    def _adopt_spans(self, msg) -> None:
        """File worker-side spans riding as a reply's trailing element."""
        if self.obs_tracer is not None and len(msg) > 2 and msg[2]:
            self.obs_tracer.adopt(msg[2])

    def _reap_worker(self, w: int) -> None:
        proc = self._procs[w]
        if proc is not None:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.kill()
                proc.join(timeout=5.0)
            self._procs[w] = None
        conn = self._conns[w]
        if conn is not None:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
            self._conns[w] = None

    def kill_worker(self, w: int) -> None:
        """Hard-kill shard worker ``w`` (SIGKILL) — the fault-injection
        hook used by the recovery tests and the chaos campaign.  The
        next epoch detects the dead pipe and triggers recovery.
        SIGKILL also terminates a SIGSTOP'd (hung) worker, so this is
        the watchdog's escalation primitive too."""
        proc = self._procs[w]
        if proc is not None and proc.is_alive():
            proc.kill()
            proc.join(timeout=10.0)

    def hang_worker(self, w: int) -> None:
        """SIGSTOP shard worker ``w`` — the *hang* fault-injection hook.

        The worker stays alive (``proc.is_alive()`` is True, its pipe
        accepts writes) but makes no progress: exactly the failure mode
        ``check_workers``'s ping timeout and the mid-epoch heartbeat
        watchdog exist to catch.  Undo with :meth:`resume_worker`.
        """
        proc = self._procs[w]
        if proc is not None and proc.is_alive():
            os.kill(proc.pid, _signal.SIGSTOP)

    def resume_worker(self, w: int) -> None:
        """SIGCONT a worker previously stopped by :meth:`hang_worker`."""
        proc = self._procs[w]
        if proc is not None and proc.is_alive():
            os.kill(proc.pid, _signal.SIGCONT)

    def check_workers(self, timeout: float | None = None) -> list[tuple[int, int]]:
        """Health-probe every worker; recover dead *and hung* ones.

        The epoch loop only notices a failed worker when it next runs an
        epoch; a serving deployment (:mod:`repro.serve`) may go long
        stretches without one, so this probes each non-quarantined
        worker with a ping and routes failures through the same
        rollback-retry-quarantine path as a mid-epoch death (replaying
        zero run-samples: the shard's rows are restored to its committed
        generation, which every lane op since has been mirrored into).
        A worker that is alive but does not
        answer the ping within ``timeout`` (default ``ping_timeout_s``)
        is *hung* — SIGSTOP'd, livelocked — and is SIGKILL'd first
        (SIGKILL terminates stopped processes) so recovery is bounded.
        Returns the ``(lo, hi)`` lane ranges that were rolled back, so
        a caller holding per-lane state built *after* that checkpoint
        (the serve session manager's journals) knows exactly which
        lanes to re-restore and replay.
        """
        if timeout is None:
            timeout = self.ping_timeout_s
        recovered: list[tuple[int, int]] = []
        for w in range(self.num_workers):
            if w in self.quarantined_workers:
                continue
            proc, conn = self._procs[w], self._conns[w]
            dead = proc is None or not proc.is_alive()
            if not dead:
                try:
                    conn.send(("ping",))
                    if conn.poll(timeout):
                        dead = conn.recv()[0] != "pong"
                    else:  # hung: alive but unresponsive — escalate
                        self.hangs += 1
                        self._obs_event("worker_hang", worker=w)
                        self.kill_worker(w)
                        dead = True
                except (BrokenPipeError, EOFError, OSError):
                    dead = True
            if dead:
                lo, hi = self._bounds[w], self._bounds[w + 1]
                self._obs_event("worker_dead", worker=w, lanes=[lo, hi])
                self._recover_worker(w, 0)
                self._refresh_stats()
                recovered.append((lo, hi))
        return recovered

    # ------------------------------------------------------------------ #
    # Execution: sync epochs + recovery
    # ------------------------------------------------------------------ #

    def step(self) -> None:
        """One lock-step sample on every lane (a one-sample epoch)."""
        self.run(1)

    def run(self, samples_per_agent: int) -> BatchStats:
        """Advance every lane by ``samples_per_agent`` updates, in sync
        epochs of at most ``self.epoch`` samples."""
        if samples_per_agent < 0:
            raise ValueError("samples_per_agent must be non-negative")
        session = self._session
        done = 0
        while done < samples_per_agent:
            n = min(self.epoch, samples_per_agent - done)
            self._run_epoch(n)
            self.stats.samples_per_agent += n
            done += n
            if session is not None:
                session.pulse()
        return self.stats

    def _await_result(
        self, w: int, timeout: float | None = None, *, starting: bool = False
    ) -> bool:
        """Wait for worker ``w``'s next message, watching its heartbeat.

        Returns True once a message is ready to ``recv``.  Returns
        False — after SIGKILLing the worker, so the follow-up recovery
        is bounded — when the worker owes a result but its heartbeat
        makes no progress for ``timeout`` (default ``hang_timeout_s``)
        seconds: a *slow* worker keeps bumping its heartbeat between
        sub-chunks and is waited on indefinitely; a *stuck* one
        (SIGSTOP, livelock) cannot.  While ``starting``, the CPU time
        the worker uses counts as progress too: it cannot beat until it
        has imported its modules and attached the shared block.
        """
        if timeout is None:
            timeout = self.hang_timeout_s
        conn = self._conns[w]
        hb = self._heartbeat
        lo = self._bounds[w]
        pid = self._procs[w].pid if starting else None

        def progress() -> tuple[int, int]:
            return int(hb[lo]), _cpu_ticks(pid) if starting else 0

        last = progress()
        stalled_since = time.monotonic()
        while True:
            try:
                if conn.poll(min(0.05, timeout)):
                    return True
            except (BrokenPipeError, OSError):
                return True  # dead pipe: let the recv raise and recover
            now = time.monotonic()
            beat = progress()
            if beat != last:
                last = beat
                stalled_since = now
            elif now - stalled_since >= timeout:
                self.hangs += 1
                self._obs_event("worker_hang", worker=w)
                self.kill_worker(w)
                return False

    def _run_cmd(self, w: int, n: int, ctx) -> tuple[tuple, int | None]:
        """Worker ``w``'s command to run ``n`` samples, and the shadow
        generation it captures into (its spare one; None when there is
        nothing to run)."""
        gen = 1 - self._ckpt[w][0] if n else None
        return (("run", n, gen) if ctx is None else ("run", n, gen, ctx)), gen

    def _accept(self, w: int, msg, gen: int | None, n: int) -> None:
        """Fold worker ``w``'s ``done`` reply into its stat totals and, if
        the run captured into ``gen``, commit that generation as the
        shard's checkpoint at the end of the current ``n``-sample epoch."""
        self._adopt_spans(msg)
        delta = msg[1]
        cum = self._worker_cum[w]
        cum[0] += delta["episodes"]
        cum[1] += delta["exploits"]
        cum[2] += delta["explores"]
        if gen is not None:
            self._ckpt[w] = (gen, self.stats.samples_per_agent + n, list(cum))

    def _run_epoch(self, n: int) -> None:
        failed: list[int] = []
        sent: dict[int, int | None] = {}
        ctx = self._wire_ctx()
        for w in range(self.num_workers):
            if w in self.quarantined_workers:
                continue
            cmd, gen = self._run_cmd(w, n, ctx)
            try:
                self._conns[w].send(cmd)
                sent[w] = gen
            except (BrokenPipeError, OSError):
                failed.append(w)
        for w, gen in sent.items():
            try:
                if not self._await_result(w):
                    failed.append(w)  # hung mid-epoch; worker killed
                    continue
                msg = self._conns[w].recv()
            except (EOFError, OSError):
                failed.append(w)
                continue
            if msg[0] != "done":
                failed.append(w)
                continue
            self._accept(w, msg, gen, n)
        for w in failed:
            self._recover_worker(w, n)
        self._refresh_stats()

    def _recover_worker(self, w: int, n: int) -> None:
        """Rollback-retry-quarantine for a shard whose worker died.

        Restores the shard's live rows from its committed shadow
        generation, spawns a fresh worker built on the restored rows, and
        replays forward to the fleet's current position (the
        epoch of ``n`` samples that just failed; nothing from
        :meth:`check_workers`) — bit-identical, because the engine is
        deterministic.  The replay captures into the spare generation
        like any epoch.  A shard that keeps dying is restored to its
        checkpoint and quarantined; the rest of the fleet keeps training.
        """
        # samples_per_agent is not yet incremented for the failing epoch.
        replay = self.stats.samples_per_agent + n - self._ckpt[w][1]
        self._reap_worker(w)
        with self._obs_span("shard.recover", worker=w, replay=replay):
            for _ in range(self.max_worker_restarts):
                self.restarts += 1
                self._restore_shard(w)
                cmd, gen = self._run_cmd(w, replay, self._wire_ctx())
                try:
                    self._spawn_worker(w)
                    self._await_ready(w)
                    self._conns[w].send(cmd)
                    if not self._await_result(w):
                        self._reap_worker(w)
                        continue
                    msg = self._conns[w].recv()
                except (RuntimeError, EOFError, OSError, BrokenPipeError):
                    self._reap_worker(w)
                    continue
                if msg[0] != "done":
                    self._reap_worker(w)
                    continue
                self._accept(w, msg, gen, n)
                self.replayed_samples += replay
                self._obs_event("worker_restarted", worker=w, replay=replay)
                return
            self._restore_shard(w)
            self.quarantined_workers.add(w)
            self._obs_event("worker_quarantined", worker=w)

    def _restore_shard(self, w: int) -> None:
        """Roll worker ``w``'s live rows and stat totals back to its
        committed checkpoint."""
        gen, _, cum = self._ckpt[w]
        lo, hi = self._bounds[w], self._bounds[w + 1]
        self._layout.lane.copy_rows(self._views, self._shadows[gen], lo, hi)
        self._worker_cum[w] = list(cum)

    def _mirror_lane(self, k: int) -> None:
        """Copy lane ``k``'s live rows into its worker's committed shadow
        generation after a parent-side lane write, so a recovery replays
        from after the write (to a lane the program op checked)."""
        w = bisect.bisect_right(self._bounds, k) - 1
        self._layout.lane.copy_rows(self._shadows[self._ckpt[w][0]], self._views, k, k + 1)

    def _refresh_stats(self) -> None:
        """Aggregate stats: the program's own counts (parent-side lane ops
        and loaded checkpoints) plus every worker's cumulative deltas."""
        st, base = self.stats, self._program.stats
        st.episodes = base.episodes + sum(c[0] for c in self._worker_cum)
        st.exploits = base.exploits + sum(c[1] for c in self._worker_cum)
        st.explores = base.explores + sum(c[2] for c in self._worker_cum)

    # ------------------------------------------------------------------ #
    # Checkpoint, view and lane-op surface: the parent's program, bound to
    # the whole block.  Call only between sync epochs (workers idle); a
    # lane write is mirrored into the lane's committed shadow generation.
    # ------------------------------------------------------------------ #

    q = _program_table("q")
    qmax = _program_table("qmax")
    qmax_action = _program_table("qmax_action")
    momentum = _program_table("momentum")
    target = _program_table("target")

    def state_dict(self) -> dict:
        """Full fleet checkpoint, with the aggregate stats (the payload a
        :class:`VectorizedFleetBackend` produces): a fresh copy of the live
        rows that shares no memory with the shadow generations."""
        state = self._program.state_dict()
        state["stats"] = vars(self.stats).copy()
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore a fleet checkpoint (from this backend *or* from a
        :class:`VectorizedFleetBackend` — the payloads are identical)."""
        self._program.load_state_dict(state)
        for key, value in state["stats"].items():
            setattr(self.stats, key, value)
        self._worker_cum = [[0, 0, 0] for _ in range(self.num_workers)]
        # The loaded rows become every worker's committed checkpoint.
        for w, (gen, _, _) in enumerate(self._ckpt):
            lo, hi = self._bounds[w], self._bounds[w + 1]
            self._layout.lane.copy_rows(self._shadows[gen], self._views, lo, hi)
            self._ckpt[w] = (gen, self.stats.samples_per_agent, [0, 0, 0])

    def lane_state(self, k: int, state: dict | None = None) -> dict:
        return self._program.lane_state(k, state)

    def load_lane_state(self, k: int, lane: dict) -> None:
        self._program.load_lane_state(k, lane)
        self._mirror_lane(k)

    def q_float(self, agent: int) -> np.ndarray:
        return self._program.q_float(agent)

    def q_float_all(self) -> np.ndarray:
        return self._program.q_float_all()

    def reset_lane(self, k: int, salt: int) -> None:
        self._program.reset_lane(k, salt)
        self._mirror_lane(k)

    def apply_transition(self, k: int, state, action, reward, next_state, terminal=False) -> int:
        q_new = self._program.apply_transition(k, state, action, reward, next_state, terminal)
        self._mirror_lane(k)
        self._refresh_stats()
        return q_new

    def query_action(self, k: int, state: int, explore: bool = True) -> int:
        action = self._program.query_action(k, state, explore)
        if explore:  # drew the lane's policy LFSR
            self._mirror_lane(k)
        return action

    @property
    def n_lanes(self) -> int:
        """Lane count (alias of the historical ``K``)."""
        return self.K

    def shard_bounds(self, w: int) -> tuple[int, int]:
        """Worker ``w``'s contiguous lane range as ``(lo, hi)``."""
        if not 0 <= w < self.num_workers:
            raise IndexError(f"worker {w} out of range 0..{self.num_workers - 1}")
        return self._bounds[w], self._bounds[w + 1]

    def telemetry_snapshot(self) -> dict:
        """Fleet-level counters plus shard/recovery health."""
        return {
            "agents": self.K,
            "states": self.S,
            "actions": self.A,
            "samples_per_agent": self.stats.samples_per_agent,
            "total_samples": self.stats.samples,
            "episodes": self.stats.episodes,
            "exploits": self.stats.exploits,
            "explores": self.stats.explores,
            "workers": self.num_workers,
            "kernel": self.shard_kernel,
            "epoch": self.epoch,
            "restarts": self.restarts,
            "replayed_samples": self.replayed_samples,
            "hangs": self.hangs,
            "quarantined_workers": len(self.quarantined_workers),
        }

    # ------------------------------------------------------------------ #
    # Teardown
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Stop the workers and release the shared-memory block.

        Idempotent; also invoked by ``__exit__``, by a per-instance
        ``atexit`` hook, by :func:`install_signal_cleanup` handlers and
        (best-effort) by ``__del__`` — so neither a forgotten close nor
        a SIGTERM leaves orphaned workers or a leaked ``/dev/shm``
        block.  After close the backend is unusable.
        """
        if getattr(self, "_closed", True):
            return
        self._closed = True
        _LIVE_BACKENDS.discard(self)
        cb = getattr(self, "_atexit_cb", None)
        if cb is not None:
            try:
                atexit.unregister(cb)
            except Exception:  # pragma: no cover - interpreter shutdown
                pass
        # Bounded-time teardown: a hung (e.g. SIGSTOP'd) worker cannot
        # answer the stop handshake or join, so every wait is capped by
        # stop_timeout_s and escalates to SIGKILL (which terminates
        # stopped processes too).
        stop_timeout = getattr(self, "stop_timeout_s", 5.0)
        for w in range(self.num_workers):
            conn = self._conns[w]
            proc = self._procs[w]
            if conn is not None and proc is not None and proc.is_alive():
                try:
                    conn.send(("stop",))
                    if conn.poll(stop_timeout):
                        conn.recv()
                except (EOFError, OSError, BrokenPipeError):
                    pass
            if proc is not None:
                proc.join(timeout=stop_timeout)
                if proc.is_alive():  # stuck worker: escalate
                    proc.kill()
                    proc.join(timeout=stop_timeout)
                self._procs[w] = None
            if conn is not None:
                try:
                    conn.close()
                except OSError:  # pragma: no cover
                    pass
                self._conns[w] = None
        # Drop every view of the buffer before closing the mapping.
        self._program = None
        self._views = self._shadows = self._heartbeat = None
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - stray external view
            pass

    def __enter__(self) -> "ShardedFleetBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass
