"""Sharded multi-core fleet backend: process-parallel lane shards.

The Fig. 9 deployment scales QTAccel by *replicating* independent
pipelines; one Python process caps the software analogue at a single
core however fast its kernel is.  This backend breaks that ceiling:
``n_lanes`` is partitioned into ``num_workers`` contiguous shards, each
shard is a full fleet backend running in its own ``multiprocessing``
worker, and every per-lane state array — Q/Qmax tables, the
architectural latches, the three LFSR banks — lives in one
``multiprocessing.shared_memory`` block that both sides map as numpy
views.  Checkpoints, telemetry reads and result gathers on the parent
are therefore zero-copy: the parent *is* looking at the workers' live
state (only ever read between epochs, when workers are idle).

Each shard runs the fused C kernel
(:class:`~repro.backends.native.NativeFleetBackend`) whenever a C
compiler can build it and the update rule has a compiled lowering —
the rule that picks the gateway's default engine.  The parent decides
once, at construction (:func:`shard_kernel`), and loads the kernel
before spawning, so workers never compile it concurrently.  Without a
compiler the shards run the same program in numpy
(:class:`~repro.backends.vectorized.VectorizedFleetBackend`), the
fallback.  ``telemetry_snapshot()["kernel"]`` reports which one ran
(``"cc"`` or ``"numpy"``).  Both programs keep their state in the same
attribute vocabulary, so one rebind loop maps either onto the shared
rows.

Bit-identity is preserved by construction: per-lane salts are a pure
function of the lane index (``normalize_fleet`` defaults them to
``range(n_lanes)``), and a shard's worker builds its backend with
exactly the salt slice its lanes would have had in a single-process
fleet — so any worker count, any shard split and either shard program
produces the same per-lane trajectories as ``VectorizedFleetBackend``
(asserted by the test suite across 1/2/odd splits and workers > lanes).

Execution proceeds in *sync epochs* of ``epoch`` lock-step samples:
the parent broadcasts one ``run`` command per worker, collects per-
worker stat deltas, refreshes the aggregate :class:`BatchStats`, takes
a :class:`~repro.robustness.checkpoint.CheckpointStore` snapshot every
``checkpoint_interval`` epochs, and pulses the ambient telemetry
session.  A worker that dies mid-epoch (crash, OOM-kill,
:meth:`ShardedFleetBackend.kill_worker` in the CI smoke) is recovered
by the rollback-retry-quarantine discipline of
:mod:`repro.robustness`: its shard's slice of shared memory is
restored from the last checkpoint, a fresh worker adopts the restored
state and replays forward to the fleet's current epoch — bit-identical
thanks to determinism — and a shard that keeps dying is quarantined so
the rest of the fleet continues.  A worker that stops making progress
(SIGSTOP, livelock), mid-epoch or during startup, is killed after
``hang_timeout_s``.  The existing
:class:`~repro.robustness.checkpoint.FleetSupervisor` composes on top
unchanged (via :class:`~repro.robustness.checkpoint.BatchLanes`),
because the parent exposes the same lane-oriented surface as the
single-process backends.

Observability: the serving layer may assign ``obs_tracer`` /
``obs_recorder`` (:mod:`repro.telemetry`) after construction.  With a tracer
set, pipe commands grow an optional trailing trace-context element
(``("run", n, ctx)``) that the worker uses to parent a ``shard.run``
span built in *its* process, shipped back in the reply and adopted
into the parent's ring — so a merged timeline shows the worker-side
replay of a recovery.  Workers that receive the short command forms
behave exactly as before; both sides tolerate either length.
"""

from __future__ import annotations

import atexit
import functools
import multiprocessing as mp
import os
import signal as _signal
import time
import weakref
from contextlib import nullcontext
from multiprocessing import shared_memory
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from ..core.config import QTAccelConfig
from ..core.policies import egreedy_cut
from ..envs.base import DenseMdp
from .base import BatchStats, normalize_fleet
from .vectorized import VectorizedFleetBackend

_I64 = np.int64

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
    """Byte layout of the shared lane-state block.

    Every :class:`VectorizedFleetBackend` state array (keys matching its
    ``_STATE_ARRAYS`` checkpoint vocabulary) plus the three LFSR banks,
    all int64, concatenated; worker ``w`` touches only rows
    ``[lo_w, hi_w)`` of each field, so shards never alias each other.

    The extra ``heartbeat`` field is liveness plumbing, not lane state
    (it is deliberately absent from ``_STATE_ARRAYS``, so checkpoints
    ignore it): worker ``w`` bumps slot ``lo_w`` as it makes progress
    through an epoch, and the parent's hang watchdog reads it to tell
    a *slow* worker (heartbeat advancing) from a *stuck* one (SIGSTOP,
    livelock — heartbeat frozen).
    """

    def __init__(self, k: int, s: int, a: int, config: QTAccelConfig | None = None):
        fields: list[tuple[str, tuple]] = [
            ("q", (k, s * a)),
            ("qmax", (k, s)),
            ("qmax_action", (k, s)),
            ("arch_state", (k,)),
            ("forwarded", (k,)),
            ("prev_pair", (k,)),
            ("prev_state", (k,)),
            ("prev_q", (k,)),
            ("prev_qmax", (k,)),
            ("prev_qmax_action", (k,)),
        ]
        # Update-rule extra lane state (momentum iterate / Polyak target
        # table + sync counter): same keys as the backend's per-instance
        # _STATE_ARRAYS, inserted before the LFSR/heartbeat plumbing so
        # rule-free layouts are byte-for-byte what they always were.
        if config is not None:
            kind = config.rule.kind
            if kind == "momentum":
                fields.append(("momentum", (k, s * a)))
            elif kind == "target":
                fields.append(("target", (k, s * a)))
                fields.append(("target_count", (k,)))
        fields += [
            ("lfsr_start", (k,)),
            ("lfsr_action", (k,)),
            ("lfsr_policy", (k,)),
            ("heartbeat", (k,)),
        ]
        self.fields = tuple(fields)
        self.offsets: dict[str, int] = {}
        off = 0
        for key, shape in self.fields:
            self.offsets[key] = off
            off += int(np.prod(shape))
        self.nbytes = off * 8

    def views(self, buf) -> dict[str, np.ndarray]:
        """Numpy views of every field over a shared-memory buffer."""
        return {
            key: np.ndarray(
                shape, dtype=np.int64, buffer=buf, offset=self.offsets[key] * 8
            )
            for key, shape in self.fields
        }


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


def shard_kernel(config: QTAccelConfig) -> str:
    """The program shard workers run for ``config``: ``"cc"`` (the fused
    C kernel) when a C compiler can build it and it lowers the update
    rule, else ``"numpy"`` (the vectorized program).

    Choosing ``"cc"`` builds and loads the kernel in this process, so
    the workers spawned afterwards find it compiled.
    """
    from .native import NativeBackendUnavailableError, _get_kernel, lowers_rule, native_available

    if not (native_available()[0] and lowers_rule(config.rule)):
        return "numpy"
    try:
        _get_kernel()
    except NativeBackendUnavailableError:  # the compiler failed to build it
        return "numpy"
    return "cc"


def _beat_steps(kernel: str, lanes: int) -> int:
    """Steps a worker of ``lanes`` lanes runs between heartbeat bumps."""
    steps = max(1, _HEARTBEAT_UPDATES // lanes)
    return steps if kernel == "cc" else min(steps, _HEARTBEAT_NUMPY_STEPS)


def _cpu_ticks(pid: int) -> int:
    """CPU time a process has used, in clock ticks (0 where ``/proc`` is
    absent): a starting worker's progress before it can beat."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return int(fields[11]) + int(fields[12])  # utime + stime
    except (OSError, ValueError, IndexError):
        return 0


def _shard_worker_main(conn, shm_name: str, dims: tuple, spec: dict) -> None:
    """Entry point of one shard worker process.

    Builds the shard's backend — :class:`~repro.backends.native.NativeFleetBackend`
    when ``spec["kernel"]`` is ``"cc"``, else :class:`VectorizedFleetBackend`
    — rebinds every state array (and the LFSR bank registers) onto the
    shared-memory rows ``[lo, hi)`` — copying its freshly seeded state in
    unless ``spec["adopt"]`` says the block already holds restored state
    — and answers ``("ready", kernel)``.  It then serves ``("run", n)`` /
    ``("ping",)`` / ``("stop",)`` commands over the pipe, answering each
    run with the stat deltas it retired.  A run bumps the heartbeat every
    :func:`_beat_steps` steps, so on the kernel a 256-step epoch of a
    2048-lane shard is one kernel call.

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
    views = None
    try:
        try:
            k, s, a = dims
            views = _ShmLayout(k, s, a, spec["config"]).views(shm.buf)
            kernel = spec["kernel"]
            if kernel == "cc":
                from .native import NativeFleetBackend as program
            else:
                program = VectorizedFleetBackend
            backend = program(
                spec["mdps"],
                spec["config"],
                num_agents=spec["num_agents"],
                salts=spec["salts"],
            )
            lo, hi = spec["lo"], spec["hi"]
            adopt = spec["adopt"]
            # The *instance* tuple: includes the update rule's extra
            # tables (momentum/target), which must ride in shared memory
            # like every other lane-state array.  The native backend's
            # _rebind_flat_views also re-packs the kernel's table addresses.
            for attr, key in backend._STATE_ARRAYS:
                view = views[key][lo:hi]
                if not adopt:
                    view[...] = getattr(backend, attr)
                setattr(backend, attr, view)
            for key, bank in (
                ("lfsr_start", backend._bank_start),
                ("lfsr_action", backend._bank_action),
                ("lfsr_policy", backend._bank_policy),
            ):
                view = views[key][lo:hi]
                if not adopt:
                    view[...] = bank.states
                bank.states = view
            backend._rebind_flat_views()
        except Exception as exc:  # startup failure: report, don't hang
            conn.send(("error", repr(exc)))
            return
        # Heartbeat slot: bumped as the worker makes progress so the
        # parent can distinguish slow from stuck (see _ShmLayout).
        hb = views["heartbeat"]
        hb[lo] += 1
        beat = _beat_steps(kernel, hi - lo)
        conn.send(("ready", kernel))
        while True:
            msg = conn.recv()
            cmd = msg[0]
            if cmd == "run":
                if spec["debug_fail"]:
                    os._exit(17)  # simulated crash (tests/CI smoke)
                ctx = ctx_from_wire(msg[2]) if len(msg) > 2 else None
                t0 = time.monotonic()
                st = backend.stats
                before = (st.episodes, st.exploits, st.explores)
                # Run in sub-chunks, bumping the heartbeat between them.
                # run(a); run(b) is bit-identical to run(a+b) (the epoch
                # loop above already relies on this), so chunking changes
                # only the watchdog's resolution, never the trajectories.
                n, done = msg[1], 0
                while done < n:
                    chunk = min(beat, n - done)
                    backend.run(chunk)
                    done += chunk
                    hb[lo] += 1
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
        views = None
        try:
            shm.close()
        except BufferError:  # pragma: no cover - views already dropped
            pass


class ShardedFleetBackend:
    """``n_lanes`` learners sharded over ``num_workers`` processes,
    bit-identical per lane to :class:`VectorizedFleetBackend`.

    The parent holds the shared-memory views under the same attribute
    names as the single-process backends (``q``/``qmax``/... shaped
    ``(K, S*A)`` / ``(K, S)``), so checkpoints, per-lane rollback,
    ``q_float_all`` and the :class:`~repro.robustness.checkpoint.BatchLanes`
    adapter all work unchanged and without copying.

    Construction/teardown is explicit: workers and the shared block are
    released by :meth:`close` (also a context manager).  ``epoch`` sets
    the sync-barrier granularity; ``checkpoint_interval`` (in epochs;
    0 disables) bounds how far a crashed shard must replay.
    """

    #: Name this engine attaches under in a telemetry session profile.
    _TELEMETRY_NAME = "sharded"

    #: Rule-free default; construction replaces it with the instance
    #: tuple (base + the configured rule's extra tables).
    _STATE_ARRAYS = VectorizedFleetBackend._BASE_STATE_ARRAYS

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
        checkpoint_interval: int = 1,
        store=None,
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
        if checkpoint_interval < 0:
            raise ValueError("checkpoint_interval must be non-negative")
        if max_worker_restarts < 0:
            raise ValueError("max_worker_restarts must be non-negative")
        if num_workers is None:
            num_workers = max(1, min(k, os.cpu_count() or 1))
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        #: Workers never outnumber lanes (a shard must be non-empty).
        self.num_workers = min(num_workers, k)
        self.epoch = epoch
        self.checkpoint_interval = checkpoint_interval
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

        # Update-rule resolution (same per-instance _STATE_ARRAYS
        # protocol as the vectorized backend: base pairs + the rule's
        # extra tables, so checkpoints/restores/teardown all carry them).
        self._bind_rule(config)
        extra_state: list[tuple[str, str]] = []
        self.momentum = None
        self.target = None
        self._target_count = None
        if self._rule_kind == "momentum":
            extra_state.append(("momentum", "momentum"))
        elif self._rule_kind == "target":
            extra_state.append(("target", "target"))
            extra_state.append(("_target_count", "target_count"))
        self._STATE_ARRAYS = (
            VectorizedFleetBackend._BASE_STATE_ARRAYS + tuple(extra_state)
        )

        # The shared lane-state block, mapped under the standard fleet
        # attribute names so the whole checkpoint surface is inherited.
        self._layout = _ShmLayout(k, self.S, self.A, config)
        self._shm = shared_memory.SharedMemory(create=True, size=self._layout.nbytes)
        self._closed = False
        views = self._layout.views(self._shm.buf)
        self._views = views
        for attr, key in self._STATE_ARRAYS:
            setattr(self, attr, views[key])
        self._bank_start = SimpleNamespace(states=views["lfsr_start"])
        self._bank_action = SimpleNamespace(states=views["lfsr_action"])
        self._bank_policy = SimpleNamespace(states=views["lfsr_policy"])

        # Config scalars the borrowed per-lane serve surface needs
        # (identical derivations to VectorizedFleetBackend.__init__).
        self._egreedy_cut = _I64(egreedy_cut(config.epsilon, config.lfsr_width))
        (self._alpha, _, self._one_minus_alpha, self._alpha_gamma) = config.coefficients()

        # Leak hygiene: close on interpreter exit even if the owner never
        # calls close() (the signal path is opt-in: install_signal_cleanup).
        self._atexit_cb = functools.partial(_atexit_close, weakref.ref(self))
        atexit.register(self._atexit_cb)
        _LIVE_BACKENDS.add(self)

        self.stats = BatchStats(agents=k)
        self._stats_base = {"episodes": 0, "exploits": 0, "explores": 0}
        self._worker_cum = [[0, 0, 0] for _ in range(self.num_workers)]
        #: Recovery bookkeeping (see ``_recover_worker``).
        self.restarts = 0
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
        self.shard_kernel = shard_kernel(config)
        self._procs: list = [None] * self.num_workers
        self._conns: list = [None] * self.num_workers
        try:
            for w in range(self.num_workers):
                self._spawn_worker(w, adopt=False)
            for w in range(self.num_workers):
                self._await_ready(w)
        except BaseException:
            self.close()
            raise

        if store is None:
            from ..robustness.checkpoint import CheckpointStore

            store = CheckpointStore(capacity=4)
        self.store = store
        self._last_ckpt: dict | None = None
        self._epochs_done = 0
        if self.checkpoint_interval:
            self._take_checkpoint()

        from ..telemetry.session import current_session

        session = telemetry if telemetry is not None else current_session()
        #: Session pulsed once per sync epoch for live-metrics export.
        self._session = session
        if session is not None:
            session.attach(self, self._TELEMETRY_NAME)

    # ------------------------------------------------------------------ #
    # Worker lifecycle
    # ------------------------------------------------------------------ #

    def _worker_spec(self, w: int, *, adopt: bool) -> dict:
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
            "salts": self._salts[lo:hi],
            "adopt": adopt,
            "debug_fail": w in self._debug_fail,
            "kernel": self.shard_kernel,
        }

    def _spawn_worker(self, w: int, *, adopt: bool) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_shard_worker_main,
            args=(
                child_conn,
                self._shm.name,
                (self.K, self.S, self.A),
                self._worker_spec(w, adopt=adopt),
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
        hook used by the recovery tests and the CI crash smoke.  The
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
        zero run-samples — the shard's slice is restored to the last
        checkpoint either way).  A worker that is alive but does not
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
            self._epochs_done += 1
            if (
                self.checkpoint_interval
                and self._epochs_done % self.checkpoint_interval == 0
            ):
                self._take_checkpoint()
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
        hb = self._views["heartbeat"]
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

    def _run_epoch(self, n: int) -> None:
        failed: list[int] = []
        sent: list[int] = []
        ctx = self._wire_ctx()
        cmd = ("run", n) if ctx is None else ("run", n, ctx)
        for w in range(self.num_workers):
            if w in self.quarantined_workers:
                continue
            try:
                self._conns[w].send(cmd)
                sent.append(w)
            except (BrokenPipeError, OSError):
                failed.append(w)
        for w in sent:
            try:
                if not self._await_result(w):
                    failed.append(w)  # hung mid-epoch; worker killed
                    continue
                msg = self._conns[w].recv()
                tag, delta = msg[0], msg[1]
            except (EOFError, OSError):
                failed.append(w)
                continue
            if tag != "done":
                failed.append(w)
                continue
            self._adopt_spans(msg)
            cum = self._worker_cum[w]
            cum[0] += delta["episodes"]
            cum[1] += delta["exploits"]
            cum[2] += delta["explores"]
        for w in failed:
            self._recover_worker(w, n)
        self._refresh_stats()

    def _recover_worker(self, w: int, n: int) -> None:
        """Rollback-retry-quarantine for a shard whose worker died.

        Restores the shard's shared-memory slice from the last
        checkpoint, spawns a fresh worker that *adopts* the restored
        state, and replays forward to the fleet's current position
        (including the epoch that just failed) — bit-identical, because
        the engine is deterministic.  A shard that keeps dying is
        restored to the checkpoint and quarantined; the rest of the
        fleet keeps training.
        """
        snap = self._last_ckpt
        if snap is None:
            self._reap_worker(w)
            raise RuntimeError(
                f"shard worker {w} died with checkpointing disabled "
                "(checkpoint_interval=0); cannot replay"
            )
        # samples_per_agent is not yet incremented for the failing epoch.
        replay = self.stats.samples_per_agent + n - snap["samples_per_agent"]
        self._reap_worker(w)
        with self._obs_span("shard.recover", worker=w, replay=replay):
            ctx = self._wire_ctx()
            run_cmd = ("run", replay) if ctx is None else ("run", replay, ctx)
            for _ in range(self.max_worker_restarts):
                self.restarts += 1
                self._restore_shard(w, snap)
                try:
                    self._spawn_worker(w, adopt=True)
                    self._await_ready(w)
                    self._conns[w].send(run_cmd)
                    if not self._await_result(w):
                        self._reap_worker(w)
                        continue
                    msg = self._conns[w].recv()
                    tag, delta = msg[0], msg[1]
                except (RuntimeError, EOFError, OSError, BrokenPipeError):
                    self._reap_worker(w)
                    continue
                if tag != "done":
                    self._reap_worker(w)
                    continue
                self._adopt_spans(msg)
                cum = self._worker_cum[w]
                cum[0] += delta["episodes"]
                cum[1] += delta["exploits"]
                cum[2] += delta["explores"]
                self._obs_event("worker_restarted", worker=w, replay=replay)
                return
            self._restore_shard(w, snap)
            self.quarantined_workers.add(w)
            self._obs_event("worker_quarantined", worker=w)

    def _restore_shard(self, w: int, snap: dict) -> None:
        lo, hi = self._bounds[w], self._bounds[w + 1]
        state = snap["state"]
        for attr, key in self._STATE_ARRAYS:
            getattr(self, attr)[lo:hi] = state[key][lo:hi]
        self._bank_start.states[lo:hi] = state["lfsr"]["start"][lo:hi]
        self._bank_action.states[lo:hi] = state["lfsr"]["action"][lo:hi]
        self._bank_policy.states[lo:hi] = state["lfsr"]["policy"][lo:hi]
        self._worker_cum[w] = list(snap["worker_cum"][w])

    def _refresh_stats(self) -> None:
        st = self.stats
        base = self._stats_base
        st.episodes = base["episodes"] + sum(c[0] for c in self._worker_cum)
        st.exploits = base["exploits"] + sum(c[1] for c in self._worker_cum)
        st.explores = base["explores"] + sum(c[2] for c in self._worker_cum)

    def _take_checkpoint(self) -> None:
        state = self.state_dict()
        self.store.push(("epoch", self._epochs_done), state)
        self._last_ckpt = {
            "state": state,
            "worker_cum": [list(c) for c in self._worker_cum],
            "samples_per_agent": self.stats.samples_per_agent,
        }

    # ------------------------------------------------------------------ #
    # Checkpoint / view surface — the shared-memory arrays sit under the
    # standard attribute names, so the vectorized implementations apply
    # verbatim (and read/write worker state zero-copy).
    # ------------------------------------------------------------------ #

    state_dict = VectorizedFleetBackend.state_dict
    lane_state = VectorizedFleetBackend.lane_state
    load_lane_state = VectorizedFleetBackend.load_lane_state
    _check_loaded = VectorizedFleetBackend._check_loaded
    q_float = VectorizedFleetBackend.q_float
    q_float_all = VectorizedFleetBackend.q_float_all

    # The per-lane serve surface (lane leasing + external transitions)
    # works on the same attribute vocabulary, so it is borrowed too.
    # Contract: only call these while the workers are idle (between
    # sync epochs) — the parent and a running worker must never write
    # the same shard concurrently.
    reset_lane = VectorizedFleetBackend.reset_lane
    apply_transition = VectorizedFleetBackend.apply_transition
    _retire_row = VectorizedFleetBackend._retire_row
    query_action = VectorizedFleetBackend.query_action
    _lane_draw = VectorizedFleetBackend._lane_draw
    _bind_rule = VectorizedFleetBackend._bind_rule

    def _count_external(self, exploited: bool, terminal: bool) -> None:
        """External-transition stat deltas go into the worker-independent
        base so ``_refresh_stats`` (which rebuilds from worker deltas)
        cannot erase them."""
        base = self._stats_base
        if exploited:
            base["exploits"] += 1
        else:
            base["explores"] += 1
        if terminal:
            base["episodes"] += 1
        self._refresh_stats()

    def load_state_dict(self, state: dict) -> None:
        """Restore a fleet checkpoint (from this backend *or* from a
        :class:`VectorizedFleetBackend` — the payloads are identical)."""
        VectorizedFleetBackend.load_state_dict(self, state)
        self._stats_base = {
            "episodes": self.stats.episodes,
            "exploits": self.stats.exploits,
            "explores": self.stats.explores,
        }
        self._worker_cum = [[0, 0, 0] for _ in range(self.num_workers)]
        if self.checkpoint_interval:
            self._take_checkpoint()

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
        for attr, _ in self._STATE_ARRAYS:
            setattr(self, attr, None)
        self._bank_start = self._bank_action = self._bank_policy = None
        self._views = None
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
