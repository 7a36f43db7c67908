"""Native fused fleet kernel: the whole lock-step program in one pass.

:class:`~repro.backends.vectorized.VectorizedFleetBackend` executes one
lock-step sample as ~40 numpy array operations over ~10 temporaries —
every intermediate crosses memory once per step, which BENCH_1/2 showed
is the software ceiling.  This module lowers that exact program (env
step, epsilon-greedy argmax with LFSR draws, and the stage-3 fixed-point
update of every registered :class:`~repro.algorithms.UpdateRule`) into
**one fused pass**, mirroring how the paper's
4-stage pipeline fuses read/bootstrap/update/write-back into a single
hardware traversal:

* the loop nest is interchanged to *lane-outer, step-inner* — legal
  because lanes never interact — so one lane's tables stay cache-hot
  across a whole chunk of steps instead of the fleet's entire state
  being streamed through memory every step;
* the fixed-point arithmetic is integer ``int64`` raw math replicating
  :mod:`repro.fixedpoint.ops` bit for bit (wide accumulate, one
  ``rshift_round`` in either rounding mode, one saturate/wrap clamp);
* which stage-3/stage-4 arithmetic runs is chosen by the rule's
  ``kind`` (one C tag per entry of :data:`~repro.algorithms.RULE_KINDS`,
  which is every kind a rule can register with).

The kernel is one C source, compiled with the system compiler (``$CC``,
else ``cc``/``gcc``/``clang``) and called through :mod:`ctypes` — no
third-party packages.  As synthesis fixes the paper's generic template,
each build fixes the datapath: the config's switches (:data:`_SWITCHES`:
rule kind, Qmax rule, policy pair, on-policy forwarding, per-lane worlds,
overflow and rounding mode) and the LFSR decimation are ``-D`` constants,
so the kernel tests none of them per sample.  There is no generic build.
Each switch tuple compiles once (~0.15 s) into a shared object cached
under ``$TMPDIR/qtaccel-native-<uid>/`` by the hash of the source, the
compiler's path, its flags and the switches, and is loaded once per
process; a later construction of a config reuses the loaded kernel
without hashing, file-system work or compiling.  Without a compiler,
construction raises :class:`NativeBackendUnavailableError`; the
vectorized backend runs the same program everywhere.

The stage-2/3/4 retire body (update-policy draw, wide accumulate, one
round and clamp, write-back with the Qmax rule, rule tables, lag latches,
episode count) is written once, as a ``static inline`` C function with two
callers: the fused ``run()`` loop, which feeds it the environment's
samples, and the serve lane op :meth:`NativeFleetBackend.apply_transition`,
which feeds it a client's batch of ``(s, a, r, s')`` rows in one call.

Everything else — storage layout, checkpointing, ``reset_lane`` and
``query_action``, lane state, q_float views — is inherited unchanged from
the vectorized backend: the kernel mutates the very same arrays in place,
so mixing fused calls with the inherited per-step surfaces stays
bit-identical.  A sharded fleet runs this class both in its workers and
in its parent, each built on shared-memory rows, whenever the kernel
builds.
"""

from __future__ import annotations

import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from typing import Sequence

import numpy as np

from ..core.config import QTAccelConfig
from ..envs.base import DenseMdp
from ..rtl.rng import DECIMATION
from .base import lane_transitions
from .vectorized import VectorizedFleetBackend

_I64 = np.int64

#: Qmax-rule dispatch tags inside the fused kernel.
_QMAX_MODES = {"exact": 0, "monotonic": 1, "follow": 2}

#: Update-rule dispatch tags inside the fused kernel, one per rule kind.
_RULE_KINDS = {"plain": 0, "momentum": 1, "target": 2}


class NativeBackendUnavailableError(ImportError):
    """No C compiler is available to build the fused kernel.

    Raised by :class:`NativeFleetBackend` (and therefore by
    ``make_engine(engine="native")``) instead of a bare
    :class:`ImportError`.
    """


def _find_compiler() -> str | None:
    """The C compiler that builds the kernel, as a resolved path, or None
    (looked up once per ``$CC``/``$PATH`` pair, so a construction does no
    file-system work)."""
    return _which_compiler(os.environ.get("CC"), os.environ.get("PATH"))


@functools.lru_cache(maxsize=8)
def _which_compiler(cc: str | None, path: str | None) -> str | None:
    found = shutil.which(cc, path=path) if cc else None
    if found:
        return found
    for name in ("cc", "gcc", "clang"):
        found = shutil.which(name, path=path)
        if found:
            return found
    return None


_NO_COMPILER = (
    "no C compiler (cc/gcc/clang, or $CC) was found to build the fused "
    "kernel; the vectorized backend runs the same program without one"
)


def native_available() -> tuple[bool, str]:
    """Whether the fused kernel can be built here, with a human detail."""
    compiler = _find_compiler()
    if compiler is None:
        return False, _NO_COMPILER
    return True, f"C compiler {compiler}"


# ---------------------------------------------------------------------- #
# The fused kernel, compiled once per datapath configuration
# ---------------------------------------------------------------------- #

#: Fields of the kernel context ``qt_ctx``, in order: table addresses,
#: then numeric constants.  Python packs one int64 per field into an
#: array the backend keeps; the C struct below is generated from these
#: names.  ``capture`` is the only address that may be null (see
#: :meth:`NativeFleetBackend.set_capture`).
_CTX_POINTERS = (
    "q", "qmax", "qmax_action", "momentum", "target", "target_count",
    "arch_state", "forwarded", "prev_pair", "prev_state", "prev_q",
    "prev_qmax", "prev_qmax_action", "s_start", "s_action", "s_policy",
    "leap", "nxt", "rew", "term", "starts", "counts", "capture",
)
_CTX_SCALARS = (
    "K", "S", "A", "n_starts", "egreedy_cut", "one_minus_alpha", "alpha",
    "alpha_gamma", "beta", "tau", "one_minus_tau", "shift", "raw_min",
    "raw_max", "span", "signed_fmt", "sync_period",
)

#: The datapath switches, fixed per build the way synthesis fixes the
#: FPGA template: each is compiled in as the constant ``QT_<NAME>``, so
#: the kernel tests none of them per sample.  One build per tuple.
_SWITCHES = (
    "rule_kind", "qmax_mode", "update_greedy", "behavior_random",
    "on_policy", "het", "saturate", "nearest",
)


def _switches(config: QTAccelConfig, *, het: bool) -> tuple[int, ...]:
    """The :data:`_SWITCHES` tuple (the build key) of a fleet running
    ``config``; ``het``: per-lane environment tables."""
    qf = config.q_format
    return (
        _RULE_KINDS[config.rule.kind],
        _QMAX_MODES[config.qmax_mode],
        int(config.update_policy == "greedy"),
        int(config.behavior_policy == "random"),
        int(config.is_on_policy),
        int(het),
        int(qf.overflow == "saturate"),
        int(qf.rounding == "nearest"),
    )


_C_SOURCE = r"""
/* qtaccel fused fleet kernel -- the one executable definition of the
 * stage-2/3/4 retire body, shared by the fused lock-step program and the
 * batched lane op.  Bit-identity with the vectorized numpy program and
 * the functional simulator is asserted by the test suite; arithmetic
 * right shift on negative int64_t (gcc/clang behaviour) is assumed.
 * The datapath switches QT_RULE_KIND, QT_QMAX_MODE, QT_UPDATE_GREEDY,
 * QT_BEHAVIOR_RANDOM, QT_ON_POLICY, QT_HET, QT_SATURATE and QT_NEAREST,
 * and the LFSR decimation QT_DEC, are -D constants of the build. */
#include <stdint.h>
#include <string.h>

typedef struct {
@CTX_FIELDS@
} qt_ctx;

/* One lane's latches, held in registers across a run of retires. */
typedef struct {
    int64_t st, fw, sp, p_pair, p_state, p_q, p_qm, p_qa, tc;
} qt_lane;

static inline int64_t qt_draw(const qt_ctx *c, int64_t s)
{
    return (s >> QT_DEC) ^ c->leap[s & (((int64_t)1 << QT_DEC) - 1)];
}

static inline int64_t qt_reduce(int64_t u, int64_t m)
{
    return ((m & (m - 1)) == 0) ? (u & (m - 1)) : (u % m);
}

static inline qt_lane qt_lane_load(const qt_ctx *c, int64_t k)
{
    qt_lane L;
    L.st = c->arch_state[k];
    L.fw = c->forwarded[k];
    L.sp = c->s_policy[k];
    L.p_pair = c->prev_pair[k];
    L.p_state = c->prev_state[k];
    L.p_q = c->prev_q[k];
    L.p_qm = c->prev_qmax[k];
    L.p_qa = c->prev_qmax_action[k];
    L.tc = (QT_RULE_KIND == 2) ? c->target_count[k] : 0;
    return L;
}

static inline void qt_lane_store(const qt_ctx *c, int64_t k, const qt_lane *L)
{
    c->arch_state[k] = L->st;
    c->forwarded[k] = L->fw;
    c->s_policy[k] = L->sp;
    c->prev_pair[k] = L->p_pair;
    c->prev_state[k] = L->p_state;
    c->prev_q[k] = L->p_q;
    c->prev_qmax[k] = L->p_qm;
    c->prev_qmax_action[k] = L->p_qa;
    if (QT_RULE_KIND == 2) c->target_count[k] = L->tc;
}

/* Copy lane k's rows of every lane-state field into a shadow copy.  cap
 * holds a field count, then (source, destination, row width) per field;
 * both addresses index lane 0 of the field. */
static void qt_capture(const int64_t *cap, int64_t k)
{
    for (int64_t f = 0; f < cap[0]; f++) {
        const int64_t *e = cap + 1 + 3 * f;
        const int64_t w = e[2];
        memcpy((int64_t *)(intptr_t)e[1] + k * w,
               (const int64_t *)(intptr_t)e[0] + k * w,
               (size_t)w * sizeof(int64_t));
    }
}

/* One rounding shift and one overflow clamp of a wide accumulator. */
static inline int64_t qt_round_clamp(const qt_ctx *c, int64_t acc)
{
    const int64_t shift = c->shift;
    int64_t v;
    if (shift == 0) {
        v = acc;
    } else if (QT_NEAREST) {
        const int64_t half = (int64_t)1 << (shift - 1);
        v = (acc >= 0) ? ((acc + half) >> shift) : -((-acc + half) >> shift);
    } else {
        v = acc >> shift;
    }
    if (QT_SATURATE) {
        if (v < c->raw_min) v = c->raw_min;
        else if (v > c->raw_max) v = c->raw_max;
    } else {
        v &= c->span - 1;
        if (c->signed_fmt && v > c->raw_max) v -= c->span;
    }
    return v;
}

/* Stages 2-4 of one sample (state, action, raw reward r, s_next) on lane
 * k.  counts: exploits, explores, episodes.  Returns the written Q. */
static inline int64_t qt_retire(const qt_ctx *c, qt_lane *L, int64_t k,
                                int64_t state, int64_t action, int64_t r,
                                int64_t s_next, int terminal, int64_t *counts)
{
    const int64_t A = c->A, SA = c->S * A;
    const int64_t sa_base = k * SA, s_base = k * c->S;
    int64_t *q = c->q, *qmax = c->qmax, *qmax_action = c->qmax_action;
    const int64_t pair = state * A + action;
    const int64_t isa = sa_base + pair;
    const int64_t q_sa = q[isa];

    /* stage 2: update policy */
    const int64_t ins = s_base + s_next;
    int64_t a_next, q_next;
    if (QT_UPDATE_GREEDY) {
        a_next = qmax_action[ins];
        q_next = (QT_RULE_KIND == 2) ? c->target[sa_base + s_next * A + a_next]
                                     : qmax[ins];
        counts[0]++;
    } else {
        L->sp = qt_draw(c, L->sp);
        if (L->sp < c->egreedy_cut) {
            a_next = qmax_action[ins];
            q_next = qmax[ins];
            counts[0]++;
        } else {
            a_next = qt_reduce(L->sp, A);
            q_next = q[sa_base + s_next * A + a_next];
            counts[1]++;
        }
    }
    if (terminal)
        q_next = 0;

    /* stage 3: wide accumulate, one round, one clamp */
    int64_t acc = c->one_minus_alpha * q_sa + c->alpha * r + c->alpha_gamma * q_next;
    if (QT_RULE_KIND == 1)
        acc += c->beta * (q_sa - c->momentum[isa]);
    const int64_t q_new = qt_round_clamp(c, acc);

    /* stage 4: write-back + Qmax rule */
    const int64_t ist = s_base + state;
    const int64_t cur_val = qmax[ist];
    const int64_t cur_act = qmax_action[ist];
    q[isa] = q_new;
    if (QT_QMAX_MODE == 0) { /* exact: first-max row scan */
        const int64_t row = sa_base + state * A;
        int64_t best = 0, best_val = q[row];
        for (int64_t a = 1; a < A; a++) {
            if (q[row + a] > best_val) {
                best_val = q[row + a];
                best = a;
            }
        }
        qmax[ist] = best_val;
        qmax_action[ist] = best;
    } else {
        int upd = q_new > cur_val;
        if (QT_QMAX_MODE == 2 && action == cur_act) upd = 1;
        if (upd) {
            qmax[ist] = q_new;
            qmax_action[ist] = action;
        }
    }

    if (QT_RULE_KIND == 1) {
        c->momentum[isa] = q_sa;
    } else if (QT_RULE_KIND == 2) {
        c->target[isa] = qt_round_clamp(
            c, c->one_minus_tau * c->target[isa] + c->tau * q_new);
        L->tc++;
        if (c->sync_period > 0 && L->tc >= c->sync_period) {
            for (int64_t i = 0; i < SA; i++)
                c->target[sa_base + i] = q[sa_base + i];
            L->tc = 0;
        }
    }

    /* lag latches + episode bookkeeping */
    L->p_pair = pair;
    L->p_state = state;
    L->p_q = q_sa;
    L->p_qm = cur_val;
    L->p_qa = cur_act;
    if (terminal) {
        counts[2]++;
        L->st = -1;
        if (QT_ON_POLICY) L->fw = -1;
    } else {
        L->st = s_next;
        if (QT_ON_POLICY) L->fw = a_next;
    }
    return q_new;
}

/* The fused lock-step program: n_steps environment samples on every lane
 * (lane-outer, step-inner).  Stage 1 draws the state and behaviour
 * action; the environment tables supply r and s'.  With a capture table
 * set, each lane's finished rows are copied out while still in cache. */
void qtaccel_fleet_steps(const qt_ctx *ctx, int64_t n_steps)
{
    const qt_ctx cv = *ctx; /* a private copy: table stores cannot alias it */
    const qt_ctx *c = &cv;
    const int64_t A = c->A, S = c->S, n_starts = c->n_starts;
    int64_t counts[3] = {0, 0, 0};
    for (int64_t k = 0; k < c->K; k++) {
        const int64_t e_sa = QT_HET ? k * S * A : 0;
        const int64_t e_s = QT_HET ? k * S : 0;
        const int64_t e_start = QT_HET ? k * n_starts : 0;
        qt_lane L = qt_lane_load(c, k);
        int64_t ss = c->s_start[k];
        int64_t sa_rng = c->s_action[k];
        for (int64_t n = 0; n < n_steps; n++) {
            /* stage 1: state + behaviour action */
            const int restart = L.st < 0;
            int64_t state, action;
            if (restart) {
                ss = qt_draw(c, ss);
                state = c->starts[e_start + qt_reduce(ss, n_starts)];
            } else {
                state = L.st;
            }
            if (QT_BEHAVIOR_RANDOM) {
                sa_rng = qt_draw(c, sa_rng);
                action = qt_reduce(sa_rng, A);
            } else if (restart || !QT_ON_POLICY) {
                /* e-greedy: a fresh draw against the lagged table view,
                 * at restarts only when on-policy (SARSA holds the
                 * forwarded action) and on every sample off-policy */
                L.sp = qt_draw(c, L.sp);
                if (L.sp < c->egreedy_cut) {
                    action = (state == L.p_state) ? L.p_qa
                                                  : c->qmax_action[k * S + state];
                } else {
                    action = qt_reduce(L.sp, A);
                }
            } else {
                action = L.fw;
            }

            /* environment tables */
            const int64_t pair = state * A + action;
            const int64_t s_next = c->nxt[e_sa + pair];
            qt_retire(c, &L, k, state, action, c->rew[e_sa + pair], s_next,
                      c->term[e_s + s_next] != 0, counts);
        }
        qt_lane_store(c, k, &L);
        c->s_start[k] = ss;
        c->s_action[k] = sa_rng;
        if (c->capture)
            qt_capture(c->capture, k);
    }
    c->counts[0] = counts[0];
    c->counts[1] = counts[1];
    c->counts[2] = counts[2];
}

/* The batched lane op: n external transitions on lane k, in order.
 * cols is 5 x n: state, next_state, action, terminal and raw reward
 * columns -- validated by the caller.  Returns the last written Q. */
int64_t qtaccel_lane_transitions(const qt_ctx *ctx, int64_t k, int64_t n,
                                 const int64_t *cols)
{
    const qt_ctx cv = *ctx;
    const qt_ctx *c = &cv;
    const int64_t *s = cols, *ns = cols + n, *a = cols + 2 * n;
    const int64_t *t = cols + 3 * n, *r = cols + 4 * n;
    int64_t counts[3] = {0, 0, 0};
    int64_t q_new = 0;
    qt_lane L = qt_lane_load(c, k);
    for (int64_t i = 0; i < n; i++)
        q_new = qt_retire(c, &L, k, s[i], a[i], r[i], ns[i], t[i] != 0, counts);
    qt_lane_store(c, k, &L);
    c->counts[0] = counts[0];
    c->counts[1] = counts[1];
    c->counts[2] = counts[2];
    return q_new;
}
""".replace(
    "@CTX_FIELDS@",
    "\n".join(
        [f"    int64_t *{name};" for name in _CTX_POINTERS]
        + [f"    int64_t {name};" for name in _CTX_SCALARS]
    ),
)

#: Flags of every kernel build besides the ``-D`` switches.
_CFLAGS = ("-O3", "-shared", "-fPIC")

#: Loaded kernels, one per compiler and switch tuple:
#: ``(fleet_steps, lane_transitions)``.
_KERNELS: dict[tuple[str, tuple[int, ...]], tuple] = {}
#: Serialises first-use builds and loads within this process.
_BUILD_LOCK = threading.Lock()


def _build_library(compiler: str, switches: tuple[int, ...]) -> str:
    """Compile the C kernel for one switch tuple into a shared object
    cached on the source, the compiler's path, its flags and the
    switches (a sanitizing ``$CC`` wrapper, gcc and clang never share an
    object); returns its path.

    Sources and objects are written under per-process names and the
    object is renamed into place, so concurrent builders of one variant
    never read each other's half-written files."""
    defines = [f"-DQT_{name.upper()}={v}" for name, v in zip(_SWITCHES, switches)]
    defines.append(f"-DQT_DEC={DECIMATION}")
    key = "\n".join([_C_SOURCE, compiler, *_CFLAGS, *defines])
    digest = hashlib.sha1(key.encode()).hexdigest()[:16]
    cache_dir = os.path.join(
        tempfile.gettempdir(), f"qtaccel-native-{os.getuid()}"
    )
    os.makedirs(cache_dir, exist_ok=True)
    lib_path = os.path.join(cache_dir, f"qtaccel_fleet_{digest}.so")
    if not os.path.exists(lib_path):
        stem = os.path.join(cache_dir, f"qtaccel_fleet_{digest}.tmp{os.getpid()}")
        src_path, tmp_path = stem + ".c", stem + ".so"
        with open(src_path, "w") as fh:
            fh.write(_C_SOURCE)
        try:
            subprocess.run(
                [compiler, *_CFLAGS, *defines, "-o", tmp_path, src_path],
                check=True,
                capture_output=True,
                text=True,
            )
        except subprocess.CalledProcessError as exc:
            raise NativeBackendUnavailableError(
                f"fused kernel compile failed with {compiler}:\n{exc.stderr}"
            ) from exc
        finally:
            os.unlink(src_path)
        os.replace(tmp_path, lib_path)  # atomic vs concurrent builders
    return lib_path


def _get_kernel(switches: tuple[int, ...]):
    """The kernel's two entry points for one :data:`_SWITCHES` tuple,
    ``(fleet_steps, lane_transitions)``, as typed ctypes functions (built
    and loaded once per process); raises
    :class:`NativeBackendUnavailableError` without a C compiler."""
    compiler = _find_compiler()
    if compiler is None:
        raise NativeBackendUnavailableError(f"NativeFleetBackend: {_NO_COMPILER}")
    key = (compiler, switches)
    kernel = _KERNELS.get(key)
    if kernel is not None:
        return kernel
    import ctypes

    if ctypes.sizeof(ctypes.c_void_p) != 8:
        raise NativeBackendUnavailableError(
            "NativeFleetBackend: the kernel context packs addresses "
            "into int64 and needs a 64-bit platform"
        )
    with _BUILD_LOCK:
        if key not in _KERNELS:
            lib = ctypes.CDLL(_build_library(compiler, switches))
            steps = lib.qtaccel_fleet_steps
            steps.argtypes = (ctypes.c_void_p, ctypes.c_int64)
            steps.restype = None
            lane = lib.qtaccel_lane_transitions
            lane.argtypes = (ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p)
            lane.restype = ctypes.c_int64
            _KERNELS[key] = (steps, lane)
    return _KERNELS[key]


class NativeFleetBackend(VectorizedFleetBackend):
    """The vectorized fleet's lock-step program, fused into one
    compiled pass per chunk of steps (lane-outer, step-inner).

    Construction raises :class:`NativeBackendUnavailableError` when no
    C compiler exists.  ``run()`` and
    ``apply_transition`` are the kernel's two entry points; every
    inherited surface — checkpoints, ``reset_lane``, ``query_action``,
    ``q_float`` — operates on the same arrays the kernel mutates, so
    mixing them with kernel calls is bit-safe.  The kernel context packs
    those arrays' addresses once, at construction: a program never moves
    to other storage.
    """

    _TELEMETRY_NAME = "native"

    #: How the kernel was built, reported as ``telemetry_snapshot()
    #: ["kernel"]`` and in perf records (the C kernel: always ``"cc"``).
    kernel_tier = "cc"

    #: Steps fused per kernel invocation when a telemetry session is
    #: attached (the session is pulsed between chunks; without a session
    #: the whole run is one invocation).
    PULSE_CHUNK = 256

    #: Rows of the preallocated lane-op buffer (larger batches allocate).
    LANE_ROWS = 4096

    def __init__(
        self,
        mdps: "DenseMdp | Sequence[DenseMdp]",
        config: QTAccelConfig,
        *,
        num_agents: int | None = None,
        salts: Sequence[int] | None = None,
        telemetry=None,
        storage: dict | None = None,
    ):
        super().__init__(
            mdps, config, num_agents=num_agents, salts=salts, telemetry=telemetry,
            storage=storage,
        )
        self._steps_fn, self._lane_fn = _get_kernel(
            _switches(config, het=self._env_sa_off is not None)
        )

        # Kernel-side constants and buffers.  The terminal flags become
        # an int64 copy once (env tables are immutable after build).
        self._counts = np.zeros(3, dtype=_I64)
        self._dummy_i64 = np.zeros(1, dtype=_I64)
        self._leap = self._bank_start._leap_table_np(DECIMATION)
        self._terminal_i64 = self._terminal_flat.astype(_I64)
        self._lane_rows = np.empty(5 * self.LANE_ROWS, dtype=_I64)
        self._capture = None
        coefs = self._rule_coefs
        qf = config.q_format
        self._consts = {
            "K": self.K,
            "S": self.S,
            "A": self.A,
            "n_starts": self._n_starts,
            "egreedy_cut": int(self._egreedy_cut),
            "one_minus_alpha": int(self._one_minus_alpha),
            "alpha": int(self._alpha),
            "alpha_gamma": int(self._alpha_gamma),
            "beta": int(coefs.beta),
            "tau": int(coefs.tau),
            "one_minus_tau": int(coefs.one_minus_tau),
            "shift": int(config.coef_format.frac),
            "raw_min": int(qf.raw_min),
            "raw_max": int(qf.raw_max),
            "span": 1 << qf.wordlen,
            "signed_fmt": int(qf.signed),
            "sync_period": int(config.target_sync_period or 0),
        }
        self._bind_context()

    def _bind_context(self) -> None:
        """Pack the table addresses and constants into the ``qt_ctx``
        array both kernel entry points read, so a call marshals three
        integers instead of ~50 arguments."""
        tables = {
            "q": self._q_flat,
            "qmax": self._qmax_flat,
            "qmax_action": self._qmax_action_flat,
            "momentum": self._momentum_flat if self.momentum is not None else self._dummy_i64,
            "target": self._target_flat if self.target is not None else self._dummy_i64,
            "target_count": (
                self._target_count if self._target_count is not None else self._dummy_i64
            ),
            "arch_state": self._arch_state,
            "forwarded": self._forwarded,
            "prev_pair": self._prev_pair,
            "prev_state": self._prev_state,
            "prev_q": self._prev_q,
            "prev_qmax": self._prev_qmax,
            "prev_qmax_action": self._prev_qmax_action,
            "s_start": self._bank_start.states,
            "s_action": self._bank_action.states,
            "s_policy": self._bank_policy.states,
            "leap": self._leap,
            "nxt": self._next_flat,
            "rew": self._rewards_flat,
            "term": self._terminal_i64,
            "starts": self._starts_flat,
            "counts": self._counts,
        }
        for name, arr in tables.items():
            if arr.dtype != _I64 or not arr.flags.c_contiguous:
                raise TypeError(f"kernel table {name!r} must be contiguous int64")
        tables["capture"] = self._capture
        self._ctx = np.array(
            [0 if tables[name] is None else tables[name].ctypes.data for name in _CTX_POINTERS]
            + [self._consts[name] for name in _CTX_SCALARS],
            dtype=_I64,
        )
        self._ctx_addr = self._ctx.ctypes.data
        self._lane_rows_addr = self._lane_rows.ctypes.data

    def set_capture(self, table: np.ndarray | None) -> None:
        """Make every later ``run()`` kernel pass copy each lane's finished
        rows into a shadow copy, or stop doing so (``None``, the default).

        ``table`` is an int64 array: a field count, then one ``(source
        address, destination address, row width)`` triple per field, with
        the sources this backend's own lane-state arrays.  The sharded
        fleet's workers set it for the last kernel call of an epoch; the
        lane op never captures.  The caller keeps ``table`` and its
        destinations alive while it is set."""
        self._capture = table
        self._ctx[_CTX_POINTERS.index("capture")] = 0 if table is None else table.ctypes.data

    def telemetry_snapshot(self) -> dict:
        snap = super().telemetry_snapshot()
        snap["kernel"] = self.kernel_tier
        return snap

    def _add_counts(self) -> None:
        """Fold the last kernel call's exploit/explore/episode counts
        into the fleet stats."""
        exploits, explores, episodes = self._counts.tolist()
        stats = self.stats
        stats.exploits += exploits
        stats.explores += explores
        stats.episodes += episodes

    def _invoke(self, n_steps: int) -> None:
        """One fused kernel pass of ``n_steps`` per lane."""
        self._steps_fn(self._ctx_addr, n_steps)
        self._add_counts()

    def apply_transition(
        self,
        k: int,
        state,
        action,
        reward,
        next_state,
        terminal=False,
    ) -> int:
        """Apply external ``(s, a, r, s')`` transitions to lane ``k`` in
        one kernel call.

        Takes scalars or equal-length 1-D columns (validated and quantised
        by :func:`~repro.backends.base.lane_transitions`, which raises
        :class:`ValueError` before any row is applied) and retires the rows
        in order through the same retire body as the fused ``run()`` —
        bit-identical to the vectorized per-row loop.  Returns the raw Q
        value the last row wrote (0 for an empty batch).
        """
        rows = lane_transitions(
            self, k, state, action, reward, next_state, terminal, out=self._lane_rows
        )
        addr = self._lane_rows_addr if rows.base is self._lane_rows else rows.ctypes.data
        q_new = self._lane_fn(self._ctx_addr, int(k), rows.shape[1], addr)
        self._add_counts()
        return q_new

    def step(self) -> None:
        if self.guard is not None:
            # The divergence guard observes every update vector, which
            # only the per-step numpy program produces; state is shared,
            # so falling back keeps the trajectory bit-identical.
            super().step()
            return
        self._invoke(1)

    def run(self, samples_per_agent: int):
        """Advance every lane by ``samples_per_agent`` fused updates."""
        if samples_per_agent < 0:
            raise ValueError("samples_per_agent must be non-negative")
        if self.guard is not None:
            return super().run(samples_per_agent)
        session = self._session
        if session is None:
            if samples_per_agent:
                self._invoke(samples_per_agent)
        else:
            remaining = samples_per_agent
            while remaining > 0:
                chunk = min(remaining, self.PULSE_CHUNK)
                self._invoke(chunk)
                session.pulse()
                remaining -= chunk
        self.stats.samples_per_agent += samples_per_agent
        return self.stats
