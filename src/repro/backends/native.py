"""Native fused fleet kernel: the whole lock-step program in one pass.

:class:`~repro.backends.vectorized.VectorizedFleetBackend` executes one
lock-step sample as ~40 numpy array operations over ~10 temporaries —
every intermediate crosses memory once per step, which BENCH_1/2 showed
is the software ceiling.  This module lowers that exact program (env
step, epsilon-greedy argmax with LFSR draws, and the stage-3 fixed-point
update of every registered :class:`~repro.algorithms.UpdateRule` with a
compiled lowering) into **one fused pass**, mirroring how the paper's
4-stage pipeline fuses read/bootstrap/update/write-back into a single
hardware traversal:

* the loop nest is interchanged to *lane-outer, step-inner* — legal
  because lanes never interact — so one lane's tables stay cache-hot
  across a whole chunk of steps instead of the fleet's entire state
  being streamed through memory every step;
* the fixed-point arithmetic is integer ``int64`` raw math replicating
  :mod:`repro.fixedpoint.ops` bit for bit (wide accumulate, one
  ``rshift_round`` in either rounding mode, one saturate/wrap clamp);
* which stage-3/stage-4 arithmetic a rule needs is taken from its
  :class:`~repro.algorithms.RuleKernel` lowering descriptor — rules
  without a compiled lowering are rejected with a typed
  :class:`~repro.algorithms.UnsupportedRuleError` at construction.

The kernel is one C source, compiled on first use with the system
compiler (``$CC``, else ``cc``/``gcc``/``clang``) into a source-hash-cached
shared object and called through :mod:`ctypes` — no third-party packages.
Without a compiler, construction raises :class:`NativeBackendUnavailableError`;
the vectorized backend runs the same program everywhere.

Everything else — storage layout, checkpointing, the serve-facing
``reset_lane``/``apply_transition``/``query_action`` lane ops, lane
state, q_float views — is inherited unchanged from the vectorized
backend: the kernel mutates the very same arrays in place, so mixing
fused ``run()`` calls with the inherited per-step surfaces stays
bit-identical.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile
from typing import Sequence

import numpy as np

from ..core.config import QTAccelConfig
from ..envs.base import DenseMdp
from ..rtl.rng import DECIMATION
from .vectorized import VectorizedFleetBackend

_I64 = np.int64

#: Qmax-rule dispatch tags inside the fused kernel.
_QMAX_MODES = {"exact": 0, "monotonic": 1, "follow": 2}

#: RuleKernel.kernel_id values this kernel lowers, and the rule *kind*
#: whose extra-table allocation each id assumes.
_KERNEL_ID_KINDS = {0: ("plain",), 1: ("momentum",), 2: ("target",)}


class NativeBackendUnavailableError(ImportError):
    """No C compiler is available to build the fused kernel.

    Raised by :class:`NativeFleetBackend` (and therefore by
    ``make_engine(engine="native")`` and
    ``make_fleet_backend(backend="native")``) instead of a bare
    :class:`ImportError`.
    """


def _find_compiler() -> str | None:
    """The C compiler that builds the kernel, or None."""
    cc = os.environ.get("CC")
    if cc and shutil.which(cc):
        return cc
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
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
# The fused kernel, compiled once per source hash
# ---------------------------------------------------------------------- #

_C_SOURCE = r"""
/* qtaccel fused fleet kernel -- the one executable definition of the
 * fused lock-step program.  Bit-identity with the vectorized numpy
 * program is asserted by the test suite; arithmetic right shift on
 * negative int64_t (gcc/clang behaviour) is assumed. */
#include <stdint.h>

void qtaccel_fleet_steps(
    int64_t n_steps, int64_t K, int64_t S, int64_t A, int64_t n_starts,
    int64_t *q, int64_t *qmax, int64_t *qmax_action,
    int64_t *momentum, int64_t *target, int64_t *target_count,
    int64_t *arch_state, int64_t *forwarded,
    int64_t *prev_pair, int64_t *prev_state, int64_t *prev_q,
    int64_t *prev_qmax, int64_t *prev_qmax_action,
    int64_t *s_start, int64_t *s_action, int64_t *s_policy,
    int64_t *leap, int64_t dec, int64_t dec_mask,
    int64_t *nxt, int64_t *rew, int64_t *term, int64_t *starts,
    int64_t het,
    int64_t egreedy_cut, int64_t behavior_random, int64_t update_greedy,
    int64_t on_policy, int64_t rule_kind, int64_t qmax_mode,
    int64_t one_minus_alpha, int64_t alpha, int64_t alpha_gamma,
    int64_t beta, int64_t tau, int64_t one_minus_tau,
    int64_t shift, int64_t nearest, int64_t saturate,
    int64_t raw_min, int64_t raw_max, int64_t span, int64_t signed_fmt,
    int64_t sync_period, int64_t *counts)
{
    const int64_t SA = S * A;
    const int a_pow2 = (A & (A - 1)) == 0;
    const int st_pow2 = (n_starts & (n_starts - 1)) == 0;
    int64_t ex_total = 0, er_total = 0, ep_total = 0;
    for (int64_t k = 0; k < K; k++) {
        const int64_t sa_base = k * SA;
        const int64_t s_base = k * S;
        const int64_t e_sa = het ? k * SA : 0;
        const int64_t e_s = het ? k * S : 0;
        const int64_t e_start = het ? k * n_starts : 0;
        int64_t st = arch_state[k];
        int64_t fw = forwarded[k];
        int64_t ss = s_start[k];
        int64_t sa_rng = s_action[k];
        int64_t sp = s_policy[k];
        int64_t p_state = prev_state[k];
        int64_t p_qa = prev_qmax_action[k];
        int64_t tc = (rule_kind == 2) ? target_count[k] : 0;
        int64_t p_pair = prev_pair[k];
        int64_t p_q = prev_q[k];
        int64_t p_qm = prev_qmax[k];
        for (int64_t n = 0; n < n_steps; n++) {
            /* stage 1: state + behaviour action */
            const int restart = st < 0;
            int64_t state, action;
            if (restart) {
                ss = (ss >> dec) ^ leap[ss & dec_mask];
                int64_t idx = st_pow2 ? (ss & (n_starts - 1)) : (ss % n_starts);
                state = starts[e_start + idx];
            } else {
                state = st;
            }
            if (behavior_random) {
                sa_rng = (sa_rng >> dec) ^ leap[sa_rng & dec_mask];
                action = a_pow2 ? (sa_rng & (A - 1)) : (sa_rng % A);
            } else if (restart) {
                sp = (sp >> dec) ^ leap[sp & dec_mask];
                if (sp < egreedy_cut) {
                    action = (state == p_state) ? p_qa
                                                : qmax_action[s_base + state];
                } else {
                    action = a_pow2 ? (sp & (A - 1)) : (sp % A);
                }
            } else {
                action = fw;
            }

            /* environment tables */
            const int64_t pair = state * A + action;
            const int64_t s_next = nxt[e_sa + pair];
            const int64_t r = rew[e_sa + pair];
            const int terminal = term[e_s + s_next] != 0;
            const int64_t isa = sa_base + pair;
            const int64_t q_sa = q[isa];

            /* stage 2: update policy */
            const int64_t ins = s_base + s_next;
            int64_t a_next, q_next;
            if (update_greedy) {
                a_next = qmax_action[ins];
                q_next = (rule_kind == 2)
                             ? target[sa_base + s_next * A + a_next]
                             : qmax[ins];
                ex_total++;
            } else {
                sp = (sp >> dec) ^ leap[sp & dec_mask];
                if (sp < egreedy_cut) {
                    a_next = qmax_action[ins];
                    q_next = qmax[ins];
                    ex_total++;
                } else {
                    a_next = a_pow2 ? (sp & (A - 1)) : (sp % A);
                    q_next = q[sa_base + s_next * A + a_next];
                    er_total++;
                }
            }
            if (terminal)
                q_next = 0;

            /* stage 3: wide accumulate, one round, one clamp */
            int64_t acc = one_minus_alpha * q_sa + alpha * r
                          + alpha_gamma * q_next;
            if (rule_kind == 1)
                acc += beta * (q_sa - momentum[isa]);
            int64_t q_new;
            if (shift == 0) {
                q_new = acc;
            } else if (nearest) {
                const int64_t half = (int64_t)1 << (shift - 1);
                q_new = (acc >= 0) ? ((acc + half) >> shift)
                                   : -((-acc + half) >> shift);
            } else {
                q_new = acc >> shift;
            }
            if (saturate) {
                if (q_new < raw_min) q_new = raw_min;
                else if (q_new > raw_max) q_new = raw_max;
            } else {
                q_new &= span - 1;
                if (signed_fmt && q_new > raw_max) q_new -= span;
            }

            /* stage 4: write-back + Qmax rule */
            const int64_t ist = s_base + state;
            const int64_t cur_val = qmax[ist];
            const int64_t cur_act = qmax_action[ist];
            q[isa] = q_new;
            if (qmax_mode == 0) { /* exact: first-max row scan */
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
                if (qmax_mode == 2 && action == cur_act) upd = 1;
                if (upd) {
                    qmax[ist] = q_new;
                    qmax_action[ist] = action;
                }
            }

            if (rule_kind == 1) {
                momentum[isa] = q_sa;
            } else if (rule_kind == 2) {
                const int64_t acc2 = one_minus_tau * target[isa]
                                     + tau * q_new;
                int64_t t_new;
                if (shift == 0) {
                    t_new = acc2;
                } else if (nearest) {
                    const int64_t half = (int64_t)1 << (shift - 1);
                    t_new = (acc2 >= 0) ? ((acc2 + half) >> shift)
                                        : -((-acc2 + half) >> shift);
                } else {
                    t_new = acc2 >> shift;
                }
                if (saturate) {
                    if (t_new < raw_min) t_new = raw_min;
                    else if (t_new > raw_max) t_new = raw_max;
                } else {
                    t_new &= span - 1;
                    if (signed_fmt && t_new > raw_max) t_new -= span;
                }
                target[isa] = t_new;
                tc++;
                if (sync_period > 0 && tc >= sync_period) {
                    for (int64_t i = 0; i < SA; i++)
                        target[sa_base + i] = q[sa_base + i];
                    tc = 0;
                }
            }

            /* lag latches + episode bookkeeping */
            p_pair = pair;
            p_state = state;
            p_q = q_sa;
            p_qm = cur_val;
            p_qa = cur_act;
            if (terminal) {
                ep_total++;
                st = -1;
                if (on_policy) fw = -1;
            } else {
                st = s_next;
                if (on_policy) fw = a_next;
            }
        }
        arch_state[k] = st;
        forwarded[k] = fw;
        s_start[k] = ss;
        s_action[k] = sa_rng;
        s_policy[k] = sp;
        prev_pair[k] = p_pair;
        prev_state[k] = p_state;
        prev_q[k] = p_q;
        prev_qmax[k] = p_qm;
        prev_qmax_action[k] = p_qa;
        if (rule_kind == 2) target_count[k] = tc;
    }
    counts[0] += ex_total;
    counts[1] += er_total;
    counts[2] += ep_total;
}
"""

_KERNEL = None


def _build_library(compiler: str) -> str:
    """Compile the C kernel into a source-hash-cached shared object."""
    digest = hashlib.sha1(_C_SOURCE.encode()).hexdigest()[:16]
    cache_dir = os.path.join(
        tempfile.gettempdir(), f"qtaccel-native-{os.getuid()}"
    )
    os.makedirs(cache_dir, exist_ok=True)
    lib_path = os.path.join(cache_dir, f"qtaccel_fleet_{digest}.so")
    if not os.path.exists(lib_path):
        src_path = os.path.join(cache_dir, f"qtaccel_fleet_{digest}.c")
        tmp_path = lib_path + f".tmp{os.getpid()}"
        with open(src_path, "w") as fh:
            fh.write(_C_SOURCE)
        try:
            subprocess.run(
                [compiler, "-O3", "-shared", "-fPIC", "-o", tmp_path, src_path],
                check=True,
                capture_output=True,
                text=True,
            )
        except subprocess.CalledProcessError as exc:
            raise NativeBackendUnavailableError(
                f"fused kernel compile failed with {compiler}:\n{exc.stderr}"
            ) from exc
        os.replace(tmp_path, lib_path)  # atomic vs concurrent builders
    return lib_path


def _get_kernel():
    """The C kernel as a Python callable (built and loaded once per
    process); raises :class:`NativeBackendUnavailableError` without a
    C compiler."""
    global _KERNEL
    compiler = _find_compiler()
    if compiler is None:
        raise NativeBackendUnavailableError(f"NativeFleetBackend: {_NO_COMPILER}")
    if _KERNEL is None:
        import ctypes

        lib = ctypes.CDLL(_build_library(compiler))
        fn = lib.qtaccel_fleet_steps
        fn.restype = None
        i64p = ctypes.POINTER(ctypes.c_int64)

        def call(*args):
            fn(*[
                a.ctypes.data_as(i64p)
                if isinstance(a, np.ndarray)
                else ctypes.c_int64(int(a))
                for a in args
            ])

        _KERNEL = call
    return _KERNEL


class NativeFleetBackend(VectorizedFleetBackend):
    """The vectorized fleet's lock-step program, fused into one
    compiled pass per chunk of steps (lane-outer, step-inner).

    Construction raises :class:`NativeBackendUnavailableError` when no
    C compiler exists and
    :class:`~repro.algorithms.UnsupportedRuleError` when the configured
    update rule declares no compiled lowering
    (:class:`~repro.algorithms.RuleKernel`).  Every inherited surface —
    checkpoints, lane ops, ``q_float`` — operates on the same arrays the
    kernel mutates, so mixing them with fused runs is bit-safe.
    """

    _TELEMETRY_NAME = "native"

    #: How the kernel was built, reported as ``telemetry_snapshot()
    #: ["kernel"]`` and in perf records (one C build: always ``"cc"``).
    kernel_tier = "cc"

    #: Steps fused per kernel invocation when a telemetry session is
    #: attached (the session is pulsed between chunks; without a session
    #: the whole run is one invocation).
    PULSE_CHUNK = 256

    def __init__(
        self,
        mdps: "DenseMdp | Sequence[DenseMdp]",
        config: QTAccelConfig,
        *,
        num_agents: int | None = None,
        salts: Sequence[int] | None = None,
        telemetry=None,
    ):
        super().__init__(
            mdps, config, num_agents=num_agents, salts=salts, telemetry=telemetry
        )
        rk = self.rule.kernel
        kinds = _KERNEL_ID_KINDS.get(rk.kernel_id)
        if kinds is None or self._rule_kind not in kinds:
            from ..algorithms import UnsupportedRuleError

            raise UnsupportedRuleError(
                f"update_rule={self.rule.name!r} (kind={self._rule_kind!r}) "
                f"declares kernel_id={rk.kernel_id}, which the native fused "
                f"kernel does not lower; use the vectorized backend or add "
                f"a RuleKernel lowering"
            )
        self._kernel_fn = _get_kernel()

        # Kernel-side constants and buffers.  The terminal flags become
        # an int64 copy once (env tables are immutable after build).
        self._counts = np.zeros(3, dtype=_I64)
        self._dummy_i64 = np.zeros(1, dtype=_I64)
        self._leap = self._bank_start._leap_table_np(DECIMATION)
        self._terminal_i64 = self._terminal_flat.astype(_I64)
        coefs = self._rule_coefs
        qf = config.q_format
        self._static_args = (
            int(self._egreedy_cut),
            int(config.behavior_policy == "random"),
            int(config.update_policy == "greedy"),
            int(config.is_on_policy),
            int(rk.kernel_id),
            _QMAX_MODES[config.qmax_mode],
            int(self._one_minus_alpha),
            int(self._alpha),
            int(self._alpha_gamma),
            int(coefs.beta),
            int(coefs.tau),
            int(coefs.one_minus_tau),
            int(config.coef_format.frac),
            int(qf.rounding == "nearest"),
            int(qf.overflow == "saturate"),
            int(qf.raw_min),
            int(qf.raw_max),
            1 << qf.wordlen,
            int(qf.signed),
            int(config.target_sync_period or 0),
        )

    def telemetry_snapshot(self) -> dict:
        snap = super().telemetry_snapshot()
        snap["kernel"] = self.kernel_tier
        return snap

    def _invoke(self, n_steps: int) -> None:
        """One fused kernel pass of ``n_steps`` per lane."""
        counts = self._counts
        counts[:] = 0
        self._kernel_fn(
            n_steps, self.K, self.S, self.A, self._n_starts,
            self._q_flat, self._qmax_flat, self._qmax_action_flat,
            self._momentum_flat if self.momentum is not None else self._dummy_i64,
            self._target_flat if self.target is not None else self._dummy_i64,
            self._target_count if self._target_count is not None else self._dummy_i64,
            self._arch_state, self._forwarded,
            self._prev_pair, self._prev_state, self._prev_q,
            self._prev_qmax, self._prev_qmax_action,
            self._bank_start.states, self._bank_action.states,
            self._bank_policy.states,
            self._leap, DECIMATION, (1 << DECIMATION) - 1,
            self._next_flat, self._rewards_flat, self._terminal_i64,
            self._starts_flat, int(self._env_sa_off is not None),
            *self._static_args,
            counts,
        )
        stats = self.stats
        stats.exploits += int(counts[0])
        stats.explores += int(counts[1])
        stats.episodes += int(counts[2])

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
