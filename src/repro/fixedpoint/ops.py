"""Vectorised fixed-point kernels (the QTAccel datapath, in numpy).

Every numerical operation the accelerator performs on Q-values goes through
the functions in this module, for scalars (plain ``int``) and arrays alike.
Keeping a single implementation guarantees that the cycle-accurate pipeline
simulator (:mod:`repro.core.pipeline`) and the fast functional simulator
(:mod:`repro.core.functional`) are bit-identical — an equivalence the test
suite asserts.

Raw values are ``int64``; the widest intermediate (an 18x16-bit product
accumulated three-way) needs 36 bits, so ``int64`` never overflows.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .format import FxpFormat

RawLike = Union[int, np.ndarray]

_I64 = np.int64


def quantize_array(values, fmt: FxpFormat) -> np.ndarray:
    """Quantise an array of reals into raw integers of ``fmt``.

    Elementwise equal to :meth:`FxpFormat.quantize`, extreme inputs
    included: the rounded values stay float64 (exact integers) until the
    overflow rule has brought them into range — a clamp for ``saturate``,
    an exact ``fmod`` for ``wrap`` — so nothing beyond int64 is cast.
    Non-finite inputs raise :class:`ValueError`.
    """
    values = np.asarray(values, dtype=np.float64)
    if not np.isfinite(values).all():
        raise ValueError("cannot quantise non-finite values")
    scaled = values * float(2.0 ** fmt.frac)
    if fmt.rounding == "truncate":
        raw = np.floor(scaled)
    else:
        raw = np.where(scaled >= 0, np.floor(scaled + 0.5), np.ceil(scaled - 0.5))
    if fmt.overflow == "saturate":
        return np.minimum(np.maximum(raw, fmt.raw_min), fmt.raw_max).astype(_I64)
    span = float(1 << fmt.wordlen)
    # As in FxpFormat.quantize, a value scaled past the float range wraps
    # like 2**1023 (to 0).
    raw = np.fmod(np.clip(raw, -(2.0**1023), 2.0**1023), span)
    return clamp_raw((raw + np.where(raw < 0, span, 0.0)).astype(_I64), fmt)


def to_float_array(raw: RawLike, fmt: FxpFormat) -> np.ndarray:
    """Interpret raw integers of ``fmt`` as floats."""
    return np.asarray(raw, dtype=np.float64) * fmt.resolution


def clamp_raw(raw: RawLike, fmt: FxpFormat) -> RawLike:
    """Apply ``fmt``'s overflow behaviour (saturate or wrap) elementwise."""
    if fmt.overflow == "saturate":
        if isinstance(raw, np.ndarray):
            return np.clip(raw, fmt.raw_min, fmt.raw_max)
        return int(min(max(raw, fmt.raw_min), fmt.raw_max))
    # wrap
    span = 1 << fmt.wordlen
    wrapped = np.bitwise_and(np.asarray(raw, dtype=_I64), span - 1)
    if fmt.signed:
        wrapped = np.where(wrapped > fmt.raw_max, wrapped - span, wrapped)
    return int(wrapped) if np.isscalar(raw) or isinstance(raw, int) else wrapped


def rshift_round(raw: RawLike, shift: int, fmt: FxpFormat) -> RawLike:
    """Arithmetic right shift with ``fmt``'s rounding mode, elementwise."""
    if shift < 0:
        raise ValueError("shift must be non-negative")
    if shift == 0:
        return raw
    arr = np.asarray(raw, dtype=_I64)
    if fmt.rounding == "truncate":
        out = arr >> shift
    else:
        half = _I64(1 << (shift - 1))
        out = np.where(arr >= 0, (arr + half) >> shift, -((-arr + half) >> shift))
    return int(out) if isinstance(raw, int) else out


def fxp_mul(
    a: RawLike, a_fmt: FxpFormat, b: RawLike, b_fmt: FxpFormat, out_fmt: FxpFormat
) -> RawLike:
    """One DSP multiply: full product, renormalise to ``out_fmt``, clamp."""
    full = np.asarray(a, dtype=_I64) * np.asarray(b, dtype=_I64)
    shift = a_fmt.frac + b_fmt.frac - out_fmt.frac
    if shift >= 0:
        raw = rshift_round(full, shift, out_fmt)
    else:
        raw = full << -shift
    raw = clamp_raw(raw, out_fmt)
    if isinstance(a, int) and isinstance(b, int):
        return int(raw)
    return raw


def fxp_add(
    a: RawLike, a_fmt: FxpFormat, b: RawLike, b_fmt: FxpFormat, out_fmt: FxpFormat
) -> RawLike:
    """One adder: align binary points, add, renormalise, clamp."""
    f = max(a_fmt.frac, b_fmt.frac)
    aa = np.asarray(a, dtype=_I64) << (f - a_fmt.frac)
    bb = np.asarray(b, dtype=_I64) << (f - b_fmt.frac)
    total = aa + bb
    shift = f - out_fmt.frac
    if shift >= 0:
        raw = rshift_round(total, shift, out_fmt)
    else:
        raw = total << -shift
    raw = clamp_raw(raw, out_fmt)
    if isinstance(a, int) and isinstance(b, int):
        return int(raw)
    return raw


def q_update(
    q: RawLike,
    r: RawLike,
    q_next: RawLike,
    *,
    alpha: int,
    one_minus_alpha: int,
    alpha_gamma: int,
    coef_fmt: FxpFormat,
    q_fmt: FxpFormat,
) -> RawLike:
    """The stage-3 datapath of QTAccel (eq. 3 of the paper), elementwise.

    ``Q_new = (1 - a) * Q(s,a) + a * R + (a * g) * Q(s', a')``

    Three DSP products are accumulated at full precision in a wide adder
    tree, then renormalised once into ``q_fmt`` and saturated once — the
    single-rounding/single-saturation structure of the hardware datapath.

    Parameters are raw integers: ``q``, ``r``, ``q_next`` in ``q_fmt``;
    ``alpha``, ``one_minus_alpha`` and ``alpha_gamma`` in ``coef_fmt``
    (``alpha_gamma`` is the stage-1 product, already renormalised to
    ``coef_fmt`` — quantisation there is part of the hardware behaviour).
    """
    if type(q) is int and type(r) is int and type(q_next) is int:
        # Pure-int fast path: this is the per-sample hot spot of the
        # functional simulator (profiled), so it avoids numpy scalar
        # overhead entirely.  Semantics are bit-identical to the array
        # path below (asserted by the test suite).
        acc = one_minus_alpha * q + alpha * r + alpha_gamma * q_next
        shift = coef_fmt.frac
        if shift == 0:
            raw = acc
        elif q_fmt.rounding == "truncate":
            raw = acc >> shift  # Python's >> floors, like the array path
        else:
            half = 1 << (shift - 1)
            raw = (acc + half) >> shift if acc >= 0 else -((-acc + half) >> shift)
        if q_fmt.overflow == "saturate":
            lo, hi = q_fmt.raw_min, q_fmt.raw_max
            return lo if raw < lo else hi if raw > hi else raw
        return clamp_raw(raw, q_fmt)

    q64 = np.asarray(q, dtype=_I64)
    r64 = np.asarray(r, dtype=_I64)
    qn64 = np.asarray(q_next, dtype=_I64)
    acc = (
        _I64(one_minus_alpha) * q64
        + _I64(alpha) * r64
        + _I64(alpha_gamma) * qn64
    )  # frac = coef_fmt.frac + q_fmt.frac
    raw = rshift_round(acc, coef_fmt.frac, q_fmt)
    return clamp_raw(raw, q_fmt)


def q_update_into(
    q: np.ndarray,
    r: np.ndarray,
    q_next: np.ndarray,
    *,
    out: np.ndarray,
    scratch: np.ndarray,
    mask_scratch: np.ndarray,
    alpha: int,
    one_minus_alpha: int,
    alpha_gamma: int,
    coef_fmt: FxpFormat,
    q_fmt: FxpFormat,
) -> np.ndarray:
    """:func:`q_update` (array path) into preallocated buffers.

    Bit-identical to :func:`q_update` (asserted by the test suite), but
    every intermediate lands in ``out``/``scratch`` (int64, same shape
    as the operands) and ``mask_scratch`` (bool) — the vectorized fleet
    backend calls this once per lock-step step with zero allocations.
    ``out`` must not alias ``q``/``r``/``q_next``.
    """
    # acc = (1-a)*q + a*r + (a*g)*q_next at full precision.
    np.multiply(q, _I64(one_minus_alpha), out=scratch)
    np.multiply(r, _I64(alpha), out=out)
    np.add(scratch, out, out=scratch)
    np.multiply(q_next, _I64(alpha_gamma), out=out)
    np.add(scratch, out, out=scratch)
    _shift_round_clamp_into(
        scratch, out, mask_scratch, coef_fmt.frac, q_fmt
    )
    return out


def _shift_round_clamp_into(
    scratch: np.ndarray,
    out: np.ndarray,
    mask_scratch: np.ndarray,
    shift: int,
    q_fmt: FxpFormat,
) -> None:
    """Shared allocation-free tail of every ``*_into`` kernel: one
    renormalising shift of the wide accumulator in ``scratch`` (with
    ``q_fmt``'s rounding mode) into ``out``, then one saturate/wrap.
    ``scratch`` is clobbered."""
    if shift == 0:
        np.copyto(out, scratch)
    elif q_fmt.rounding == "truncate":
        np.right_shift(scratch, shift, out=out)
    else:  # round-to-nearest, ties away from zero (matches rshift_round)
        half = _I64(1 << (shift - 1))
        neg = np.less(scratch, 0, out=mask_scratch)
        np.negative(scratch, out=out)
        np.copyto(scratch, out, where=neg)  # scratch = |acc|
        np.add(scratch, half, out=scratch)
        np.right_shift(scratch, shift, out=out)
        np.negative(out, out=scratch)
        np.copyto(out, scratch, where=neg)
    # Single saturate/wrap (matches clamp_raw).
    if q_fmt.overflow == "saturate":
        np.clip(out, q_fmt.raw_min, q_fmt.raw_max, out=out)
    else:
        span = 1 << q_fmt.wordlen
        np.bitwise_and(out, _I64(span - 1), out=out)
        if q_fmt.signed:
            over = np.greater(out, q_fmt.raw_max, out=mask_scratch)
            np.subtract(out, _I64(span), out=scratch)
            np.copyto(out, scratch, where=over)


def q_update_momentum(
    q: RawLike,
    r: RawLike,
    q_next: RawLike,
    m: RawLike,
    *,
    alpha: int,
    one_minus_alpha: int,
    alpha_gamma: int,
    beta: int,
    coef_fmt: FxpFormat,
    q_fmt: FxpFormat,
) -> RawLike:
    """Momentum-accelerated stage-3 datapath (arXiv:1910.11673), elementwise.

    ``Q_new = (1 - a) * Q(s,a) + a * R + (a * g) * Q(s', a')
              + b * (Q(s,a) - M(s,a))``

    ``M`` holds the historical iterate — the previous Q-value written to
    ``(s, a)`` — so ``b * (Q - M)`` is the per-entry momentum term
    ``b * (Q_t - Q_{t-1})``.  One extra DSP product joins the wide adder
    tree; the single-rounding/single-saturation structure of
    :func:`q_update` is unchanged.  All operands are raw integers:
    ``q``, ``r``, ``q_next``, ``m`` in ``q_fmt``; the coefficients
    (including raw ``beta``) in ``coef_fmt``.
    """
    if (
        type(q) is int
        and type(r) is int
        and type(q_next) is int
        and type(m) is int
    ):
        # Pure-int fast path, mirroring q_update (per-sample hot spot).
        acc = (
            one_minus_alpha * q
            + alpha * r
            + alpha_gamma * q_next
            + beta * (q - m)
        )
        shift = coef_fmt.frac
        if shift == 0:
            raw = acc
        elif q_fmt.rounding == "truncate":
            raw = acc >> shift
        else:
            half = 1 << (shift - 1)
            raw = (acc + half) >> shift if acc >= 0 else -((-acc + half) >> shift)
        if q_fmt.overflow == "saturate":
            lo, hi = q_fmt.raw_min, q_fmt.raw_max
            return lo if raw < lo else hi if raw > hi else raw
        return clamp_raw(raw, q_fmt)

    q64 = np.asarray(q, dtype=_I64)
    r64 = np.asarray(r, dtype=_I64)
    qn64 = np.asarray(q_next, dtype=_I64)
    m64 = np.asarray(m, dtype=_I64)
    acc = (
        _I64(one_minus_alpha) * q64
        + _I64(alpha) * r64
        + _I64(alpha_gamma) * qn64
        + _I64(beta) * (q64 - m64)
    )
    raw = rshift_round(acc, coef_fmt.frac, q_fmt)
    return clamp_raw(raw, q_fmt)


def q_update_momentum_into(
    q: np.ndarray,
    r: np.ndarray,
    q_next: np.ndarray,
    m: np.ndarray,
    *,
    out: np.ndarray,
    scratch: np.ndarray,
    mask_scratch: np.ndarray,
    alpha: int,
    one_minus_alpha: int,
    alpha_gamma: int,
    beta: int,
    coef_fmt: FxpFormat,
    q_fmt: FxpFormat,
) -> np.ndarray:
    """:func:`q_update_momentum` (array path) into preallocated buffers.

    Same buffer contract as :func:`q_update_into`; ``out`` must not
    alias any operand.
    """
    # acc = b*(q - m) + (1-a)*q + a*r + (a*g)*q_next at full precision.
    np.subtract(q, m, out=out)
    np.multiply(out, _I64(beta), out=out)
    np.multiply(q, _I64(one_minus_alpha), out=scratch)
    np.add(scratch, out, out=scratch)
    np.multiply(r, _I64(alpha), out=out)
    np.add(scratch, out, out=scratch)
    np.multiply(q_next, _I64(alpha_gamma), out=out)
    np.add(scratch, out, out=scratch)
    _shift_round_clamp_into(
        scratch, out, mask_scratch, coef_fmt.frac, q_fmt
    )
    return out


def polyak_update(
    t: RawLike,
    q_new: RawLike,
    *,
    tau: int,
    one_minus_tau: int,
    coef_fmt: FxpFormat,
    q_fmt: FxpFormat,
) -> RawLike:
    """Polyak (soft) target-table update (arXiv:1905.02841), elementwise.

    ``T_new = (1 - tau) * T(s,a) + tau * Q_new``

    The stage-4 read-modify-write applied to the target-table entry of
    the pair being written back: two DSP products into the wide adder,
    one renormalising shift, one saturation — the same structure as the
    stage-3 datapath.  ``t``/``q_new`` are raw in ``q_fmt``; ``tau`` and
    ``one_minus_tau`` raw in ``coef_fmt``.
    """
    if type(t) is int and type(q_new) is int:
        acc = one_minus_tau * t + tau * q_new
        shift = coef_fmt.frac
        if shift == 0:
            raw = acc
        elif q_fmt.rounding == "truncate":
            raw = acc >> shift
        else:
            half = 1 << (shift - 1)
            raw = (acc + half) >> shift if acc >= 0 else -((-acc + half) >> shift)
        if q_fmt.overflow == "saturate":
            lo, hi = q_fmt.raw_min, q_fmt.raw_max
            return lo if raw < lo else hi if raw > hi else raw
        return clamp_raw(raw, q_fmt)

    t64 = np.asarray(t, dtype=_I64)
    q64 = np.asarray(q_new, dtype=_I64)
    acc = _I64(one_minus_tau) * t64 + _I64(tau) * q64
    raw = rshift_round(acc, coef_fmt.frac, q_fmt)
    return clamp_raw(raw, q_fmt)


def polyak_update_into(
    t: np.ndarray,
    q_new: np.ndarray,
    *,
    out: np.ndarray,
    scratch: np.ndarray,
    mask_scratch: np.ndarray,
    tau: int,
    one_minus_tau: int,
    coef_fmt: FxpFormat,
    q_fmt: FxpFormat,
) -> np.ndarray:
    """:func:`polyak_update` (array path) into preallocated buffers.

    Same buffer contract as :func:`q_update_into`; ``out`` must not
    alias any operand.
    """
    np.multiply(t, _I64(one_minus_tau), out=scratch)
    np.multiply(q_new, _I64(tau), out=out)
    np.add(scratch, out, out=scratch)
    _shift_round_clamp_into(
        scratch, out, mask_scratch, coef_fmt.frac, q_fmt
    )
    return out


def is_saturated(raw: int, fmt: FxpFormat) -> bool:
    """Whether a raw value sits on a rail of ``fmt``.

    The divergence guards use this as the hardware-observable proxy for
    overflow: after the single saturation stage, a clipped result is
    exactly ``raw_min`` or ``raw_max``.  (A legitimately computed rail
    value is indistinguishable — which is why the guards act on *streaks*,
    not single hits.)
    """
    return raw == fmt.raw_min or raw == fmt.raw_max


def saturation_mask(raw: np.ndarray, fmt: FxpFormat) -> np.ndarray:
    """Elementwise :func:`is_saturated` over an array of raw values."""
    arr = np.asarray(raw, dtype=_I64)
    return (arr == fmt.raw_min) | (arr == fmt.raw_max)


def coefficient_set(
    alpha: float, gamma: float, coef_fmt: FxpFormat
) -> tuple[int, int, int, int]:
    """Quantise (alpha, gamma) and derive the three datapath coefficients.

    Returns raw ``(alpha, gamma, one_minus_alpha, alpha_gamma)`` exactly as
    stage 1 of the pipeline computes them: ``1 - alpha`` by subtraction from
    the exact raw 1.0, ``alpha * gamma`` by one DSP multiply renormalised to
    ``coef_fmt``.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")
    one = 1 << coef_fmt.frac
    if one > coef_fmt.raw_max:
        raise ValueError(f"coef format {coef_fmt.describe()} cannot represent 1.0")
    a_raw = coef_fmt.quantize(alpha)
    g_raw = coef_fmt.quantize(gamma)
    one_minus_a = clamp_raw(one - a_raw, coef_fmt)
    ag = fxp_mul(a_raw, coef_fmt, g_raw, coef_fmt, coef_fmt)
    return a_raw, g_raw, int(one_minus_a), int(ag)


def complement_coefficient(value: float, coef_fmt: FxpFormat) -> tuple[int, int]:
    """Quantise a [0, 1] coefficient and derive raw ``(value, 1 - value)``.

    The complement is computed the same way stage 1 derives
    ``1 - alpha``: subtraction from the exact raw 1.0 of ``coef_fmt``.
    Used for the Polyak ``tau`` pair and any future blend coefficient.
    """
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"coefficient must be in [0, 1], got {value}")
    one = 1 << coef_fmt.frac
    if one > coef_fmt.raw_max:
        raise ValueError(f"coef format {coef_fmt.describe()} cannot represent 1.0")
    raw = coef_fmt.quantize(value)
    return int(raw), int(clamp_raw(one - raw, coef_fmt))
