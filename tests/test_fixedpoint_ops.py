"""Unit and property tests for the vectorised datapath kernels.

The critical property: scalar (``int``) and array (numpy) paths of every
kernel are bit-identical, and ``q_update`` equals the composition of its
three multiplies and the adder — otherwise the cycle-accurate and
functional simulators could drift apart.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.fixedpoint import ops
from repro.fixedpoint.format import COEF_FORMAT, Q_FORMAT, FxpFormat
from repro.fixedpoint.scalar import Fxp


class TestQuantizeArray:
    def test_matches_scalar(self):
        vals = [-300.0, -1.23, 0.0, 0.015625, 1.5, 511.99, 700.0]
        arr = ops.quantize_array(vals, Q_FORMAT)
        for v, r in zip(vals, arr):
            assert int(r) == Q_FORMAT.quantize(v)

    def test_roundtrip(self):
        vals = np.linspace(-500, 500, 101)
        raw = ops.quantize_array(vals, Q_FORMAT)
        back = ops.to_float_array(raw, Q_FORMAT)
        assert np.all(np.abs(back - vals) < Q_FORMAT.resolution)

    def test_nearest_mode(self):
        f = Q_FORMAT.with_(rounding="nearest")
        arr = ops.quantize_array([0.0078125], f)  # half an lsb
        assert int(arr[0]) == 1

    @given(
        vals=st.lists(
            st.one_of(
                st.floats(allow_nan=False, allow_infinity=False),
                st.sampled_from([1e18, -1e18, 1e300, -1e300, 2.0**63, -(2.0**63), 1.7e308]),
            ),
            min_size=1,
            max_size=8,
        ),
        rounding=st.sampled_from(["truncate", "nearest"]),
        overflow=st.sampled_from(["saturate", "wrap"]),
        signed=st.booleans(),
        frac=st.integers(-4, 16),
    )
    # Values near the float maximum overflow the scaling multiply to inf
    # (numpy warns); both quantisers then treat them as 2**1023.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_matches_scalar_on_extreme_floats(self, vals, rounding, overflow, signed, frac):
        """Values far outside int64 saturate (or wrap) exactly like the
        scalar quantiser instead of overflowing the cast."""
        f = FxpFormat(16, frac, signed=signed, rounding=rounding, overflow=overflow)
        assert [int(r) for r in ops.quantize_array(vals, f)] == [f.quantize(v) for v in vals]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            ops.quantize_array([0.5, bad], Q_FORMAT)


class TestClampRaw:
    def test_scalar_saturate(self):
        assert ops.clamp_raw(10**9, Q_FORMAT) == Q_FORMAT.raw_max
        assert ops.clamp_raw(-(10**9), Q_FORMAT) == Q_FORMAT.raw_min

    def test_array_saturate(self):
        arr = np.array([10**9, 0, -(10**9)])
        out = ops.clamp_raw(arr, Q_FORMAT)
        assert list(out) == [Q_FORMAT.raw_max, 0, Q_FORMAT.raw_min]

    def test_wrap(self):
        f = FxpFormat(wordlen=8, frac=0, overflow="wrap")
        arr = ops.clamp_raw(np.array([128, 255, 256]), f)
        assert list(arr) == [-128, -1, 0]


class TestMulAdd:
    def test_fxp_mul_matches_scalar_type(self):
        a = Fxp.from_float(3.25, Q_FORMAT)
        b = Fxp.from_float(-1.5, Q_FORMAT)
        got = ops.fxp_mul(a.raw, Q_FORMAT, b.raw, Q_FORMAT, Q_FORMAT)
        assert got == (a * b).raw
        assert isinstance(got, int)

    def test_fxp_mul_array(self):
        a = ops.quantize_array([1.0, 2.0, -3.0], Q_FORMAT)
        b = ops.quantize_array([0.5, 0.5, 0.5], COEF_FORMAT)
        out = ops.fxp_mul(a, Q_FORMAT, b, COEF_FORMAT, Q_FORMAT)
        assert list(ops.to_float_array(out, Q_FORMAT)) == [0.5, 1.0, -1.5]

    def test_fxp_add_aligns_points(self):
        a = Q_FORMAT.quantize(1.5)
        b = COEF_FORMAT.quantize(0.25)
        out = ops.fxp_add(a, Q_FORMAT, b, COEF_FORMAT, Q_FORMAT)
        assert Q_FORMAT.to_float(out) == 1.75

    def test_fxp_add_saturates(self):
        a = Q_FORMAT.raw_max
        out = ops.fxp_add(a, Q_FORMAT, a, Q_FORMAT, Q_FORMAT)
        assert out == Q_FORMAT.raw_max


class TestCoefficientSet:
    def test_basic(self):
        a, g, oma, ag = ops.coefficient_set(0.5, 0.9, COEF_FORMAT)
        one = 1 << COEF_FORMAT.frac
        assert a == one // 2
        assert oma == one - a
        assert abs(COEF_FORMAT.to_float(ag) - 0.45) < COEF_FORMAT.resolution * 2

    def test_alpha_one(self):
        a, _, oma, _ = ops.coefficient_set(1.0, 0.5, COEF_FORMAT)
        assert a == 1 << COEF_FORMAT.frac
        assert oma == 0

    def test_gamma_zero_kills_bootstrap(self):
        _, g, _, ag = ops.coefficient_set(0.5, 0.0, COEF_FORMAT)
        assert g == 0
        assert ag == 0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ops.coefficient_set(1.5, 0.5, COEF_FORMAT)
        with pytest.raises(ValueError):
            ops.coefficient_set(0.5, -0.1, COEF_FORMAT)

    def test_rejects_format_without_one(self):
        f = FxpFormat(wordlen=16, frac=16)  # max < 1.0
        with pytest.raises(ValueError):
            ops.coefficient_set(0.5, 0.5, f)


class TestQUpdate:
    def _coefs(self, alpha=0.5, gamma=0.9):
        a, _, oma, ag = ops.coefficient_set(alpha, gamma, COEF_FORMAT)
        return dict(
            alpha=a,
            one_minus_alpha=oma,
            alpha_gamma=ag,
            coef_fmt=COEF_FORMAT,
            q_fmt=Q_FORMAT,
        )

    def test_known_value(self):
        q = Q_FORMAT.quantize(10.0)
        r = Q_FORMAT.quantize(4.0)
        qn = Q_FORMAT.quantize(20.0)
        out = ops.q_update(q, r, qn, **self._coefs())
        # 0.5*10 + 0.5*4 + 0.45*20 = 16.0
        assert Q_FORMAT.to_float(out) == pytest.approx(16.0, abs=Q_FORMAT.resolution)

    def test_alpha_one_pure_target(self):
        q = Q_FORMAT.quantize(100.0)
        r = Q_FORMAT.quantize(-5.0)
        qn = Q_FORMAT.quantize(10.0)
        out = ops.q_update(q, r, qn, **self._coefs(alpha=1.0, gamma=0.5))
        assert Q_FORMAT.to_float(out) == pytest.approx(0.0, abs=2 * Q_FORMAT.resolution)

    def test_scalar_returns_int(self):
        out = ops.q_update(0, 64, 0, **self._coefs())
        assert isinstance(out, int)

    def test_array_matches_scalar(self):
        rng = np.random.default_rng(3)
        q = rng.integers(Q_FORMAT.raw_min, Q_FORMAT.raw_max, 64)
        r = rng.integers(Q_FORMAT.raw_min, Q_FORMAT.raw_max, 64)
        qn = rng.integers(Q_FORMAT.raw_min, Q_FORMAT.raw_max, 64)
        coefs = self._coefs()
        batch = ops.q_update(q, r, qn, **coefs)
        for i in range(64):
            assert int(batch[i]) == ops.q_update(int(q[i]), int(r[i]), int(qn[i]), **coefs)

    def test_saturates_at_format_limits(self):
        big = Q_FORMAT.raw_max
        out = ops.q_update(big, big, big, **self._coefs(alpha=1.0, gamma=1.0))
        assert out <= Q_FORMAT.raw_max


raws = st.integers(min_value=Q_FORMAT.raw_min, max_value=Q_FORMAT.raw_max)
unit = st.floats(min_value=0.01, max_value=1.0, allow_nan=False)


@given(raws, raws, raws, unit, st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_q_update_close_to_float(q, r, qn, alpha, gamma):
    """The fixed-point update tracks the exact float update within the
    accumulated rounding bound (property)."""
    a_raw, _, oma, ag = ops.coefficient_set(alpha, gamma, COEF_FORMAT)
    out = ops.q_update(
        q, r, qn, alpha=a_raw, one_minus_alpha=oma, alpha_gamma=ag,
        coef_fmt=COEF_FORMAT, q_fmt=Q_FORMAT,
    )
    qf = Q_FORMAT.to_float
    a_f = COEF_FORMAT.to_float(a_raw)
    ag_f = COEF_FORMAT.to_float(ag)
    exact = (1.0 - a_f) * qf(q) + a_f * qf(r) + ag_f * qf(qn)
    exact = max(Q_FORMAT.min_value, min(Q_FORMAT.max_value, exact))
    # one final rounding plus three product roundings
    assert abs(qf(out) - exact) <= 4 * Q_FORMAT.resolution


@given(raws, raws)
def test_q_update_is_convex_combination_when_gamma_zero(q, r):
    """With gamma = 0 the update interpolates between Q and R (property)."""
    a_raw, _, oma, ag = ops.coefficient_set(0.5, 0.0, COEF_FORMAT)
    out = ops.q_update(
        q, r, 0, alpha=a_raw, one_minus_alpha=oma, alpha_gamma=ag,
        coef_fmt=COEF_FORMAT, q_fmt=Q_FORMAT,
    )
    lo, hi = min(q, r), max(q, r)
    assert lo - 1 <= out <= hi + 1
