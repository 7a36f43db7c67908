"""The native fused-kernel backend (``repro.backends.native``).

Contract under test: after the C kernel advances the fleet, the
architectural state is bit-identical to the vectorized numpy program
(and therefore, transitively, to the scalar :class:`FunctionalSimulator`
every other backend is pinned against).  The kernel needs a C compiler,
so the module is skipped on a host without one.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import RuleKernel, UnsupportedRuleError
from repro.algorithms.rules import QLearningRule
from repro.backends import (
    FleetBackend,
    NativeBackendUnavailableError,
    NativeFleetBackend,
    VectorizedFleetBackend,
    fleet_backend_availability,
    fleet_backends,
    make_fleet_backend,
)
from repro.backends import native as native_mod
from repro.core.batch import BatchIndependentSimulator
from repro.core.config import QTAccelConfig
from repro.core.engine import make_engine
from repro.core.functional import FunctionalSimulator
from repro.core.policies import PolicyDraws
from repro.envs.random_mdp import random_dense_mdp
from repro.fixedpoint import FxpFormat
from tests.test_update_rules import GOLDEN_MOMENTUM, GRID

pytestmark = pytest.mark.skipif(
    native_mod._find_compiler() is None, reason="no C compiler for the fused kernel"
)

LOOPY = random_dense_mdp(16, 4, seed=9, self_loop_bias=0.5)

#: Formats the bit-identity sweep covers: the default s16.6 in both
#: rounding modes, wrap overflow, a deliberately narrow word that
#: overflows constantly, and a wide "float-like" word.
Q_FORMATS = {
    "default": FxpFormat(16, 6),
    "nearest": FxpFormat(16, 6, rounding="nearest"),
    "wrap": FxpFormat(16, 6, overflow="wrap"),
    "narrow": FxpFormat(10, 4),
    "floatlike": FxpFormat(48, 24),
}

RULES = ("qlearning", "sarsa", "momentum", "target")


def _cfg(rule: str, **kw) -> QTAccelConfig:
    if rule == "momentum":
        return QTAccelConfig.momentum(**kw)
    if rule == "target":
        return QTAccelConfig.target_q(**kw)
    return getattr(QTAccelConfig, rule)(**kw)


def _assert_equal_tree(a, b, path="state") -> None:
    if isinstance(a, dict):
        assert set(a) == set(b), path
        for key in a:
            _assert_equal_tree(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, np.ndarray):
        assert np.array_equal(a, b), f"{path} differs"
    else:
        assert a == b, f"{path} differs"


def _assert_same_state(native, vec) -> None:
    """Full architectural equality, not just the Q tables."""
    _assert_equal_tree(native.state_dict(), vec.state_dict())
    assert native.stats.as_dict() == vec.stats.as_dict()


# ---------------------------------------------------------------------- #
# Registry, dispatch, availability
# ---------------------------------------------------------------------- #


class TestRegistryAndDispatch:
    def test_registry_has_native(self):
        assert "native" in fleet_backends()
        assert fleet_backends()["native"] is NativeFleetBackend

    def test_availability_report(self):
        rep = fleet_backend_availability()
        assert set(rep) == {"native", "scalar", "sharded", "vectorized"}
        for name in ("scalar", "sharded", "vectorized"):
            assert rep[name]["available"] is True
        assert isinstance(rep["native"]["available"], bool)
        assert isinstance(rep["native"]["detail"], str)

    def test_make_engine_and_facade_dispatch(self):
        cfg = QTAccelConfig.qlearning(seed=1)
        eng = make_engine(cfg, engine="native", mdp=GRID, num_agents=2)
        fab = make_fleet_backend(GRID, cfg, backend="native", num_agents=2)
        bat = BatchIndependentSimulator(GRID, cfg, num_agents=2, backend="native")
        for built in (eng, fab, bat):
            assert isinstance(built, NativeFleetBackend)
            assert isinstance(built, FleetBackend)
        eng.run(16)
        assert eng.stats.samples == 32

    def test_no_compiler_raises_typed_error(self, monkeypatch):
        """Without a C compiler the backend is unavailable, and building
        it fails typed, naming the missing compiler."""
        monkeypatch.setattr(native_mod, "_find_compiler", lambda: None)
        with pytest.raises(NativeBackendUnavailableError, match="C compiler"):
            make_engine(
                QTAccelConfig.qlearning(seed=1), engine="native", mdp=GRID,
                num_agents=1,
            )
        assert fleet_backend_availability()["native"]["available"] is False

    def test_unlowered_rule_rejected_at_construction(self, monkeypatch):
        """A rule whose RuleKernel id has no fused lowering fails early,
        typed, and names the backend that would still run it."""
        monkeypatch.setattr(
            QLearningRule, "kernel", RuleKernel(kernel_id=9, note="no lowering")
        )
        with pytest.raises(UnsupportedRuleError, match="kernel_id=9"):
            NativeFleetBackend(GRID, QTAccelConfig.qlearning(seed=1), num_agents=1)

    def test_telemetry_snapshot_reports_tier(self):
        fleet = NativeFleetBackend(GRID, QTAccelConfig.qlearning(seed=2), num_agents=2)
        fleet.run(8)
        snap = fleet.telemetry_snapshot()
        assert snap["kernel"] == "cc"


# ---------------------------------------------------------------------- #
# Bit identity: the kernel == the vectorized program == the scalar sim
# ---------------------------------------------------------------------- #


class TestBitIdentity:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(1, 2**16),
        rule=st.sampled_from(RULES),
        fmt=st.sampled_from(sorted(Q_FORMATS)),
        qmax_mode=st.sampled_from(["exact", "monotonic", "follow"]),
    )
    def test_matches_vectorized(self, seed, rule, fmt, qmax_mode):
        cfg = _cfg(rule, seed=seed, q_format=Q_FORMATS[fmt], qmax_mode=qmax_mode)
        nat = NativeFleetBackend(LOOPY, cfg, num_agents=3)
        vec = VectorizedFleetBackend(LOOPY, cfg, num_agents=3)
        nat.run(200)
        vec.run(200)
        _assert_same_state(nat, vec)

    def test_lane_matches_functional(self):
        """Lane k of the fused kernel == a scalar sim with salt k."""
        cfg = QTAccelConfig.sarsa(seed=23, qmax_mode="follow")
        fleet = NativeFleetBackend(GRID, cfg, num_agents=3)
        fleet.run(300)
        for k in range(3):
            ref = FunctionalSimulator(
                GRID, cfg, draws=PolicyDraws.from_config(cfg, salt=k)
            )
            ref.run(300)
            assert np.array_equal(fleet.q[k], ref.tables.q.data), f"lane {k}"
            assert np.array_equal(fleet.qmax[k], ref.tables.qmax.data)
            assert np.array_equal(fleet.qmax_action[k], ref.tables.qmax_action.data)

    def test_hard_target_sync_matches_vectorized(self):
        """The wholesale table copy (sync_period) inside the fused loop."""
        cfg = QTAccelConfig.target_q(seed=31, target_sync_period=17)
        nat = NativeFleetBackend(GRID, cfg, num_agents=3)
        vec = VectorizedFleetBackend(GRID, cfg, num_agents=3)
        nat.run(250)
        vec.run(250)
        _assert_same_state(nat, vec)
        assert np.array_equal(nat.target, vec.target)

    def test_heterogeneous_fleet_matches_vectorized(self):
        """Per-lane env table offsets survive the fused lowering."""
        worlds = [GRID, GRID, GRID]
        cfg = QTAccelConfig.sarsa(seed=41, qmax_mode="follow")
        nat = NativeFleetBackend(worlds, cfg, salts=[5, 9, 2])
        vec = VectorizedFleetBackend(worlds, cfg, salts=[5, 9, 2])
        nat.run(200)
        vec.run(200)
        _assert_same_state(nat, vec)

    def test_step_and_run_interleave(self):
        """Mixing single fused steps with fused runs stays on trajectory."""
        cfg = QTAccelConfig.qlearning(seed=3)
        nat = NativeFleetBackend(GRID, cfg, num_agents=2)
        vec = VectorizedFleetBackend(GRID, cfg, num_agents=2)
        for _ in range(30):
            nat.step()
            vec.step()
        nat.run(70)
        vec.run(70)
        assert np.array_equal(nat.q, vec.q)
        assert np.array_equal(nat.qmax, vec.qmax)

    def test_golden_momentum_trace(self):
        """The fused kernel reproduces the committed momentum golden
        trace sample by sample (lane 0 == the default-salt scalar sim);
        the lag latches expose (pair, action, q_raw) after each step."""
        fleet = NativeFleetBackend(GRID, QTAccelConfig.momentum(seed=5), num_agents=1)
        A = fleet.A
        for sample, state, action, q_raw in GOLDEN_MOMENTUM:
            fleet.step()
            got_pair = int(fleet._prev_pair[0])
            got_state = int(fleet._prev_state[0])
            assert got_state == state, f"sample {sample}"
            assert got_pair - got_state * A == action, f"sample {sample}"
            assert int(fleet.q[0, got_pair]) == q_raw, f"sample {sample}"


def test_narrow_wrap_momentum_matches_vectorized():
    """The narrow wrap-overflow momentum format, where C integer
    semantics could plausibly diverge from the numpy reference."""
    cfg = QTAccelConfig.momentum(
        seed=7, q_format=FxpFormat(10, 4, overflow="wrap"), qmax_mode="follow"
    )
    nat = NativeFleetBackend(LOOPY, cfg, num_agents=3)
    vec = VectorizedFleetBackend(LOOPY, cfg, num_agents=3)
    nat.run(400)
    vec.run(400)
    _assert_same_state(nat, vec)


# ---------------------------------------------------------------------- #
# Checkpoint / rollback
# ---------------------------------------------------------------------- #


class TestCheckpoint:
    def test_state_dict_replays_exactly(self):
        cfg = QTAccelConfig.target_q(seed=13, target_sync_period=32)
        fleet = NativeFleetBackend(LOOPY, cfg, num_agents=4)
        fleet.run(150)
        ckpt = fleet.state_dict()
        fleet.run(150)
        q_after = fleet.q.copy()
        stats_after = fleet.stats.as_dict()

        fresh = NativeFleetBackend(LOOPY, cfg, num_agents=4)
        fresh.load_state_dict(ckpt)
        fresh.run(150)
        assert np.array_equal(fresh.q, q_after)
        assert np.array_equal(fresh.target, fleet.target)
        assert fresh.stats.as_dict() == stats_after

    def test_checkpoints_portable_across_backends(self):
        """A mid-run native checkpoint restores into the vectorized
        backend (and back) with the continuation bit-identical."""
        cfg = QTAccelConfig.momentum(seed=17, qmax_mode="follow")
        nat = NativeFleetBackend(GRID, cfg, num_agents=3)
        nat.run(120)
        ckpt = nat.state_dict()
        nat.run(120)

        vec = VectorizedFleetBackend(GRID, cfg, num_agents=3)
        vec.load_state_dict(ckpt)
        vec.run(120)
        _assert_same_state(nat, vec)

        back = NativeFleetBackend(GRID, cfg, num_agents=3)
        back.load_state_dict(VectorizedFleetBackend(GRID, cfg, num_agents=3).state_dict())
        fresh_vec = VectorizedFleetBackend(GRID, cfg, num_agents=3)
        back.run(90)
        fresh_vec.run(90)
        _assert_same_state(back, fresh_vec)

    def test_lane_rollback(self):
        cfg = QTAccelConfig.qlearning(seed=8)
        fleet = NativeFleetBackend(GRID, cfg, num_agents=3)
        fleet.run(120)
        lane = fleet.lane_state(1)
        fleet.run(50)
        untouched = fleet.q[2].copy()
        fleet.load_lane_state(1, lane)
        assert np.array_equal(fleet.q[2], untouched)
        ref = FunctionalSimulator(GRID, cfg, draws=PolicyDraws.from_config(cfg, salt=1))
        ref.run(120)
        assert np.array_equal(fleet.q[1], ref.tables.q.data)


# ---------------------------------------------------------------------- #
# Perf plumbing: the sweep record and its sentinel gate
# ---------------------------------------------------------------------- #


class TestNativeSweepRecord:
    def _record(self):
        from repro.perf.fleet import run_native_throughput

        fake = iter(float(i) * 0.5 for i in range(10_000))
        return run_native_throughput(
            lane_counts=(4,), repeats=2, quick=True, clock=lambda: next(fake),
        )

    def test_record_shape_and_gate(self):
        from repro.perf.fleet import check_native_speedup

        rec = self._record()
        assert rec["kernel"] == "cc"
        point = rec["points"]["4"]
        assert {"native", "vectorized", "speedup_vs_vectorized"} <= set(point)
        ok, detail = check_native_speedup(rec, min_speedup=1e9)
        assert not ok and "4" in detail
        ok, _ = check_native_speedup(rec, min_speedup=0.0)
        assert ok

    def test_compare_sentinel_gates_speedup(self):
        from repro.perf.compare import CompareResult, _compare_native

        base = {
            "kernel": "cc", "quick": False,
            "points": {"4096": {
                "native": {"updates_per_sec": 5.0e7},
                "speedup_vs_vectorized": 6.0,
            }},
        }
        worse = {
            "kernel": "cc", "quick": False,
            "points": {"4096": {
                "native": {"updates_per_sec": 4.8e7},
                "speedup_vs_vectorized": 2.0,
            }},
        }
        findings: list = []
        _compare_native(base, worse, gate_time=True, findings=findings)
        verdicts = {f.case: f.verdict for f in findings}
        assert verdicts["native.speedup"] == "regression"
        assert verdicts["native.updates_per_sec"] == "ok"

        # The speedup ratio gates even across machine fingerprints;
        # absolute wall-clock does not.
        findings = []
        _compare_native(base, worse, gate_time=False, findings=findings)
        verdicts = {f.case: f.verdict for f in findings}
        assert verdicts["native.speedup"] == "regression"
        assert verdicts["native.updates_per_sec"] == "skipped"

    def test_compare_sentinel_shape_guard(self):
        from repro.perf.compare import _compare_native

        base = {"kernel": "cc", "quick": False, "points": {}}
        new = {"kernel": "cc", "quick": True, "points": {}}
        findings: list = []
        _compare_native(base, new, gate_time=True, findings=findings)
        assert [f.verdict for f in findings] == ["skipped"]
