"""Tests for the fleet backends package (``repro.backends``).

The headline contract, property-tested across configs: whichever
backend runs lane ``k``, its trajectory is bit-identical to a scalar
:class:`FunctionalSimulator` seeded with the same salt — for the
default fixed-point formats, non-default rounding/overflow variants,
and wide "float-like" formats alike.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import make_engine
from repro.backends import (
    FleetBackend,
    ScalarFleetBackend,
    ShardedFleetBackend,
    VectorizedFleetBackend,
)
from repro.core.config import QTAccelConfig
from repro.core.functional import FunctionalSimulator
from repro.core.policies import PolicyDraws
from repro.envs.gridworld import GridWorld
from repro.envs.random_mdp import random_dense_mdp
from repro.fixedpoint import FxpFormat

GRID = GridWorld.random(8, 4, obstacle_density=0.15, seed=2).to_mdp()
LOOPY = random_dense_mdp(16, 4, seed=9, self_loop_bias=0.5)

#: Formats the bit-identity property sweeps: the default s16.6, a
#: nearest-rounding variant, a wrap-overflow variant, and a wide
#: "float-like" word whose resolution makes rounding loss negligible.
Q_FORMATS = {
    "default": FxpFormat(16, 6),
    "nearest": FxpFormat(16, 6, rounding="nearest"),
    "wrap": FxpFormat(16, 6, overflow="wrap"),
    "floatlike": FxpFormat(48, 24),
}


def reference_tables(mdp, cfg, salt, n):
    f = FunctionalSimulator(mdp, cfg, draws=PolicyDraws.from_config(cfg, salt=salt))
    f.run(n)
    return f


def assert_backend_parity(backend_cls, mdp, cfg, *, num_agents=4, n=400):
    fleet = backend_cls(mdp, cfg, num_agents=num_agents)
    fleet.run(n)
    for k in range(num_agents):
        f = reference_tables(mdp, cfg, k, n)
        assert np.array_equal(fleet.q[k], f.tables.q.data), f"lane {k} Q differs"
        assert np.array_equal(fleet.qmax[k], f.tables.qmax.data)
        assert np.array_equal(fleet.qmax_action[k], f.tables.qmax_action.data)
    return fleet


class TestBitIdentityProperty:
    """Hypothesis sweep: vectorized lanes == FunctionalSimulator."""

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(1, 2**16),
        alpha=st.sampled_from([0.25, 0.5, 1.0]),
        gamma=st.sampled_from([0.0, 0.5, 0.9]),
        algorithm=st.sampled_from(["qlearning", "sarsa"]),
        qmax_mode=st.sampled_from(["monotonic", "follow"]),
        fmt=st.sampled_from(sorted(Q_FORMATS)),
    )
    def test_vectorized_matches_functional(
        self, seed, alpha, gamma, algorithm, qmax_mode, fmt
    ):
        preset = getattr(QTAccelConfig, algorithm)
        cfg = preset(
            seed=seed,
            alpha=alpha,
            gamma=gamma,
            qmax_mode=qmax_mode,
            q_format=Q_FORMATS[fmt],
        )
        assert_backend_parity(VectorizedFleetBackend, LOOPY, cfg, num_agents=3, n=300)

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(1, 2**16),
        fmt=st.sampled_from(["default", "floatlike"]),
    )
    def test_scalar_matches_functional(self, seed, fmt):
        cfg = QTAccelConfig.sarsa(seed=seed, q_format=Q_FORMATS[fmt])
        assert_backend_parity(ScalarFleetBackend, GRID, cfg, num_agents=3, n=200)

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(1, 2**16),
        algorithm=st.sampled_from(["qlearning", "sarsa"]),
        fmt=st.sampled_from(sorted(Q_FORMATS)),
    )
    def test_backends_agree_with_each_other(self, seed, algorithm, fmt):
        preset = getattr(QTAccelConfig, algorithm)
        cfg = preset(seed=seed, q_format=Q_FORMATS[fmt], qmax_mode="follow")
        vec = VectorizedFleetBackend(GRID, cfg, num_agents=4)
        sc = ScalarFleetBackend(GRID, cfg, num_agents=4)
        vec.run(250)
        sc.run(250)
        assert np.array_equal(vec.q, sc.q)
        assert np.array_equal(vec.qmax, sc.qmax)
        assert np.array_equal(vec.qmax_action, sc.qmax_action)
        assert vec.stats.as_dict() == sc.stats.as_dict()


class TestCheckpointRoundTrip:
    @pytest.mark.parametrize("backend_cls", [VectorizedFleetBackend, ScalarFleetBackend])
    def test_state_dict_replays_exactly(self, backend_cls):
        cfg = QTAccelConfig.sarsa(seed=13, qmax_mode="follow")
        fleet = backend_cls(LOOPY, cfg, num_agents=5)
        fleet.run(150)
        ckpt = fleet.state_dict()
        fleet.run(150)
        q_after = fleet.q.copy()
        qmax_after = fleet.qmax.copy()
        stats_after = fleet.stats.as_dict()

        fresh = backend_cls(LOOPY, cfg, num_agents=5)
        fresh.load_state_dict(ckpt)
        fresh.run(150)
        assert np.array_equal(fresh.q, q_after)
        assert np.array_equal(fresh.qmax, qmax_after)
        assert fresh.stats.as_dict() == stats_after

    def test_vectorized_fixed_point_checkpoint(self):
        cfg = QTAccelConfig.qlearning(seed=3, q_format=Q_FORMATS["nearest"])
        fleet = VectorizedFleetBackend(GRID, cfg, num_agents=3)
        fleet.run(100)
        ckpt = fleet.state_dict()
        fleet.run(100)
        expected = fleet.q.copy()
        fleet.load_state_dict(ckpt)
        fleet.run(100)
        assert np.array_equal(fleet.q, expected)

    @pytest.mark.parametrize("backend_cls", [VectorizedFleetBackend, ScalarFleetBackend])
    def test_lane_state_restores_one_lane(self, backend_cls):
        """Per-lane rollback: restoring lane 1 replays only lane 1."""
        cfg = QTAccelConfig.qlearning(seed=8)
        fleet = backend_cls(GRID, cfg, num_agents=3)
        fleet.run(120)
        lane = fleet.lane_state(1)
        fleet.run(50)
        expected_other = fleet.q[2].copy()
        fleet.load_lane_state(1, lane)
        assert np.array_equal(fleet.q[2], expected_other)  # untouched
        # The restored lane matches a functional replay to sample 120.
        f = reference_tables(GRID, cfg, 1, 120)
        assert np.array_equal(fleet.q[1], f.tables.q.data)


#: Runs every checkpoint corruption against one backend in a child
#: process, so a crash in compiled code fails the test instead of killing
#: the run.  Prints one JSON object: case -> exception type name (or
#: "loaded" when the corrupt state was accepted), plus "untouched": whether
#: the fleet still replays a clean run after all the rejected loads.
_CORRUPTION_CHILD = textwrap.dedent(
    """
    import copy, json, sys
    import numpy as np
    from repro import make_engine
    from repro.core.config import QTAccelConfig
    from repro.envs.gridworld import GridWorld

    backend = sys.argv[1]
    world = GridWorld.empty(4, 4).to_mdp()  # 16 states x 4 actions
    kw = {"num_workers": 2, "mp_context": "fork"} if backend == "sharded" else {}
    CASES = [
        ("arch_state", 10_000_000), ("arch_state", 16), ("arch_state", -2),
        ("prev_state", 16), ("forwarded", 4), ("forwarded", -2),
        ("qmax_action", 4), ("prev_qmax_action", -1), ("prev_pair", 64),
        ("target_count", -1), ("lfsr.start", -5), ("lfsr.action", 0),
        ("lfsr.policy", 1 << 24), ("q", "shape"), ("arch_state", "float"),
    ]

    def corrupt(state, field, value, lane):
        if field.startswith("lfsr."):
            state, field = state["lfsr"], field[5:]
        if value == "shape":
            state[field] = state[field][..., :-1]
        elif value == "float":
            state[field] = np.asarray(state[field], dtype=float)
        elif lane:
            state[field] = value
        else:
            state[field][0] = value

    out = {}
    for cfg in (QTAccelConfig.qlearning(seed=1), QTAccelConfig.target_q(seed=1)):
        fleet = make_engine(cfg, engine=backend, mdps=world, num_agents=2, **kw)
        ref = make_engine(cfg, engine="vectorized", mdps=world, num_agents=2)
        fleet.run(3)
        ref.run(3)
        clean, clean_lane = fleet.state_dict(), fleet.lane_state(0)
        for field, value in CASES:
            if field not in clean and not field.startswith("lfsr."):
                continue
            for lane in (False, True):
                state = copy.deepcopy(clean_lane if lane else clean)
                corrupt(state, field, value, lane)
                case = f"{cfg.update_rule}:{'lane' if lane else 'fleet'}:{field}={value}"
                try:
                    if lane:
                        fleet.load_lane_state(0, state)
                    else:
                        fleet.load_state_dict(state)
                    fleet.run(4)
                    out[case] = "loaded"
                except Exception as exc:
                    out[case] = type(exc).__name__
        fleet.run(4)
        ref.run(4)
        out[f"{cfg.update_rule}:untouched"] = bool(
            np.array_equal(fleet.q, ref.q) and np.array_equal(fleet.qmax, ref.qmax)
        )
        getattr(fleet, "close", lambda: None)()
    print(json.dumps(out))
    """
)


class TestCorruptCheckpoint:
    """A corrupted checkpoint gets a typed ``ValueError`` at load time on
    every array backend — never a crash, never a silent continuation."""

    @pytest.mark.parametrize("backend", ["native", "vectorized", "sharded"])
    def test_corrupt_checkpoint_raises_typed_error(self, backend):
        if backend == "native":
            from repro.backends.native import _find_compiler

            if _find_compiler() is None:
                pytest.skip("no C compiler for the fused kernel")
        src_dir = Path(repro.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", _CORRUPTION_CHILD, backend],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(src_dir)),
            timeout=300,
        )
        assert proc.returncode == 0, f"child died ({proc.returncode}):\n{proc.stderr}"
        results = json.loads(proc.stdout)
        untouched = {k: results.pop(k) for k in list(results) if k.endswith("untouched")}
        assert untouched and all(untouched.values()), untouched
        assert results and all(v == "ValueError" for v in results.values()), {
            k: v for k, v in results.items() if v != "ValueError"
        }


class TestCrossBackendLanePayloads:
    """The array backends share one checkpoint payload and the scalar
    backend has its own; loading one kind into the other is a typed
    ``ValueError`` naming the missing field, and writes nothing."""

    def _fleets(self):
        cfg = QTAccelConfig.qlearning(seed=3)
        scalar = ScalarFleetBackend(GRID, cfg, num_agents=2)
        vec = VectorizedFleetBackend(GRID, cfg, num_agents=2)
        scalar.run(20)
        vec.run(20)
        return scalar, vec

    def test_scalar_payload_into_vectorized(self):
        scalar, vec = self._fleets()
        before = vec.state_dict()
        with pytest.raises(ValueError, match="'q'"):
            vec.load_lane_state(0, scalar.lane_state(0))
        with pytest.raises(ValueError, match="'q'"):
            vec.load_state_dict(scalar.state_dict())
        lane = vec.lane_state(1)
        del lane["lfsr"]["policy"]
        with pytest.raises(ValueError, match="'lfsr.policy'"):
            vec.load_lane_state(0, lane)
        assert np.array_equal(vec.q, before["q"])

    def test_vectorized_payload_into_scalar(self):
        scalar, vec = self._fleets()
        before = scalar.q.copy()
        with pytest.raises(ValueError, match="'tables'"):
            scalar.load_lane_state(0, vec.lane_state(0))
        with pytest.raises(ValueError, match="'lanes'"):
            scalar.load_state_dict(vec.state_dict())
        state = scalar.state_dict()
        del state["lanes"][1]["draws"]
        with pytest.raises(ValueError, match="'draws'"):
            scalar.load_state_dict(state)
        assert np.array_equal(scalar.q, before)


class TestLaneIndexChecks:
    """Every lane op checks its lane the way ``reset_lane`` does: a
    negative, bool or out-of-range lane is a typed ``IndexError`` that
    writes nothing, on every backend."""

    @pytest.mark.parametrize("engine", ["vectorized", "native", "scalar", "sharded"])
    def test_bad_lane_raises_and_writes_nothing(self, engine):
        if engine == "native":
            from repro.backends.native import _find_compiler

            if _find_compiler() is None:
                pytest.skip("no C compiler for the fused kernel")
        kw = {"num_workers": 2, "mp_context": "fork"} if engine == "sharded" else {}
        cfg = QTAccelConfig.qlearning(seed=4)
        fleet = make_engine(cfg, engine=engine, mdps=GRID, num_agents=3, **kw)
        try:
            fleet.run(20)
            lane, state = fleet.lane_state(0), fleet.state_dict()
            before = fleet.q.copy()
            for k in (-1, 3, 5, True):
                with pytest.raises(IndexError, match=r"out of range 0\.\.2"):
                    fleet.load_lane_state(k, lane)
                with pytest.raises(IndexError, match=r"out of range 0\.\.2"):
                    fleet.lane_state(k)
                with pytest.raises(IndexError, match=r"out of range 0\.\.2"):
                    fleet.lane_state(k, state)
                with pytest.raises(IndexError, match=r"out of range 0\.\.2"):
                    fleet.q_float(k)
            assert np.array_equal(fleet.q, before)
            fleet.load_lane_state(np.int64(2), lane)  # numpy integers are lanes
            assert np.array_equal(fleet.q[2], before[0])
            assert np.array_equal(fleet.q[:2], before[:2])
        finally:
            getattr(fleet, "close", lambda: None)()


class TestRegistryAndDispatch:
    def test_stats_contract(self):
        cfg = QTAccelConfig.qlearning(seed=1)
        for kind in ("vectorized", "scalar"):
            fleet = make_engine(cfg, engine=kind, mdps=GRID, num_agents=2)
            assert isinstance(fleet, FleetBackend)
            fleet.run(10)
            d = fleet.stats.as_dict()
            assert d["samples"] == 20
            assert d["cycles"] is None
            assert fleet.stats.samples == 20

    def test_total_samples_is_a_snapshot_key_only(self):
        fleet = make_engine(
            QTAccelConfig.qlearning(seed=1), engine="vectorized", mdps=GRID, num_agents=2
        )
        fleet.run(5)
        assert not hasattr(fleet.stats, "total_samples")
        assert fleet.telemetry_snapshot()["total_samples"] == fleet.stats.samples == 10


# ---------------------------------------------------------------------- #
# Sharded (process-parallel) backend
# ---------------------------------------------------------------------- #


def _sharded(mdps, cfg, **kw):
    """Sharded fleet with test defaults: fork (fast) and small epochs."""
    kw.setdefault("mp_context", "fork")
    kw.setdefault("epoch", 32)
    return ShardedFleetBackend(mdps, cfg, **kw)


def assert_fleets_equal(sharded, vec):
    assert np.array_equal(sharded.q, vec.q)
    assert np.array_equal(sharded.qmax, vec.qmax)
    assert np.array_equal(sharded.qmax_action, vec.qmax_action)
    assert sharded.stats.as_dict() == vec.stats.as_dict()


class TestShardedBitIdentity:
    """The tentpole contract: any worker count, same bits."""

    @settings(max_examples=5, deadline=None)
    @given(
        seed=st.integers(1, 2**16),
        workers=st.sampled_from([1, 2, 3, 5]),
        algorithm=st.sampled_from(["qlearning", "sarsa"]),
        fmt=st.sampled_from(["default", "nearest"]),
    )
    def test_sharded_matches_vectorized(self, seed, workers, algorithm, fmt):
        preset = getattr(QTAccelConfig, algorithm)
        cfg = preset(seed=seed, q_format=Q_FORMATS[fmt], qmax_mode="follow")
        vec = VectorizedFleetBackend(LOOPY, cfg, num_agents=6)
        vec.run(96)
        fleet = _sharded(LOOPY, cfg, num_agents=6, num_workers=workers)
        try:
            fleet.run(96)
            assert_fleets_equal(fleet, vec)
        finally:
            fleet.close()

    def test_workers_exceeding_lanes_clamp(self):
        cfg = QTAccelConfig.qlearning(seed=4)
        vec = VectorizedFleetBackend(GRID, cfg, num_agents=3)
        vec.run(80)
        fleet = _sharded(GRID, cfg, num_agents=3, num_workers=9)
        try:
            assert fleet.num_workers == 3  # one lane per worker at most
            fleet.run(80)
            assert_fleets_equal(fleet, vec)
        finally:
            fleet.close()

    def test_heterogeneous_worlds_odd_split(self):
        """Per-lane worlds survive an uneven 5-lanes/2-workers split."""
        worlds = [random_dense_mdp(16, 4, seed=s, self_loop_bias=0.5) for s in range(20, 25)]
        cfg = QTAccelConfig.sarsa(seed=6, qmax_mode="follow")
        vec = VectorizedFleetBackend(worlds, cfg)
        vec.run(90)
        fleet = _sharded(worlds, cfg, num_workers=2)
        try:
            fleet.run(90)
            assert_fleets_equal(fleet, vec)
        finally:
            fleet.close()

    def test_spawn_context_parity(self):
        """The default spawn context produces the same bits as fork."""
        cfg = QTAccelConfig.qlearning(seed=12)
        vec = VectorizedFleetBackend(GRID, cfg, num_agents=4)
        vec.run(64)
        fleet = ShardedFleetBackend(
            GRID, cfg, num_agents=4, num_workers=2, epoch=32, mp_context="spawn"
        )
        try:
            fleet.run(64)
            assert_fleets_equal(fleet, vec)
        finally:
            fleet.close()

    def test_lane_parity_with_functional(self):
        """Each shard lane still replays the scalar reference exactly."""
        cfg = QTAccelConfig.qlearning(seed=17, qmax_mode="follow")
        fleet = _sharded(GRID, cfg, num_agents=4, num_workers=2)
        try:
            fleet.run(120)
            for k in range(4):
                f = reference_tables(GRID, cfg, k, 120)
                assert np.array_equal(fleet.q[k], f.tables.q.data), f"lane {k}"
        finally:
            fleet.close()


class TestShardedCheckpointAndRecovery:
    def test_checkpoint_round_trip_across_worker_counts(self):
        """A 3-worker checkpoint restores into a 2-worker fleet."""
        cfg = QTAccelConfig.sarsa(seed=13, qmax_mode="follow")
        fleet = _sharded(LOOPY, cfg, num_agents=5, num_workers=3)
        try:
            fleet.run(96)
            ckpt = fleet.state_dict()
            fleet.run(96)
            q_after = fleet.q.copy()
            stats_after = fleet.stats.as_dict()
        finally:
            fleet.close()

        fresh = _sharded(LOOPY, cfg, num_agents=5, num_workers=2)
        try:
            fresh.load_state_dict(ckpt)
            fresh.run(96)
            assert np.array_equal(fresh.q, q_after)
            assert fresh.stats.as_dict() == stats_after
        finally:
            fresh.close()

    def test_killed_worker_recovers_bit_identically(self):
        cfg = QTAccelConfig.qlearning(seed=5, qmax_mode="follow")
        vec = VectorizedFleetBackend(GRID, cfg, num_agents=6)
        vec.run(192)
        fleet = _sharded(GRID, cfg, num_agents=6, num_workers=2)
        try:
            fleet.run(96)
            fleet.kill_worker(1)
            fleet.run(96)
            assert fleet.restarts >= 1
            assert not fleet.quarantined_workers
            assert_fleets_equal(fleet, vec)
        finally:
            fleet.close()

    def test_unrecoverable_worker_is_quarantined(self):
        """A worker that dies on every epoch stops retrying; the healthy
        shard keeps training bit-identically."""
        cfg = QTAccelConfig.qlearning(seed=7, qmax_mode="follow")
        fleet = _sharded(
            GRID,
            cfg,
            num_agents=4,
            num_workers=2,
            max_worker_restarts=1,
            debug_fail_workers=(1,),
        )
        try:
            fleet.run(64)
            assert fleet.quarantined_workers == {1}
            vec = VectorizedFleetBackend(GRID, cfg, num_agents=4)
            vec.run(64)
            lo, hi = fleet.shard_bounds(0)
            assert np.array_equal(fleet.q[lo:hi], vec.q[lo:hi])
        finally:
            fleet.close()

    def test_supervisor_composes_over_sharded(self):
        """FleetSupervisor's lane-level recovery runs on top of the
        backend's own process-level recovery."""
        from repro.robustness import BatchLanes, FleetSupervisor

        cfg = QTAccelConfig.qlearning(seed=9, qmax_mode="follow")
        fleet = _sharded(GRID, cfg, num_agents=4, num_workers=2)
        try:
            sup = FleetSupervisor(BatchLanes(fleet), interval=32)
            report = sup.run(96)
            assert report.completed
            assert fleet.stats.samples_per_agent == 96
        finally:
            fleet.close()


class TestShardedDispatchAndLifecycle:
    def test_facade_and_engine_dispatch(self):
        cfg = QTAccelConfig.qlearning(seed=2)
        via_engine = make_engine(
            cfg, engine="sharded", mdp=GRID, num_agents=2, num_workers=2,
            mp_context="fork",
        )
        try:
            assert isinstance(via_engine, ShardedFleetBackend)
            assert isinstance(via_engine, FleetBackend)
        finally:
            via_engine.close()

    def test_profiles_as_one_sharded_engine(self):
        """The parent's own program does not attach to the ambient session."""
        from repro.telemetry import TelemetrySession

        with TelemetrySession(trace=False) as session:
            cfg = QTAccelConfig.qlearning(seed=2)
            with _sharded(GRID, cfg, num_agents=4, num_workers=2) as fleet:
                fleet.run(8)
                fleet.apply_transition(1, 2, 0, 0.5, 3)
                engines = session.profile()["engines"]
        assert list(engines) == ["sharded"]
        assert engines["sharded"]["total_samples"] == 32
        assert engines["sharded"]["workers"] == 2

    def test_close_is_idempotent_and_context_manager(self):
        cfg = QTAccelConfig.qlearning(seed=2)
        with _sharded(GRID, cfg, num_agents=2, num_workers=2) as fleet:
            fleet.run(32)
        fleet.close()  # second close is a no-op

    def test_startup_stall_raises_within_hang_timeout(self, monkeypatch):
        """A worker stopped during startup is killed after hang_timeout_s
        and construction fails naming it, leaving no process or shm."""
        from multiprocessing import shared_memory

        spawned = []
        real_spawn = ShardedFleetBackend._spawn_worker

        def spawn_then_stop_worker_1(self, w):
            real_spawn(self, w)
            spawned.append((self._procs[w], self._shm.name))
            if w == 1:
                os.kill(self._procs[w].pid, signal.SIGSTOP)

        monkeypatch.setattr(ShardedFleetBackend, "_spawn_worker", spawn_then_stop_worker_1)
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="shard worker 1 made no startup progress"):
            ShardedFleetBackend(
                GRID, QTAccelConfig.qlearning(seed=2), num_agents=4, num_workers=2,
                hang_timeout_s=1.0,
            )
        assert time.monotonic() - t0 < 1.0 + 4.0
        assert [proc.is_alive() for proc, _ in spawned] == [False, False]
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=spawned[0][1])

    def test_heartbeat_budget(self):
        """A 256-step epoch of a 2048-lane shard (the benchmark shape) is
        one kernel call; the numpy fallback keeps short bumps."""
        from repro.backends.sharded import _beat_steps

        assert _beat_steps("cc", 2048) >= 256
        assert _beat_steps("cc", 1 << 30) == 1
        assert _beat_steps("numpy", 1) == 64

    def test_no_compiler_shards_run_numpy(self, monkeypatch):
        """Without a C compiler (an environment the spawned workers
        inherit) shards run the vectorized program, bit-identically."""
        from tests.test_native_backend import _assert_same_state

        monkeypatch.delenv("CC", raising=False)
        monkeypatch.setenv("PATH", "")
        cfg = QTAccelConfig.target_q(seed=21, qmax_mode="exact")
        vec = VectorizedFleetBackend(LOOPY, cfg, num_agents=5)
        vec.run(100)
        with ShardedFleetBackend(
            LOOPY, cfg, num_agents=5, num_workers=2, epoch=45
        ) as fleet:
            assert fleet.telemetry_snapshot()["kernel"] == "numpy"
            fleet.run(100)
            _assert_same_state(fleet, vec)  # every lane array, LFSR and stat

    def test_no_compiler_shards_recover_bit_exactly(self, monkeypatch):
        """The numpy fallback captures its rows after each run, so a
        killed worker replays its one failed epoch bit-identically."""
        from tests.test_native_backend import _assert_same_state, _garble_spare

        monkeypatch.delenv("CC", raising=False)
        monkeypatch.setenv("PATH", "")
        cfg = QTAccelConfig.sarsa(seed=23, qmax_mode="follow")
        vec = VectorizedFleetBackend(GRID, cfg, num_agents=5)
        vec.run(90)
        with _sharded(GRID, cfg, num_agents=5, num_workers=2, epoch=30) as fleet:
            assert fleet.shard_kernel == "numpy"
            fleet.run(60)
            _garble_spare(fleet, 1)
            fleet.kill_worker(1)
            fleet.run(30)
            assert fleet.restarts == 1 and fleet.replayed_samples == 30
            _assert_same_state(fleet, vec)

    def test_telemetry_snapshot_reports_topology(self):
        cfg = QTAccelConfig.qlearning(seed=2)
        fleet = _sharded(GRID, cfg, num_agents=4, num_workers=2)
        try:
            fleet.run(32)
            snap = fleet.telemetry_snapshot()
            assert snap["workers"] == 2
            assert snap["restarts"] == 0
            assert snap["replayed_samples"] == 0
        finally:
            fleet.close()
