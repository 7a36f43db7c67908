"""The native fused-kernel backend (``repro.backends.native``).

Contract under test: after the C kernel advances the fleet, the
architectural state is bit-identical to the vectorized numpy program
(and therefore, transitively, to the scalar :class:`FunctionalSimulator`
every other backend is pinned against).  The kernel needs a C compiler,
so the module is skipped on a host without one.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import RULE_KINDS
from repro.backends import (
    FleetBackend,
    NativeBackendUnavailableError,
    NativeFleetBackend,
    VectorizedFleetBackend,
    native_available,
)
from repro.backends import native as native_mod
from repro.core.config import QTAccelConfig
from repro.core.engine import FLEET_KINDS, make_engine
from repro.core.functional import FunctionalSimulator
from repro.core.policies import PolicyDraws
from repro.envs.gridworld import GridWorld
from repro.envs.random_mdp import random_dense_mdp
from repro.fixedpoint import FxpFormat
from tests.test_lane_ops import _as_columns, _fleet_lane, _functional_lane
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
        assert "native" in FLEET_KINDS
        ok, detail = native_available()
        assert ok is True and isinstance(detail, str)

    def test_make_engine_and_facade_dispatch(self):
        cfg = QTAccelConfig.qlearning(seed=1)
        eng = make_engine(cfg, engine="native", mdp=GRID, num_agents=2)
        assert isinstance(eng, NativeFleetBackend)
        assert isinstance(eng, FleetBackend)
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
        assert native_available()[0] is False

    def test_kernel_has_a_tag_for_every_rule_kind(self):
        """``rule.kind`` is the kernel's only rule key: every kind a rule
        can register with maps to its own C tag, and no other kind does."""
        assert set(native_mod._RULE_KINDS) == set(RULE_KINDS)
        assert len(set(native_mod._RULE_KINDS.values())) == len(RULE_KINDS)

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
# Per-configuration builds: one compiled variant per switch tuple
# ---------------------------------------------------------------------- #

#: The base of the variant sweep (the benchmark's switches) and, per
#: build-key switch, a config that flips it.  ``on_policy`` is derived
#: from the policy pair, so SARSA flips it with both policy switches.
VARIANT_BASE = {"update_rule": "qlearning", "qmax_mode": "follow"}
VARIANT_FLIPS = {
    "rule_kind=momentum": {"update_rule": "momentum_qlearning"},
    "rule_kind=target": {"update_rule": "target_qlearning", "target_sync_period": 13},
    "qmax_mode=exact": {"qmax_mode": "exact"},
    "qmax_mode=monotonic": {"qmax_mode": "monotonic"},
    "update_greedy": {"update_policy": "egreedy"},
    "behavior_random": {"behavior_policy": "egreedy"},
    "on_policy": {"update_rule": "sarsa"},
    "het": {},
    "saturate": {"q_format": FxpFormat(10, 4, overflow="wrap")},
    "nearest": {"q_format": FxpFormat(16, 6, rounding="nearest")},
}
HET_WORLDS = [random_dense_mdp(16, 4, seed=s, self_loop_bias=0.5) for s in (50, 51, 52)]


def _variant(flip: str):
    cfg = QTAccelConfig(seed=17, **{**VARIANT_BASE, **VARIANT_FLIPS[flip]})
    worlds = HET_WORLDS if flip == "het" else [LOOPY] * 3
    return cfg, worlds


def _native_fleet(cfg, worlds):
    if all(w is worlds[0] for w in worlds):
        return NativeFleetBackend(worlds[0], cfg, num_agents=len(worlds))
    return NativeFleetBackend(worlds, cfg)


def _drive_against_functional(fleet, sims, ops) -> None:
    """Apply ``ops`` (``("run", n)`` or ``("learn", k, rows)``) to the
    fleet and to one functional simulator per lane; after each op every
    lane's full state, LFSR registers included, must match."""
    for op in ops:
        if op[0] == "run":
            fleet.run(op[1])
            for sim in sims:
                sim.run(op[1])
        else:
            _, k, rows = op
            got = fleet.apply_transition(k, *_as_columns(rows))
            for row in rows:
                want = sims[k].apply_transition(*row)
            assert got == want, op
        for k, sim in enumerate(sims):
            want = _functional_lane(sim)
            got = _fleet_lane(fleet, k)
            assert {key: got[key] for key in want} == want, (op, k)
    counts = [sum(getattr(sim.stats, f) for sim in sims) for f in ("exploits", "explores", "episodes")]
    assert [fleet.stats.exploits, fleet.stats.explores, fleet.stats.episodes] == counts


def _variant_ops(seed: int):
    """Runs and learn batches (on a 16-state, 4-action world)."""
    rng = np.random.default_rng(seed)

    def rows(n: int) -> list:
        return [
            (int(rng.integers(16)), int(rng.integers(4)), round(float(rng.uniform(-2, 2)), 3),
             int(rng.integers(16)), bool(rng.random() < 0.15))
            for _ in range(n)
        ]

    return [("run", 90), ("learn", 1, rows(7)), ("run", 33), ("learn", 2, rows(5)), ("run", 1)]


def _functional_sims(cfg, worlds):
    return [
        FunctionalSimulator(w, cfg, draws=PolicyDraws.from_config(cfg, salt=k))
        for k, w in enumerate(worlds)
    ]


class TestKernelVariants:
    def test_flips_cover_every_switch_once(self):
        """Each flip moves the build key off the base, and together they
        flip every switch; ``on_policy`` moves only with the policies."""
        base = native_mod._switches(QTAccelConfig(seed=17, **VARIANT_BASE), het=False)
        moved = {}
        for flip in VARIANT_FLIPS:
            cfg, _ = _variant(flip)
            key = native_mod._switches(cfg, het=flip == "het")
            moved[flip] = {
                name for name, a, b in zip(native_mod._SWITCHES, base, key) if a != b
            }
            assert flip.split("=")[0] in moved[flip], flip
            assert len(moved[flip]) == 1 or flip == "on_policy", (flip, moved[flip])
        assert set().union(*moved.values()) == set(native_mod._SWITCHES)

    @pytest.mark.parametrize("flip", ["base", *VARIANT_FLIPS])
    def test_variant_matches_functional(self, flip):
        """Every build variant, one switch away from the base, retires
        ``run(n)`` and batched ``apply_transition`` bit for bit like the
        reference simulator."""
        if flip == "base":
            cfg, worlds = QTAccelConfig(seed=17, **VARIANT_BASE), [LOOPY] * 3
        else:
            cfg, worlds = _variant(flip)
        fleet = _native_fleet(cfg, worlds)
        _drive_against_functional(fleet, _functional_sims(cfg, worlds), _variant_ops(len(flip)))

    def test_two_variants_interleaved_in_one_process(self):
        """Two differently configured fleets alternate in one process;
        each keeps its own compiled variant and its trajectory."""
        configs = [
            QTAccelConfig.qlearning(seed=61, qmax_mode="follow"),
            QTAccelConfig.sarsa(
                seed=62, qmax_mode="exact", q_format=FxpFormat(10, 4, overflow="wrap")
            ),
        ]
        worlds = [LOOPY] * 3
        fleets = [_native_fleet(cfg, worlds) for cfg in configs]
        sims = [_functional_sims(cfg, worlds) for cfg in configs]
        assert fleets[0]._steps_fn is not fleets[1]._steps_fn
        for seed in range(4):
            for fleet, lanes in zip(fleets, sims):
                _drive_against_functional(fleet, lanes, _variant_ops(seed))

    def test_second_construction_builds_and_loads_nothing(self, monkeypatch):
        """After the first construction of a config, the next one does no
        compiler lookup, hashing, file-system work, compile or load."""
        import ctypes
        import shutil

        cfg = QTAccelConfig.sarsa(seed=3, qmax_mode="monotonic")
        NativeFleetBackend(GRID, cfg, num_agents=2)
        loaded = dict(native_mod._KERNELS)

        def forbidden(*args, **kwargs):
            raise AssertionError("a repeat construction built or loaded a kernel")

        monkeypatch.setattr(native_mod, "_build_library", forbidden)
        monkeypatch.setattr(ctypes, "CDLL", forbidden)
        monkeypatch.setattr(shutil, "which", forbidden)
        fleet = NativeFleetBackend(GRID, cfg, num_agents=4)
        fleet.run(10)
        assert native_mod._KERNELS == loaded

    def test_concurrent_first_builds_both_load(self, tmp_path):
        """Two processes building one fresh variant at once (an empty
        cache) both load a working kernel: neither compiles or loads the
        other's half-written source or object."""
        go = tmp_path / "go"
        child = (
            "import os, sys, time\n"
            "from repro.backends import native\n"
            "from repro.core.config import QTAccelConfig\n"
            "key = native._switches(QTAccelConfig.target_q(seed=1, qmax_mode='exact'), het=True)\n"
            "open(sys.argv[1], 'w').close()\n"
            "while not os.path.exists(sys.argv[2]):\n"
            "    time.sleep(0.001)\n"
            "native._get_kernel(key)\n"
        )
        cache = tmp_path / "tmp"
        cache.mkdir()
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, TMPDIR=str(cache), PYTHONPATH=src)
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", child, str(tmp_path / f"ready{i}"), str(go)],
                env=env, stderr=subprocess.PIPE, text=True,
            )
            for i in range(2)
        ]
        try:
            deadline = time.monotonic() + 60
            while not all((tmp_path / f"ready{i}").exists() for i in range(2)):
                assert time.monotonic() < deadline, "children never got ready"
                assert all(p.poll() is None for p in procs), "a child died early"
                time.sleep(0.005)
            go.touch()
            errors = [p.communicate(timeout=120)[1] for p in procs]
        finally:
            for p in procs:
                if p.poll() is None:
                    p.kill()
        assert [p.returncode for p in procs] == [0, 0], errors
        (built,) = list(cache.iterdir())
        assert [f.suffix for f in built.iterdir()] == [".so"]


# ---------------------------------------------------------------------- #
# Checkpoint / rollback
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("qmax_mode", ["exact", "monotonic", "follow"])
def test_guarded_native_matches_guarded_vectorized(qmax_mode):
    """A guard sends native's run through the numpy step, on the same
    state as its lane-op buffer."""
    from repro.robustness import DivergenceGuard

    cfg = QTAccelConfig.qlearning(seed=23, qmax_mode=qmax_mode)
    fleets = []
    for cls in (NativeFleetBackend, VectorizedFleetBackend):
        fleet = cls(GRID, cfg, num_agents=8)
        fleet.guard = DivergenceGuard("quarantine")
        fleet.apply_transition(3, [1, 2, 3], [0, 1, 2], [0.5, 1.0, -0.5], [2, 3, 4], [0, 0, 1])
        fleet.run(50)
        fleets.append(fleet)
    _assert_same_state(*fleets)
    assert fleets[0].guard.quarantined_lanes == fleets[1].guard.quarantined_lanes


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
# Sharded workers run the kernel
# ---------------------------------------------------------------------- #


@pytest.fixture
def fine_heartbeat(monkeypatch):
    """Forked shard workers that bump their heartbeat every few steps, so
    an epoch spans several kernel calls with a partial last one."""
    from repro.backends import sharded

    monkeypatch.setattr(sharded, "_HEARTBEAT_UPDATES", 7)


def _shards(mdps, cfg, **kw):
    from repro.backends import ShardedFleetBackend

    kw.setdefault("num_workers", 2)
    kw.setdefault("mp_context", "fork")
    kw.setdefault("epoch", 37)
    return ShardedFleetBackend(mdps, cfg, **kw)


def _assert_lanes_match_functional(fleet, mdps, cfg, salts, steps) -> None:
    for k, salt in enumerate(salts):
        world = mdps[k] if isinstance(mdps, list) else mdps
        ref = FunctionalSimulator(world, cfg, draws=PolicyDraws.from_config(cfg, salt=salt))
        ref.run(steps)
        assert np.array_equal(fleet.q[k], ref.tables.q.data), f"lane {k} Q"
        assert np.array_equal(fleet.qmax[k], ref.tables.qmax.data), f"lane {k} Qmax"
        assert np.array_equal(fleet.qmax_action[k], ref.tables.qmax_action.data)


@pytest.mark.usefixtures("fine_heartbeat")
class TestShardedKernel:
    """Shard workers run the fused kernel and stay on the trajectory of
    the vectorized program and the scalar simulator, lane by lane."""

    @pytest.mark.parametrize("qmax_mode", ["exact", "monotonic", "follow"])
    @pytest.mark.parametrize("rule", RULES)
    def test_matches_vectorized_and_functional(self, rule, qmax_mode):
        cfg = _cfg(rule, seed=19, qmax_mode=qmax_mode)
        vec = VectorizedFleetBackend(LOOPY, cfg, num_agents=5)
        vec.run(150)
        with _shards(LOOPY, cfg, num_agents=5) as fleet:
            assert fleet.shard_kernel == "cc"
            assert fleet.telemetry_snapshot()["kernel"] == "cc"
            fleet.run(150)  # epochs of 37: 4 full and a 2-step tail
            _assert_same_state(fleet, vec)
            _assert_lanes_match_functional(fleet, LOOPY, cfg, range(5), 150)

    def test_heterogeneous_fleet(self):
        worlds = [random_dense_mdp(16, 4, seed=s, self_loop_bias=0.5) for s in range(30, 35)]
        cfg = QTAccelConfig.sarsa(seed=43, qmax_mode="follow")
        salts = [8, 3, 12, 0, 5]
        vec = VectorizedFleetBackend(worlds, cfg, salts=salts)
        vec.run(130)
        with _shards(worlds, cfg, salts=salts, epoch=50) as fleet:
            fleet.run(130)
            _assert_same_state(fleet, vec)
            _assert_lanes_match_functional(fleet, worlds, cfg, salts, 130)

    def test_killed_worker_replays_bit_exact(self):
        cfg = QTAccelConfig.momentum(seed=29, qmax_mode="follow")
        vec = VectorizedFleetBackend(GRID, cfg, num_agents=6)
        vec.run(185)
        with _shards(GRID, cfg, num_agents=6) as fleet:
            fleet.run(74)
            fleet.kill_worker(1)
            fleet.run(111)
            assert fleet.restarts >= 1 and not fleet.quarantined_workers
            assert fleet.shard_kernel == "cc"
            _assert_same_state(fleet, vec)

    def test_hung_worker_replays_bit_exact(self):
        cfg = QTAccelConfig.target_q(seed=37, target_sync_period=23)
        vec = VectorizedFleetBackend(GRID, cfg, num_agents=4)
        vec.run(120)
        with _shards(GRID, cfg, num_agents=4, hang_timeout_s=0.5) as fleet:
            fleet.run(40)
            fleet.hang_worker(0)  # SIGSTOP: alive, no heartbeat
            fleet.run(80)
            assert fleet.hangs == 1 and fleet.restarts >= 1
            assert not fleet.quarantined_workers
            _assert_same_state(fleet, vec)

    @pytest.mark.parametrize(
        "cfg, seed",
        [
            (QTAccelConfig.qlearning(seed=31, qmax_mode="follow"), 3),
            (QTAccelConfig.sarsa(seed=41), 4),
            (QTAccelConfig.target_q(seed=47, target_sync_period=9), 5),
        ],
    )
    def test_lane_ops_interleaved_with_runs_and_faults(self, cfg, seed):
        """Parent-side lane ops between epochs, then worker faults: the
        recovered shard must replay from after the lane ops."""
        lanes = 6
        _drive_interleaved(GRID, cfg, lanes, _interleaved_ops(seed, lanes, GRID))

    def test_lane_op_then_kill_keeps_the_lane_op(self):
        """Fixed case: a lane op, a worker kill, a run."""
        world = GridWorld.empty(4, 4).to_mdp()
        ops = [
            ("run", 8),
            ("apply_transition", 0, [1, 2, 3], [0, 1, 2], [0.5, 1.0, -0.5], [2, 3, 4], [0, 0, 0]),
            ("kill_worker", 0),
            ("run", 8),
        ]
        _drive_interleaved(world, QTAccelConfig.qlearning(seed=5), 4, ops, epoch=256)

    @pytest.mark.parametrize("fault", ["kill_worker", "hang_worker"])
    def test_garbage_spare_generation_then_fault(self, fault):
        """A worker that dies mid-capture leaves a half-written spare
        generation; recovery reads only the committed one and replays
        exactly the failed epoch."""
        cfg = QTAccelConfig.sarsa(seed=53, qmax_mode="follow")
        ops = [("run", 8), ("garble_spare", 1), (fault, 1), ("run", 4), ("run", 4)]
        fleet = _drive_interleaved(GRID, cfg, 6, ops)
        assert fleet.replayed_samples == 4

    def test_lane_ops_then_kill_in_next_epoch(self):
        """Every parent-side lane write reaches the committed generation:
        a kill in the next epoch replays from after all of them, even with
        the spare generation garbled."""
        cfg = QTAccelConfig.qlearning(seed=59)
        ops = [
            ("run", 8),
            ("apply_transition", 4, [1, 5], [2, 0], [0.25, -1.0], [5, 6], [0, 1]),
            ("query_action", 5, 3, True),
            ("reset_lane", 3, 77),
            ("copy_lane", 0, 4),
            ("garble_spare", 1),
            ("kill_worker", 1),
            ("run", 4),
        ]
        _drive_interleaved(GRID, cfg, 6, ops)

    def test_load_state_dict_then_kill(self):
        """A loaded checkpoint becomes every worker's committed
        generation, so a kill right after the load replays from it."""
        cfg = QTAccelConfig.momentum(seed=61, qmax_mode="follow")
        ref = NativeFleetBackend(GRID, cfg, num_agents=6)
        ref.run(50)
        with _shards(GRID, cfg, num_agents=6) as fleet:
            fleet.run(37)
            fleet.load_state_dict(ref.state_dict())
            for w in range(2):
                _garble_spare(fleet, w)
            fleet.kill_worker(0)
            fleet.run(60)
            ref.run(60)
            assert fleet.restarts == 1
            _assert_same_state(fleet, ref)

    def test_state_dict_aliases_no_shadow(self):
        """``state_dict()`` is a fresh copy: later epochs, which capture
        into both shadow generations, leave it unchanged."""
        import copy

        with _shards(GRID, QTAccelConfig.qlearning(seed=67), num_agents=4) as fleet:
            fleet.run(37)
            snap = fleet.state_dict()
            frozen = copy.deepcopy(snap)
            fleet.run(37)
            fleet.run(37)
            _assert_equal_tree(snap, frozen)


def _lane_arrays(program) -> list:
    """Every lane-state array of a fleet program: its tables and latches,
    then its three LFSR registers."""
    from repro.backends.base import LFSR_STREAMS

    arrays = [getattr(program, attr) for attr, _, _, _ in program._layout.tables]
    return arrays + [getattr(program, f"_bank_{b}").states for b, _ in LFSR_STREAMS]


class TestLaneStorage:
    """A fleet program runs on the storage it was built on: a standalone
    fleet's lane state is one block, and a sharded fleet's programs run on
    the shared segment, seeded there by the parent."""

    @pytest.mark.parametrize("rule", RULES)
    def test_native_lane_state_is_one_block(self, rule):
        fleet = NativeFleetBackend(GRID, _cfg(rule, seed=3), num_agents=5)
        arrays = _lane_arrays(fleet)
        block = fleet.q.base
        assert isinstance(block, np.ndarray) and block.flags.owndata
        assert all(a.base is block for a in arrays)
        assert all(a.ctypes.data % 64 == 0 for a in arrays)  # one line each
        ctx = dict(zip(native_mod._CTX_POINTERS, fleet._ctx.tolist()))
        assert ctx["q"] == fleet.q.ctypes.data
        assert ctx["s_policy"] == fleet._bank_policy.states.ctypes.data

    def test_sharded_program_runs_on_the_segment(self):
        with _shards(GRID, _cfg("target", seed=5), num_agents=5) as fleet:
            seg = np.ndarray((fleet._layout.nbytes,), np.uint8, buffer=fleet._shm.buf)
            try:
                assert all(np.shares_memory(a, seg) for a in _lane_arrays(fleet._program))
            finally:
                del seg

    def test_fresh_state_dict_matches_native(self):
        cfg = _cfg("momentum", seed=73, q_init=-0.5)
        salts = [5, 0, 21, 8]
        with _shards(GRID, cfg, num_agents=4, salts=salts) as fleet:
            _assert_same_state(fleet, NativeFleetBackend(GRID, cfg, num_agents=4, salts=salts))

    @pytest.mark.parametrize("fault", ["kill_worker", "hang_worker"])
    @pytest.mark.parametrize("rule", ["momentum", "target"])
    def test_fault_before_first_run_recovers_seeded_rows(self, fault, rule):
        """A worker lost before any epoch is restored from generation 0,
        which the parent seeded with the live rows."""
        kw = {"target_sync_period": 13} if rule == "target" else {}
        cfg = _cfg(rule, seed=71, q_init=0.375, qmax_mode="follow", **kw)
        salts = [9, 4, 17, 2, 11]
        ref = NativeFleetBackend(GRID, cfg, num_agents=5, salts=salts)
        with _shards(
            GRID, cfg, num_agents=5, salts=salts, ping_timeout_s=0.5, hang_timeout_s=0.5
        ) as fleet:
            getattr(fleet, fault)(1)
            assert fleet.check_workers() == [fleet.shard_bounds(1)]
            fleet.run(90)
            ref.run(90)
            assert fleet.restarts == 1 and not fleet.quarantined_workers
            _assert_same_state(fleet, ref)


def _interleaved_ops(seed: int, lanes: int, world) -> list:
    """A seeded op stream: each round a learn batch, an act, a lane reset
    or copy, sometimes a fault on the learn lane's shard (2 workers), and
    a run of a few epochs."""
    rng = np.random.default_rng(seed)
    S, A = world.num_states, world.num_actions
    ops = []
    for i, fault in enumerate(("kill_worker", "hang_worker", None, "kill_worker", None)):
        k, n = int(rng.integers(lanes)), int(rng.integers(1, 6))
        ops.append((
            "apply_transition", k,
            rng.integers(S, size=n).tolist(), rng.integers(A, size=n).tolist(),
            rng.uniform(-1, 1, n).round(3).tolist(), rng.integers(S, size=n).tolist(),
            (rng.random(n) < 0.2).tolist(),
        ))
        ops.append(("query_action", int(rng.integers(lanes)), int(rng.integers(S)), i % 2 == 0))
        if i % 3 == 0:
            ops.append(("reset_lane", int(rng.integers(lanes)), int(rng.integers(100, 200))))
        elif i % 3 == 1:
            ops.append(("copy_lane", int(rng.integers(lanes)), int(rng.integers(lanes))))
        if fault is not None:
            ops.append((fault, k * 2 // lanes))
        ops.append(("run", int(rng.integers(1, 12))))
    return ops


def _garble_spare(fleet, w: int, seed: int = 0) -> None:
    """Fill worker ``w``'s spare shadow generation with random words: what
    a worker killed part-way through its capture leaves behind."""
    rng = np.random.default_rng(seed)
    lo, hi = fleet.shard_bounds(w)
    for view in fleet._shadows[1 - fleet._ckpt[w][0]].values():
        view[lo:hi] = rng.integers(-(1 << 40), 1 << 40, size=view[lo:hi].shape)


def _drive_interleaved(world, cfg, lanes: int, ops: list, **shard_kw):
    """Feed ``ops`` to a 2-worker C-kernel sharded fleet and to one native
    fleet (faults to the sharded one only); after every run, every lane's
    state and the stats must agree.  Returns the (closed) sharded fleet."""
    ref = NativeFleetBackend(world, cfg, num_agents=lanes)
    shard_kw.setdefault("epoch", 4)
    with _shards(world, cfg, num_agents=lanes, hang_timeout_s=0.5, **shard_kw) as fleet:
        assert fleet.shard_kernel == "cc"
        for name, *args in ops:
            if name in ("kill_worker", "hang_worker"):
                getattr(fleet, name)(*args)
            elif name == "garble_spare":
                _garble_spare(fleet, *args)
            elif name == "copy_lane":
                src, dst = args
                lane = ref.lane_state(src)
                fleet.load_lane_state(dst, lane)
                ref.load_lane_state(dst, lane)
            elif name == "run":
                fleet.run(*args)
                ref.run(*args)
                for k in range(lanes):
                    _assert_equal_tree(fleet.lane_state(k), ref.lane_state(k), f"lane {k}")
                assert fleet.stats.as_dict() == ref.stats.as_dict()
            else:
                assert getattr(fleet, name)(*args) == getattr(ref, name)(*args), name
        assert fleet.restarts >= 1 and not fleet.quarantined_workers
    return fleet


# ---------------------------------------------------------------------- #
# Perf plumbing: the sentinel over the native sweep key
# ---------------------------------------------------------------------- #


class TestNativeSweepRecord:
    @staticmethod
    def _snapshots(base_rec, new_rec):
        from repro.perf.snapshot import build_snapshot

        return (
            build_snapshot({}, source="base", native_throughput=base_rec),
            build_snapshot({}, source="new", native_throughput=new_rec),
        )

    def test_compare_sentinel_gates_speedup(self):
        from repro.perf.compare import compare_snapshots

        base_rec = {
            "kernel": "cc", "quick": False,
            "points": {"4096": {
                "native": {"updates_per_sec": 5.0e7},
                "speedup_vs_vectorized": 6.0,
            }},
        }
        worse_rec = {
            "kernel": "cc", "quick": False,
            "points": {"4096": {
                "native": {"updates_per_sec": 4.8e7},
                "speedup_vs_vectorized": 2.0,
            }},
        }
        base, worse = self._snapshots(base_rec, worse_rec)
        verdicts = {f.case: f.verdict for f in compare_snapshots(base, worse).findings}
        assert verdicts["native.speedup_vs_vectorized@4096"] == "regression"
        assert verdicts["native.updates_per_sec@4096"] == "ok"

        # The speedup ratio gates even across machine fingerprints;
        # absolute wall-clock does not.
        worse["machine"]["python"] = "3.99.0"
        verdicts = {f.case: f.verdict for f in compare_snapshots(base, worse).findings}
        assert verdicts["native.speedup_vs_vectorized@4096"] == "regression"
        assert verdicts["native.updates_per_sec@4096"] == "skipped"

    def test_compare_sentinel_shape_guard(self):
        from repro.perf.compare import compare_snapshots

        base, new = self._snapshots(
            {"kernel": "cc", "quick": False, "points": {}},
            {"kernel": "cc", "quick": True, "points": {}},
        )
        result = compare_snapshots(base, new)
        assert [f.verdict for f in result.findings if f.case == "native"] == ["skipped"]
        assert result.ok
