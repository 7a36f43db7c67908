"""Tests for the pluggable update-rule API (``repro.algorithms``).

Covers the PR's acceptance matrix: the registry and typed errors, the
``QTAccelConfig`` presets and deprecation shim, hypothesis bit-identity
of the accelerated rules across functional / pipeline / scalar /
vectorized / sharded engines, checkpoint round-trips including the new
per-lane tables, a golden-trace pin for a momentum run, the rule blocks
in ``verify_paper_invariants``, ECC/fault-injection coverage of the new
tables, and the device-model DSP/BRAM accounting.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import (
    IncompatibleRuleError,
    UnknownUpdateRuleError,
    UnsupportedRuleError,
    UpdateRuleError,
    get_rule,
    rule_names,
)
from repro.backends import (
    ScalarFleetBackend,
    ShardedFleetBackend,
    VectorizedFleetBackend,
)
from repro.core.config import QTAccelConfig
from repro.core.engine import make_engine
from repro.core.functional import FunctionalSimulator
from repro.core.pipeline import QTAccelPipeline
from repro.core.policies import PolicyDraws
from repro.envs.gridworld import GridWorld
from repro.envs.random_mdp import random_dense_mdp
from repro.fixedpoint import FxpFormat

GRID = GridWorld.random(8, 4, obstacle_density=0.15, seed=2).to_mdp()
LOOPY = random_dense_mdp(16, 4, seed=9, self_loop_bias=0.5)

Q_FORMATS = {
    "default": FxpFormat(16, 6),
    "nearest": FxpFormat(16, 6, rounding="nearest"),
    "floatlike": FxpFormat(48, 24),
}

#: The accelerated presets under test, name -> constructor kwargs.
ACCELERATED = {
    "momentum_qlearning": {},
    "target_qlearning": {},
    "target_sync": {"update_rule": "target_qlearning", "target_sync_period": 64},
}


def _accel_config(variant, **kw):
    if variant == "momentum_qlearning":
        return QTAccelConfig.momentum(**kw)
    if variant == "target_qlearning":
        return QTAccelConfig.target_q(**kw)
    kw.update(ACCELERATED["target_sync"])
    return QTAccelConfig(**kw)


# ---------------------------------------------------------------------- #
# Registry + config API
# ---------------------------------------------------------------------- #


class TestRegistry:
    def test_all_rules_registered(self):
        names = rule_names()
        for name in (
            "qlearning",
            "sarsa",
            "momentum_qlearning",
            "target_qlearning",
        ):
            assert name in names

    def test_aliases_resolve(self):
        assert get_rule("momentum") is get_rule("momentum_qlearning")
        assert get_rule("target_q") is get_rule("target_qlearning")
        assert get_rule("polyak") is get_rule("target_qlearning")

    def test_unknown_rule_typed_error(self):
        with pytest.raises(UnknownUpdateRuleError):
            get_rule("dyna_q")
        with pytest.raises(UnknownUpdateRuleError):
            QTAccelConfig(update_rule="dyna_q")
        # The taxonomy roots in UpdateRuleError and ValueError.
        assert issubclass(UnknownUpdateRuleError, UpdateRuleError)
        assert issubclass(UpdateRuleError, ValueError)

    def test_device_cost_descriptors(self):
        assert get_rule("qlearning").device_cost.extra_pair_tables == 0
        assert get_rule("momentum_qlearning").device_cost.extra_pair_tables == 1
        assert get_rule("momentum_qlearning").device_cost.extra_dsps == 1
        assert get_rule("target_qlearning").device_cost.extra_dsps == 2


class TestConfigApi:
    def test_momentum_preset(self):
        cfg = QTAccelConfig.momentum()
        assert cfg.update_rule == "momentum_qlearning"
        assert cfg.algorithm == "momentum_qlearning"
        assert cfg.rule.kind == "momentum"
        assert cfg.update_policy == "greedy"

    def test_target_preset(self):
        cfg = QTAccelConfig.target_q(target_tau=0.25)
        assert cfg.update_rule == "target_qlearning"
        assert cfg.algorithm == "target_qlearning"
        assert cfg.rule.kind == "target"
        assert cfg.target_tau == 0.25

    def test_algorithm_label_derives_from_rule(self):
        # The label is the registered rule name, not a policy-derived
        # guess — the pre-refactor bug was "qlearning" for every greedy
        # config.
        assert QTAccelConfig.momentum().algorithm == "momentum_qlearning"
        assert QTAccelConfig(update_rule="target").algorithm == "target_qlearning"

    def test_alias_canonicalised_at_construction(self):
        cfg = QTAccelConfig(update_rule="momentum")
        assert cfg.update_rule == "momentum_qlearning"

    def test_stringly_construction_derives_plain_rule(self):
        cfg = QTAccelConfig(behavior_policy="egreedy", update_policy="egreedy")
        assert cfg.algorithm == "sarsa"
        assert QTAccelConfig(update_rule="sarsa").update_policy == "egreedy"

    def test_presets_and_with_do_not_warn(self, recwarn):
        cfg = QTAccelConfig.momentum(seed=3)
        cfg.with_(alpha=0.25)
        QTAccelConfig.sarsa()
        assert not [w for w in recwarn if w.category is DeprecationWarning]

    def test_incompatible_rule_policy(self):
        with pytest.raises(IncompatibleRuleError):
            QTAccelConfig(update_rule="momentum_qlearning", update_policy="egreedy")
        with pytest.raises(IncompatibleRuleError):
            QTAccelConfig(update_rule="target_qlearning", update_policy="egreedy")

    def test_rule_parameter_validation(self):
        with pytest.raises(ValueError):
            QTAccelConfig.momentum(momentum_beta=1.0)
        with pytest.raises(ValueError):
            QTAccelConfig.target_q(target_tau=0.0)
        with pytest.raises(ValueError):
            QTAccelConfig.target_q(target_sync_period=-1)

    def test_pipeline_rejects_hard_sync(self):
        cfg = QTAccelConfig.target_q(seed=1, target_sync_period=32)
        with pytest.raises(UnsupportedRuleError):
            QTAccelPipeline(GRID, cfg)
        with pytest.raises(UnsupportedRuleError):
            make_engine(cfg, engine="pipeline", mdp=GRID)
        # The functional engine supports it.
        make_engine(cfg, mdp=GRID).run(16)


# ---------------------------------------------------------------------- #
# Golden trace: momentum run pinned sample by sample
# ---------------------------------------------------------------------- #

# Regenerate with:
#   python - <<'PY'
#   from repro.envs import GridWorld
#   from repro.core import QTAccelConfig, FunctionalSimulator
#   mdp = GridWorld.random(8, 4, obstacle_density=0.15, seed=2).to_mdp()
#   f = FunctionalSimulator(mdp, QTAccelConfig.momentum(seed=5))
#   t = f.enable_trace(); f.run(24); print(t)
#   PY
GOLDEN_MOMENTUM = [
    (0, 38, 0, 0),
    (1, 30, 2, 0),
    (2, 38, 1, 0),
    (3, 37, 0, -8160),
    (4, 37, 0, -14688),
    (5, 37, 0, -17463),
    (6, 37, 0, -17724),
    (7, 37, 1, 0),
    (8, 36, 3, 0),
    (9, 37, 0, -17101),
    (10, 37, 3, 0),
    (11, 38, 2, 0),
    (12, 46, 3, 0),
    (13, 47, 0, 0),
    (14, 39, 3, -8160),
    (15, 39, 0, 0),
    (16, 31, 1, 0),
    (17, 30, 2, 0),
    (18, 38, 2, 0),
    (19, 46, 0, 0),
    (20, 38, 2, 0),
    (21, 46, 3, 0),
    (22, 47, 3, -8160),
    (23, 47, 1, 0),
]


class TestGoldenMomentum:
    def test_functional_momentum(self):
        sim = FunctionalSimulator(GRID, QTAccelConfig.momentum(seed=5))
        trace = sim.enable_trace()
        sim.run(len(GOLDEN_MOMENTUM))
        assert trace == GOLDEN_MOMENTUM

    def test_pipeline_reproduces_golden(self):
        pipe = QTAccelPipeline(GRID, QTAccelConfig.momentum(seed=5))
        trace = pipe.enable_trace()
        pipe.run(len(GOLDEN_MOMENTUM))
        assert trace == GOLDEN_MOMENTUM

    def test_momentum_diverges_from_plain(self):
        """The momentum term must actually change the arithmetic: the
        back-to-back revisits of pair (37, 0) at samples 4-6 overshoot
        plain Q-Learning's trajectory (-14688 vs -12240 at sample 4)."""
        sim = FunctionalSimulator(GRID, QTAccelConfig.qlearning(seed=5))
        trace = sim.enable_trace()
        sim.run(len(GOLDEN_MOMENTUM))
        assert trace[:4] == GOLDEN_MOMENTUM[:4]  # first revisit at 4
        assert trace[4] != GOLDEN_MOMENTUM[4]


# ---------------------------------------------------------------------- #
# Bit identity across engines
# ---------------------------------------------------------------------- #


def assert_pipeline_equivalent(mdp, cfg, n=1200):
    pipe = QTAccelPipeline(mdp, cfg)
    tp = pipe.enable_trace()
    func = FunctionalSimulator(mdp, cfg)
    tf = func.enable_trace()
    pipe.run(n)
    func.run(n)
    assert tp == tf
    assert np.array_equal(pipe.tables.q.data, func.tables.q.data)
    for name, ram in pipe.tables.extra_rams.items():
        assert np.array_equal(ram.data, func.tables.extra_rams[name].data), name


class TestPipelineEquivalence:
    @pytest.mark.parametrize("variant", ["momentum_qlearning", "target_qlearning"])
    @pytest.mark.parametrize("seed", [1, 23])
    def test_forward_mode(self, variant, seed):
        assert_pipeline_equivalent(LOOPY, _accel_config(variant, seed=seed))

    @pytest.mark.parametrize("variant", ["momentum_qlearning", "target_qlearning"])
    def test_stall_mode(self, variant):
        assert_pipeline_equivalent(
            GRID, _accel_config(variant, seed=7, hazard_mode="stall"), n=600
        )

    def test_momentum_follow_qmax(self):
        assert_pipeline_equivalent(
            LOOPY, QTAccelConfig.momentum(seed=11, qmax_mode="follow")
        )


def assert_fleet_matches_functional(backend_cls, mdp, cfg, *, num_agents=3, n=300):
    fleet = backend_cls(mdp, cfg, num_agents=num_agents)
    fleet.run(n)
    for k in range(num_agents):
        f = FunctionalSimulator(
            mdp, cfg, draws=PolicyDraws.from_config(cfg, salt=k)
        )
        f.run(n)
        assert np.array_equal(fleet.q[k], f.tables.q.data), f"lane {k} Q differs"
        if cfg.rule.kind == "momentum":
            assert np.array_equal(
                fleet.momentum[k], f.tables.extra_rams["momentum"].data
            )
        if cfg.rule.kind == "target":
            assert np.array_equal(
                fleet.target[k], f.tables.extra_rams["target"].data
            )
    return fleet


class TestFleetBitIdentity:
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(1, 2**16),
        variant=st.sampled_from(sorted(ACCELERATED)),
        alpha=st.sampled_from([0.25, 0.5]),
        qmax_mode=st.sampled_from(["monotonic", "follow"]),
        fmt=st.sampled_from(sorted(Q_FORMATS)),
    )
    def test_vectorized_matches_functional(
        self, seed, variant, alpha, qmax_mode, fmt
    ):
        cfg = _accel_config(
            variant,
            seed=seed,
            alpha=alpha,
            qmax_mode=qmax_mode,
            q_format=Q_FORMATS[fmt],
        )
        assert_fleet_matches_functional(VectorizedFleetBackend, LOOPY, cfg)

    @settings(max_examples=4, deadline=None)
    @given(
        seed=st.integers(1, 2**16),
        variant=st.sampled_from(["momentum_qlearning", "target_qlearning"]),
    )
    def test_scalar_matches_functional(self, seed, variant):
        cfg = _accel_config(variant, seed=seed)
        assert_fleet_matches_functional(ScalarFleetBackend, GRID, cfg, n=200)

    @settings(max_examples=4, deadline=None)
    @given(
        seed=st.integers(1, 2**16),
        variant=st.sampled_from(sorted(ACCELERATED)),
        workers=st.sampled_from([2, 3]),
    )
    def test_sharded_matches_vectorized(self, seed, variant, workers):
        cfg = _accel_config(variant, seed=seed, qmax_mode="follow")
        vec = VectorizedFleetBackend(LOOPY, cfg, num_agents=5)
        vec.run(96)
        fleet = ShardedFleetBackend(
            LOOPY, cfg, num_agents=5, num_workers=workers, epoch=32,
            mp_context="fork",
        )
        try:
            fleet.run(96)
            assert np.array_equal(fleet.q, vec.q)
            assert np.array_equal(fleet.qmax, vec.qmax)
            if cfg.rule.kind == "momentum":
                assert np.array_equal(fleet.momentum, vec.momentum)
            if cfg.rule.kind == "target":
                assert np.array_equal(fleet.target, vec.target)
            assert fleet.stats.as_dict() == vec.stats.as_dict()
        finally:
            fleet.close()

    def test_make_engine_uniform_rule_selection(self):
        """One config string drives every engine kind to the same bits."""
        cfg = QTAccelConfig.momentum(seed=9)
        func = make_engine(cfg, mdp=GRID)
        pipe = make_engine(cfg, engine="pipeline", mdp=GRID)
        func.run(300)
        pipe.run(300)
        assert np.array_equal(func.tables.q.data, pipe.tables.q.data)
        vec = make_engine(cfg, engine="vectorized", mdps=GRID, num_agents=2)
        vec.run(300)
        ref = FunctionalSimulator(
            GRID, cfg, draws=PolicyDraws.from_config(cfg, salt=0)
        )
        ref.run(300)
        assert np.array_equal(vec.q[0], ref.tables.q.data)


# ---------------------------------------------------------------------- #
# Checkpoints
# ---------------------------------------------------------------------- #


class TestCheckpoints:
    @pytest.mark.parametrize("variant", sorted(ACCELERATED))
    @pytest.mark.parametrize(
        "backend_cls", [VectorizedFleetBackend, ScalarFleetBackend]
    )
    def test_state_dict_round_trip(self, variant, backend_cls):
        cfg = _accel_config(variant, seed=13)
        fleet = backend_cls(LOOPY, cfg, num_agents=4)
        fleet.run(150)
        ckpt = fleet.state_dict()
        fleet.run(150)

        fresh = backend_cls(LOOPY, cfg, num_agents=4)
        fresh.load_state_dict(ckpt)
        fresh.run(150)
        assert np.array_equal(fresh.q, fleet.q)
        if cfg.rule.kind == "momentum":
            assert np.array_equal(fresh.momentum, fleet.momentum)
        if cfg.rule.kind == "target":
            assert np.array_equal(fresh.target, fleet.target)
        assert fresh.stats.as_dict() == fleet.stats.as_dict()

    def test_functional_state_dict_carries_rule_tables(self):
        cfg = QTAccelConfig.target_q(seed=5, target_sync_period=64)
        sim = FunctionalSimulator(GRID, cfg)
        sim.run(200)
        state = sim.state_dict()
        fresh = FunctionalSimulator(GRID, cfg)
        fresh.load_state_dict(state)
        fresh.run(200)
        sim.run(200)
        assert np.array_equal(sim.tables.q.data, fresh.tables.q.data)
        assert np.array_equal(
            sim.tables.extra_rams["target"].data,
            fresh.tables.extra_rams["target"].data,
        )

    def test_lane_state_restores_rule_tables(self):
        cfg = QTAccelConfig.momentum(seed=21)
        fleet = VectorizedFleetBackend(GRID, cfg, num_agents=3)
        fleet.run(120)
        snap = fleet.lane_state(1)
        fleet.run(80)
        fleet.load_lane_state(1, snap)
        assert np.array_equal(
            fleet.momentum[1], np.asarray(snap["momentum"])
        )


# ---------------------------------------------------------------------- #
# Invariants, faults, resources
# ---------------------------------------------------------------------- #


class TestInvariantsAndFaults:
    @pytest.mark.parametrize("variant", ["momentum_qlearning", "target_qlearning"])
    def test_verify_paper_invariants(self, variant):
        from repro.telemetry import verify_paper_invariants

        pipe = QTAccelPipeline(GRID, _accel_config(variant, seed=3))
        pipe.run(500)
        report = verify_paper_invariants(pipe, samples=500, runs=1)
        names = [name for name, _, _ in report.checks]
        assert "rule_tables_present" in names
        assert "rule_tables_drained" in names
        assert "forward_never_stalls" in names

    def test_fault_injector_targets_rule_tables(self):
        from repro.robustness import FaultInjector

        sim = FunctionalSimulator(
            GRID, QTAccelConfig.momentum(seed=5, ecc_tables=True)
        )
        injector = FaultInjector(seed=0)
        injector.add_tables(sim.tables, include=("q", "momentum"))
        T = sim.tables
        sim.run(4)
        # GOLDEN_MOMENTUM revisits pair (37, 0) at samples 4-6 — corrupt
        # its momentum entry between visits and require SECDED to
        # correct it on the very next stage-3 read.
        injector.schedule(4, T.extra_rams["momentum"], T.pair_addr(37, 0), 7)
        injector.step(4)
        sim.run(206)
        ref = FunctionalSimulator(GRID, QTAccelConfig.momentum(seed=5))
        ref.run(210)
        assert np.array_equal(T.q.data, ref.tables.q.data)
        assert T.extra_rams["momentum"].ecc_corrected >= 1

    def test_fault_injector_rejects_unallocated_table(self):
        from repro.robustness import FaultInjector

        sim = FunctionalSimulator(GRID, QTAccelConfig.qlearning(seed=5))
        injector = FaultInjector(seed=0)
        with pytest.raises(ValueError, match="momentum"):
            injector.add_tables(sim.tables, include=("momentum",))


class TestResourceAccounting:
    def test_datapath_dsps(self):
        from repro.device.resources import datapath_dsps

        assert datapath_dsps(QTAccelConfig.qlearning()) == 4
        assert datapath_dsps(QTAccelConfig.sarsa()) == 4
        assert datapath_dsps(QTAccelConfig.momentum()) == 5
        assert datapath_dsps(QTAccelConfig.target_q()) == 6

    def test_table_blocks_extra_pair_table(self):
        from repro.device.resources import table_blocks, table_bits_total

        plain = QTAccelConfig.qlearning()
        mom = QTAccelConfig.momentum()
        tgt = QTAccelConfig.target_q()
        base = table_blocks(4096, 4, plain)
        from repro.rtl.memory import BRAM36

        pair = BRAM36.blocks_for(4096 * 4, plain.q_format.wordlen)
        assert table_blocks(4096, 4, mom) == base + pair
        # Target also allocates the argmax array (its bootstrap indexes
        # the target table at the cached online argmax).
        assert table_blocks(4096, 4, tgt) > base + pair
        qw = plain.q_format.wordlen
        assert (
            table_bits_total(4096, 4, mom) - table_bits_total(4096, 4, plain)
            == 4096 * 4 * qw
        )

    def test_estimate_resources_reports_rule(self):
        from repro.device.resources import estimate_resources

        rep = estimate_resources(4096, 4, QTAccelConfig.momentum())
        assert rep.algorithm == "momentum_qlearning"
        assert rep.dsp == 5
