"""Tests for the vectorised fleet of independent agents (``engine="vectorized"``).

The headline contract: lane ``k`` is bit-identical to a scalar
FunctionalSimulator seeded with the same salt.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import make_engine
from repro.core.config import QTAccelConfig
from repro.core.functional import FunctionalSimulator
from repro.core.metrics import convergence_report
from repro.core.policies import PolicyDraws
from repro.envs.gridworld import GridWorld
from repro.envs.multi_agent import partition_grid
from repro.envs.random_mdp import random_dense_mdp


def assert_lane_parity(mdp_or_mdps, cfg, *, num_agents=None, n=800):
    batch = make_engine(cfg, engine="vectorized", mdps=mdp_or_mdps, num_agents=num_agents)
    batch.run(n)
    mdps = batch.mdps
    total_exploits = 0
    total_episodes = 0
    for k, mdp in enumerate(mdps):
        f = FunctionalSimulator(mdp, cfg, draws=PolicyDraws.from_config(cfg, salt=k))
        f.run(n)
        assert np.array_equal(batch.q[k], f.tables.q.data), f"agent {k} Q differs"
        assert np.array_equal(batch.qmax[k], f.tables.qmax.data)
        assert np.array_equal(batch.qmax_action[k], f.tables.qmax_action.data)
        total_exploits += f.stats.exploits
        total_episodes += f.stats.episodes
    assert batch.stats.episodes == total_episodes
    assert batch.stats.exploits == total_exploits
    return batch


GRID = GridWorld.random(8, 4, obstacle_density=0.15, seed=2).to_mdp()
LOOPY = random_dense_mdp(16, 4, seed=9, self_loop_bias=0.5)


class TestLaneParity:
    def test_qlearning_grid(self):
        assert_lane_parity(GRID, QTAccelConfig.qlearning(seed=5), num_agents=5)

    def test_sarsa_grid(self):
        assert_lane_parity(GRID, QTAccelConfig.sarsa(seed=5), num_agents=5)

    def test_sarsa_follow_loopy(self):
        assert_lane_parity(
            LOOPY, QTAccelConfig.sarsa(seed=5, qmax_mode="follow"), num_agents=4
        )

    def test_exact_qmax(self):
        assert_lane_parity(
            LOOPY, QTAccelConfig.qlearning(seed=5, qmax_mode="exact"), num_agents=3
        )

    def test_heterogeneous_tiles(self):
        tiles = partition_grid(16, 4)
        assert_lane_parity(tiles, QTAccelConfig.qlearning(seed=5))

    def test_eight_actions(self):
        mdp = GridWorld.random(8, 8, obstacle_density=0.1, seed=3).to_mdp()
        assert_lane_parity(mdp, QTAccelConfig.sarsa(seed=2), num_agents=3)


class TestValidation:
    def test_shared_world_needs_agent_count(self):
        with pytest.raises(ValueError):
            make_engine(QTAccelConfig.qlearning(), engine="vectorized", mdps=GRID)

    def test_contradictory_agent_count(self):
        tiles = partition_grid(16, 4)
        with pytest.raises(ValueError):
            make_engine(
                QTAccelConfig.qlearning(), engine="vectorized", mdps=tiles, num_agents=3
            )

    def test_shape_mismatch_rejected(self):
        a = GridWorld.empty(8, 4).to_mdp()
        b = GridWorld.empty(16, 4).to_mdp()
        with pytest.raises(ValueError):
            make_engine(QTAccelConfig.qlearning(), engine="vectorized", mdps=[a, b])

    def test_salt_count_mismatch(self):
        with pytest.raises(ValueError):
            make_engine(
                QTAccelConfig.qlearning(),
                engine="vectorized",
                mdps=GRID,
                num_agents=2,
                salts=[1, 2, 3],
            )

    def test_negative_samples(self):
        sim = make_engine(
            QTAccelConfig.qlearning(), engine="vectorized", mdps=GRID, num_agents=2
        )
        with pytest.raises(ValueError):
            sim.run(-1)


class TestBehaviour:
    def test_agents_decorrelated(self):
        sim = make_engine(
            QTAccelConfig.qlearning(seed=3), engine="vectorized", mdps=GRID, num_agents=4
        )
        sim.run(2000)
        assert not np.array_equal(sim.q[0], sim.q[1])

    def test_fleet_learns(self):
        mdp = GridWorld.empty(8, 4).to_mdp()
        sim = make_engine(
            QTAccelConfig.qlearning(seed=3), engine="vectorized", mdps=mdp, num_agents=8
        )
        sim.run(40_000)
        for k in range(8):
            rep = convergence_report(mdp, sim.q_float(k), gamma=0.9, samples=40_000)
            assert rep.success > 0.9

    def test_custom_salts(self):
        a = make_engine(
            QTAccelConfig.qlearning(seed=3),
            engine="vectorized",
            mdps=GRID,
            num_agents=2,
            salts=[10, 11],
        )
        a.run(500)
        f = FunctionalSimulator(
            GRID,
            QTAccelConfig.qlearning(seed=3),
            draws=PolicyDraws.from_config(QTAccelConfig.qlearning(seed=3), salt=10),
        )
        f.run(500)
        assert np.array_equal(a.q[0], f.tables.q.data)

    def test_q_float_all_shape(self):
        sim = make_engine(
            QTAccelConfig.qlearning(), engine="vectorized", mdps=GRID, num_agents=3
        )
        sim.run(10)
        assert sim.q_float_all().shape == (3, GRID.num_states, GRID.num_actions)

    def test_resumable(self):
        cfg = QTAccelConfig.qlearning(seed=4)
        split = make_engine(cfg, engine="vectorized", mdps=GRID, num_agents=2)
        split.run(300)
        split.run(300)
        whole = make_engine(cfg, engine="vectorized", mdps=GRID, num_agents=2)
        whole.run(600)
        assert np.array_equal(split.q, whole.q)


@given(
    seed=st.integers(min_value=0, max_value=1000),
    algorithm=st.sampled_from(["qlearning", "sarsa"]),
    agents=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=12, deadline=None)
def test_lane_parity_property(seed, algorithm, agents):
    preset = QTAccelConfig.qlearning if algorithm == "qlearning" else QTAccelConfig.sarsa
    assert_lane_parity(LOOPY, preset(seed=seed), num_agents=agents, n=300)
