"""Fleet bench: the vectorised fleet engine vs the scalar engine.

Times K-agent fleets on the vectorized engine against K sequential scalar
runs (same trajectories, bit for bit), quantifying the vectorisation
win, and prints the fleet experiment.
"""

import numpy as np
import pytest

from repro import make_engine
from repro.core.config import QTAccelConfig
from repro.core.functional import FunctionalSimulator
from repro.core.policies import PolicyDraws
from repro.envs.gridworld import GridWorld
from repro.experiments import run_experiment

from .conftest import emit_once, mean_seconds

SAMPLES = 2_000
WORLD = GridWorld.empty(16, 4).to_mdp()


@pytest.mark.parametrize("agents", [16, 64, 256])
def test_batch_engine(benchmark, agents):
    cfg = QTAccelConfig.qlearning(seed=17)

    def run():
        sim = make_engine(cfg, engine="vectorized", mdps=WORLD, num_agents=agents)
        sim.run(SAMPLES)
        return sim

    sim, mean = mean_seconds(benchmark, run)
    assert sim.stats.samples_per_agent >= SAMPLES
    benchmark.extra_info["agent_samples_per_sec"] = round(agents * SAMPLES / mean)
    emit_once("fleet", run_experiment("fleet", quick=True).format())


def test_scalar_engine_same_work(benchmark):
    """The per-lane scalar equivalent of a 16-agent batch step."""
    cfg = QTAccelConfig.qlearning(seed=17)

    def run():
        sims = [
            FunctionalSimulator(WORLD, cfg, draws=PolicyDraws.from_config(cfg, salt=k))
            for k in range(16)
        ]
        for s in sims:
            s.run(SAMPLES)
        return sims

    sims = benchmark(run)
    # spot-check bit parity against one batch lane
    batch = make_engine(cfg, engine="vectorized", mdps=WORLD, num_agents=16)
    batch.run(SAMPLES)
    assert np.array_equal(batch.q[3], sims[3].tables.q.data)
