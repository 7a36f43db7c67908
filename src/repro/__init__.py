"""repro — a cycle-level Python reproduction of QTAccel.

QTAccel (Meng et al., IPDPS 2020) is a generic pipelined FPGA
architecture for Q-Table based reinforcement learning that retires one
Q-value update per clock cycle while using a constant number of
multipliers.  This package rebuilds the full system in Python:

* :mod:`repro.core` — the 4-stage pipeline (cycle-accurate and fast
  functional simulators, bit-identical), Q-Learning/SARSA accelerators,
  multi-agent modes, bandit customisations;
* :mod:`repro.rtl` — LFSRs, block-RAM models, pipeline registers;
* :mod:`repro.fixedpoint` — the fixed-point datapath;
* :mod:`repro.device` — resource / clock / power models of the paper's
  FPGAs, calibrated against its figures;
* :mod:`repro.envs` — grid worlds, synthetic MDPs, bandit problems;
* :mod:`repro.reference` — the paper's CPU baselines;
* :mod:`repro.baseline` — the prior state-of-the-art design [11];
* :mod:`repro.experiments` — one harness per paper table/figure;
* :mod:`repro.telemetry` — the one observability package: counters
  with an OpenMetrics codec, one trace ring and Chrome writer for cycle
  events and serve spans, profiles, SLO budgets, the flight recorder
  and the ``python -m repro.telemetry`` CLI (see
  ``docs/observability.md``);
* :mod:`repro.perf` — bench harness, ``BENCH_<n>.json`` snapshots and
  the regression sentinel;
* :mod:`repro.serve` — the multi-tenant session gateway leasing fleet
  lanes to external clients over NDJSON/TCP (see ``docs/serving.md``).

Quickstart::

    from repro.envs import GridWorld
    from repro.core import QLearningAccelerator

    mdp = GridWorld.random(16, 4, obstacle_density=0.1, seed=1).to_mdp()
    acc = QLearningAccelerator(mdp, alpha=0.5, gamma=0.9, seed=1)
    acc.run(500_000)
    print(acc.convergence())
    print(acc.throughput_estimate().msps, "MS/s")

Lower-level engines (functional, cycle-accurate pipeline, lane-stacked
fleets) are all constructed through one facade — see ``docs/api.md``::

    from repro import make_engine

    sim = make_engine(config, mdp=mdp)                       # functional
    fleet = make_engine(config, engine="vectorized", mdps=mdp, num_agents=256)
"""

__version__ = "0.1.0"

from .core.engine import ENGINE_KINDS, Engine, make_engine

__all__ = [
    "Engine",
    "ENGINE_KINDS",
    "make_engine",
    "core",
    "rtl",
    "fixedpoint",
    "device",
    "envs",
    "reference",
    "baseline",
    "experiments",
    "telemetry",
    "perf",
]
