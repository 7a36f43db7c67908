"""Fleet-scale independent learning with the vectorised fleet engine.

Extends Fig. 9 to the fleet sizes the device can actually host: the
vectorized engine advances up to the xcvu13p's BRAM-bound pipeline count
in numpy lock-step (bit-identical per lane to the scalar engine), so a
"full device" training run is measurable on a laptop.

Engines come from :func:`repro.core.make_engine` — the fleet rows use
the ``engine="vectorized"`` array program, and the closing note quotes
its measured speedup over ``engine="scalar"`` (the pure-Python lane
loop) so the table's K-samples/s have a baseline.
"""

from __future__ import annotations

import time

from ..core.config import QTAccelConfig
from ..core.engine import make_engine
from ..core.metrics import convergence_report
from ..core.multi_pipeline import max_independent_pipelines
from ..device.resources import estimate_resources
from ..device.timing import throughput
from ..envs.gridworld import GridWorld
from .registry import ExperimentResult, register


@register("fleet", "Fleet-scale independent learners (batch engine)")
def run(*, quick: bool = False) -> ExperimentResult:
    world = GridWorld.empty(16, 4)
    mdp = world.to_mdp()
    cfg = QTAccelConfig.qlearning(seed=17)
    samples = 10_000 if quick else 150_000
    device_bound = max_independent_pipelines(mdp, cfg)
    rows = []
    speedup_k = min(256, device_bound)
    vec_rate = None
    for k in (4, 16, 64, speedup_k):
        sim = make_engine(cfg, engine="vectorized", mdps=mdp, num_agents=k)
        t0 = time.perf_counter()
        sim.run(samples)
        dt = time.perf_counter() - t0
        if k == speedup_k:
            vec_rate = k * samples / dt
        worst = min(
            convergence_report(mdp, sim.q_float(a), gamma=cfg.gamma, samples=samples).success
            for a in range(0, k, max(1, k // 8))
        )
        rep = estimate_resources(mdp.num_states, mdp.num_actions, cfg, pipelines=k)
        est = throughput(rep, pipelines=k)
        rows.append(
            (
                k,
                round(k * samples / dt / 1e3, 0),
                round(worst, 3),
                rep.fits,
                round(est.msps, 0),
            )
        )

    # Price the array program against the scalar lane loop on a short
    # burst (the full workload would be minutes of pure Python).
    scalar_steps = max(1, (500 if quick else 5_000) // 1)
    scalar = make_engine(cfg, engine="scalar", mdps=mdp, num_agents=speedup_k)
    t0 = time.perf_counter()
    scalar.run(max(1, scalar_steps // speedup_k))
    dt = time.perf_counter() - t0
    scalar_rate = speedup_k * max(1, scalar_steps // speedup_k) / dt
    speedup_note = (
        f"Vectorized backend at {speedup_k} agents: "
        f"{vec_rate / scalar_rate:.1f}x the scalar lane loop "
        f"({vec_rate / 1e3:.0f} vs {scalar_rate / 1e3:.0f} K-samples/s); "
        "full sweep: python -m repro.perf fleet."
        if vec_rate
        else "Vectorized speedup not measured (no fleet row at the probe size)."
    )

    return ExperimentResult(
        exp_id="fleet",
        title="Fleet-scale independent learners",
        headers=[
            "agents",
            "sim K-samples/s",
            "worst success",
            "fits xcvu13p",
            "model aggregate MS/s",
        ],
        rows=rows,
        notes=[
            f"Device bound for this tile size: {device_bound} pipelines "
            "(BRAM-limited, the Fig. 9 argument).",
            "Each lane of the vectorized engine is bit-identical to a scalar "
            "functional simulator with the same salt (tested).",
            speedup_note,
        ],
    )
