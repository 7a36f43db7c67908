"""Fleet workloads: 4096 Q-learning lanes trained through ``make_engine``.

The workloads run the ``native`` and the ``sharded`` engine (whose workers
run the ``vectorized`` program); the traced run covers all three.  All use
the same shape: ``QTAccelConfig.qlearning(seed=11, qmax_mode="follow")`` on
``GridWorld.empty(16, 8)`` (256 states x 8 actions), so each lane's Q table
has 2048 int64 entries and the fleet's tables (about 64 MB plus Qmax) do not
fit in the last-level cache.  The workload seed chooses the lane salts.

The untraced run times ``run(SEGMENT_STEPS)`` calls for the measurement
window.  The traced run (:func:`trace`) times the layers under each
engine through their public functions.
"""

from __future__ import annotations

import time

import numpy as np

from bench_stats import Outcome, cpu_probe, end_to_end, median, residual, tail

LANES = 4096
#: Lock-step steps per timed ``run`` call: one sharded sync epoch (so the
#: sharded engine keeps its default checkpoint cadence) and one native
#: telemetry chunk.
SEGMENT_STEPS = 256
#: Untimed warm-up steps, after which every engine's counters are compared.
PREFIX_STEPS = 256
#: Lanes whose tables are checked against a scalar simulator.
CHECK_LANES = (0, LANES // 2, LANES - 1)
SHARDED_WORKERS = 2
#: Engine constructions per run (at least): ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Constructions continue until this much time has passed.
SETUP_MIN_S = 1.0
_COUNTS = ("total_samples", "episodes", "exploits", "explores")


def fleet_config():
    from repro.core.config import QTAccelConfig

    return QTAccelConfig.qlearning(seed=11, qmax_mode="follow")


def fleet_world():
    from repro.envs.gridworld import GridWorld

    return GridWorld.empty(16, 8).to_mdp()


def lane_salts(seed: int, lanes: int = LANES) -> list[int]:
    """Per-lane salts: a block of its own for every workload seed."""
    return list(range(seed * LANES, seed * LANES + lanes))


def build(engine: str, seed: int, lanes: int = LANES):
    """One fleet engine through the public constructor."""
    from repro.core.engine import make_engine

    kw = {"num_agents": lanes, "salts": lane_salts(seed, lanes)}
    if engine == "sharded":
        kw["num_workers"] = SHARDED_WORKERS
    return make_engine(fleet_config(), engine=engine, mdps=fleet_world(), **kw)


def close(fleet) -> None:
    closer = getattr(fleet, "close", None)
    if closer is not None:
        closer()


def warm_native_kernel() -> str:
    """Build and load the compiled kernel once, before anything is timed;
    returns the resolved kernel tier."""
    from repro.core.engine import make_engine

    tiny = make_engine(fleet_config(), engine="native", mdps=fleet_world(), num_agents=1)
    tiny.run(1)
    return tiny.kernel_tier


def counts(fleet) -> dict:
    snap = fleet.telemetry_snapshot()
    return {key: int(snap[key]) for key in _COUNTS}


def check_prefix_counts(engine: str, fleet, seed: int, out: Outcome) -> None:
    """After the warm-up prefix, the engine's explore/exploit/episode counts
    must equal those of fresh native and vectorized fleets run as far."""
    own = counts(fleet)
    for kind in ("native", "vectorized"):
        if kind == engine:
            continue
        ref = build(kind, seed)
        ref.run(PREFIX_STEPS)
        theirs = counts(ref)
        out.check(own == theirs, f"{engine} counts {own} != {kind} counts {theirs}")


def check_lanes(engine: str, fleet, seed: int, steps: int, out: Outcome) -> None:
    """Q, Qmax and qmax_action of the check lanes must equal a scalar
    simulator seeded with the lane's salt and run for as many steps."""
    from repro.core.functional import FunctionalSimulator
    from repro.core.policies import PolicyDraws

    cfg, world, salts = fleet_config(), fleet_world(), lane_salts(seed)
    for k in CHECK_LANES:
        ref = FunctionalSimulator(
            world, cfg, draws=PolicyDraws.from_config(cfg, salt=salts[k])
        )
        ref.run(steps)
        for name, mine, theirs in (
            ("Q", fleet.q[k], ref.tables.q.data),
            ("Qmax", fleet.qmax[k], ref.tables.qmax.data),
            ("qmax_action", fleet.qmax_action[k], ref.tables.qmax_action.data),
        ):
            out.check(
                np.array_equal(mine, theirs),
                f"{engine}: lane {k} {name} differs from the scalar simulator",
            )


def timed_calls(fn, seconds: float, *args, after=None) -> list[float]:
    """Durations in seconds of repeated ``fn(*args)`` calls over ``seconds``
    (at least three calls); ``after()``, untimed, follows every call."""
    durations = []
    end = time.perf_counter() + seconds
    while len(durations) < 3 or time.perf_counter() < end:
        t0 = time.perf_counter()
        fn(*args)
        durations.append(time.perf_counter() - t0)
        if after is not None:
            after()
    return durations


def timed_segments(fleet, seconds: float, probes: list | None = None) -> list[float]:
    """Durations of ``run(SEGMENT_STEPS)`` calls over ``seconds``, with a CPU
    probe appended to ``probes`` after each one when given."""
    after = None if probes is None else (lambda: probes.append(cpu_probe()))
    return timed_calls(fleet.run, seconds, SEGMENT_STEPS, after=after)


def run_workload(engine: str, seed: int, seconds: float) -> Outcome:
    """The untraced fleet workload on ``engine``."""
    out = Outcome()
    setups, setup_probes = [], []
    fleet = None
    end = time.perf_counter() + SETUP_MIN_S
    while len(setups) < SETUP_REPEATS or time.perf_counter() < end:
        if fleet is not None:
            close(fleet)
        setup_probes.append(cpu_probe())
        t0 = time.perf_counter()
        fleet = build(engine, seed)
        setups.append(time.perf_counter() - t0)
    probes: list[float] = []
    try:
        fleet.run(PREFIX_STEPS)
        check_prefix_counts(engine, fleet, seed, out)
        durations = timed_segments(fleet, seconds, probes)
        steps = PREFIX_STEPS + SEGMENT_STEPS * len(durations)
        samples = counts(fleet)["total_samples"]
        out.check(
            samples == LANES * steps,
            f"{engine}: {samples} samples counted, expected {LANES * steps}",
        )
        check_lanes(engine, fleet, seed, steps, out)
    finally:
        close(fleet)
    out.attempted = len(setups) + 1 + len(durations)

    rate = median(LANES * SEGMENT_STEPS / d for d in durations)
    end_to_end(
        out,
        rate=rate,
        rate_note=f"Q-updates/s, median of {len(durations)} segments",
        latencies_ms=[d * 1e3 for d in durations],
        latency_note=f"one run({SEGMENT_STEPS}) call",
        setups_s=setups,
        setup_note=f"median of {len(setups)} constructions",
        run_probes=probes,
        setup_probes=setup_probes,
    )
    issue_name = {"native": "fleet_updates_per_s", "sharded": "fleet_sharded_updates_per_s"}[engine]
    out.show(issue_name, rate, "updates/s", "as measured")
    t = tail([d * 1e3 for d in durations])
    out.show("run_tail_ms", t.value, "ms", f"as measured, {t.label}")
    return out


# ---------------------------------------------------------------------- #
# Traced layers
# ---------------------------------------------------------------------- #


def _state_dict_ms(fleet) -> float:
    return median(d * 1e3 for d in timed_calls(fleet.state_dict, 0.0))


def draws_per_step(cfg) -> int:
    """LFSR bank draws one vectorized step makes: the (masked) episode-start
    draw, the behaviour draw, and a policy draw for an e-greedy update."""
    return 2 + (cfg.update_policy != "greedy")


def _trace_native(seed: int, seconds: float, out: Outcome) -> dict:
    fleet = build("native", seed)
    fleet.run(PREFIX_STEPS)
    durations = timed_segments(fleet, seconds)
    check_lanes("native", fleet, seed, PREFIX_STEPS + SEGMENT_STEPS * len(durations), out)
    seg = median(durations)
    out.metric("native.run_ns_per_update", seg / (LANES * SEGMENT_STEPS) * 1e9, "ns",
               "NativeFleetBackend.run")
    out.metric("checkpoint.native_state_dict_ms", _state_dict_ms(fleet), "ms")
    out.metric("traced.fleet_native.throughput_per_s", LANES * SEGMENT_STEPS / seg, "1/s")
    out.attempted += 1 + len(durations)
    return counts(fleet)


def _trace_vectorized(seed: int, seconds: float, out: Outcome) -> dict:
    from repro.fixedpoint import ops
    from repro.rtl.lfsr_batch import LfsrBank
    from repro.rtl.rng import DECIMATION

    cfg = fleet_config()
    fleet = build("vectorized", seed)
    fleet.run(PREFIX_STEPS)
    share = seconds / 3
    steps = timed_calls(fleet.step, share)
    check_lanes("vectorized", fleet, seed, PREFIX_STEPS + len(steps), out)
    step_us = median(steps) * 1e6

    bank = LfsrBank(cfg.lfsr_width, np.arange(1, LANES + 1, dtype=np.int64))
    draws_us = median(timed_calls(bank.draw_all, share, DECIMATION)) * 1e6 * draws_per_step(cfg)

    # Stage-3 operands in the fleet's format, taken from the trained tables.
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, fleet.S * fleet.A, LANES)
    lanes = np.arange(LANES)
    q = np.ascontiguousarray(fleet.q[lanes, pairs])
    qn = np.ascontiguousarray(fleet.qmax[lanes, pairs // fleet.A])
    r = np.asarray(
        ops.quantize_array(fleet_world().rewards.reshape(-1)[pairs], cfg.q_format),
        dtype=np.int64,
    )
    alpha, _, one_minus_alpha, alpha_gamma = cfg.coefficients()
    res, acc, mask = np.empty(LANES, np.int64), np.empty(LANES, np.int64), np.empty(LANES, bool)

    def update():
        ops.q_update_into(
            q, r, qn, out=res, scratch=acc, mask_scratch=mask,
            alpha=alpha, one_minus_alpha=one_minus_alpha, alpha_gamma=alpha_gamma,
            coef_fmt=cfg.coef_format, q_fmt=cfg.q_format,
        )

    update_us = median(timed_calls(update, share)) * 1e6
    out.metric("vectorized.step_us", step_us, "us", "VectorizedFleetBackend.step")
    out.metric("lfsr_batch.draw_all_us", draws_us, "us",
               f"LfsrBank.draw_all x {draws_per_step(cfg)} draws per step")
    out.metric("fixedpoint.q_update_into_us", update_us, "us")
    out.metric("vectorized.step_residual_us", residual(step_us, (draws_us, update_us)), "us",
               "residual: env gather, Qmax write-back")
    out.metric("checkpoint.vectorized_state_dict_ms", _state_dict_ms(fleet), "ms")
    out.metric("traced.fleet_vectorized.throughput_per_s", LANES / step_us * 1e6, "1/s")
    out.attempted += 1 + len(steps)
    return counts(fleet)


def _trace_sharded(seed: int, seconds: float, out: Outcome) -> dict:
    fleet = build("sharded", seed)
    try:
        fleet.run(PREFIX_STEPS)
        durations = timed_segments(fleet, seconds / 2)
        check_lanes("sharded", fleet, seed, PREFIX_STEPS + SEGMENT_STEPS * len(durations), out)
        state_ms = _state_dict_ms(fleet)
        seen = counts(fleet)
    finally:
        close(fleet)
    run_us = median(durations) / SEGMENT_STEPS * 1e6
    # One shard's work: the vectorized program over its share of the lanes.
    shard = build("vectorized", seed, LANES // SHARDED_WORKERS)
    shard.run(PREFIX_STEPS)
    compute_us = median(timed_segments(shard, seconds / 2)) / SEGMENT_STEPS * 1e6
    out.metric("sharded.run_us_per_step", run_us, "us", "ShardedFleetBackend.run")
    out.metric("sharded.shard_compute_us_per_step", compute_us, "us",
               f"vectorized run over {LANES // SHARDED_WORKERS} lanes")
    out.metric("sharded.coordination_us_per_step", residual(run_us, (compute_us,)), "us",
               "residual: sync, checkpoints, imbalance")
    out.metric("checkpoint.sharded_state_dict_ms", state_ms, "ms")
    out.metric("traced.fleet_sharded.throughput_per_s", LANES / run_us * 1e6, "1/s")
    out.attempted += 1 + len(durations)
    return seen


def trace(seed: int, seconds_per_engine: float) -> Outcome:
    """Per-layer times under each fleet engine, plus the fleets' counters."""
    out = Outcome()
    totals = dict.fromkeys(_COUNTS, 0)
    for fn in (_trace_native, _trace_vectorized, _trace_sharded):
        for key, value in fn(seed, seconds_per_engine, out).items():
            totals[key] += value
    out.metric("fleet.updates", totals["total_samples"], "count", "telemetry_snapshot()")
    out.metric("fleet.episodes", totals["episodes"], "count")
    out.metric("fleet.explores", totals["explores"], "count")
    return out
