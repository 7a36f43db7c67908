"""Fleet throughput sweep: scalar lane loop vs vectorized array program.

The fleet API (:class:`repro.core.batch.BatchIndependentSimulator`) runs
``n_lanes`` bit-identical learners behind one interface, with two
backends: ``scalar`` (a pure-Python loop of per-lane functional
simulators — the reference baseline) and ``vectorized`` (the numpy
lock-step array program).  This sweep measures both at a ladder of lane
counts and reports per-update throughput and the paired speedup, the
number that justifies the array program's existence: the vectorized
backend amortises interpreter dispatch over the lane axis, so its
advantage should *grow* with ``n_lanes`` (≈1× at one lane, ≥10× by a
few thousand).

Noise discipline matches :mod:`repro.perf.bench`: engines are
constructed untimed, each repeat times the scalar and vectorized runs
back-to-back in the same round, and the reported speedup is the median
of per-round per-update ratios (drift-cancelling).  Workloads are
normalised per *update* (``lanes x steps``), so the two backends may
run different step counts — the scalar baseline gets a smaller budget
at high lane counts to keep the sweep affordable.

Results land in BENCH snapshots under the top-level
``fleet_throughput`` key (see :mod:`repro.perf.snapshot`), and
``python -m repro.perf fleet --smoke --min-speedup N`` gates CI on the
vectorization win without wall-clock fingerprint games: a speedup is a
same-machine relative measure, comparable anywhere.

:func:`run_rule_throughput` prices the accelerated update rules
(:mod:`repro.algorithms`): each registered rule timed back-to-back with
the plain Q-Learning baseline in the same vectorized harness, reported
as a per-update overhead ratio (``python -m repro.perf fleet --rules
all --max-rule-overhead 3`` is the CI gate; snapshots store the record
under ``rule_throughput``).

:func:`run_sharded_throughput` is the companion sweep for the
process-parallel :class:`~repro.backends.sharded.ShardedFleetBackend`:
a worker-count ladder at a fixed lane count, recording both the
multi-core ratio against single-process vectorized and the
machine-portable ratio against scalar (``python -m repro.perf fleet
--workers 1,2,4``; snapshots store it under ``sharded_throughput``).

:func:`run_native_throughput` covers the fused compiled kernel
(:class:`~repro.backends.native.NativeFleetBackend`): native vs
vectorized back-to-back per lane count, with the machine-portable
``speedup_vs_vectorized`` ratio as the sentinel gate (``python -m
repro.perf fleet --backend native --min-speedup 3``; snapshots store it
under ``native_throughput``).
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Sequence

from .stats import mad, median

#: Full-sweep lane ladder (the ISSUE's acceptance points).
LANE_COUNTS = (1, 16, 256, 4096)

#: Smoke ladder for CI: drops the expensive 4096-lane point.
SMOKE_LANE_COUNTS = (1, 16, 256)

#: Per-repeat update budgets (total across lanes, before the per-lane
#: step clamp).  The scalar budget is smaller — it is the slow baseline.
_VEC_BUDGET = 200_000
_VEC_STEP_CAP = 2_000
_SCALAR_BUDGET = 24_000
_SCALAR_STEP_CAP = 600


def _mdp(size: int = 16, actions: int = 8):
    from ..envs.gridworld import GridWorld

    return GridWorld.empty(size, actions).to_mdp()


def _config(**kw):
    from ..core.config import QTAccelConfig

    kw.setdefault("seed", 11)
    kw.setdefault("qmax_mode", "follow")
    return QTAccelConfig.qlearning(**kw)


def _steps(budget: int, cap: int, lanes: int) -> int:
    return max(1, min(cap, budget // lanes))


#: Update rules covered by :func:`run_rule_throughput` (every registered
#: rule, through its preset constructor so policies are consistent).
RULE_NAMES = ("qlearning", "sarsa", "momentum_qlearning", "target_qlearning")


def _rule_config(rule: str, **kw):
    from ..core.config import QTAccelConfig

    presets = {
        "qlearning": QTAccelConfig.qlearning,
        "sarsa": QTAccelConfig.sarsa,
        "momentum_qlearning": QTAccelConfig.momentum,
        "target_qlearning": QTAccelConfig.target_q,
    }
    if rule not in presets:
        raise KeyError(
            f"unknown rule {rule!r}; choose from {sorted(presets)}"
        )
    kw.setdefault("seed", 11)
    kw.setdefault("qmax_mode", "follow")
    return presets[rule](**kw)


def run_fleet_throughput(
    *,
    lane_counts: Sequence[int] = LANE_COUNTS,
    repeats: int = 3,
    warmup: int = 1,
    quick: bool = False,
    clock: Callable[[], float] = time.perf_counter,
) -> dict:
    """Measure scalar vs vectorized fleet throughput per lane count.

    Returns the snapshot-embeddable record::

        {
          "lane_counts": [1, 16, 256, 4096],
          "repeats": 3,
          "points": {
            "4096": {
              "scalar":     {"steps", "updates", "seconds_median",
                             "seconds_mad", "updates_per_sec"},
              "vectorized": {...same keys...},
              "speedup": 37.2,        # median of paired per-round ratios
              "speedup_mad": 0.8,
            },
            ...
          },
        }

    ``quick`` divides the update budgets by 10 (CI smoke / tests).
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if warmup < 0:
        raise ValueError("warmup must be non-negative")
    lane_counts = list(lane_counts)
    if not lane_counts or any(l < 1 for l in lane_counts):
        raise ValueError(f"lane_counts must be positive, got {lane_counts}")

    from ..backends.scalar import ScalarFleetBackend
    from ..backends.vectorized import VectorizedFleetBackend

    mdp, cfg = _mdp(), _config()
    scale = 10 if quick else 1
    points: dict[str, dict] = {}

    for lanes in lane_counts:
        vec_steps = _steps(_VEC_BUDGET // scale, _VEC_STEP_CAP // scale, lanes)
        sc_steps = _steps(_SCALAR_BUDGET // scale, _SCALAR_STEP_CAP // scale, lanes)

        # Constructed once, untimed; each repeat extends the same run —
        # steady-state throughput, no allocation cost in the loop.
        vec = VectorizedFleetBackend(mdp, cfg, num_agents=lanes)
        sc = ScalarFleetBackend(mdp, cfg, num_agents=lanes)
        for _ in range(warmup):
            vec.run(vec_steps)
            sc.run(sc_steps)

        vec_secs: list[float] = []
        sc_secs: list[float] = []
        ratios: list[float] = []
        for _ in range(repeats):
            t0 = clock()
            vec.run(vec_steps)
            t1 = clock()
            sc.run(sc_steps)
            t2 = clock()
            vec_secs.append(t1 - t0)
            sc_secs.append(t2 - t1)
            # Per-update times; the ratio is scalar/vectorized = speedup.
            v = (t1 - t0) / (lanes * vec_steps)
            s = (t2 - t1) / (lanes * sc_steps)
            if v > 0:
                ratios.append(s / v)

        def _side(steps: int, secs: list[float]) -> dict:
            med = median(secs)
            updates = lanes * steps
            return {
                "steps": steps,
                "updates": updates,
                "seconds_median": med,
                "seconds_mad": mad(secs),
                "updates_per_sec": updates / med if med > 0 else None,
            }

        points[str(lanes)] = {
            "scalar": _side(sc_steps, sc_secs),
            "vectorized": _side(vec_steps, vec_secs),
            "speedup": median(ratios) if ratios else None,
            "speedup_mad": mad(ratios) if ratios else None,
        }

    return {
        "lane_counts": lane_counts,
        "repeats": repeats,
        "quick": quick,
        "points": points,
    }


def check_min_speedup(record: dict, min_speedup: float, *, at_lanes: Optional[int] = None) -> tuple[bool, str]:
    """Gate a sweep record: does the largest measured lane count (or
    ``at_lanes``) reach ``min_speedup``?  Returns ``(ok, message)``."""
    points = record.get("points") or {}
    if not points:
        return False, "fleet sweep has no measured points"
    lanes = at_lanes if at_lanes is not None else max(int(k) for k in points)
    entry = points.get(str(lanes))
    if entry is None:
        return False, f"no fleet point at n_lanes={lanes}"
    speedup = entry.get("speedup")
    if speedup is None:
        return False, f"no speedup recorded at n_lanes={lanes}"
    ok = speedup >= min_speedup
    verdict = "ok" if ok else "FAIL"
    return ok, (
        f"fleet speedup at n_lanes={lanes}: {speedup:.2f}x "
        f"(floor {min_speedup:g}x) {verdict}"
    )


# ---------------------------------------------------------------------- #
# Update-rule sweep: vectorized throughput per registered rule
# ---------------------------------------------------------------------- #


def run_rule_throughput(
    *,
    rules: Sequence[str] = RULE_NAMES,
    n_lanes: int = 256,
    repeats: int = 3,
    warmup: int = 1,
    quick: bool = False,
    clock: Callable[[], float] = time.perf_counter,
) -> dict:
    """Measure vectorized fleet throughput for each update rule.

    The accelerated rules (:mod:`repro.algorithms`) add extra per-lane
    tables and stage-3/4 arithmetic; this sweep prices that in software
    the way Fig. 3 prices it in DSPs.  Each rule is timed back-to-back
    with the plain Q-Learning baseline in the same round, and
    ``overhead`` is the median of the paired per-update ratios
    (rule/baseline — 1.0 means free, 2.0 means half the throughput).

    Returns the snapshot-embeddable record stored under the
    ``rule_throughput`` key::

        {
          "n_lanes": 256, "repeats": 3,
          "points": {
            "momentum_qlearning": {"steps", "updates", "seconds_median",
                                   "seconds_mad", "updates_per_sec",
                                   "overhead", "overhead_mad"},
            ...
          },
        }
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if warmup < 0:
        raise ValueError("warmup must be non-negative")
    rules = list(rules)
    if not rules:
        raise ValueError("rules must be non-empty")
    if n_lanes < 1:
        raise ValueError(f"n_lanes must be positive, got {n_lanes}")

    from ..backends.vectorized import VectorizedFleetBackend

    mdp = _mdp()
    scale = 10 if quick else 1
    steps = _steps(_VEC_BUDGET // scale, _VEC_STEP_CAP // scale, n_lanes)

    base = VectorizedFleetBackend(
        mdp, _rule_config("qlearning"), num_agents=n_lanes
    )
    points: dict[str, dict] = {}
    for rule in rules:
        eng = VectorizedFleetBackend(mdp, _rule_config(rule), num_agents=n_lanes)
        for _ in range(warmup):
            eng.run(steps)
            base.run(steps)
        secs: list[float] = []
        ratios: list[float] = []
        for _ in range(repeats):
            t0 = clock()
            eng.run(steps)
            t1 = clock()
            base.run(steps)
            t2 = clock()
            secs.append(t1 - t0)
            if (t2 - t1) > 0:
                ratios.append((t1 - t0) / (t2 - t1))
        med = median(secs)
        updates = n_lanes * steps
        points[rule] = {
            "steps": steps,
            "updates": updates,
            "seconds_median": med,
            "seconds_mad": mad(secs),
            "updates_per_sec": updates / med if med > 0 else None,
            "overhead": median(ratios) if ratios else None,
            "overhead_mad": mad(ratios) if ratios else None,
        }

    return {
        "n_lanes": n_lanes,
        "repeats": repeats,
        "quick": quick,
        "steps": steps,
        "points": points,
    }


def check_rule_overhead(record: dict, max_overhead: float) -> tuple[bool, str]:
    """Gate a rule sweep record: every rule's per-update overhead vs the
    plain Q-Learning baseline must stay at or under ``max_overhead``.
    Returns ``(ok, message)``."""
    points = record.get("points") or {}
    if not points:
        return False, "rule sweep has no measured points"
    worst_rule, worst = None, None
    for rule, entry in points.items():
        overhead = entry.get("overhead")
        if overhead is None:
            return False, f"no overhead recorded for rule {rule!r}"
        if worst is None or overhead > worst:
            worst_rule, worst = rule, overhead
    ok = worst <= max_overhead
    verdict = "ok" if ok else "FAIL"
    return ok, (
        f"worst rule overhead: {worst_rule} {worst:.2f}x vs qlearning "
        f"(ceiling {max_overhead:g}x) {verdict}"
    )


def render_rule_throughput(record: dict) -> str:
    """Human-readable table of one rule sweep record."""
    out = [
        f"update-rule throughput (vectorized, n_lanes={record.get('n_lanes')}, "
        "per update):"
    ]
    header = f"{'rule':>20s} {'up/s':>14s} {'overhead':>9s}"
    out.append(header)
    out.append("-" * len(header))

    def _fmt(v):
        return f"{v:,.0f}" if isinstance(v, (int, float)) else "-"

    for rule, p in (record.get("points") or {}).items():
        ov = p.get("overhead")
        out.append(
            f"{rule:>20s} {_fmt(p.get('updates_per_sec')):>14s} "
            f"{(f'{ov:.2f}x' if ov is not None else '-'):>9s}"
        )
    return "\n".join(out)


# ---------------------------------------------------------------------- #
# Sharded sweep: worker-count ladder at a fixed lane count
# ---------------------------------------------------------------------- #

#: Per-repeat update budget for the sharded sweep (larger than the
#: vectorized sweep's — process fan-out has fixed epoch costs that only
#: amortise over a meaningful step count).
_SHARD_BUDGET = 400_000
_SHARD_STEP_CAP = 4_000

#: Default worker ladder for ``run_sharded_throughput``.
WORKER_COUNTS = (1, 2, 4)


def run_sharded_throughput(
    *,
    worker_counts: Sequence[int] = WORKER_COUNTS,
    n_lanes: int = 4096,
    repeats: int = 3,
    warmup: int = 1,
    quick: bool = False,
    clock: Callable[[], float] = time.perf_counter,
    mp_context: str = "spawn",
) -> dict:
    """Measure sharded fleet throughput across a worker-count ladder.

    Every point runs the *same* ``n_lanes``-lane workload three ways —
    sharded (at that worker count), single-process vectorized, and (once
    per sweep) the scalar lane loop — so the record carries both
    speedups: ``speedup_vs_vectorized`` answers "does adding processes
    pay on this machine?" and ``speedup_vs_scalar`` is the
    machine-portable CI gate (sharded inherits the array program's
    10-30x scalar win even on a single core, so the gate holds where
    the multi-core ratio legitimately cannot).

    Checkpointing is disabled (``checkpoint_interval=0``) and the epoch
    is set to the whole repeat so the number isolates steady-state shard
    throughput, not supervisor overhead.  Returns the
    snapshot-embeddable record stored under ``sharded_throughput``.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if warmup < 0:
        raise ValueError("warmup must be non-negative")
    worker_counts = list(worker_counts)
    if not worker_counts or any(w < 1 for w in worker_counts):
        raise ValueError(f"worker_counts must be positive, got {worker_counts}")
    if n_lanes < 1:
        raise ValueError(f"n_lanes must be positive, got {n_lanes}")

    import os

    from ..backends.scalar import ScalarFleetBackend
    from ..backends.sharded import ShardedFleetBackend
    from ..backends.vectorized import VectorizedFleetBackend

    mdp, cfg = _mdp(), _config()
    scale = 10 if quick else 1
    steps = _steps(_SHARD_BUDGET // scale, _SHARD_STEP_CAP // scale, n_lanes)
    sc_steps = _steps(_SCALAR_BUDGET // scale, _SCALAR_STEP_CAP // scale, n_lanes)

    # Scalar baseline: measured once per sweep (it does not vary with
    # the worker count) and shared by every point's scalar speedup.
    sc = ScalarFleetBackend(mdp, cfg, num_agents=n_lanes)
    for _ in range(warmup):
        sc.run(sc_steps)
    sc_secs: list[float] = []
    for _ in range(repeats):
        t0 = clock()
        sc.run(sc_steps)
        sc_secs.append(clock() - t0)
    sc_med = median(sc_secs)
    sc_per_update = sc_med / (n_lanes * sc_steps) if sc_med > 0 else None

    def _side(side_steps: int, secs: list[float]) -> dict:
        med = median(secs)
        updates = n_lanes * side_steps
        return {
            "steps": side_steps,
            "updates": updates,
            "seconds_median": med,
            "seconds_mad": mad(secs),
            "updates_per_sec": updates / med if med > 0 else None,
        }

    points: dict[str, dict] = {}
    for workers in worker_counts:
        shard = ShardedFleetBackend(
            mdp,
            cfg,
            num_agents=n_lanes,
            num_workers=workers,
            epoch=steps,
            checkpoint_interval=0,
            mp_context=mp_context,
        )
        try:
            vec = VectorizedFleetBackend(mdp, cfg, num_agents=n_lanes)
            for _ in range(warmup):
                shard.run(steps)
                vec.run(steps)
            shard_secs: list[float] = []
            vec_secs: list[float] = []
            ratios: list[float] = []
            for _ in range(repeats):
                t0 = clock()
                shard.run(steps)
                t1 = clock()
                vec.run(steps)
                t2 = clock()
                shard_secs.append(t1 - t0)
                vec_secs.append(t2 - t1)
                if (t1 - t0) > 0:
                    ratios.append((t2 - t1) / (t1 - t0))
        finally:
            shard.close()

        shard_med = median(shard_secs)
        shard_per_update = (
            shard_med / (n_lanes * steps) if shard_med > 0 else None
        )
        points[str(workers)] = {
            "sharded": _side(steps, shard_secs),
            "vectorized": _side(steps, vec_secs),
            "speedup_vs_vectorized": median(ratios) if ratios else None,
            "speedup_vs_vectorized_mad": mad(ratios) if ratios else None,
            "speedup_vs_scalar": (
                sc_per_update / shard_per_update
                if sc_per_update and shard_per_update
                else None
            ),
        }

    return {
        "n_lanes": n_lanes,
        "worker_counts": worker_counts,
        "repeats": repeats,
        "quick": quick,
        "cpu_count": os.cpu_count(),
        "steps": steps,
        "scalar": _side(sc_steps, sc_secs),
        "points": points,
    }


def check_sharded_speedup(
    record: dict,
    min_speedup: float,
    *,
    vs: str = "scalar",
    at_workers: Optional[int] = None,
) -> tuple[bool, str]:
    """Gate a sharded sweep record against a speedup floor.

    ``vs`` chooses the ratio: ``"scalar"`` (machine-portable, the CI
    default) or ``"vectorized"`` (only meaningful on multi-core hosts).
    Checks the largest measured worker count unless ``at_workers`` pins
    a specific ladder point.  Returns ``(ok, message)``.
    """
    if vs not in ("scalar", "vectorized"):
        raise ValueError(f"vs must be 'scalar' or 'vectorized', got {vs!r}")
    points = record.get("points") or {}
    if not points:
        return False, "sharded sweep has no measured points"
    workers = at_workers if at_workers is not None else max(int(k) for k in points)
    entry = points.get(str(workers))
    if entry is None:
        return False, f"no sharded point at workers={workers}"
    speedup = entry.get(f"speedup_vs_{vs}")
    if speedup is None:
        return False, f"no speedup_vs_{vs} recorded at workers={workers}"
    ok = speedup >= min_speedup
    verdict = "ok" if ok else "FAIL"
    return ok, (
        f"sharded speedup vs {vs} at workers={workers}: {speedup:.2f}x "
        f"(floor {min_speedup:g}x) {verdict}"
    )


def render_sharded_throughput(record: dict) -> str:
    """Human-readable table of one sharded sweep record."""
    lanes = record.get("n_lanes")
    cpus = record.get("cpu_count")
    out = [
        f"sharded fleet throughput (n_lanes={lanes}, host cpus={cpus}, per update):"
    ]
    header = (
        f"{'workers':>8s} {'sharded up/s':>14s} {'vector up/s':>14s} "
        f"{'vs vector':>10s} {'vs scalar':>10s}"
    )
    out.append(header)
    out.append("-" * len(header))

    def _fmt(v):
        return f"{v:,.0f}" if isinstance(v, (int, float)) else "-"

    def _x(v):
        return f"{v:.2f}x" if isinstance(v, (int, float)) else "-"

    for workers in sorted((record.get("points") or {}), key=int):
        p = record["points"][workers]
        out.append(
            f"{workers:>8s} {_fmt((p.get('sharded') or {}).get('updates_per_sec')):>14s} "
            f"{_fmt((p.get('vectorized') or {}).get('updates_per_sec')):>14s} "
            f"{_x(p.get('speedup_vs_vectorized')):>10s} "
            f"{_x(p.get('speedup_vs_scalar')):>10s}"
        )
    return "\n".join(out)


# ---------------------------------------------------------------------- #
# Native sweep: fused compiled kernel vs the vectorized array program
# ---------------------------------------------------------------------- #

#: Per-repeat update budget for the native sweep (the fused kernel
#: retires updates 5-50x faster than the numpy program, so it gets a
#: proportionally larger budget at the same wall-clock cost).
_NATIVE_BUDGET = 2_000_000
_NATIVE_STEP_CAP = 20_000


def run_native_throughput(
    *,
    lane_counts: Sequence[int] = LANE_COUNTS,
    repeats: int = 3,
    warmup: int = 1,
    quick: bool = False,
    clock: Callable[[], float] = time.perf_counter,
) -> dict:
    """Measure native fused-kernel vs vectorized fleet throughput.

    The native backend (:class:`~repro.backends.native.NativeFleetBackend`)
    fuses the whole lock-step program — which the vectorized backend
    spreads over ~40 numpy array ops and ~10 temporaries per step —
    into one compiled lane-outer/step-inner pass.  This sweep times both
    back-to-back at each lane count; ``speedup_vs_vectorized`` is the
    median of paired per-update ratios (machine-portable, the CI
    sentinel's gate at 4096 lanes).

    Raises :class:`~repro.backends.native.NativeBackendUnavailableError`
    when no C compiler exists.  Returns the snapshot-embeddable record
    stored under ``native_throughput`` (``kernel`` is the backend's
    ``kernel_tier``)::

        {
          "lane_counts": [1, 16, 256, 4096],
          "repeats": 3, "kernel": "cc",
          "points": {
            "4096": {
              "native":     {"steps", "updates", "seconds_median",
                             "seconds_mad", "updates_per_sec"},
              "vectorized": {...same keys...},
              "speedup_vs_vectorized": 6.1,
              "speedup_vs_vectorized_mad": 0.2,
            },
            ...
          },
        }
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if warmup < 0:
        raise ValueError("warmup must be non-negative")
    lane_counts = list(lane_counts)
    if not lane_counts or any(l < 1 for l in lane_counts):
        raise ValueError(f"lane_counts must be positive, got {lane_counts}")

    from ..backends.native import NativeFleetBackend
    from ..backends.vectorized import VectorizedFleetBackend

    mdp, cfg = _mdp(), _config()
    scale = 10 if quick else 1
    points: dict[str, dict] = {}

    for lanes in lane_counts:
        nat_steps = _steps(_NATIVE_BUDGET // scale, _NATIVE_STEP_CAP // scale, lanes)
        vec_steps = _steps(_VEC_BUDGET // scale, _VEC_STEP_CAP // scale, lanes)

        nat = NativeFleetBackend(mdp, cfg, num_agents=lanes)
        vec = VectorizedFleetBackend(mdp, cfg, num_agents=lanes)
        # First native run also pays any one-time compile cost —
        # always warm at least once so repeats see the steady state.
        nat.run(nat_steps)
        vec.run(vec_steps)
        for _ in range(max(0, warmup - 1)):
            nat.run(nat_steps)
            vec.run(vec_steps)

        nat_secs: list[float] = []
        vec_secs: list[float] = []
        ratios: list[float] = []
        for _ in range(repeats):
            t0 = clock()
            nat.run(nat_steps)
            t1 = clock()
            vec.run(vec_steps)
            t2 = clock()
            nat_secs.append(t1 - t0)
            vec_secs.append(t2 - t1)
            n = (t1 - t0) / (lanes * nat_steps)
            v = (t2 - t1) / (lanes * vec_steps)
            if n > 0:
                ratios.append(v / n)

        def _side(steps: int, secs: list[float]) -> dict:
            med = median(secs)
            updates = lanes * steps
            return {
                "steps": steps,
                "updates": updates,
                "seconds_median": med,
                "seconds_mad": mad(secs),
                "updates_per_sec": updates / med if med > 0 else None,
            }

        points[str(lanes)] = {
            "native": _side(nat_steps, nat_secs),
            "vectorized": _side(vec_steps, vec_secs),
            "speedup_vs_vectorized": median(ratios) if ratios else None,
            "speedup_vs_vectorized_mad": mad(ratios) if ratios else None,
        }

    return {
        "lane_counts": lane_counts,
        "repeats": repeats,
        "quick": quick,
        "kernel": NativeFleetBackend.kernel_tier,
        "points": points,
    }


def check_native_speedup(
    record: dict, min_speedup: float, *, at_lanes: Optional[int] = None
) -> tuple[bool, str]:
    """Gate a native sweep record: ``speedup_vs_vectorized`` at the
    largest measured lane count (or ``at_lanes``) must reach
    ``min_speedup``.  Returns ``(ok, message)``."""
    points = record.get("points") or {}
    if not points:
        return False, "native sweep has no measured points"
    lanes = at_lanes if at_lanes is not None else max(int(k) for k in points)
    entry = points.get(str(lanes))
    if entry is None:
        return False, f"no native point at n_lanes={lanes}"
    speedup = entry.get("speedup_vs_vectorized")
    if speedup is None:
        return False, f"no speedup_vs_vectorized recorded at n_lanes={lanes}"
    ok = speedup >= min_speedup
    verdict = "ok" if ok else "FAIL"
    return ok, (
        f"native speedup vs vectorized at n_lanes={lanes} "
        f"(kernel={record.get('kernel')}): {speedup:.2f}x "
        f"(floor {min_speedup:g}x) {verdict}"
    )


def render_native_throughput(record: dict) -> str:
    """Human-readable table of one native sweep record."""
    out = [
        f"native fleet throughput (fused {record.get('kernel')} kernel vs "
        "vectorized, per update):"
    ]
    header = (
        f"{'n_lanes':>8s} {'native up/s':>14s} {'vector up/s':>14s} {'speedup':>9s}"
    )
    out.append(header)
    out.append("-" * len(header))

    def _fmt(v):
        return f"{v:,.0f}" if isinstance(v, (int, float)) else "-"

    for lanes in sorted((record.get("points") or {}), key=int):
        p = record["points"][lanes]
        sp = p.get("speedup_vs_vectorized")
        out.append(
            f"{lanes:>8s} {_fmt((p.get('native') or {}).get('updates_per_sec')):>14s} "
            f"{_fmt((p.get('vectorized') or {}).get('updates_per_sec')):>14s} "
            f"{(f'{sp:.2f}x' if sp is not None else '-'):>9s}"
        )
    return "\n".join(out)


def render_fleet_throughput(record: dict) -> str:
    """Human-readable table of one sweep record."""
    out = ["fleet throughput (vectorized vs scalar lane loop, per update):"]
    header = (
        f"{'n_lanes':>8s} {'scalar up/s':>14s} {'vector up/s':>14s} {'speedup':>9s}"
    )
    out.append(header)
    out.append("-" * len(header))

    def _fmt(v):
        return f"{v:,.0f}" if isinstance(v, (int, float)) else "-"

    for lanes in sorted((record.get("points") or {}), key=int):
        p = record["points"][lanes]
        sp = p.get("speedup")
        out.append(
            f"{lanes:>8s} {_fmt((p.get('scalar') or {}).get('updates_per_sec')):>14s} "
            f"{_fmt((p.get('vectorized') or {}).get('updates_per_sec')):>14s} "
            f"{(f'{sp:.2f}x' if sp is not None else '-'):>9s}"
        )
    return "\n".join(out)
