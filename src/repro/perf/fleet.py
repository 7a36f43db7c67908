"""Fleet throughput sweeps: one paired-timing loop, four variants.

The paper backs its throughput claims with a paired measurement of two
implementations of one workload (Table II: CPU against FPGA).  A sweep
makes that measurement for the fleet backends (:mod:`repro.backends`):
a *candidate* and a *baseline* engine run the same Q-learning fleet
back to back at each point of a ladder, and the record carries
per-update throughput for both sides plus the median of the paired
per-round ratios.  The four variants in :data:`SWEEPS` differ only in
data:

=========== ================ ============ ============== =========================
variant     candidate        baseline     ladder         ratio
=========== ================ ============ ============== =========================
``fleet``   vectorized       scalar loop  lane counts    ``speedup``
``rule``    vectorized+rule  qlearning    update rules   ``overhead``
``sharded`` C-kernel shards  vectorized   worker counts  ``speedup_vs_vectorized``
``native``  fused C kernel   vectorized   lane counts    ``speedup_vs_vectorized``
=========== ================ ============ ============== =========================

``overhead`` is candidate/baseline per update (1.0 is free, lower is
better); the speedups are baseline/candidate (higher is better).  The
vectorized backend amortises interpreter dispatch over the lane axis,
so the ``fleet`` speedup grows with ``n_lanes``; the rule sweep prices
the accelerated rules' extra tables the way Fig. 3 prices them in
DSPs; the sharded sweep also times the scalar loop once per sweep and
records ``speedup_vs_scalar``, the ratio that holds even on one core.

Noise discipline matches :mod:`repro.perf.bench`: engines are built
untimed and warmed up, each round times the candidate then the
baseline back to back, and the ratio is the median of per-round
per-update ratios, so drift cancels.  Budgets are per update
(``lanes x steps``), so a slow baseline gets a smaller step count.

Records land in BENCH snapshots under each variant's ``key`` (see
:mod:`repro.perf.snapshot`).  :func:`check_sweep` is the CLI gate
(``python -m repro.perf fleet``) and :mod:`repro.perf.compare` the
regression sentinel; both read the ratios, which are same-machine
relative measures and so comparable anywhere.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .stats import mad, median

#: Full-sweep lane ladder.
LANE_COUNTS = (1, 16, 256, 4096)

#: Smoke ladder for CI: drops the expensive 4096-lane point.
SMOKE_LANE_COUNTS = (1, 16, 256)

#: Update rules of the rule sweep (every registered rule, through its
#: preset constructor so policies are consistent).
RULE_NAMES = ("qlearning", "sarsa", "momentum_qlearning", "target_qlearning")

#: Default worker ladder of the sharded sweep.
WORKER_COUNTS = (1, 2, 4)


@dataclass(frozen=True)
class Side:
    """One engine of a sweep and its per-repeat update budget."""

    engine: str  # a fleet kind of :data:`repro.core.engine.ENGINE_KINDS`
    budget: int  # updates per repeat, across lanes
    step_cap: int  # per-lane step ceiling

    def steps(self, lanes: int, scale: int) -> int:
        return max(1, min(self.step_cap // scale, self.budget // scale // lanes))


_SCALAR = Side("scalar", 24_000, 600)
_VECTORIZED = Side("vectorized", 200_000, 2_000)
# The fused kernel retires updates 5-50x faster than the numpy program,
# and process fan-out has fixed epoch costs that only amortise over a
# meaningful step count: both get larger budgets.
_NATIVE = Side("native", 2_000_000, 20_000)
_SHARDED = Side("sharded", 400_000, 4_000)


@dataclass(frozen=True)
class Sweep:
    """The data that makes one sweep variant."""

    name: str
    key: str  # snapshot key
    title: str
    axis: str  # record field listing the ladder
    label: str  # how gate messages name a ladder point
    ladder: tuple
    candidate: Side
    baseline: Side
    ratio: str  # the paired ratio's field
    lower_is_better: bool = False
    knob: Optional[str] = None  # what the ladder sets on the candidate only
    n_lanes: Optional[int] = None  # default fixed lane count when ``knob`` is set
    reference: Optional[Side] = None  # timed once; adds speedup_vs_<engine>
    gate_all: bool = False  # gate every point (else the largest)
    extra: Callable[[], dict] = dict  # record fields beyond the shared ones

    @property
    def ratios(self) -> tuple[str, ...]:
        """Every ratio field of a point; the first is the default gate."""
        ref = (f"speedup_vs_{self.reference.engine}",) if self.reference else ()
        return (self.ratio,) + ref

    @property
    def flat(self) -> bool:
        """Both sides run one engine (the rule sweep), so a point holds
        the candidate's fields directly instead of one dict per engine."""
        return self.candidate.engine == self.baseline.engine

    def side(self, point: dict, engine: str) -> dict:
        """One engine's side fields in a point (a flat point is the
        candidate's)."""
        return point if self.flat else point.get(engine) or {}


def _kernel_tier() -> dict:
    from ..backends.native import NativeFleetBackend

    return {"kernel": NativeFleetBackend.kernel_tier}


def _sharded_extra() -> dict:
    from ..backends.sharded import shard_kernel

    return {"cpu_count": os.cpu_count(), "kernel": shard_kernel(_rule_config("qlearning"))}


#: The four variants, in snapshot-rendering order.
SWEEPS = {
    s.name: s
    for s in (
        Sweep(
            name="fleet",
            key="fleet_throughput",
            title="fleet throughput, vectorized vs scalar lane loop",
            axis="lane_counts",
            label="n_lanes",
            ladder=LANE_COUNTS,
            candidate=_VECTORIZED,
            baseline=_SCALAR,
            ratio="speedup",
        ),
        Sweep(
            name="rule",
            key="rule_throughput",
            title="update-rule throughput, vectorized rule vs qlearning",
            axis="rules",
            label="rule",
            ladder=RULE_NAMES,
            candidate=_VECTORIZED,
            baseline=_VECTORIZED,
            ratio="overhead",
            lower_is_better=True,
            knob="rule",
            n_lanes=256,
            gate_all=True,
        ),
        Sweep(
            name="sharded",
            key="sharded_throughput",
            title="sharded fleet throughput, sharded vs vectorized",
            axis="worker_counts",
            label="workers",
            ladder=WORKER_COUNTS,
            candidate=_SHARDED,
            baseline=Side("vectorized", _SHARDED.budget, _SHARDED.step_cap),
            ratio="speedup_vs_vectorized",
            knob="num_workers",
            n_lanes=4096,
            reference=_SCALAR,
            extra=_sharded_extra,
        ),
        Sweep(
            name="native",
            key="native_throughput",
            title="native fleet throughput, fused kernel vs vectorized",
            axis="lane_counts",
            label="n_lanes",
            ladder=LANE_COUNTS,
            candidate=_NATIVE,
            baseline=_VECTORIZED,
            ratio="speedup_vs_vectorized",
            extra=_kernel_tier,
        ),
    )
}


def _mdp(size: int = 16, actions: int = 8):
    from ..envs.gridworld import GridWorld

    return GridWorld.empty(size, actions).to_mdp()


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


def _time_rounds(engines, *, repeats: int, warmup: int, clock) -> list[list[float]]:
    """Warm every ``(engine, steps)`` up, then run them back to back in
    each of ``repeats`` rounds; returns per-engine seconds lists."""
    for _ in range(warmup):
        for eng, steps in engines:
            eng.run(steps)
    secs: list[list[float]] = [[] for _ in engines]
    for _ in range(repeats):
        prev = clock()
        for out, (eng, steps) in zip(secs, engines):
            eng.run(steps)
            now = clock()
            out.append(now - prev)
            prev = now
    return secs


def _side_record(lanes: int, steps: int, secs: list[float]) -> dict:
    med = median(secs)
    updates = lanes * steps
    return {
        "steps": steps,
        "updates": updates,
        "seconds_median": med,
        "seconds_mad": mad(secs),
        "updates_per_sec": updates / med if med > 0 else None,
    }


def run_sweep(
    name: str,
    ladder: Optional[Sequence] = None,
    *,
    n_lanes: Optional[int] = None,
    repeats: int = 3,
    warmup: int = 1,
    quick: bool = False,
    clock: Callable[[], float] = time.perf_counter,
    mp_context: str = "spawn",
) -> dict:
    """Run one sweep variant of :data:`SWEEPS`; returns its snapshot record.

    ``ladder`` overrides the variant's default ladder (lane counts,
    rule names or worker counts); ``n_lanes`` the fixed lane count of
    the rule and sharded variants.  ``quick`` divides every update
    budget by 10 (CI smoke / tests).  The record::

        {
          "<axis>": [...], "repeats": 3, "quick": false,
          # rule/sharded: "n_lanes", "steps"; sharded: "cpu_count",
          # the shard program's "kernel" and the "scalar" reference
          # side; native: "kernel"
          "points": {
            "4096": {
              "<candidate>": {"steps", "updates", "seconds_median",
                              "seconds_mad", "updates_per_sec"},
              "<baseline>":  {...same keys...},
              "<ratio>": 6.1, "<ratio>_mad": 0.2,
            },
            ...
          },
        }

    A rule-sweep point holds the candidate's side fields directly.
    Raises :class:`~repro.backends.native.NativeBackendUnavailableError`
    for ``native`` when no C compiler exists.
    """
    spec = SWEEPS[name]
    ladder = list(spec.ladder if ladder is None else ladder)
    if n_lanes is None:
        n_lanes = spec.n_lanes
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if warmup < 0:
        raise ValueError("warmup must be non-negative")
    if not ladder:
        raise ValueError(f"{spec.axis} must be non-empty")
    if spec.knob == "rule":
        for rule in ladder:
            _rule_config(rule)  # KeyError names an unknown rule up front
    elif any(x < 1 for x in ladder):
        raise ValueError(f"{spec.axis} must be positive, got {ladder}")
    if n_lanes is not None and n_lanes < 1:
        raise ValueError(f"n_lanes must be positive, got {n_lanes}")

    from ..core.engine import make_engine

    mdp, scale = _mdp(), 10 if quick else 1

    def measure(sides, lanes: int) -> list[list[float]]:
        """Build one engine per ``(side, knob)`` untimed, time them with
        :func:`_time_rounds`, and close them."""
        engines = []
        try:
            for side, knob in sides:
                kw = dict(knob)
                steps = side.steps(lanes, scale)
                if side.engine == "sharded":
                    # The epoch spans a whole repeat; each epoch also
                    # captures the workers' recovery checkpoints.
                    kw.update(epoch=steps, mp_context=mp_context)
                cfg = _rule_config(kw.pop("rule", "qlearning"))
                eng = make_engine(
                    cfg, engine=side.engine, mdps=mdp, num_agents=lanes, **kw
                )
                engines.append((eng, steps))
            return _time_rounds(engines, repeats=repeats, warmup=warmup, clock=clock)
        finally:
            for eng, _ in engines:
                if hasattr(eng, "close"):
                    eng.close()

    record: dict = {spec.axis: ladder, "repeats": repeats, "quick": quick}
    if spec.knob is not None:
        record["n_lanes"] = n_lanes
        record["steps"] = spec.candidate.steps(n_lanes, scale)
    record.update(spec.extra())
    reference = None
    if spec.reference is not None:
        (secs,) = measure([(spec.reference, {})], n_lanes)
        reference = _side_record(n_lanes, spec.reference.steps(n_lanes, scale), secs)
        record[spec.reference.engine] = reference

    points: dict[str, dict] = {}
    for x in ladder:
        lanes = n_lanes if spec.knob is not None else x
        knob = {spec.knob: x} if spec.knob is not None else {}
        c_steps = spec.candidate.steps(lanes, scale)
        b_steps = spec.baseline.steps(lanes, scale)
        c_secs, b_secs = measure([(spec.candidate, knob), (spec.baseline, {})], lanes)
        ratios = []
        for c, b in zip(c_secs, b_secs):
            per_c, per_b = c / (lanes * c_steps), b / (lanes * b_steps)
            num, den = (per_c, per_b) if spec.lower_is_better else (per_b, per_c)
            if den > 0:
                ratios.append(num / den)
        cand = _side_record(lanes, c_steps, c_secs)
        if spec.flat:
            point = dict(cand)
        else:
            point = {
                spec.candidate.engine: cand,
                spec.baseline.engine: _side_record(lanes, b_steps, b_secs),
            }
        point[spec.ratio] = median(ratios) if ratios else None
        point[f"{spec.ratio}_mad"] = mad(ratios) if ratios else None
        if reference is not None:
            c_ups, r_ups = cand["updates_per_sec"], reference["updates_per_sec"]
            point[spec.ratios[1]] = c_ups / r_ups if c_ups and r_ups else None
        points[str(x)] = point
    record["points"] = points
    return record


def gate_points(spec: Sweep, keys) -> list[str]:
    """The ladder points a gate reads: every point of a ``gate_all``
    sweep (so its worst one decides), else the largest."""
    keys = list(keys)
    return keys if spec.gate_all else [max(keys, key=int)]


def check_sweep(
    name: str,
    record: dict,
    bound: float,
    *,
    ratio: Optional[str] = None,
) -> tuple[bool, str]:
    """Gate a sweep record: ``ratio`` (default: the variant's paired
    ratio) must reach ``bound`` — a floor for speedups, a ceiling for
    ``overhead`` — at every point :func:`gate_points` picks.  Returns
    ``(ok, message)``."""
    spec = SWEEPS[name]
    ratio = ratio or spec.ratio
    if ratio not in spec.ratios:
        raise ValueError(f"{name} sweep records {spec.ratios}, not {ratio!r}")
    points = record.get("points") or {}
    if not points:
        return False, f"{name} sweep has no measured points"
    values = {}
    for key in gate_points(spec, points):
        values[key] = points[key].get(ratio)
        if values[key] is None:
            return False, f"no {ratio} recorded at {spec.label}={key}"
    key = (max if spec.lower_is_better else min)(values, key=values.get)
    value = values[key]
    ok = value <= bound if spec.lower_is_better else value >= bound
    return ok, (
        f"{name} {ratio.replace('_', ' ')} at {spec.label}={key}: {value:.2f}x "
        f"({'ceiling' if spec.lower_is_better else 'floor'} {bound:g}x) "
        f"{'ok' if ok else 'FAIL'}"
    )


def render_sweep(name: str, record: dict) -> str:
    """Human-readable table of one sweep record."""
    spec = SWEEPS[name]
    params = "".join(
        f"{k}={record[k]}, " for k in ("n_lanes", "kernel", "cpu_count") if k in record
    )
    sides = [spec.candidate.engine] + ([] if spec.flat else [spec.baseline.engine])
    heads = [r.replace("speedup_vs_", "vs ") for r in spec.ratios]
    points = record.get("points") or {}
    keys = sorted(points, key=int) if all(k.isdigit() for k in points) else list(points)
    width = max([len(spec.label)] + [len(k) for k in keys])
    header = (
        f"{spec.label:>{width}s}"
        + "".join(f" {s + ' up/s':>16s}" for s in sides)
        + "".join(f" {h:>14s}" for h in heads)
    )
    out = [f"{spec.title} ({params}per update):", header, "-" * len(header)]
    for key in keys:
        p = points[key]
        row = f"{key:>{width}s}"
        for s in sides:
            ups = spec.side(p, s).get("updates_per_sec")
            row += f" {f'{ups:,.0f}' if ups is not None else '-':>16s}"
        for r in spec.ratios:
            v = p.get(r)
            row += f" {f'{v:.2f}x' if v is not None else '-':>14s}"
        out.append(row)
    return "\n".join(out)
