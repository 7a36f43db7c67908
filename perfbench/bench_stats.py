"""Summary statistics of the benchmark: medians, tails, segment rates, residuals.

Every end-to-end figure the benchmark prints goes through one of these
functions, so the rules they encode hold everywhere:

* a timing is reported as its median plus the highest percentile that has
  at least :data:`TAIL_BEYOND` samples beyond it (capped at p99), together
  with the sample count;
* a failed request is a sample of ``inf``: it misses every percentile;
* a throughput is the median over fixed-work segments, so one stall of the
  machine moves one segment, not the figure;
* a residual is what a total leaves after its attributed parts;
* a bounded end-to-end figure is stated at the reference CPU speed: the
  host's speed drifts by a third and more over tens of seconds as other
  tenants load it, so each run times a fixed pure-Python loop
  (:func:`cpu_probe`) between its segments and scales its figures by how
  much slower than :data:`REFERENCE_PROBE_S` that loop ran.  The figures
  as measured are printed beside them.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10
#: Highest percentile reported as a tail.
TAIL_CAP = 0.99
#: Iterations of the reference loop.
PROBE_LOOPS = 20_000
#: Duration of the reference loop on the reference CPU, by definition.
REFERENCE_PROBE_S = 1e-3


@dataclass(frozen=True)
class Tail:
    """A tail percentile: its value, its level in ``(0, 1]`` and the count."""

    value: float
    level: float
    count: int

    @property
    def supported(self) -> bool:
        """False when the sample was too small and the value is its maximum."""
        return self.level < 1.0

    @property
    def label(self) -> str:
        if not self.supported:
            return f"max of {self.count} (too few for a tail)"
        return f"p{self.level * 100:.4g} of {self.count}"


def tail(samples: Sequence[float], *, beyond: int = TAIL_BEYOND, cap: float = TAIL_CAP) -> Tail:
    """The highest nearest-rank percentile, at most ``cap``, with at least
    ``beyond`` samples above it.

    A sample too small for such a percentile to reach the median (``2 *
    beyond`` values or fewer) supports no tail; its maximum is returned
    with level 1.0 (``supported`` is False).
    """
    n = len(samples)
    ordered = sorted(samples)
    if n <= 2 * beyond:
        return Tail(value=ordered[-1], level=1.0, count=n)
    # Nearest rank: index i is the (i+1)/n percentile and has n-1-i
    # samples above it.
    i = min(n - 1 - beyond, math.ceil(cap * n) - 1)
    return Tail(value=ordered[i], level=(i + 1) / n, count=n)


def median(samples: Iterable[float]) -> float:
    return statistics.median(samples)


def segment_rates(marks: Sequence[float], work_per_segment: float) -> list[float]:
    """Rates of consecutive fixed-work segments from their boundary times.

    ``marks`` are the clock readings at which each ``work_per_segment``
    units of work had completed, the first being the start.
    """
    return [
        work_per_segment / (b - a) for a, b in zip(marks, marks[1:]) if b > a
    ]


def segment_median(marks: Sequence[float], work_per_segment: float) -> float:
    """Median rate over fixed-work segments (see :func:`segment_rates`)."""
    rates = segment_rates(marks, work_per_segment)
    if not rates:
        raise ValueError("need at least one complete segment")
    return statistics.median(rates)


def residual(total: float, parts: Iterable[float]) -> float:
    """What ``total`` leaves after its attributed ``parts``."""
    return total - sum(parts)


def cpu_probe() -> float:
    """Duration of one fixed pure-Python loop: the CPU's speed right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i & 7
    return time.perf_counter() - t0


def slowdown(probes: Sequence[float]) -> float:
    """How many times slower than the reference CPU the probes ran."""
    return statistics.median(probes) / REFERENCE_PROBE_S


def relative_iqr(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the driver's
    steadiness figure, with Python's default quantile method)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


@dataclass
class Outcome:
    """What one workload, or one traced stack, measured and checked.

    ``metrics`` are the figures of the closing JSON line, ``report`` the
    human-readable rows printed before it, ``problems`` the failed output
    and teardown checks.
    """

    metrics: dict = field(default_factory=dict)
    report: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def metric(self, name: str, value: float, unit: str, note: str = "") -> None:
        """Record a figure of the JSON line and print it."""
        self.metrics[name] = (float(value), unit)
        self.show(name, value, unit, note)

    def show(self, name: str, value: float, unit: str, note: str = "") -> None:
        """Print a figure without adding it to the JSON line."""
        self.report.append((name, float(value), unit, note))

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)

    def merge(self, other: "Outcome") -> None:
        self.metrics.update(other.metrics)
        self.report.extend(other.report)
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)


def end_to_end(
    out: Outcome,
    *,
    rate: float,
    rate_note: str,
    latencies_ms: Sequence[float],
    latency_note: str,
    setups_s: Sequence[float],
    setup_note: str,
    run_probes: Sequence[float],
    setup_probes: Sequence[float],
) -> None:
    """Record a workload's figures at the reference CPU speed, each noted
    with its value as measured.  The median latency and the set-up time are
    the bounded figures of the JSON line; throughput is printed only, as it
    spread up to twice as widely between runs of one commit."""
    run_slow, setup_slow = slowdown(run_probes), slowdown(setup_probes)
    p50 = median(latencies_ms)
    setup = median(setups_s)
    out.show("throughput_per_s", rate * run_slow, "1/s", f"{rate_note}; {rate:.6g} as measured")
    out.metric("latency_p50_ms", p50 / run_slow, "ms", f"{latency_note}; {p50:.6g} as measured")
    out.metric("setup_s", setup / setup_slow, "s", f"{setup_note}; {setup:.6g} as measured")
    out.show("cpu_slowdown", run_slow, "x",
             f"reference loop vs {REFERENCE_PROBE_S * 1e3:g} ms, median of {len(run_probes)}")
