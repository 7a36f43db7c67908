"""Experiment registry: one entry per paper table/figure (see DESIGN.md).

Every experiment module registers a function returning an
:class:`ExperimentResult` — a titled table of rows, with paper reference
values alongside measured/modelled ones wherever the paper prints a
number, plus free-form notes recording calibration caveats.  The runner
(`python -m repro.experiments`) and the pytest benches both go through
this registry, so the printed artifact is identical everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence


@dataclass
class ExperimentResult:
    """A regenerated paper artifact."""

    exp_id: str
    title: str
    headers: Sequence[str]
    rows: list[Sequence[object]]
    notes: list[str] = field(default_factory=list)

    def format(self) -> str:
        """Fixed-width rendering of the table plus notes."""
        cells = [[_fmt(c) for c in row] for row in self.rows]
        widths = [len(h) for h in self.headers]
        for row in cells:
            for i, c in enumerate(row):
                widths[i] = max(widths[i], len(c))
        sep = "-+-".join("-" * w for w in widths)
        out = [f"== {self.exp_id}: {self.title} =="]
        out.append(" | ".join(h.ljust(w) for h, w in zip(self.headers, widths)))
        out.append(sep)
        for row in cells:
            out.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        for note in self.notes:
            out.append(f"note: {note}")
        return "\n".join(out)


def _fmt(cell: object) -> str:
    if cell is None:
        return "-"
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000:
            return f"{cell:,.0f}"
        if abs(cell) >= 10:
            return f"{cell:.1f}"
        return f"{cell:.3f}"
    return str(cell)


#: exp_id -> (title, runner).  Runners accept ``quick`` to trade fidelity
#: for wall time (used by the pytest benches).
_REGISTRY: dict[str, tuple[str, Callable[..., ExperimentResult]]] = {}


def register(exp_id: str, title: str):
    """Decorator adding an experiment to the registry."""

    def deco(fn: Callable[..., ExperimentResult]):
        if exp_id in _REGISTRY:
            raise ValueError(f"duplicate experiment id {exp_id!r}")
        _REGISTRY[exp_id] = (title, fn)
        return fn

    return deco


def experiment_ids() -> list[str]:
    """All registered experiment ids, registration order."""
    _load_all()
    return list(_REGISTRY)


def run_experiment(
    exp_id: str, *, quick: bool = False, telemetry=None
) -> ExperimentResult:
    """Run one experiment by id.

    With ``telemetry`` (a :class:`~repro.telemetry.TelemetrySession`),
    the experiment runs inside the session's ambient window, so every
    engine it constructs attaches automatically — no experiment module
    needs to know telemetry exists.
    """
    _load_all()
    if exp_id not in _REGISTRY:
        raise KeyError(
            f"unknown experiment {exp_id!r}; known: {', '.join(_REGISTRY)}"
        )
    _, fn = _REGISTRY[exp_id]
    if telemetry is None:
        return fn(quick=quick)
    with telemetry:
        return fn(quick=quick)


def experiment_title(exp_id: str) -> str:
    _load_all()
    return _REGISTRY[exp_id][0]


_loaded = False


def _load_all() -> None:
    """Import every experiment module exactly once (registration side
    effects)."""
    global _loaded
    if _loaded:
        return
    from . import (  # noqa: F401
        ablations,
        algorithms,
        chaos_campaign,
        cliff,
        convergence,
        fault_campaign,
        fig3,
        fig4,
        fig5,
        fig6,
        fig7,
        fig8,
        fig9,
        fleet,
        mab,
        prob_policy,
        sota,
        table1,
        table2,
        table2_cache,
    )

    _loaded = True
