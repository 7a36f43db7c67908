"""The shared run-result contract of every engine's stats object.

Each engine historically grew its own counters dataclass with ad-hoc
spellings (``FunctionalStats.samples``, ``PipelineStats.retired``...).
:class:`RunStatsContract` normalises the surface every consumer can rely
on, without removing anything:

* ``.samples`` — total Q-value updates retired by the run;
* ``.cycles`` — clock cycles consumed, or ``None`` on engines with no
  cycle notion (the functional and fleet fast paths);
* ``.as_dict()`` — all counters plus the two normalised keys, as plain
  JSON-ready values.

Old spellings that still carry meaning stay as thin adapters.
"""

from __future__ import annotations

import dataclasses
from typing import Optional


class RunStatsContract:
    """Mixin providing the normalised stats surface.

    Subclasses supply ``samples`` (field or property); ``cycles``
    defaults to ``None`` for clockless engines and is overridden (as a
    field or property) by the cycle-accurate ones.
    """

    @property
    def cycles(self) -> Optional[int]:
        """Clock cycles consumed; ``None`` on engines with no clock."""
        return None

    def as_dict(self) -> dict:
        """All counters plus the normalised ``samples``/``cycles`` keys."""
        if dataclasses.is_dataclass(self):
            out = dataclasses.asdict(self)
        else:  # non-dataclass stats override as_dict instead
            raise TypeError(
                f"{type(self).__name__} is not a dataclass; override as_dict()"
            )
        out["samples"] = self.samples  # type: ignore[attr-defined]
        out["cycles"] = self.cycles
        return out
