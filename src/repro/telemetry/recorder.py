"""Flight recorder: a crash-safe, bounded on-disk ring of recent
spans and structured events.

Postmortems of chaos-campaign failures need the last few seconds of
history — which worker was killed, which sessions replayed, which
spans were in flight — *from the crashed run itself*.  The recorder
appends one JSON line per record to a segment file, flushing every
line so a SIGKILL loses at most one partial line; segments rotate at
``max_records`` lines and only the newest ``max_segments`` are kept,
so the on-disk footprint is bounded no matter how long the process
runs.  Readers skip torn/corrupt lines instead of failing — a flight
recorder that cannot be read after the crash it exists for is
useless.

``run_chaos_campaign`` and the smoke gates call :meth:`dump` on
failure to merge the surviving segments into one artifact file that CI
uploads as the run's own post-mortem; ``python -m repro.telemetry
trace`` converts the span records of such a dump into a Chrome trace.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from pathlib import Path
from typing import Iterator, Optional

#: Records per segment file before rotation.
DEFAULT_MAX_RECORDS = 2048

#: Rotated segments retained on disk (oldest deleted beyond this).
DEFAULT_MAX_SEGMENTS = 4

_SEGMENT_PREFIX = "flight-"
_SEGMENT_SUFFIX = ".jsonl"


def read_records(path) -> Iterator[Optional[dict]]:
    """The JSON-object records of one JSONL file, oldest first.

    A torn or corrupt line yields ``None`` so callers can count what
    they skipped; blank lines are ignored.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                record = None
            yield record if isinstance(record, dict) else None


def _span_record(span) -> dict:
    payload = span.to_dict() if hasattr(span, "to_dict") else dict(span)
    payload["type"] = "span"
    return payload


class FlightRecorder:
    """Bounded JSONL segment ring under one directory (thread-safe)."""

    def __init__(
        self,
        directory,
        *,
        max_records: int = DEFAULT_MAX_RECORDS,
        max_segments: int = DEFAULT_MAX_SEGMENTS,
        proc: str = "main",
    ):
        if max_records < 1 or max_segments < 1:
            raise ValueError("max_records and max_segments must be >= 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_records = max_records
        self.max_segments = max_segments
        self.proc = proc
        self._lock = threading.Lock()
        self._fh = None
        self._lines_in_segment = 0
        self.total_records = 0
        # Resume numbering after any segments left by a previous run.
        self._segment_no = max(self._numbered_segments(), default=(-1,))[0] + 1

    # -- segment plumbing ---------------------------------------------- #

    def _numbered_segments(self) -> list[tuple[int, Path]]:
        numbered = []
        for p in self.directory.glob(f"{_SEGMENT_PREFIX}*{_SEGMENT_SUFFIX}"):
            try:
                numbered.append((int(p.stem[len(_SEGMENT_PREFIX) :]), p))
            except ValueError:
                continue
        return sorted(numbered)

    def _segment_paths(self) -> list[Path]:
        return [p for _, p in self._numbered_segments()]

    def _segment_path(self, n: int) -> Path:
        return self.directory / f"{_SEGMENT_PREFIX}{n:06d}{_SEGMENT_SUFFIX}"

    def _rotate_locked(self) -> None:
        if self._fh is not None:
            self._fh.close()
        self._fh = open(
            self._segment_path(self._segment_no), "a", encoding="utf-8"
        )
        self._segment_no += 1
        self._lines_in_segment = 0
        for stale in self._segment_paths()[: -self.max_segments]:
            try:
                stale.unlink()
            except OSError:  # pragma: no cover - races with readers are fine
                pass

    def _write_locked(self, record: dict) -> None:
        if self._fh is None or self._lines_in_segment >= self.max_records:
            self._rotate_locked()
        self._fh.write(json.dumps(record, separators=(",", ":")) + "\n")
        self._fh.flush()
        self._lines_in_segment += 1
        self.total_records += 1

    # -- recording ------------------------------------------------------ #

    def record_event(self, kind: str, **fields) -> None:
        """File one structured event (worker restart, failover, ...)."""
        record = {
            "type": "event",
            "kind": kind,
            "t": time.monotonic(),
            "wall": time.time(),
            "proc": self.proc,
        }
        record.update(fields)
        with self._lock:
            self._write_locked(record)

    def record_span(self, span) -> None:
        """File one finished span (usable as a :class:`Tracer` sink)."""
        payload = _span_record(span)
        with self._lock:
            self._write_locked(payload)

    # -- reading / dumping ---------------------------------------------- #

    def records(self) -> Iterator[dict]:
        """Every surviving record, oldest first; torn lines are skipped."""
        with self._lock:
            if self._fh is not None:
                self._fh.flush()
            paths = self._segment_paths()
        for path in paths:
            try:
                yield from filter(None, read_records(path))
            except OSError:  # pragma: no cover - segment raced away
                continue

    def stats(self) -> dict:
        with self._lock:
            segments = self._segment_paths()
            return {
                "records": self.total_records,
                "segments": len(segments),
                "directory": str(self.directory),
            }

    def dump(self, path=None, *, spans=None) -> str:
        """Merge surviving segments into one JSONL artifact; returns path.

        ``spans`` (an iterable of :class:`~repro.telemetry.tracing.Span` or
        span dicts, e.g. a ring snapshot) is appended as ``span``
        records — spans deliberately do NOT stream through the recorder
        while in flight (a per-span disk write would tank the serve hot
        path), so dump time is when the recent-span ring joins the
        on-disk post-mortem.
        """
        if path is None:
            path = self.directory / "flight_dump.jsonl"
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(path.suffix + ".tmp")
        with open(tmp, "w", encoding="utf-8") as out:
            spans = (_span_record(span) for span in spans or ())
            for record in itertools.chain(self.records(), spans):
                out.write(json.dumps(record, separators=(",", ":")) + "\n")
        os.replace(tmp, path)
        return str(path)

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


def open_recorder(
    directory, *, proc: str = "main", **kw
) -> Optional[FlightRecorder]:
    """A recorder at ``directory``, or ``None`` when directory is falsy."""
    if not directory:
        return None
    return FlightRecorder(directory, proc=proc, **kw)
