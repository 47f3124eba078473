"""Spans recorded from outside the program, around its public calls.

A :class:`Tracer` keeps every span in memory — name, start, end and
the span that caused it — and writes them as JSONL once the run ends,
so recording costs two clock reads and one list append per call.
:class:`NullTracer` has the same surface and records nothing; the
untraced end-to-end runs use it.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Tracer:
    """Nested spans with monotonic timing."""

    def __init__(self) -> None:
        self.spans: List[Dict] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Dict]:
        """Time the enclosed block as a span named after its layer."""
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def self_seconds(self) -> Dict[str, float]:
        """Per span name: total duration minus the part of it that
        child spans cover."""
        covered = [0.0] * len(self.spans)
        for record in self.spans:
            if record["parent"] is not None:
                covered[record["parent"]] += _duration(record)
        totals: Dict[str, float] = {}
        for record in self.spans:
            own = _duration(record) - covered[record["id"]]
            totals[record["name"]] = totals.get(record["name"], 0.0) + own
        return totals

    def durations(self, name: str) -> List[float]:
        """Duration of each span called *name*, in recording order."""
        return [_duration(record) for record in self.spans
                if record["name"] == name]

    def write_jsonl(self, path: str) -> None:
        """Write one JSON object per span."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record, sort_keys=True) + "\n")


class NullTracer:
    """Records nothing: the untraced runs' tracer."""

    @contextmanager
    def span(self, name: str) -> Iterator[Optional[Dict]]:
        yield None


def _duration(record: Dict) -> float:
    return record["end"] - record["start"]
