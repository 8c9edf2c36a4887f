"""In-memory spans around the benchmark's calls into tmsm, and boundaries
that count membership queries.

A span records its name, start, end, parent span and job id. Spans stay in
memory and are written out once, when the run ends. With tracing off a
span still measures its own duration (the end-to-end metrics need it) but
stores nothing.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np
from tmsm.boundary import ColatitudeBoundary, PolylineBoundary


class Timing:
    """Start, end and duration of one span, filled in when the span closes."""

    __slots__ = ("start", "end", "seconds")


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.job: str | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        timing = Timing()
        sid = None
        if self.enabled:
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append({"id": sid, "name": name, "parent": parent, "job": self.job})
            self._stack.append(sid)
        timing.start = time.perf_counter()
        try:
            yield timing
        finally:
            timing.end = time.perf_counter()
            timing.seconds = timing.end - timing.start
            if sid is not None:
                self._stack.pop()
                self.spans[sid]["start"] = timing.start
                self.spans[sid]["end"] = timing.end

    def durations(self, name: str) -> list[float]:
        """Seconds of every recorded span with this name."""
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")


class _Counting:
    """Mixin: count the points passed to `contains`."""

    points = 0

    def contains(self, x):
        self.points += int(np.asarray(x).size // 3)
        return super().contains(x)


class CountingColatitude(_Counting, ColatitudeBoundary):
    pass


class CountingPolyline(_Counting, PolylineBoundary):
    pass


def counting_twin(boundary):
    """A counting boundary with the same state as `boundary`.

    The state is copied rather than rebuilt so that the dense samples (and
    hence every g value) are identical to the original's.
    """
    cls = CountingColatitude if isinstance(boundary, ColatitudeBoundary) else CountingPolyline
    twin = cls.__new__(cls)
    twin.__dict__.update(boundary.__dict__)
    twin.points = 0
    return twin
