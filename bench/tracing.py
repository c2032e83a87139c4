"""Spans around the benchmark's calls into sbchain.

A span records a name, start, end, parent span and op id. Spans are kept in
memory and written out when the run ends. With ``memory=True`` each call span
also records its tracemalloc peak, the most memory the call held above what
was allocated when it started; the caller starts and stops tracemalloc.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager, nullcontext


class NoTrace:
    """Tracing off: calls go straight through, nothing is recorded."""

    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def op(self, op_id):
        return nullcontext()

    def count(self, name, value):
        pass

    def maximum(self, name, value):
        pass


class Tracer:
    enabled = True

    def __init__(self, pass_id: str, memory: bool = False):
        self.pass_id = pass_id
        self.memory = memory
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._op: dict | None = None

    def _span(self, name: str) -> dict:
        op = self._op
        return {
            "id": f"{self.pass_id}.{len(self.spans)}",
            "name": name,
            "op": op["op"] if op else None,
            "parent": op["id"] if op else None,
        }

    @contextmanager
    def op(self, op_id: str):
        span = self._span("op")
        span["op"] = op_id
        self.spans.append(span)
        self._op = span
        span["start"] = time.perf_counter()
        try:
            yield
        finally:
            span["end"] = time.perf_counter()
            self._op = None

    def call(self, name, fn, *args, **kwargs):
        span = self._span(name)
        self.spans.append(span)
        if self.memory:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        span["start"] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            if self.memory:
                span["peak_mb"] = (tracemalloc.get_traced_memory()[1] - base) / 1e6

    def count(self, name: str, value: int):
        self.counts[name] += value

    def maximum(self, name: str, value: int):
        self.counts[name] = max(self.counts[name], value)

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def busy_s(self) -> Counter:
        """Seconds spent in each call name during this pass."""
        busy: Counter = Counter()
        for s in self.spans:
            if s["name"] != "op":
                busy[s["name"]] += s["end"] - s["start"]
        return busy

    def peaks_mb(self) -> dict[str, float]:
        """Largest tracemalloc peak of each call name during this pass."""
        peaks: dict[str, float] = {}
        for s in self.spans:
            if "peak_mb" in s:
                peaks[s["name"]] = max(peaks.get(s["name"], 0.0), s["peak_mb"])
        return peaks
