"""Spans and counters recorded from the benchmark's own calls into each layer.

A span is (name, start, end, parent): the benchmark opens one around every
public call it makes, and around its own phases (round, set-up, update), so
nesting follows the call order.  Spans stay in memory and are written out
when the run ends.  A layer's self time is its span's duration minus the
part covered by its child spans.

With tracing off, ``call`` only counts the call and runs it, so untraced
rounds pay no more than a function call per operation.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class CallFailed(Exception):
    """A call into the program raised; the round it belongs to stops."""


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[tuple[str, int, int, int]] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.attempted = 0
        self.failed = 0

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter_ns(), 0, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            name, start, _, parent = self.spans[index]
            self.spans[index] = (name, start, time.perf_counter_ns(), parent)

    def call(self, name: str, fn, *args, **kwargs):
        """Run one public call of the program as one counted operation."""
        self.attempted += 1
        self.counts[name + ".calls"] += 1
        try:
            if not self.enabled:
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            raise CallFailed(f"{name}: {type(exc).__name__}: {exc}") from exc

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def self_times(self, first: int = 0, last: int | None = None) -> dict[str, float]:
        """Seconds of self time per span name over spans[first:last]."""
        spans = self.spans[first:last]
        child_ns = defaultdict(int)
        for name, start, end, parent in spans:
            if parent >= first:
                child_ns[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for offset, (name, start, end, _) in enumerate(spans):
            out[name] += (end - start - child_ns[first + offset]) / 1e9
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps({"name": name, "start_ns": start,
                                         "end_ns": end, "parent": parent}) + "\n")
