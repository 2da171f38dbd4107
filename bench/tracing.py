"""In-memory spans recorded by the benchmark around its calls into each layer.

Spans live in the benchmark, not in ``src/``: the traced run calls the same
public functions as the untraced one, in the same order, through
``Tracer.call``. A span's self time is its duration minus the time its
direct child spans cover.
"""

from __future__ import annotations

import time
from collections import Counter


class Tracer:
    """Collects spans and exact work counters for one traced pass (or set-up).

    ``counts`` holds exact work counters (steps, tokens, bytes, ...) recorded
    at the same boundaries as the spans; ``failed`` counts exceptions raised
    inside each layer, keyed by the layer's module (first name component).
    """

    def __init__(self):
        # [name, start, end, parent index, item]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.failed: Counter = Counter()
        self.item = -1  # identifier shared by the spans of one input item
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self.item]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed[name.split(".", 1)[0]] += 1
            raise
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def self_seconds(self) -> Counter:
        """Total self time per (item, span name)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Counter = Counter()
        for (name, start, end, _, item), inner in zip(self.spans, child_time):
            totals[item, name] += (end - start) - inner
        return totals
