"""In-memory span recorder and self-time arithmetic.

A span is (name, start, end, parent, command_id): the wrapped function's
qualified name, perf_counter timestamps, the index of the enclosing span
(-1 at the top) and the id of the command that caused it.  A span's self
time is its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.names: set = set()     # every wrapped name, called or not
        self.spans: list = []
        self.counts: Counter = Counter()
        self.command_id = ""
        self._stack: list = []

    def in_span(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def wrap(self, name: str, fn, after=None):
        """fn recorded as a span; after(args, kwargs, result) runs outside the
        span and may update counts."""
        self.names.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.command_id))
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                _, _, _, parent, command = self.spans[index]
                self.spans[index] = (name, start, end, parent, command)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def counter(self, fn, count):
        """fn untimed; count(args, kwargs, result) updates counts after each call."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(args, kwargs, result)
            return result

        return counted


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans) -> list:
    """Self time of each span, in span order."""
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [end - start - _covered(children[i]) for i, (_, start, end, _, _) in enumerate(spans)]


def totals(spans) -> dict:
    """{name: (calls, self seconds)} summed over spans."""
    out: dict = defaultdict(lambda: [0, 0.0])
    for span, own in zip(spans, self_times(spans)):
        entry = out[span[0]]
        entry[0] += 1
        entry[1] += own
    return {name: tuple(v) for name, v in out.items()}
