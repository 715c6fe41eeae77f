"""In-memory span tracer that wraps functions at the module attributes their
callers look them up through.

A span is ``(name, start_ns, end_ns, parent, op, tag)``: ``parent`` is the
index of the enclosing span (-1 at the top), ``op`` the operation id set by
the caller, and ``tag`` an optional value computed from the call's
arguments.  Counters are kept beside the spans and filled by callbacks at
the same boundaries.  Nothing is written until the caller asks for it.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name, fn, count=None, tag=None):
        """Return ``fn`` recorded as span ``name``.

        ``count(counts, args, result)`` runs after the call; ``tag(args)``
        before it, and its value is stored on the span.
        """
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            label = tag(args) if tag is not None else None
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op, label)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def patch(self, owner, attr, name, count=None, tag=None):
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, count, tag))

    def count_calls(self, owner, attr, count):
        """Patch ``owner.attr`` to feed ``count`` without recording a span."""
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        counts = self.counts

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            count(counts, args, result)
            return result

        setattr(owner, attr, counted)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; calls are synchronous, so children never overlap.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for index, (name, start, end, _, _, _) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += (end - start) / 1e9
            entry["self_s"] += (end - start - child_ns[index]) / 1e9
        return dict(out)

    def nearest(self, index: int, name: str) -> int:
        """Index of the closest enclosing span called ``name``, or -1."""
        parent = self.spans[index][3]
        while parent >= 0 and self.spans[parent][0] != name:
            parent = self.spans[parent][3]
        return parent

    def dump(self, path) -> None:
        """Write one JSON array per line: name, start, end, parent, op, tag."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
