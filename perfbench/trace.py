"""Spans recorded from outside the program, around calls into its layers.

A :class:`Tracer` replaces a bound method on an object the benchmark
built (``engine.apply``, ``engine.scheduler.dispatch``, ``store.save``,
...) with a wrapper that records one :class:`Span` per call.  The
program is unchanged: the wrapper is an instance attribute, and the
program's own ``self.<attr>(...)`` lookups find it first.

The benchmark drives one thread, so a plain stack gives every span its
parent.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import time
from typing import Any


class Span:
    """One timed call: ``name``, ``start``/``end`` (perf_counter
    seconds), the index of its ``parent`` span (``-1`` for a root), and
    the ``op`` id the driver was issuing when the call began."""

    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name: str, start: float, parent: int, op: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around wrapped calls."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        #: The driver's current operation id, stamped on new spans.
        self.op = -1
        #: ``(owner, attr, original or None)`` per wrap, for :meth:`unwrap`.
        self._wrapped: list[tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        """Record a ``name`` span around every call of ``owner.attr``."""
        inner = getattr(owner, attr)
        self._wrapped.append((owner, attr, vars(owner).get(attr)))
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            span = Span(name, 0.0, stack[-1] if stack else -1, self.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()

        setattr(owner, attr, traced)

    def unwrap(self) -> None:
        """Restore every wrapped attribute; later calls record nothing."""
        for owner, attr, original in reversed(self._wrapped):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._wrapped.clear()

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def child_time(self) -> list[float]:
        """Per span, the summed duration of its direct children."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] += span.duration
        return covered

    def self_times(self, name: str) -> list[float]:
        """Duration minus direct children, for every ``name`` span.
        Children of one parent never overlap (one thread), so this is
        the part of the span no child covers."""
        covered = self.child_time()
        return [
            span.duration - covered[index]
            for index, span in enumerate(self.spans)
            if span.name == name
        ]

    def write_jsonl(self, path: Any) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "op": span.op,
                        }
                    )
                    + "\n"
                )
