"""The host's speed, measured with a fixed piece of pure-Python work.

The benchmark shares a few cores of a host whose speed flips within
seconds: the same code runs up to twice as fast in one second as in the
next, for reasons outside the program (neighbours on the host).  Every
end-to-end run therefore times a fixed *calibration unit* -- it builds a
dict of small objects keyed by tuples, then scans it, the kind of work
the program's views and serving layer do -- every
:data:`POINT_INTERVAL_SECONDS` of its timed loop and around each set-up.
A unit takes :data:`REFERENCE_UNIT_SECONDS` on the reference host; the
median measured time over a stretch, divided by that constant, is the
host's *slowdown* over the stretch.  End-to-end times are divided by it
(rates multiplied), so they read as on the reference host.

The unit is part of the benchmark, not of the program, so a change to
the program does not change it.
"""

from __future__ import annotations

import gc
import statistics
import time
from bisect import bisect_left
from typing import Optional

#: The scale the end-to-end times are quoted in: a host that runs one
#: unit in this time.  A 2-core VM running CPython 3.11 takes 0.4 ms
#: while its host is quiet and 0.75 ms while it is busy.
REFERENCE_UNIT_SECONDS = 0.5e-3
#: Objects one unit builds.
UNIT_OBJECTS = 700
#: Units per calibration point, and the loop time between points.
UNITS_PER_POINT = 2
POINT_INTERVAL_SECONDS = 0.05
#: Units timed just before and just after each timed set-up.
SETUP_UNITS = 10


class _Item:
    __slots__ = ("node", "label")

    def __init__(self, node: int, label: int) -> None:
        self.node = node
        self.label = label

    def key(self) -> tuple[int, int]:
        return (self.node, self.label)


def _unit() -> int:
    items: dict[tuple[int, int], _Item] = {}
    marked: set[int] = set()
    for node in range(UNIT_OBJECTS):
        item = _Item(node, node & 7)
        items[item.key()] = item
        if node & 3 == 0:
            marked.add(node)
    total = 0
    for item in items.values():
        if item.node in marked:
            total += item.label
    return total


class HostSpeed:
    """Times calibration units and keeps every sample."""

    def __init__(self) -> None:
        #: End time and duration of every unit timed, in order.
        self.ends: list[float] = []
        self.seconds: list[float] = []
        #: End time and duration of every point, untimed unit included.
        self.point_ends: list[float] = []
        self.point_seconds: list[float] = []

    def point(self, units: int = UNITS_PER_POINT) -> None:
        """Time ``units`` units back to back, after one untimed unit, with
        the collector off so its pauses (set off by the program's garbage)
        stay out.  The first unit after a program operation runs 15-25%
        slower, on caches the operation filled; the untimed one absorbs
        that, so the figure depends on the host, not on the program."""
        clock = time.perf_counter
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = clock()
            _unit()
            for _ in range(units):
                before = clock()
                _unit()
                after = clock()
                self.ends.append(after)
                self.seconds.append(after - before)
            self.point_ends.append(after)
            self.point_seconds.append(after - started)
        finally:
            if enabled:
                gc.enable()

    def between(self, low: float, high: float) -> tuple[int, int]:
        """The index range of the units that ended in ``[low, high)``."""
        return bisect_left(self.ends, low), bisect_left(self.ends, high)

    def spent(self, low: float, high: float) -> float:
        """Time spent on the points that ended in ``[low, high)``."""
        first = bisect_left(self.point_ends, low)
        return sum(self.point_seconds[first : bisect_left(self.point_ends, high)])

    def slowdown(self, first: int, last: Optional[int] = None) -> float:
        """Median time of units ``first:last`` over
        :data:`REFERENCE_UNIT_SECONDS`: how much slower than the
        reference host the host ran then."""
        return statistics.median(self.seconds[first:last]) / REFERENCE_UNIT_SECONDS
