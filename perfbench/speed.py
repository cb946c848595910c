"""Timings corrected for the speed of a shared CPU.

On a shared host a virtual CPU's speed drifts between full and about half
speed in spells of ten seconds to minutes, while neighbours come and go,
and each CPU does so on its own.  A raw run of half a minute then
measures the host as much as the program.  So every timing is taken
beside a fixed pure-Python reference loop, which runs between items on
the same CPU, and is scaled by ``REF_S / reference time``: a reference
second is the time the work would take on a CPU that runs the reference
loop in ``REF_S``.  The loop lives here and imports nothing from
``shadowpos``, so a change to the program moves the item times and not
the scale.

This module imports no ``shadowpos`` code, so a fresh interpreter can
time the reference loop before it imports the package.
"""

from __future__ import annotations

import os
import random
import threading
import time
from contextlib import contextmanager
from typing import Optional

# The reference loop's best time on an undisturbed CPU of the host the
# benchmark was built on (a 2-vCPU Intel Xeon virtual machine, Python
# 3.11).  It fixes the scale only: on that host, in a fast spell, a
# reference second is about a wall-clock second.
REF_S = 0.0014

_DATA = [random.Random(0).getrandbits(40) for _ in range(8192)]


def reference_seconds() -> float:
    """Wall time of a fixed pure-Python loop on the calling thread, best of three.

    The loop mixes what the program's own inner loops do: big-integer
    bit operations, dict and list updates, and reads spread over a
    64 KiB list.
    """
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        table: dict[int, int] = {}
        counts = [0] * 1024
        bits = 0
        data = _DATA
        for i in range(3000):
            x = data[(i * 7919) & 8191]
            bits ^= x << (i & 127)
            low = bits & -bits
            table[i & 63] = table.get(i & 63, 0) + low.bit_length()
            counts[x & 1023] += 1
        best = min(best, time.perf_counter() - t0)
    return best


class SpeedMeter:
    """Pins one-process work to the fastest CPU and scales its timings.

    Work is timed in segments of at least ``SEGMENT_S``.  At each
    segment boundary the meter times the reference loop on every CPU of
    the mask, scales the items of the segment that just ended by
    ``REF_S`` over the mean of the loop's time on that segment's CPU at
    its start and at its end, and pins the process to the CPU that is
    fastest now.  The probes run between items, outside their timing;
    processes started afterwards inherit the pin.
    """

    SEGMENT_S = 0.25

    def __init__(self, cpus: list[int]):
        self.cpus = cpus
        self.factors: list[float] = []  # one per closed segment
        self._cpu: Optional[int] = None
        self._ref = 0.0
        self._first = 0
        self._opened = 0.0

    def sweep(self) -> dict[int, float]:
        """The reference loop's time on each CPU, probed from the calling thread."""
        timings = {}
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            timings[cpu] = reference_seconds()
        return timings

    def fastest(self) -> int:
        timings = self.sweep()
        return min(timings, key=timings.get)

    def pin(self) -> None:
        """Pin the process to the fastest CPU, outside any segment."""
        os.sched_setaffinity(0, {self.fastest()})

    def begin(self, items: list[float]) -> None:
        """Open a segment; items appended from here on belong to it."""
        timings = self.sweep()
        self._open(items, timings)

    def tick(self, items: list[float]) -> None:
        """Call after each item: closes the segment once it is long enough."""
        if time.perf_counter() - self._opened >= self.SEGMENT_S:
            timings = self._close(items)
            self._open(items, timings)

    def end(self, items: list[float]) -> float:
        """Close the last segment; the factor it applied."""
        timings = self._close(items)
        os.sched_setaffinity(0, {min(timings, key=timings.get)})
        return self.factors[-1]

    def _open(self, items: list[float], timings: dict[int, float]) -> None:
        self._cpu = min(timings, key=timings.get)
        self._ref = timings[self._cpu]
        os.sched_setaffinity(0, {self._cpu})
        self._first = len(items)
        self._opened = time.perf_counter()

    def _close(self, items: list[float]) -> dict[int, float]:
        timings = self.sweep()
        factor = REF_S / ((self._ref + timings[self._cpu]) / 2)
        for k in range(self._first, len(items)):
            items[k] *= factor
        self.factors.append(factor)
        return timings


class _Follower(threading.Thread):
    """Moves a running one-process child to the fastest CPU every 0.25 s."""

    INTERVAL_S = 0.25

    def __init__(self, meter: SpeedMeter, pid: int):
        super().__init__(daemon=True)
        self.meter = meter
        self.pid = pid
        self._stop_event = threading.Event()

    def run(self) -> None:
        while not self._stop_event.wait(self.INTERVAL_S):
            cpu = self.meter.fastest()
            try:
                os.sched_setaffinity(self.pid, {cpu})
            except ProcessLookupError:
                return

    def stop(self) -> None:
        self._stop_event.set()
        self.join()


@contextmanager
def following(meter: Optional[SpeedMeter], pid: int):
    """Keep process ``pid`` on the fastest CPU while the block runs."""
    if meter is None:
        yield
        return
    follower = _Follower(meter, pid)
    follower.start()
    try:
        yield
    finally:
        follower.stop()
