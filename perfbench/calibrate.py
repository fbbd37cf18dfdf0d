"""Host-speed calibration for the benchmark's timings.

On a shared machine the same pass runs 15–25% slower from one minute to
the next, because other tenants contend for the cores and caches.  A
fixed reference loop, which does not touch qtelescope, slows down with it.
After each timed call the benchmark runs the loop for a share of that
call's time.  It then reports the call's time scaled by how fast the
loop ran, in seconds of a host where one unit of the loop takes
`REFERENCE_UNIT_S`.
"""

from __future__ import annotations

import time

# Nominal time of one reference unit.  It is close to what a unit takes on
# a 2-core x86-64 VM with CPython 3.11, so scaled times read close to wall
# seconds there.
REFERENCE_UNIT_S = 150e-6
# Calibration time per second of timed work.
SHARE = 0.2


def _even_partitions(limit: int, slots: int):
    yield ()
    if slots:
        for p in range(2, limit + 1, 2):
            for rest in _even_partitions(p, slots - 1):
                yield (p,) + rest


def reference_unit() -> int:
    """Fixed pure-Python work shaped like the certifier's: recursive tuple
    generation, sorting, set hashing and small-integer formatting."""
    seen = set()
    for i, parts in enumerate(sorted(_even_partitions(8, 4)) * 4):
        seen.add((parts, i % 13))
    return len(seen) + sum(len(str(i)) for i in range(400))


class Calibrator:
    """Samples the reference loop after each timed piece of work."""

    def __init__(self):
        self.seconds = 0.0
        self.units = 0

    def sample(self, busy_s: float):
        """Run whole units for SHARE * busy_s seconds, at least one."""
        start = time.perf_counter()
        stop = start + SHARE * busy_s
        while True:
            reference_unit()
            self.units += 1
            now = time.perf_counter()
            if now >= stop:
                break
        self.seconds += now - start

    def scale(self, wall_s: float) -> float:
        """wall_s expressed in seconds of the reference host."""
        return wall_s * REFERENCE_UNIT_S / (self.seconds / self.units)
