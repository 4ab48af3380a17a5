"""Machine-speed gauge: every reported time is scaled to a nominal speed.

The benchmark runs on shared hosts whose speed for CPU-bound Python changes
by up to 2x for seconds or minutes at a time (other tenants on the same
cores), far more than the regressions the bounds are meant to catch.  So the
benchmark times a fixed reference loop next to every measured interval and
scales the interval by ``NOMINAL_S / reference time``.  A reported second is
a *reference second*: the time the interval would have taken on a machine
where the loop takes exactly ``NOMINAL_S`` (about an uncontended 2.1 GHz
Xeon core running CPython 3.11).  Program changes move reported times just
as they move wall time; only the host's speed is divided out.  The detail
record keeps the wall-clock values.

The loop does integer work only: it allocates no container, so it never
triggers the cyclic garbage collector and a program that grows its heap
cannot slow the loop down and so hide its own slowdown.
"""

from __future__ import annotations

import time

ITERATIONS = 40_000
NOMINAL_S = 0.0055


def reference_loop() -> float:
    """Seconds the fixed reference loop takes now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(ITERATIONS):
        acc += ((i * 2654435761) ^ (acc >> 3)).bit_count() & 0xFFFF
    return time.perf_counter() - t0


class Gauge:
    """Scale factors for consecutive intervals, from the loop at both ends."""

    def __init__(self):
        self.last = reference_loop()

    def scale(self) -> float:
        """Factor for the interval since the previous call (or creation)."""
        now = reference_loop()
        factor = 2 * NOMINAL_S / (self.last + now)
        self.last = now
        return factor

    def restart(self) -> None:
        """Start a new interval here, dropping the time since the last one."""
        self.last = reference_loop()
