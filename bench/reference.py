"""Host speed, from a fixed piece of pure-Python work timed next to each step.

On a shared virtual machine the speed of identical pure-Python work drifts
by tens of percent within seconds (processor time drifts with it, so it is
not time spent off the processor).  The benchmark therefore times ``kernel``
right before and right after every step it measures, and reports the
step's wall time scaled to a host on which the kernel takes
``REFERENCE_SECONDS``.  The kernel uses no code of ``lbcolor``, so a change
to the package moves the scaled times in full.
"""

from __future__ import annotations

import time

# the kernel's median time on the 2-vCPU host the seed baseline ran on
# (Python 3.11.7, Xeon at 2.1 GHz); scaled times are at this speed
REFERENCE_SECONDS = 0.0025
KERNEL_RESULT = 391


def kernel(steps: int = 14) -> int:
    """Weight-vector style reachability over tuple-keyed dictionaries, then
    set unions: the kind of interpreter work the solvers do."""
    states = {(0, 0): 0}
    for i in range(steps):
        w = 1 + i % 3
        nxt = {}
        for (a, b), v in states.items():
            for key, val in ((((a + w) % 23, b), v + w), ((a, (b + w) % 29), v - w), ((a, b), v)):
                if nxt.get(key, -1 << 30) < val:
                    nxt[key] = val
        states = nxt
    seen = set()
    for a, b in sorted(states):
        seen |= {a * 29 + b, (a + b) % 17}
    return sum(states.values()) + len(seen)


def kernel_seconds() -> float:
    start = time.perf_counter()
    result = kernel()
    elapsed = time.perf_counter() - start
    if result != KERNEL_RESULT:
        raise RuntimeError(f"reference kernel returned {result}, not {KERNEL_RESULT}")
    return elapsed


class HostClock:
    """Scales measured steps to reference speed.  Each ``scaled`` call times
    the kernel once more and scales the step just measured by the mean of
    the kernel times before and after it.  ``kernel_total`` is the time
    those later kernel calls took."""

    def __init__(self):
        self.before = kernel_seconds()
        self.kernel_total = 0.0

    def scaled(self, elapsed: float) -> float:
        after = kernel_seconds()
        self.kernel_total += after
        factor = 2.0 * REFERENCE_SECONDS / (self.before + after)
        self.before = after
        return elapsed * factor
