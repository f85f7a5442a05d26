"""A fixed piece of CPU work that measures the host's speed next to each item.

The CPU speed of the shared host this benchmark was built on drifts by up to
2x, for stretches from seconds to many minutes, on every kind of work alike.
A whole run can sit inside such a stretch, so no statistic over one run's
samples removes it.  `calibrate()` times a kernel that never changes (an
interpreter loop, dict updates and bignum GCDs, the kinds of work secmin's
layers do), and latencies are reported scaled to the kernel's reference time:
latency * REFERENCE_S / (kernel time measured around the item).  A slower
host slows the kernel and the item alike and leaves the scaled latency
where it was; a faster program lowers it.  The kernel is benchmark code and
imports nothing from secmin, so a change to secmin cannot change it.
"""

from __future__ import annotations

import math
import time

# The kernel's median time on the reference machine (a 2-vCPU VM, Python
# 3.11.7; see README.md).  Scaled latencies read as milliseconds on that
# machine at that speed.
REFERENCE_S = 0.0060

_BIG = (3**8000, 7**5600 + 12345)


def calibrate() -> float:
    """Run the kernel once (about 6 ms on the reference machine); return its wall time."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(30000):
        acc = (acc + i * i) % 1_000_003
    counts: dict[int, int] = {}
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    a, b = _BIG
    for k in range(4):
        math.gcd(a + k, b)
    return time.perf_counter() - t0


def scale(before: float, after: float) -> float:
    """The factor that takes a latency measured between two kernel runs to reference speed."""
    return 2 * REFERENCE_S / (before + after)
