"""The machine's current speed, from a fixed reference loop.

The shared machine the bounds were set on changes speed by up to 1.7x, in
phases of a second to minutes, and CPU time moves with wall time.  Raw op
times of the same code therefore spread past any useful bound across runs.
run.py times this loop between ops and scales every op time by
``NOMINAL_S / (the loop's time around that op)``: a time reported in ms is
the op's time on a machine where the loop takes ``NOMINAL_S``.  The loop
does what cliffcat's hot paths do (small frozensets, tuples, dict updates,
sorting) and touches no cliffcat code, so a change to the program moves
the scaled times as much as the raw ones.  It runs with the cyclic garbage
collector off, so its time does not depend on the size of the program's
heap.
"""

from __future__ import annotations

import gc
import statistics
import time

# The loop's typical time on a shared 2-core virtual machine with
# Python 3.11.7, where it took 8 to 15 ms.
NOMINAL_S = 0.012


def reference_loop():
    d = {}
    for i in range(8000):
        k = (i * 7919) & 1023
        s = frozenset((k, i & 15, (i >> 3) & 7))
        d[k] = d.get(k, frozenset()) ^ s
        t = tuple(sorted(s))
        d[t] = len(t)
    return len(d)


def measure():
    """Seconds one reference loop takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_loop()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(refs):
    """Factor from raw seconds to nominal seconds, given nearby loop times."""
    return NOMINAL_S / statistics.median(refs)
