#!/usr/bin/env python3
"""Print the word-lift ladder: the lift of EF repeated k times, n = 3..5.

Each row gives n, k, the summands and differential entries of the lifted
complex, and the wall time of the lift.  Rows run in one process in the
order printed, so a row reuses the caches (T(x, y), box classes, right
actions, per-entry maps, sub-lifts) that earlier rows filled.  After the
rows of each n, one line gives the entry count of each memo of the rho
pipeline, summed over every n so far, and the summands and entries held by
lift_word's sub-lift memo.

Usage: PYTHONPATH=src python scripts/lift_ladder.py
"""

import sys
import time

from cliffcat import bimodule as bm
from cliffcat import catun as cu
from cliffcat import complexes as cx

# name -> memo: an lru_cache, or the entry degrees' dict of per-(tag, n) dicts
MEMOS = {
    "entry_degrees": cx._DEGREES,
    "box_mult": cx._box_mult,
    "box_diff": cx._box_diff,
    "lift_entry": cx._lift_entry,
    "rr_mult": cx._rr_mult,
    "side_entry": cx._side_entry,
    "boundary_preimage": cx._boundary_preimage,
    "act_element": bm.act_element,
    "side_action": cu._side_action,
    "t_pair": bm.t_pair,
}


def _size(memo):
    if isinstance(memo, dict):
        return sum(map(len, memo.values()))
    return memo.cache_info().currsize


def main():
    print(f"{'n':>2} {'k':>2} {'summands':>9} {'delta':>9} {'seconds':>8}")
    for n in range(3, 6):
        for k in range(1, 5):
            t0 = time.perf_counter()
            c = cu.lift_word(n, cu.parse_word("EF" * k))
            secs = time.perf_counter() - t0
            print(f"{n:>2} {k:>2} {len(c.summands):>9} {len(c.delta):>9} {secs:>8.3f}")
        sizes = ", ".join(f"{name} {_size(memo)}" for name, memo in MEMOS.items())
        lifts = cu._SUBLIFTS.lifts.values()
        summands = sum(len(c.summands) for c in lifts)
        entries = sum(len(c.delta) for c in lifts)
        print(f"   memo entries: {sizes}, "
              f"sub_lift {len(lifts)} ({summands} summands, {entries} entries)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
