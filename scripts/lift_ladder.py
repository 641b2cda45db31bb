#!/usr/bin/env python3
"""Print the word-lift ladder: the lift of EF repeated k times, n = 3..5.

Each row gives n, the word, its association tree ("left" for the left
fold, else the association string), the summands and differential entries
of the lifted complex, and the wall time of the lift.  After the left folds
of EF repeated k = 1..4 times, whose rho steps are all one-sided, each n
lifts EFFE under ((..)(..)), whose last step is two-sided and takes a
correction, so the memos of the two-sided path fill too.  Rows run in one
process in the order printed, so a row reuses the caches (T(x, y), box
classes, right actions, per-entry maps, sub-lifts) that earlier rows
filled.  After the
rows of each n, one line gives the entry count of each memo of the rho
pipeline over every n so far (each algebra adapter's memos by name, as
"RR mult", summed over those n), and the summands and entries held by
lift_word's sub-lift memo.

Usage: PYTHONPATH=src python scripts/lift_ladder.py
"""

import sys
import time

from cliffcat import bimodule as bm
from cliffcat import catun as cu
from cliffcat import complexes as cx

# each algebra adapter's memos, by attribute: the entry degrees (a dict)
# and the products and differential it memoizes (lru_caches)
ADAPTER_MEMOS = {"R": ("degrees",), "RR": ("degrees", "mult"), "Box": ("degrees", "mult", "diff")}

# name -> the other memos of the rho pipeline, each an lru_cache
MEMOS = {
    "lift_entry": cx._lift_entry,
    "side_entry": cx._side_entry,
    "boundary_preimage": cx._boundary_preimage,
    "act_element": bm.act_element,
    "side_lift": cu._side_lift,
    "side_action": cu._side_action,
    "cross_correction": cu._cross_correction,
    "t_pair": bm.t_pair,
}


def _size(memo):
    if isinstance(memo, dict):
        return len(memo)
    return memo.cache_info().currsize


def memo_sizes(ns):
    """(name, entries) of each memo, the adapters' summed over ns."""
    sizes = [
        (f"{tag} {attr}", sum(_size(getattr(cx.algebra(tag, n), attr)) for n in ns))
        for tag, attrs in ADAPTER_MEMOS.items()
        for attr in attrs
    ]
    return sizes + [(name, _size(memo)) for name, memo in MEMOS.items()]


# (word, association string or None for the left fold), lifted at each n
ROWS = [("EF" * k, None) for k in range(1, 5)] + [("EFFE", "((..)(..))")]


def main():
    print(f"{'n':>2} {'word':>8} {'tree':>10} {'summands':>9} {'delta':>9} {'seconds':>8}")
    for n in range(3, 6):
        for word, assoc in ROWS:
            t0 = time.perf_counter()
            c = cu.lift_word(n, cu.parse_word(word, assoc))
            secs = time.perf_counter() - t0
            print(f"{n:>2} {word:>8} {assoc or 'left':>10} {len(c.summands):>9} "
                  f"{len(c.delta):>9} {secs:>8.3f}")
        sizes = ", ".join(f"{name} {size}" for name, size in memo_sizes(range(3, n + 1)))
        lifts = cu._SUBLIFTS.lifts.values()
        summands = sum(len(c.summands) for c in lifts)
        entries = sum(len(c.delta) for c in lifts)
        print(f"   memo entries: {sizes}, "
              f"sub_lift {len(lifts)} ({summands} summands, {entries} entries)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
