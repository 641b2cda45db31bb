"""Tiny dense linear algebra over F2 with ints as bit-rows."""

from __future__ import annotations


def rank(rows):
    """Rank of the span of int bit-rows (destructive on a copy)."""
    pivots = []
    for row in rows:
        for p in pivots:
            row = min(row, row ^ p)
        if row:
            pivots.append(row)
    return len(pivots)


def solve(rows, target):
    """Solve sum of chosen rows == target; return chosen-index bitmask or None.

    rows are int bit-vectors (columns of the linear map as generators).
    """
    pivots = {}  # pivot_bit -> (row, combo_mask)
    for i, row in enumerate(rows):
        combo = 1 << i
        while row:
            top = row.bit_length() - 1
            if top in pivots:
                prow, pcombo = pivots[top]
                row ^= prow
                combo ^= pcombo
            else:
                pivots[top] = (row, combo)
                break
    combo = 0
    t = target
    while t:
        top = t.bit_length() - 1
        if top not in pivots:
            return None
        prow, pcombo = pivots[top]
        t ^= prow
        combo ^= pcombo
    return combo
