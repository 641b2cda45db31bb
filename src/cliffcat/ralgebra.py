"""The pair-insertion algebra on one quiver and its tensor square.

Hom-spaces between two vertices are at most one-dimensional over F2: a basis
monomial exists from x to w exactly when w contains x and every maximal run
of consecutive integers in w - x has even length.  Products of composable
monomials never vanish, so multiplication is composition of spans.  A brute
force path enumeration modulo the commutation relation double-checks both
facts (oracle_dim_r).
"""

from __future__ import annotations

from functools import lru_cache

from . import quiver as qv
from . import vertices as vx

# ---------------------------------------------------------------------------
# normal-form monomials


@lru_cache(maxsize=None)
def forced_pairs(x, w):
    """Pair-lows of the unique pair decomposition of w - x, or None.

    None when x is not contained in w or some run of w - x has odd length.
    The walk pairs the lowest bit left with the one above it.
    """
    if x & ~w:
        return None
    pairs = []
    rest = w & ~x
    while rest:
        low = rest & -rest
        if not rest & low << 1:
            return None
        pairs.append(low.bit_length() - 1)
        rest ^= low * 3
    return tuple(pairs)


def basis_mon_r(n, x, w):
    """The basis monomial of e(x)*R*e(w), or None if that Hom-space is zero."""
    if forced_pairs(x, w) is None:
        return None
    return (x, w)


def mono_qdeg_r(n, mono):
    """q-degree of a basis monomial; ValueError if its Hom-space is zero."""
    x, w = mono
    pairs = forced_pairs(x, w)
    if pairs is None:
        raise ValueError(f"no R monomial {vx.fmt(x)} -> {vx.fmt(w)} at n={n}")
    return sum(n - 1 - 2 * s for s in pairs)


def mult_mono_r(n, m1, m2):
    """Compose two monomials; None if targets mismatch.

    Composable products never vanish: the relations only reorder pair
    insertions.  The composite Hom-space is therefore nonzero, which the
    raise below (and oracle_dim_r in tests) guards.
    """
    x1, w1 = m1
    x2, w2 = m2
    if w1 != x2:
        return None
    out = basis_mon_r(n, x1, w2)
    if out is None:
        raise AssertionError(f"composable product vanished: {m1} * {m2}")
    return out


# F2 elements are frozensets of monomials


def f2_sum(monomials):
    """The monomials of a list that occur an odd number of times."""
    out = frozenset(monomials)
    if len(out) == len(monomials):  # nothing repeats, so nothing cancels
        return out
    out = set()
    for m in monomials:
        if m in out:
            out.remove(m)
        else:
            out.add(m)
    return frozenset(out)


def mult_r(n, a, b):
    return f2_sum([m for m1 in a for m2 in b if (m := mult_mono_r(n, m1, m2)) is not None])


# ---------------------------------------------------------------------------
# path-engine oracle


def _paths(n, x, w):
    """All directed paths x -> w as tuples of pair-lows, in insertion order."""
    if x == w:
        return [()]
    out = []
    for s, y in qv.arrow_targets(n, x):
        if y & ~w:
            continue
        for rest in _paths(n, y, w):
            out.append((s,) + rest)
    return out


@lru_cache(maxsize=None)
def oracle_dim_r(n, x, w):
    """dim e(x)*R*e(w) by enumerating paths modulo adjacent-swap relations."""
    paths = _paths(n, x, w)
    # the pairs of two adjacent insertions are disjoint, so their swap is a path
    swaps = [(p, p[:k] + (p[k + 1], p[k]) + p[k + 2 :]) for p in paths for k in range(len(p) - 1)]
    return len(qv.classes(paths, swaps))


# ---------------------------------------------------------------------------
# tensor square: monomials are pairs of R monomials


def mult_mono_rr(n, m1, m2):
    l1, r1 = m1
    l2, r2 = m2
    if l1[1] != l2[0] or r1[1] != r2[0]:
        return None
    return (mult_mono_r(n, l1, l2), mult_mono_r(n, r1, r2))


def mult_rr(n, a, b):
    return f2_sum([m for m1 in a for m2 in b if (m := mult_mono_rr(n, m1, m2)) is not None])


def dim_rr(n, src_pair, tgt_pair):
    (x1, y1), (x2, y2) = src_pair, tgt_pair
    d1 = 0 if forced_pairs(x1, x2) is None else 1
    d2 = 0 if forced_pairs(y1, y2) is None else 1
    return d1 * d2


def fmt_mono_r(mono):
    x, w = mono
    if x == w:
        return f"e{vx.fmt(x)}"
    return f"r({vx.fmt(x)}->{vx.fmt(w)})"
