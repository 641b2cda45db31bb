"""The vertex-basis product on classes of projectives.

A pair of vertices is multiplied by gluing the in-between blocks with the
two-term resolutions of its adjacent increasing pairs, with an h-power
tracking how many far-apart transpositions occurred.  Setting h = -1 gives
an associative product whose length-one generators satisfy Clifford
relations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .laurent import LaurentZ, LaurentZH, format_sum
from . import vertices as vx


def glue(parts):
    """Concatenate vertex masks; None unless strictly decreasing across
    every junction (empty parts always pass)."""
    out = 0
    prev_min = None
    for part in parts:
        if part is None:
            return None
        if part == 0:
            continue
        if prev_min is not None and vx.vmax(part) >= prev_min:
            return None
        out |= part
        prev_min = vx.vmin(part)
    return out


def mu_single(a, b):
    if a < b - 1:
        return -1 if (a + b) % 2 == 0 else 1
    return 0


@dataclass(frozen=True)
class PairData:
    x: int
    y: int
    mu: int
    s: tuple  # pair-lows, decreasing
    alpha: tuple  # p+1 blocks, each a vertex mask or None (repetition)

    @property
    def p(self):
        return len(self.s)


@lru_cache(maxsize=None)
def pair_data(x, y):
    mu = 0
    for a in vx.seq(x):
        for b in vx.seq(y):
            mu += mu_single(a, b)
    pairs = tuple(s for s in reversed(vx.seq(x)) if y >> (s + 1) & 1)
    pairs = tuple(sorted(pairs, reverse=True))
    alphas = []
    bounds = (None,) + pairs + (None,)  # sentinels +inf, -inf
    for i in range(len(pairs) + 1):
        hi = bounds[i]  # s_i (None = +inf)
        lo = bounds[i + 1]  # s_{i+1} (None = -inf)
        xs = [a for a in vx.seq(x) if (lo is None or a >= lo + 1) and (hi is None or a < hi)]
        ys = [b for b in vx.seq(y) if (lo is None or b > lo + 1) and (hi is None or b <= hi)]
        if set(xs) & set(ys):
            alphas.append(None)
        else:
            alphas.append(vx.from_seq(xs) | vx.from_seq(ys))
    return PairData(x, y, mu, pairs, tuple(alphas))


def eta(n, pd, subset):
    return sum(2 * s + 1 - n for i, s in enumerate(pd.s, start=1) if i not in subset)


def slice_monomial(pd, subset):
    """The glued vertex for a chosen resolution of the pairs, or None."""
    parts = [pd.alpha[0]]
    for i, s in enumerate(pd.s, start=1):
        parts.append(vx.from_seq((s + 1, s)) if i in subset else 0)
        parts.append(pd.alpha[i])
    return glue(parts)


def m_slices(n, x, y):
    """All (k, A, eta, monomial-or-None) of the h,q expansion of the product."""
    pd = pair_data(x, y)
    if any(a is None for a in pd.alpha):
        return []
    out = []
    for size in range(pd.p + 1):
        k = pd.mu + size
        for A in combinations(range(1, pd.p + 1), size):
            subset = frozenset(A)
            out.append((k, subset, eta(n, pd, subset), slice_monomial(pd, subset)))
    return out


def higher_mult(n, x, y):
    """Product with the h-grading kept, as {vertex: LaurentZH}."""
    out = {}
    for k, _, e, mon in m_slices(n, x, y):
        if mon is None:
            continue
        cur = out.get(mon, LaurentZH())
        out[mon] = cur + LaurentZH.monomial(e, k)
    return {v: c for v, c in out.items() if c}


def extend(product, zero, a, b):
    """Bilinear extension of a vertex product to {vertex: coefficient}
    classes; zero is the coefficient ring's zero."""
    out = {}
    for xv, xc in a.items():
        for yv, yc in b.items():
            c = xc * yc
            for mon, coeff in product(xv, yv).items():
                out[mon] = out.get(mon, zero) + c * coeff
    return {v: c for v, c in out.items() if c}


def higher_mult_kh(n, a, b):
    """Bilinear extension of higher_mult to {vertex: LaurentZH} arguments."""
    return extend(lambda x, y: higher_mult(n, x, y), LaurentZH(), a, b)


def mult_mono(n, x, y):
    """Specialized product of two vertices, as {vertex: LaurentZ}."""
    out = {v: c.specialize_h() for v, c in higher_mult(n, x, y).items()}
    return {v: c for v, c in out.items() if c}


def mult(n, a, b):
    """Bilinear product on {vertex: LaurentZ} classes."""
    return extend(lambda x, y: mult_mono(n, x, y), LaurentZ(), a, b)


def kclass(v, coeff=None):
    return {v: coeff if coeff is not None else LaurentZ.unit()}


def kclass_add(a, b):
    out = dict(a)
    for v, c in b.items():
        cur = out.get(v, LaurentZ())
        out[v] = cur + c
    return {v: c for v, c in out.items() if c}


# ---------------------------------------------------------------------------
# the quantum-group inclusion


def iota_letter(n, letter):
    if letter == "E":
        return {vx.from_seq((i,)): LaurentZ.unit() for i in range(0, n + 1, 2)}
    if letter == "F":
        return {vx.from_seq((i,)): LaurentZ.unit() for i in range(1, n + 1, 2)}
    if letter in ("1", "One"):
        return kclass(0)
    if letter in ("q", "Q"):
        return kclass(0, LaurentZ.q_power(1))
    if letter in ("q-1", "Qinv"):
        return kclass(0, LaurentZ.q_power(-1))
    raise ValueError(f"unknown letter {letter!r}")


def iota(n, letters, tree=None):
    """Image of a word over {E, F, q, Qinv, One}, folded over an association
    tree of leaf indices, or left to right when no tree is given."""
    if tree is None:
        acc = kclass(0)
        for letter in letters:
            acc = mult(n, acc, iota_letter(n, letter))
        return acc
    if isinstance(tree, int):
        return iota_letter(n, letters[tree])
    left, right = tree
    return mult(n, iota(n, letters, left), iota(n, letters, right))


def fmt_kclass(a):
    return format_sum(
        [(exps, c, vx.fmt(v)) for v in sorted(a, key=vx.seq) for exps, c in a[v].items()],
        ("q", "h"),
    )
