"""The vertex-basis product on classes of projectives.

The product M(x, y) of two vertices resolves each adjacent increasing pair:
an s in x with s + 1 in y, one bit of lows = x & (y >> 1).  What is left of
x and y is rest; the product is 0 when the two rests share an element.
Each subset A of the pairs gives one slice, rest plus the pair {s, s + 1}
for every pair in A; a slice in which two of these parts meet vanishes and
is never built.  A is an int bitmask over the pair indices 1..p, bit i the
i-th highest pair, just as a vertex is a mask over {0..n}.  The h-power
counts the far transpositions a < b - 1 (a in x, b in y) with sign
(-1)^(a+b+1), plus |A|.  Setting h = -1 gives an associative product whose
length-one generators satisfy Clifford relations.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from .laurent import LaurentZ, LaurentZH, format_sum
from . import vertices as vx


class PairData(NamedTuple):  # cheaper to build than a frozen dataclass
    mu: int
    lows: int  # mask of the pair lows s: s in x and s + 1 in y
    rest: int | None  # x and y without their pairs; None when they repeat


# Bounded: at n = 10 the 4.2M ordered pairs barely recur, so an unbounded
# memo only grows; 1 << 16 entries hold every ordered pair at n <= 7.
@lru_cache(maxsize=1 << 16)
def pair_data(x, y):
    lows = x & (y >> 1)
    xr, yr = x & ~lows, y & ~(lows << 1)
    xe = x & 0x5555555555555555  # the even a in x
    mu = 0
    rest = y >> 2 << 2  # each b > 1 in y, lowest first
    while rest:
        low = rest & -rest
        below = (low >> 1) - 1  # the a < b - 1: vx.euler of x & below, inline
        e = 2 * (xe & below).bit_count() - (x & below).bit_count()
        mu += e if low & 0xAAAAAAAAAAAAAAAA else -e  # + when b is odd
        rest ^= low
    return PairData(mu, lows, None if xr & yr else xr | yr)


def m_slices(n, x, y):
    """The slices with a monomial of the h,q expansion of the product, as
    (k, A, eta, monomial), by |A| and then lexicographically.  Pair i adds
    {s, s + 1} to the monomial if bit i of A is set, else 2s + 1 - n to eta.
    A pair that meets rest is never chosen, and a choice stops at the first
    pair that meets the monomial built so far."""
    pd = pair_data(x, y)
    rest = pd.rest
    if rest is None:
        return []
    full, live = 0, []  # eta of A = 0; (bit, weight, mask) of each pair clear of rest
    i, lows = pd.lows.bit_count(), pd.lows  # lowest pair first, so i counts down from p
    while lows:
        low = lows & -lows  # 1 << s
        w, m = 2 * low.bit_length() - 1 - n, 0b11 * low  # 2s + 1 - n and {s, s + 1}
        full += w
        if not rest & m:
            live.append((1 << i, w, m))
        lows ^= low
        i -= 1
    live.reverse()  # pair 1, the highest, first
    out = []
    for size in range(len(live) + 1):
        k = pd.mu + size
        for chosen in combinations(live, size):
            A, mon, eta = 0, rest, full
            for bit, w, m in chosen:
                if mon & m:
                    break
                A |= bit
                eta -= w
                mon |= m
            else:
                out.append((k, A, eta, mon))
    return out


def higher_mult(n, x, y):
    """Product with the h-grading kept, as {vertex: LaurentZH}.  A vertex
    minus rest splits into disjoint pairs {s, s + 1} in one way only, so it
    comes from one slice and has one term, q^eta h^k with coefficient 1."""
    return {mon: LaurentZH.monomial(e, k) for k, _, e, mon in m_slices(n, x, y)}


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
    """Specialized product of two vertices, as {vertex: LaurentZ}.  Each
    term q^eta h^k of higher_mult becomes (-1)^k q^eta, never zero."""
    return {v: c.specialize_h() for v, c in higher_mult(n, x, y).items()}


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
    if letter == "One":
        return kclass(0)
    if letter == "Q":
        return kclass(0, LaurentZ.q_power(1))
    if letter == "Qinv":
        return kclass(0, LaurentZ.q_power(-1))
    raise ValueError(f"unknown letter {letter!r}")


def postorder(tree):
    """The nodes of a nested-pair tree with int leaves, each after its
    children: leaves left to right, an inner node after both its subtrees.

    The walk keeps its own stack, so any depth works; an inner node that
    does not unpack as a pair raises ValueError."""
    todo = [(tree, False)]  # (node, whether its children were pushed)
    while todo:
        t, expanded = todo.pop()
        if expanded or isinstance(t, int):
            yield t
        else:
            left, right = t
            todo += ((t, True), (right, False), (left, False))


def iota(n, letters, tree):
    """Image of a word over {One, Q, Qinv, E, F}, folded over an association
    tree of leaf indices, as a word lift folds rho over it (for the left
    fold, pass catun.left_fold_tree(len(letters)))."""
    done = []  # the classes of the subtrees walked and not yet multiplied
    for t in postorder(tree):
        if isinstance(t, int):
            done.append(iota_letter(n, letters[t]))
        else:
            right = done.pop()
            done.append(mult(n, done.pop(), right))
    return done[0]


def fmt_kclass(a):
    return format_sum(
        [(exps, c, vx.fmt(v)) for v in sorted(a, key=vx.seq) for exps, c in a[v].items()],
        ("q", "h"),
    )
