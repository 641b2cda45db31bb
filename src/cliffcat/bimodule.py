"""The DG bimodule of per-pair complexes realizing the vertex product.

For each pair of vertices (x, y) there is a complex T(x, y) whose slice at
cohomological position k collects the summands P(M_A){eta(A)} over subsets A
of the adjacent-pair indices with |A| = k - mu; the differential resolves one
more pair at a time.  A subset is an int bitmask over the pair indices 1..p,
bit i the i-th highest pair, as in kzero.  The right action of the thickened
tensor-square algebra is defined generator by generator through an index map
on subsets (shift the indices above a cut, perhaps add one), read off the
memberships of the inserted pair's two neighbors; each entry's factor is the
basis monomial of R between the two summands it joins, since every Hom-space
of R is at most one-dimensional.  A boxed element acts by the entries of the
fold of its generators' maps, which is all tensor_T reads.  The left action
is componentwise left multiplication.  The bimodule axioms are swept by
cliffcat.checks.bimodule_failures.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple

from . import kzero as kz
from . import ralgebra as ra
from . import vertices as vx
from .complexes import ProjComplex, Summand, algebra, mat_add, mat_then, verify_mc
from .quiver import DIAG, YSIDE, apply_arrow


class TPair(NamedTuple):
    """T(x, y) as a twisted complex plus the subset-to-summand bookkeeping."""

    complex: ProjComplex
    index: dict  # subset mask A -> summand position, in summand order


@lru_cache(maxsize=None)
def t_pair(n, x, y):
    slices = kz.m_slices(n, x, y)
    index = {A: i for i, (_, A, _, _) in enumerate(slices)}
    p = kz.pair_data(x, y).lows.bit_count()
    summands = tuple(Summand(mon, e, k) for k, _, e, mon in slices)
    delta = {}
    for i, (_, A, _, mon) in enumerate(slices):
        for step in range(1, p + 1):
            if A >> step & 1:
                continue
            j = index.get(A | 1 << step)
            if j is None:
                continue
            mon_b = summands[j].vertex
            entry = ra.basis_mon_r(n, mon, mon_b)
            if entry is None:
                raise AssertionError(f"no T differential {vx.fmt(mon)} -> {vx.fmt(mon_b)}")
            delta[(j, i)] = frozenset([entry])
    c = ProjComplex(algebra("R", n), summands, delta)
    ok, witness = verify_mc(c)
    if not ok:
        raise AssertionError(f"T{vx.fmt_pair((x, y))} is invalid: {witness}")
    return TPair(c, index)


# ---------------------------------------------------------------------------
# the right action of one generator


def _case_data(n, xy, kind, t):
    """(target pair, a_t, step, added, slice shift) of one generator: it maps
    the summand of A to that of A with every index above a_t raised by step,
    plus the indices in the mask added.  Raises AssertionError if t is out of
    range at n or the arrow does not apply at xy.

    Y side (lower: t-1 in x, upper: t in x): it adds a_t + step iff lower is
    set.  X side (lower: t+1 in y, upper: t+2 in y): it adds a_t + 1 iff
    upper is set.  On both, step = lower + upper."""
    if not 0 <= t < n - (kind == DIAG):
        raise AssertionError(f"no arrow {kind}{t} at n={n}")
    target = apply_arrow(xy, kind, t)
    if target is None:
        raise AssertionError(f"arrow {kind}{t} does not apply at {vx.fmt_pair(xy)}")
    x, y = xy
    a_t = (kz.pair_data(x, y).lows >> (t + 1)).bit_count()  # pairs above t
    if kind == DIAG:
        return target, a_t, 2, 0, -1
    if kind == YSIDE:
        lower, upper = t >= 1 and bool(x >> (t - 1) & 1), bool(x >> t & 1)
        added = 1 << (a_t + lower + upper) if lower else 0
    else:
        lower, upper = bool(y >> (t + 1) & 1), bool(y >> (t + 2) & 1)
        added = 1 << (a_t + 1) if upper else 0
    return target, a_t, lower + upper, added, 0


def right_act_chainmap(n, xy, kind, t):
    """Entries of the chain map T(x,y) -> T(x',y') of one boxed-quiver
    generator, as {(j in target, i in source): F2 element}."""
    tgt_pair, a_t, step, added, dslice = _case_data(n, xy, kind, t)
    src = t_pair(n, *xy)
    tgt = t_pair(n, *tgt_pair)
    kept = (2 << a_t) - 1  # the indices up to a_t
    entries = {}
    for A, i in src.index.items():
        j = tgt.index.get(A & kept | (A & ~kept) << step | added)
        if j is None:
            continue
        (mon, _, k), (mon_t, _, kt) = src.complex.summands[i], tgt.complex.summands[j]
        if kt != k + dslice:
            raise AssertionError(f"{kind}{t} moves slice {k} to {kt}, not by {dslice}")
        entry = ra.basis_mon_r(n, mon, mon_t)
        if entry is None:
            raise AssertionError(f"{kind}{t} has no R monomial {vx.fmt(mon)} -> {vx.fmt(mon_t)}")
        entries[(j, i)] = frozenset([entry])
    return entries


@lru_cache(maxsize=None)
def act_element(n, elem):
    """Entries of the right action of an F2 combination of boxed monomials
    with common endpoints.

    Each monomial folds its generators' entries with mat_then, starting from
    the identity of T(source); the monomials are summed with mat_add.
    Memoized on (n, elem): callers must not mutate the returned dict."""
    mult = algebra("R", n).mult
    paths = []
    for at, arrows in elem:
        entries = {
            (i, i): frozenset([(s.vertex, s.vertex)])
            for i, s in enumerate(t_pair(n, *at).complex.summands)
        }
        for kind, s in arrows:
            entries = mat_then(mult, entries, right_act_chainmap(n, at, kind, s))
            at = apply_arrow(at, kind, s)
        paths.append(entries)
    return mat_add(*paths)


# ---------------------------------------------------------------------------
# the induced functor on complexes over the thickened algebra


def tensor_T(c):
    """Replace each boxed summand by its shifted T block; entries act factor-wise."""
    if c.ops.tag != "Box":
        raise AssertionError(f"tensor_T needs a complex over the box algebra, got {c.ops.tag}")
    n = c.ops.n
    blocks = [t_pair(n, *s.vertex).complex for s in c.summands]
    shifts = [(q, k) for _, q, k in c.summands]
    actions = [(j, i, act_element(n, e)) for (j, i), e in c.delta.items()]
    return assemble_T(n, blocks, shifts, actions)


def assemble_T(n, blocks, shifts, actions):
    """The complex over R of T blocks: blocks[i] shifted by shifts[i] =
    (q, k), and the action entries of each (j, i, entries) in the rectangle
    of blocks j and i.

    The differential is assembled from pieces (row offset, column offset,
    entries): the differential of each block that has one, and the actions.
    When every action starts and ends at its blocks' vertices and none is
    diagonal, as the Box contract demands, the pieces are disjoint and each
    key is written once; pieces that overlap raise AssertionError, and an
    invalid output raises AssertionError with verify_mc's witness."""
    bases = list(accumulate([len(b.summands) for b in blocks], initial=0))
    new = tuple.__new__
    summands = tuple([
        new(Summand, (v, q + tq, k + tk))
        for (q, k), block in zip(shifts, blocks)
        for v, tq, tk in block.summands
    ])
    pieces = [(base, base, b.delta) for base, b in zip(bases, blocks) if b.delta]
    pieces += [(bases[j], bases[i], entries) for j, i, entries in actions]
    delta = {(row + j, col + i): e for row, col, entries in pieces for (j, i), e in entries.items()}
    if len(delta) < sum([len(entries) for _, _, entries in pieces]):
        raise AssertionError("tensor_T pieces overlap: its input breaks the Box contract")
    out = ProjComplex(algebra("R", n), summands, delta)
    ok, witness = verify_mc(out)
    if not ok:
        raise AssertionError(f"tensor functor produced an invalid complex: {witness}")
    return out
