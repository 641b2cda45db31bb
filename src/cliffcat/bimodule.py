"""The DG bimodule of per-pair complexes realizing the vertex product.

For each pair of vertices (x, y) there is a complex T(x, y) whose slice at
cohomological position k collects the summands P(M_A){eta(A)} over subsets A
of the adjacent-pair indices with |A| = k - mu; the differential resolves one
more pair at a time.  The right action of the thickened tensor-square algebra
is defined generator by generator through an index map f on subsets and a
factor in the base algebra (a pair-insertion generator or an idempotent),
following an eight-way case split on the memberships of the inserted pair's
neighbors.  The left action is componentwise left multiplication, so
left/right compatibility is associativity of the base algebra.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from . import kzero as kz
from . import ralgebra as ra
from . import vertices as vx
from .boxalgebra import apply_arrow, canonical
from .complexes import (
    ChainMap,
    ProjComplex,
    RAlgebraOps,
    Summand,
    chain_map_defect,
    verify_mc,
)
from .quiver import DIAG, XSIDE, YSIDE, arrow_cohdeg, arrow_qdeg, box_arrow_targets, pair_mask


@dataclass
class TPair:
    """T(x, y) as a twisted complex plus the subset-to-summand bookkeeping."""

    n: int
    x: int
    y: int
    complex: ProjComplex
    index: dict  # frozenset A -> summand position
    slices: list  # summand position -> (k, A, eta, monomial)


@lru_cache(maxsize=None)
def t_pair(n, x, y):
    slices = [
        (k, A, e, mon) for (k, A, e, mon) in kz.m_slices(n, x, y) if mon is not None
    ]
    index = {A: i for i, (_, A, _, _) in enumerate(slices)}
    pd = kz.pair_data(x, y)
    summands = [Summand(mon, e, k) for k, A, e, mon in slices]
    delta = {}
    for i, (k, A, e, mon) in enumerate(slices):
        for step in range(1, pd.p + 1):
            if step in A:
                continue
            B = A | {step}
            j = index.get(frozenset(B))
            if j is None:
                continue
            mon_b = slices[j][3]
            entry = ra.basis_mon_r(n, mon, mon_b)
            if entry is None:
                raise AssertionError(f"no T differential {vx.fmt(mon)} -> {vx.fmt(mon_b)}")
            delta[(j, i)] = frozenset([entry])
    c = ProjComplex(RAlgebraOps(n), summands, delta)
    ok, witness = verify_mc(c)
    if not ok:
        raise AssertionError(f"T{vx.fmt_pair((x, y))} is invalid: {witness}")
    return TPair(n, x, y, c, index, slices)


# ---------------------------------------------------------------------------
# the right action of one generator


def _shifted(A, cut, step):
    return frozenset(a if a <= cut else a + step for a in A)


def _case_data(n, xy, kind, t):
    """(target pair, index map, uses_generator, slice shift) for one generator."""
    x, y = xy
    pd = kz.pair_data(x, y)
    a_t = sum(1 for s in pd.s if s > t)
    if kind == YSIDE:
        lower = bool(x >> (t - 1) & 1) if t >= 1 else False  # t-1 in x
        upper = bool(x >> t & 1)  # t in x
        tgt = (x, y | pair_mask(t))
        if not lower and not upper:
            return tgt, (lambda A: _shifted(A, a_t, 0)), True, 0
        if not lower and upper:
            return tgt, (lambda A: _shifted(A, a_t, 1)), False, 0
        if lower and not upper:
            return tgt, (lambda A: _shifted(A, a_t, 1) | {a_t + 1}), True, 0
        return tgt, (lambda A: _shifted(A, a_t, 2) | {a_t + 2}), False, 0
    if kind == XSIDE:
        lower = bool(y >> (t + 1) & 1)  # t+1 in y
        upper = bool(y >> (t + 2) & 1)  # t+2 in y
        tgt = (x | pair_mask(t), y)
        if not lower and not upper:
            return tgt, (lambda A: _shifted(A, a_t, 0)), True, 0
        if lower and not upper:
            return tgt, (lambda A: _shifted(A, a_t, 1)), False, 0
        if not lower and upper:
            return tgt, (lambda A: _shifted(A, a_t, 1) | {a_t + 1}), True, 0
        return tgt, (lambda A: _shifted(A, a_t, 2) | {a_t + 1}), False, 0
    # diagonal generator
    tgt = (x | pair_mask(t), y | pair_mask(t + 1))
    return tgt, (lambda A: _shifted(A, a_t, 2)), False, -1


def right_act_chainmap(n, xy, kind, t):
    """The chain map T(x,y) -> T(x',y') of one boxed-quiver generator."""
    tgt_pair, f, uses_gen, dslice = _case_data(n, xy, kind, t)
    src = t_pair(n, *xy)
    tgt = t_pair(n, *tgt_pair)
    tgt_pd = kz.pair_data(*tgt_pair)
    entries = {}
    for i, (k, A, e, mon) in enumerate(src.slices):
        fa = frozenset(f(A))
        j = tgt.index.get(fa)
        if j is None:
            continue
        kt, _, et, mon_t = tgt.slices[j]
        if kt != k + dslice:
            raise AssertionError(f"{kind}{t} moves slice {k} to {kt}, not by {dslice}")
        if uses_gen:
            if mon & pair_mask(t):
                continue
            want = mon | pair_mask(t)
        else:
            want = mon
        if mon_t != want:
            continue
        entries[(j, i)] = frozenset([ra.basis_mon_r(n, mon, mon_t)])
    return ChainMap(src.complex, tgt.complex, entries)


def identity_chainmap(tp):
    entries = {
        (i, i): frozenset([(mon, mon)]) for i, (_, _, _, mon) in enumerate(tp.slices)
    }
    return ChainMap(tp.complex, tp.complex, entries)


def compose_chainmaps(f, g):
    """g after f (apply f's generator first)."""
    if f.target is not g.source and f.target.summands != g.source.summands:
        raise AssertionError("composed chain maps do not meet")
    n = f.source.ops.n
    out = {}
    for (j, i), e1 in f.entries.items():
        for (k, j2), e2 in g.entries.items():
            if j2 != j:
                continue
            prod = ra.mult_r(n, e1, e2)
            if prod:
                out[(k, i)] = out.get((k, i), frozenset()) ^ prod
    return ChainMap(f.source, g.target, out)


def add_chainmaps(f, g):
    out = dict(f.entries)
    for key, e in g.entries.items():
        out[key] = out.get(key, frozenset()) ^ e
    return ChainMap(f.source, f.target, {k: e for k, e in out.items() if e})


@lru_cache(maxsize=None)
def act_path(n, source_pair, arrows):
    """Chain map of a boxed path, composed factor by factor.

    Memoized on (n, source_pair, arrows): callers must not mutate the
    returned ChainMap (add_chainmaps and compose_chainmaps build new ones).
    """
    chain = identity_chainmap(t_pair(n, *source_pair))
    at = source_pair
    for kind, s in arrows:
        chain = compose_chainmaps(chain, right_act_chainmap(n, at, kind, s))
        at = apply_arrow(at, kind, s)
        if at is None:
            raise AssertionError(f"arrow {kind}{s} does not apply along the path")
    return chain


def act_element(n, elem):
    """Chain map of an F2 combination of boxed monomials with common endpoints."""
    chains = [act_path(n, src, arrows) for src, arrows in elem]
    out = chains[0]
    for c in chains[1:]:
        out = add_chainmaps(out, c)
    return out


# ---------------------------------------------------------------------------
# verification sweeps


def _generators_out(n, xy):
    return [(kind, s) for kind, s, _ in box_arrow_targets(n, xy)]


def leibniz_defect(n, xy, kind, t):
    """d(m x r) + d(m) x r + m x d(r) as a chain map; zero iff Leibniz holds."""
    chain = right_act_chainmap(n, xy, kind, t)
    defect = ChainMap(chain.source, chain.target, chain_map_defect(chain))
    if kind == DIAG:
        x, y = xy
        via_x = compose_chainmaps(
            right_act_chainmap(n, xy, XSIDE, t),
            right_act_chainmap(n, (x | pair_mask(t), y), YSIDE, t + 1),
        )
        via_y = compose_chainmaps(
            right_act_chainmap(n, xy, YSIDE, t + 1),
            right_act_chainmap(n, (x, y | pair_mask(t + 1)), XSIDE, t),
        )
        defect = add_chainmaps(defect, add_chainmaps(via_x, via_y))
    return defect


def _check_pair(n, xy, failures):
    ok, witness = verify_mc(t_pair(n, *xy).complex)
    if not ok:
        failures.append(f"T{vx.fmt_pair(xy)}: {witness}")
    for kind, t in _generators_out(n, xy):
        chain = right_act_chainmap(n, xy, kind, t)
        deg = (arrow_qdeg(n, kind, t), arrow_cohdeg(kind))
        for (j, i), e in chain.entries.items():
            si = chain.source.summands[i]
            sj = chain.target.summands[j]
            qd = ra.mono_qdeg_r(n, next(iter(e)))
            if qd - sj.qshift + si.qshift != deg[0]:
                failures.append(f"{vx.fmt_pair(xy)} {kind}{t}: q-degree at ({j},{i})")
            if sj.cohshift - si.cohshift != deg[1]:
                failures.append(f"{vx.fmt_pair(xy)} {kind}{t}: slice shift at ({j},{i})")
        if leibniz_defect(n, xy, kind, t).entries:
            failures.append(f"{vx.fmt_pair(xy)} {kind}{t}: Leibniz fails")
    # relation compatibility: identified length-2 paths act identically
    for k1, s1 in _generators_out(n, xy):
        mid = apply_arrow(xy, k1, s1)
        for k2, s2 in _generators_out(n, mid):
            if canonical(((k1, s1), (k2, s2))) != canonical(((k2, s2), (k1, s1))):
                continue
            one = act_path(n, xy, ((k1, s1), (k2, s2)))
            two = act_path(n, xy, ((k2, s2), (k1, s1)))
            if one.entries != two.entries:
                failures.append(
                    f"{vx.fmt_pair(xy)}: {k1}{s1}.{k2}{s2} != {k2}{s2}.{k1}{s1}"
                )


def _check_left_right(n, xy, rng, failures):
    """(a.m) x r == a.(m x r) on random triples."""
    tp = t_pair(n, *xy)
    if not tp.slices:
        return
    i = rng.randrange(len(tp.slices))
    mon = tp.slices[i][3]
    lefts = [v for v in vx.all_vertices(n) if ra.basis_mon_r(n, v, mon)]
    m = frozenset([(rng.choice(lefts), mon)])  # a left multiple of e(mon)
    idem = frozenset([(mon, mon)])
    for kind, t in _generators_out(n, xy):
        chain = right_act_chainmap(n, xy, kind, t)
        for (j, i2), e in chain.entries.items():
            if i2 != i:
                continue
            lhs = ra.mult_r(n, m, e)
            rhs = ra.mult_r(n, m, ra.mult_r(n, idem, e))
            if lhs != rhs:
                failures.append(f"{vx.fmt_pair(xy)} {kind}{t}: left/right clash")


def verify_bimodule(n, seed=0, samples=200):
    """Sweep the bimodule axioms; exhaustive for n <= 3, sampled above.

    Returns a list of failure strings (empty = pass).
    """
    failures = []
    rng = random.Random(seed)
    if n <= 3:
        pairs = [(x, y) for x in vx.all_vertices(n) for y in vx.all_vertices(n)]
    else:
        pairs = [
            (rng.randrange(1 << (n + 1)), rng.randrange(1 << (n + 1)))
            for _ in range(samples)
        ]
    for xy in pairs:
        _check_pair(n, xy, failures)
        _check_left_right(n, xy, rng, failures)
        if failures and len(failures) > 20:
            break
    return failures


# ---------------------------------------------------------------------------
# the induced functor on complexes over the thickened algebra


def tensor_T(c):
    """Replace each boxed summand by its shifted T block; entries act factor-wise."""
    if c.ops.tag != "Box":
        raise AssertionError(f"tensor_T needs a complex over the box algebra, got {c.ops.tag}")
    n = c.ops.n
    blocks = []  # per outer summand: (t_pair, base index into new summands)
    summands = []
    for s in c.summands:
        tp = t_pair(n, *s.vertex)
        blocks.append((tp, len(summands)))
        for k, A, e, mon in tp.slices:
            summands.append(Summand(mon, s.qshift + e, s.cohshift + k))
    delta = {}

    def add(j, i, e):
        if e:
            delta[(j, i)] = delta.get((j, i), frozenset()) ^ e

    for bi, (tp, base) in enumerate(blocks):
        for (j, i), e in tp.complex.delta.items():
            add(base + j, base + i, e)
    for (j, i), e in c.delta.items():
        tp_i, base_i = blocks[i]
        tp_j, base_j = blocks[j]
        chain = act_element(n, e)
        for (jj, ii), ee in chain.entries.items():
            add(base_j + jj, base_i + ii, ee)
    out = ProjComplex(RAlgebraOps(n), summands, delta)
    ok, witness = verify_mc(out)
    if not ok:
        raise AssertionError(f"tensor functor produced an invalid complex: {witness}")
    return out
