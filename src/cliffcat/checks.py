"""The invariants behind the paper's claims, each as one sweep.

Every ``*_failures`` sweep returns ``(failures, checks)``: the failure witnesses (empty
when the invariant holds) and the number of comparisons it evaluated.  The
verification suites of the command line tool and the acceptance tests both
call these functions, so the two always check the same things, and no
other module defines a sweep.  Library modules do not import this one.
"""

from __future__ import annotations

import random
from functools import lru_cache, partial
from itertools import product

from . import bimodule as bm
from . import boxalgebra as bx
from . import catun as cu
from . import complexes as cx
from . import kzero as kz
from . import quiver as qv
from . import ralgebra as ra
from . import vertices as vx
from .laurent import LaurentZ, LaurentZH

QFORM_DRAWS = 1000  # quadratic-form draws per n, from random.Random(n)

# the words whose lifts are checked: every word of length 1..3 over these,
# and every four- and five-letter E/F word: four letters are the fewest
# whose lifts have a step where both factors have a differential, and so
# may need a correction; five letters meet many more such steps
WORDS = [w for k in (1, 2, 3) for w in product(("E", "F", "Q", "Qinv"), repeat=k)]
EF_WORDS_4 = list(product(("E", "F"), repeat=4))
EF_WORDS_5 = list(product(("E", "F"), repeat=5))

# the components of Gamma_2 by Euler grading
GAMMA2_COMPONENTS = {
    0: ["[1,0]", "[2,1]", "[]"],
    1: ["[0]", "[2,1,0]", "[2]"],
    -1: ["[1]"],
    2: ["[2,0]"],
}


def quiver_failures(n):
    """Vertex count, arrow shapes and Euler-constant components of Gamma_n;
    at n = 2 also the exact component lists."""
    g = qv.build_gamma(n)
    failures, checks = [], 1
    if len(g.vertices) != 1 << (n + 1):
        failures.append(f"n={n}: vertex count")
    for v, arrs in g.out_arrows.items():
        for s, w in arrs:
            checks += 1
            if vx.length(w) != vx.length(v) + 2:
                failures.append(f"n={n}: arrow {vx.fmt(v)}->{vx.fmt(w)}: length")
            if w != (v | qv.pair_mask(s)) or v & qv.pair_mask(s):
                failures.append(f"n={n}: arrow {vx.fmt(v)}->{vx.fmt(w)}: shape")
    comps = qv.components(g)
    for comp in comps:
        checks += 1
        if len({vx.euler(v) for v in comp}) != 1:
            failures.append(f"n={n}: Euler grading not constant on a component")
    if n == 2:
        checks += 1
        by_euler = {vx.euler(c[0]): sorted(vx.fmt(v) for v in c) for c in comps}
        if by_euler != GAMMA2_COMPONENTS:
            failures.append(f"n=2: components {by_euler}")
    return failures, checks


def oracle_failures(n):
    """The normal form against the path-enumeration oracle: Hom dimensions,
    and composable products landing on a nonzero basis monomial."""
    failures, checks = [], 0
    verts = list(vx.all_vertices(n))
    for x in verts:
        for w in verts:
            checks += 1
            d = 0 if ra.basis_mon_r(n, x, w) is None else 1
            if d != ra.oracle_dim_r(n, x, w):
                failures.append(f"n={n}: dim mismatch at {vx.fmt(x)}->{vx.fmt(w)}")
    for x in verts:
        for w in verts:
            if ra.basis_mon_r(n, x, w) is None:
                continue
            for v in verts:
                if ra.basis_mon_r(n, w, v) is None:
                    continue
                checks += 1
                got = ra.mult_mono_r(n, (x, w), (w, v))
                if got != (x, v) or ra.oracle_dim_r(n, x, v) != 1:
                    failures.append(
                        f"n={n}: product at {vx.fmt(x)}->{vx.fmt(w)}->{vx.fmt(v)}"
                    )
    return failures, checks


def box_dg_failures(n):
    """d^2 = 0 and the (+1, 0) bidegree of d on every box class."""
    alg = bx.box_algebra(n)
    failures, checks = [], 0
    for m in alg.all_monomials():
        checks += 1
        dm = alg.diff_mono(m)
        if alg.diff(dm):
            failures.append(f"n={n}: d^2 != 0 at {bx.fmt_mono_box(m)}")
        cd, qd = alg.cohdeg(m[1]), alg.qdeg(m[1])
        for dmono in dm:
            if alg.cohdeg(dmono[1]) != cd + 1 or alg.qdeg(dmono[1]) != qd:
                failures.append(f"n={n}: d bidegree at {bx.fmt_mono_box(m)}")
    return failures, checks


def box_formality_failures(n):
    """Cohomology of every Hom-space is the tensor square in degree 0, and
    h_map is multiplicative on every composable pair of classes."""
    alg = bx.box_algebra(n)
    failures, checks = [], 0
    verts = list(vx.all_vertices(n))
    for src in product(verts, verts):
        for tgt in product(verts, verts):
            checks += 1
            want = ra.dim_rr(n, src, tgt)
            if alg.cohomology_dims(src, tgt) != ({0: want} if want else {}):
                failures.append(
                    f"n={n}: cohomology at {vx.fmt_pair(src)}->{vx.fmt_pair(tgt)}"
                )
    monos = list(alg.all_monomials())
    by_source = {}
    for m in monos:
        by_source.setdefault(m[0], []).append(m)
    for m1 in monos:
        for m2 in by_source.get(bx.path_target(*m1), []):
            checks += 1
            lhs = alg.h_map(frozenset([alg.mult_mono(m1, m2)]))
            rhs = ra.mult_rr(n, alg.h_map(frozenset([m1])), alg.h_map(frozenset([m2])))
            if lhs != rhs:
                failures.append(
                    f"n={n}: h_map not multiplicative at "
                    f"{bx.fmt_mono_box(m1)} * {bx.fmt_mono_box(m2)}"
                )
    return failures, checks


def local_lemma_failures(n):
    """The three local associativity lemmas of the h-graded product, with
    the case (1) defect vanishing at h = -1."""
    failures, checks = [], 0
    one = LaurentZH.unit()
    h = LaurentZH.monomial(0, 1)

    def vanishes_at_h(cls):
        return not any(c.specialize_h() for c in cls.values())

    for s in range(n):
        a, b = 1 << s, 1 << (s + 1)
        checks += 4
        lhs = kz.higher_mult_kh(n, {a: one}, kz.higher_mult(n, a, b))
        if lhs != {a: (one + h) * LaurentZH.monomial(2 * s + 1 - n, 0)}:
            failures.append(f"n={n}: local lemma (1) at s={s}")
        if kz.higher_mult_kh(n, kz.higher_mult(n, a, a), {b: one}):
            failures.append(f"n={n}: local lemma (1) rhs at s={s}")
        if not vanishes_at_h(lhs):
            failures.append(f"n={n}: local lemma (1) specialization at s={s}")
        lhs2 = kz.higher_mult_kh(n, {a: one}, kz.higher_mult(n, b, b))
        rhs2 = kz.higher_mult_kh(n, kz.higher_mult(n, a, b), {b: one})
        if not (vanishes_at_h(lhs2) and vanishes_at_h(rhs2)):
            failures.append(f"n={n}: local lemma (2) at s={s}")
    for s in range(1, n):
        a, b, c = 1 << (s - 1), 1 << s, 1 << (s + 1)
        checks += 1
        lhs = kz.higher_mult_kh(n, {a: one}, kz.higher_mult(n, b, c))
        rhs = kz.higher_mult_kh(n, kz.higher_mult(n, a, b), {c: one})
        if lhs != rhs:
            failures.append(f"n={n}: local lemma (3) at s={s}")
    return failures, checks


def single_letter_failures(n):
    """The h-graded product of two length-one vertices, in closed form."""
    failures, checks = [], 0
    for a in range(n + 1):
        for b in range(n + 1):
            checks += 1
            if a > b:
                want = {(1 << a) | (1 << b): LaurentZH.unit()}
            elif a == b:
                want = {}
            elif a < b - 1:
                want = {(1 << a) | (1 << b): LaurentZH.monomial(0, (-1) ** (a + b + 1))}
            else:
                want = {
                    0: LaurentZH.monomial(2 * a + 1 - n, 0),
                    (1 << a) | (1 << b): LaurentZH.monomial(0, 1),
                }
            if kz.higher_mult(n, 1 << a, 1 << b) != want:
                failures.append(f"n={n}: special case M([{a}],[{b}])")
    return failures, checks


def _product_table(n):
    """The specialized product as a lookup, each ordered pair computed once."""
    verts = vx.all_vertices(n)
    table = {(x, y): kz.mult_mono(n, x, y) for x in verts for y in verts}
    return lambda x, y: table[x, y]


def clifford_word(n, word):
    """The Clifford monomial X_{w1}...X_{wk} in the vertex basis, reading the
    vertex [i1 > ... > ik] as X_{i1}...X_{ik}; as {vertex: LaurentZ}.

    Rewrites with X_i^2 = 0, X_iX_j = -X_jX_i for |i - j| > 1 and
    X_iX_{i+1} = -X_{i+1}X_i + q^{2i+1-n}, independently of kzero."""
    terms = {}  # vertex -> {q-exponent: coefficient}
    stack = [(tuple(word), 1, 0)]  # (word, sign, q-exponent)
    while stack:
        w, sign, e = stack.pop()
        k = next((k for k in range(len(w) - 1) if w[k] <= w[k + 1]), None)
        if k is None:
            coeffs = terms.setdefault(vx.from_seq(w), {})
            coeffs[e] = coeffs.get(e, 0) + sign
            continue
        i, j = w[k], w[k + 1]
        if i == j:
            continue
        stack.append((w[:k] + (j, i) + w[k + 2:], -sign, e))
        if j == i + 1:
            stack.append((w[:k] + w[k + 2:], sign, e + 2 * i + 1 - n))
    out = {v: LaurentZ(c) for v, c in terms.items()}
    return {v: c for v, c in out.items() if c}


def clifford_failures(n):
    """The vertex product is the Clifford algebra: on every ordered pair of
    vertices it equals the Clifford rewriting of the concatenated word, the
    length-one generators satisfy the defining relations, and the square of
    each of QFORM_DRAWS integer combinations of them is its quadratic form."""
    failures, checks = [], 0
    m, zero = _product_table(n), LaurentZ()

    def mult(a, b):
        return kz.extend(m, zero, a, b)

    for x, y in product(vx.all_vertices(n), repeat=2):
        checks += 1
        if clifford_word(n, vx.seq(x) + vx.seq(y)) != m(x, y):
            failures.append(f"n={n}: Clifford basis at {vx.fmt(x)},{vx.fmt(y)}")
    gens = [kz.kclass(1 << i) for i in range(n + 1)]
    for i in range(n + 1):
        for j in range(i, n + 1):  # i = j checks 2 X_i^2 = 0
            checks += 1
            anti = kz.kclass_add(mult(gens[i], gens[j]), mult(gens[j], gens[i]))
            want = kz.kclass(0, LaurentZ.q_power(2 * i + 1 - n)) if j == i + 1 else {}
            if anti != want:
                failures.append(f"n={n}: X_{i}X_{j} + X_{j}X_{i} != {kz.fmt_kclass(want)}")
    rng = random.Random(n)
    for _ in range(QFORM_DRAWS):
        checks += 1
        a = [rng.randint(-9, 9) for _ in range(n + 1)]
        v = {1 << i: LaurentZ({0: c}) for i, c in enumerate(a) if c}
        qform = LaurentZ({2 * i + 1 - n: a[i] * a[i + 1] for i in range(n)})
        if mult(v, v) != ({0: qform} if qform else {}):
            failures.append(f"n={n}: quadratic form mismatch for a={a}")
    return failures, checks


def uq_relation_failures(n):
    """The relations of U_q(sl(1|1)) on the kzero.iota classes of two-letter
    words: EE = FF = 0, EF + FE = [n] [P([])] with the quantum integer
    [n] = q^{1-n} + q^{3-n} + ... + q^{n-1}, QE = EQ, QF = FQ and
    Q Qinv = 1."""

    def cls(a, b):
        return kz.iota(n, (a, b), (0, 1))

    quantum_n = kz.kclass(0, LaurentZ({e: 1 for e in range(1 - n, n, 2)}))
    relations = [
        ("EE = 0", cls("E", "E"), {}),
        ("FF = 0", cls("F", "F"), {}),
        ("EF + FE = [n]", kz.kclass_add(cls("E", "F"), cls("F", "E")), quantum_n),
        ("QE = EQ", cls("Q", "E"), cls("E", "Q")),
        ("QF = FQ", cls("Q", "F"), cls("F", "Q")),
        ("Q Qinv = 1", cls("Q", "Qinv"), kz.kclass(0)),
    ]
    failures = [
        f"n={n}: {name}: {kz.fmt_kclass(got)} != {kz.fmt_kclass(want)}"
        for name, got, want in relations
        if got != want
    ]
    return failures, len(relations)


def associativity_failures(n):
    """m(m(a, b), c) == m(a, m(b, c)) for the specialized product on every
    vertex triple."""
    failures, checks = [], 0
    m, zero, one = _product_table(n), LaurentZ(), LaurentZ.unit()
    for a, b, c in product(vx.all_vertices(n), repeat=3):
        checks += 1
        lhs = kz.extend(m, zero, m(a, b), {c: one})
        rhs = kz.extend(m, zero, {a: one}, m(b, c))
        if lhs != rhs:
            failures.append(f"n={n}: associativity at {vx.fmt(a)},{vx.fmt(b)},{vx.fmt(c)}")
    return failures, checks


def t_pair_k0_failures(n):
    """K0 of every per-pair complex T(x, y) equals the specialized product."""
    failures, checks = [], 0
    for x in vx.all_vertices(n):
        for y in vx.all_vertices(n):
            checks += 1
            if cx.k0_class(bm.t_pair(n, x, y).complex) != kz.mult_mono(n, x, y):
                failures.append(f"n={n}: k0(T{vx.fmt_pair((x, y))}) != m")
    return failures, checks


def _check_pair(n, xy, failures, act):
    """Every generator out of (x, y) acts by a chain map of its degree that
    satisfies Leibniz; identified length-2 paths act identically.  T(x, y)
    itself is verified by t_pair, which raises if it is invalid.  act(n, xy,
    kind, t) gives a generator's entries (bm.right_act_chainmap or a memo
    of it).  Every map here is over R, where d = 0, so the Leibniz defect
    of f is f then d_target plus d_source then f, and for D_t also the two
    composites X_t.Y_{t+1} and Y_{t+1}.X_t.  Returns the number of checks."""
    then = partial(cx.mat_then, cx.algebra("R", n).mult)
    source = bm.t_pair(n, *xy).complex
    checks = 0
    for kind, t, target in qv.box_arrow_targets(n, xy):
        f = act(n, xy, kind, t)
        target_cx = bm.t_pair(n, *target).complex
        deg = (qv.arrow_qdeg(n, kind, t), qv.arrow_cohdeg(kind))
        witness = cx.map_violation(source, target_cx, f, deg)
        if witness is not None:
            failures.append(f"{vx.fmt_pair(xy)} {kind}{t}: {witness}")
        defect = [then(f, target_cx.delta), then(source.delta, f)]
        if kind == qv.DIAG:  # d(D_t) = X_t.Y_{t+1} + Y_{t+1}.X_t
            x_t, y_t = (qv.XSIDE, t), (qv.YSIDE, t + 1)
            for (k1, s1), (k2, s2) in ((x_t, y_t), (y_t, x_t)):
                defect.append(then(act(n, xy, k1, s1), act(n, qv.apply_arrow(xy, k1, s1), k2, s2)))
        if cx.mat_add(*defect):
            failures.append(f"{vx.fmt_pair(xy)} {kind}{t}: Leibniz fails")
        checks += 2
    for k1, s1, mid in qv.box_arrow_targets(n, xy):
        for k2, s2, _ in qv.box_arrow_targets(n, mid):
            if bx.canonical(((k1, s1), (k2, s2))) != bx.canonical(((k2, s2), (k1, s1))):
                continue
            checks += 1
            one = then(act(n, xy, k1, s1), act(n, mid, k2, s2))
            two = then(act(n, xy, k2, s2), act(n, qv.apply_arrow(xy, k2, s2), k1, s1))
            if one != two:
                failures.append(
                    f"{vx.fmt_pair(xy)}: {k1}{s1}.{k2}{s2} != {k2}{s2}.{k1}{s1}"
                )
    return checks


def bimodule_failures(n):
    """The bimodule axioms of _check_pair on every vertex pair.

    The left action is componentwise left multiplication, and every entry of
    a right action is right multiplication by an element of the base
    algebra, so left R-linearity holds by construction and is not swept:
    (a.m) x r = a.(m x r) is associativity of the base algebra.

    Each (pair, generator) action is built once per sweep, in a memo that
    dies with it: a word lift never asks for the same map twice, so a global
    memo would only hold memory."""
    failures, checks = [], 0
    act = lru_cache(maxsize=None)(bm.right_act_chainmap)
    for x in vx.all_vertices(n):
        for y in vx.all_vertices(n):
            checks += _check_pair(n, (x, y), failures, act)
    return failures, checks


def unit_law_check(n, c):
    """rho(c, P([])) and rho(P([]), c) equal c, summand for summand and entry
    for entry."""
    unit = cx.projective(cx.algebra("R", n), 0)
    failures = []
    for side, got in (("right", cu.rho(c, unit)), ("left", cu.rho(unit, c))):
        if got.summands != c.summands or got.delta != c.delta:
            failures.append(f"{side} unit law fails")
    return failures


def letter_failures(n):
    """The E and F complexes: K0 is the letter's image, and the unit laws."""
    failures, checks = [], 0
    for letter in ("E", "F"):
        checks += 3
        c = cu.letter_complex(n, letter)
        if cx.k0_class(c) != kz.iota_letter(n, letter):
            failures.append(f"n={n}: k0 of {letter}")
        failures += [f"n={n}: {letter}: {msg}" for msg in unit_law_check(n, c)]
    return failures, checks


def ee_shape_failures(n):
    """The squared-generator complexes: two equal slices, zero differential.

    Lifting EE (resp. FF) must give summands at positions -1 and 0, each the
    sum of P([i,j]) over same-parity i > j, with no delta entries and a zero
    class in K0.  One check each for EE and FF."""
    failures = []
    for name, parity in (("EE", 0), ("FF", 1)):
        c = cu.lift_word(n, cu.Word((name[0], name[0])))
        want_verts = sorted(
            vx.from_seq((i, j))
            for i in range(parity, n + 1, 2)
            for j in range(parity, i, 2)
        )
        for pos in (-1, 0):
            got = sorted(s.vertex for s in c.summands if s.cohshift == pos)
            if got != want_verts:
                failures.append(f"n={n}: {name}: slice {pos} summands differ")
        extra = [s for s in c.summands if s.cohshift not in (-1, 0)]
        if extra:
            failures.append(f"n={n}: {name}: unexpected slice positions")
        if c.delta:
            failures.append(f"n={n}: {name}: differential not zero")
        if cx.k0_class(c):
            failures.append(f"n={n}: {name}: K0 class not zero")
    return failures, 2


def all_trees(lo, hi):
    """Every binary association tree over the leaves lo..hi-1."""
    if hi - lo == 1:
        return [lo]
    out = []
    for mid in range(lo + 1, hi):
        for left in all_trees(lo, mid):
            for right in all_trees(mid, hi):
                out.append((left, right))
    return out


def word_lift_failures(n):
    """Every word in WORDS, EF_WORDS_4 and EF_WORDS_5 under every association
    tree lifts to a valid complex whose K0 class is the word's product
    folded over the same tree."""
    failures, checks = [], 0
    for w in WORDS + EF_WORDS_4 + EF_WORDS_5:
        for tree in all_trees(0, len(w)):
            checks += 1
            lifted = cu.lift_word(n, cu.Word(w, tree))
            ok, witness = cx.verify_mc(lifted)
            if not ok:
                failures.append(f"n={n}: lift of {''.join(w)} assoc {tree}: {witness}")
            if cx.k0_class(lifted) != kz.iota(n, w, tree):
                failures.append(f"n={n}: k0 of lift of {''.join(w)} assoc {tree}")
    return failures, checks
