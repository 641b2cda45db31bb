"""The q,h-valued product on vertex classes and its Clifford specialization."""

import hashlib
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from cliffcat import checks as ck
from cliffcat import kzero as kz
from cliffcat import vertices as vx
from cliffcat.laurent import LaurentZ, LaurentZH

ONE = LaurentZH.unit()
H = LaurentZH.monomial(0, 1)


# The block construction the closed form replaced, kept as its oracle: the
# vertices of x and y between consecutive pair lows form one block each, and
# a slice glues the blocks and the chosen pairs into a strictly decreasing
# sequence.


def _glue(parts):
    """Concatenate vertex masks; None unless strictly decreasing across
    every junction (empty parts always pass)."""
    out = 0
    prev_min = None
    for part in parts:
        if part is None:
            return None
        if part == 0:
            continue
        if prev_min is not None and part.bit_length() - 1 >= prev_min:
            return None
        out |= part
        prev_min = (part & -part).bit_length() - 1
    return out


def _mu_single(a, b):
    if a < b - 1:
        return -1 if (a + b) % 2 == 0 else 1
    return 0


def _block_pair_data(x, y):
    """(mu, pair lows, alpha blocks), each block a vertex mask or None."""
    mu = sum(_mu_single(a, b) for a in vx.seq(x) for b in vx.seq(y))
    pairs = tuple(s for s in vx.seq(x) if y >> (s + 1) & 1)
    alphas = []
    bounds = (None,) + pairs + (None,)  # sentinels +inf, -inf
    for hi, lo in zip(bounds, bounds[1:]):
        xs = [a for a in vx.seq(x) if (lo is None or a >= lo + 1) and (hi is None or a < hi)]
        ys = [b for b in vx.seq(y) if (lo is None or b > lo + 1) and (hi is None or b <= hi)]
        alphas.append(None if set(xs) & set(ys) else vx.from_seq(xs) | vx.from_seq(ys))
    return mu, pairs, alphas


def _block_slice_monomial(pairs, alphas, subset):
    parts = [alphas[0]]
    for i, s in enumerate(pairs, start=1):
        parts.append(vx.from_seq((s + 1, s)) if i in subset else 0)
        parts.append(alphas[i])
    return _glue(parts)


def _block_m_slices(n, x, y):
    mu, pairs, alphas = _block_pair_data(x, y)
    if any(a is None for a in alphas):
        return []
    out = []
    for size in range(len(pairs) + 1):
        for A in combinations(range(1, len(pairs) + 1), size):
            subset = frozenset(A)
            eta = sum(2 * s + 1 - n for i, s in enumerate(pairs, start=1) if i not in subset)
            out.append((mu + size, subset, eta, _block_slice_monomial(pairs, alphas, subset)))
    return out


def test_glue():
    assert _glue([vx.from_seq((3,)), vx.from_seq((1, 0))]) == vx.from_seq((3, 1, 0))
    assert _glue([vx.from_seq((1,)), vx.from_seq((1,))]) is None  # repetition
    assert _glue([vx.from_seq((0,)), vx.from_seq((1,))]) is None  # not decreasing
    assert _glue([0, vx.from_seq((2,)), 0]) == vx.from_seq((2,))
    assert _glue([None, 0]) is None
    # The closed form on the same cases: a union of disjoint parts, None on
    # a repetition, whether a rest or a chosen pair meets another part.
    assert kz.pair_data(vx.from_seq((3,)), vx.from_seq((1, 0))).rest == vx.from_seq((3, 1, 0))
    assert kz.pair_data(vx.from_seq((1,)), vx.from_seq((1,))).rest is None
    slices = _slice_monomials(2, vx.from_seq((2, 0)), vx.from_seq((1,)))  # pair (0, 1), rest {2}
    assert slices[0b10] == vx.from_seq((2, 1, 0))  # A = {1}
    slices = _slice_monomials(2, vx.from_seq((1, 0)), vx.from_seq((2, 1)))  # pairs (1, 2) and (0, 1)
    assert 0b110 not in slices  # A = {1, 2}: the two pairs meet


def _slice_monomials(n, x, y):
    """{subset mask: monomial or None} over the slices of the product of x and y."""
    return {subset: mon for _, subset, _, mon in kz.m_slices(n, x, y)}


def test_mu_single():
    assert _mu_single(0, 2) == -1
    assert _mu_single(0, 3) == 1
    assert _mu_single(0, 1) == 0
    assert _mu_single(2, 0) == 0
    # mu of two singletons is the single far-transposition sign.
    for a, b, mu in ((0, 2, -1), (0, 3, 1), (0, 1, 0), (2, 0, 0)):
        assert kz.pair_data(1 << a, 1 << b).mu == mu, (a, b)


def _check_closed_form(n, x, y):
    """pair_data and m_slices of x, y against the block oracle: the slices
    with a monomial, in the oracle's order."""
    mu, pairs, _ = _block_pair_data(x, y)
    pd = kz.pair_data(x, y)
    assert (pd.mu, vx.seq(pd.lows)) == (mu, pairs), (n, x, y)
    # the oracle's subsets are frozensets of pair indices
    want = [
        (k, sum(1 << i for i in A), e, mon)
        for k, A, e, mon in _block_m_slices(n, x, y)
        if mon is not None
    ]
    assert kz.m_slices(n, x, y) == want, (n, x, y)


def test_closed_form_matches_block_oracle():
    for n in range(1, 6):
        for x in vx.all_vertices(n):
            for y in vx.all_vertices(n):
                _check_closed_form(n, x, y)


def test_closed_form_matches_block_oracle_sampled():
    # above n = 5 a seeded sample, so pairs at bits 6 and up (where
    # assoc-n10 runs) are checked too
    for n in range(6, 11):
        rng = random.Random(n)
        for _ in range(2000):
            _check_closed_form(n, rng.getrandbits(n + 1), rng.getrandbits(n + 1))


# SHA-256 of fmt_kclass of higher_mult and of mult_mono on every ordered pair
# at n = 6, one tab-separated line per pair; pinned before the slices became
# integer kernels and higher_mult one monomial per vertex
VERTEX_PRODUCT_DIGEST_N6 = "461db55f526824e9e4f3f79e739f4f125864544ef3706b65d69c64fe42ad8307"


def test_vertex_product_digest_pinned():
    n = 6
    h = hashlib.sha256()
    for x in vx.all_vertices(n):
        for y in vx.all_vertices(n):
            hm, mm = kz.higher_mult(n, x, y), kz.mult_mono(n, x, y)
            h.update(f"{kz.fmt_kclass(hm)}\t{kz.fmt_kclass(mm)}\n".encode())
    assert h.hexdigest() == VERTEX_PRODUCT_DIGEST_N6


def _laurent_fold(n, x, y):
    """higher_mult's oracle by Laurent arithmetic: one LaurentZH monomial
    added per slice, zero sums dropped."""
    out = {}
    for k, _, e, mon in kz.m_slices(n, x, y):
        if mon is None:
            continue
        cur = out.get(mon, LaurentZH())
        out[mon] = cur + LaurentZH.monomial(e, k)
    return {v: c for v, c in out.items() if c}


def test_higher_mult_matches_laurent_fold():
    for n in range(1, 6):
        for x in vx.all_vertices(n):
            for y in vx.all_vertices(n):
                assert kz.higher_mult(n, x, y) == _laurent_fold(n, x, y), (n, x, y)


def _reflect(n, v):
    """sigma: the reflection s -> n - s of {0..n}, on a vertex mask."""
    return sum(1 << (n - s) for s in vx.seq(v))


def _bar_reflect(n, a):
    """bar sigma of a {vertex: LaurentZ} class: each vertex reflected and
    q sent to q^-1."""
    return {_reflect(n, v): LaurentZ({-e: c for e, c in coeff.coeffs.items()})
            for v, coeff in a.items()}


def test_reflection_reverses_the_product():
    # sigma is an anti-involution of the specialized product up to bar:
    # M(sigma x, sigma y) = bar sigma M(y, x) on all 5,456 ordered pairs at
    # n = 1..5.  The order-keeping form bar sigma M(x, y) fails on some
    # pair, so the check tells the two apart.
    pairs, kept = 0, []
    for n in range(1, 6):
        for x in vx.all_vertices(n):
            for y in vx.all_vertices(n):
                image = kz.mult_mono(n, _reflect(n, x), _reflect(n, y))
                assert image == _bar_reflect(n, kz.mult_mono(n, y, x)), (n, x, y)
                if image != _bar_reflect(n, kz.mult_mono(n, x, y)):
                    kept.append((n, x, y))
                pairs += 1
    assert pairs == 5456
    assert kept


def test_pair_data_example():
    pd = kz.pair_data(vx.from_seq((1, 0)), vx.from_seq((2, 1)))
    assert pd.lows == 0b11  # the pairs (1, 2) and (0, 1)
    assert pd.mu == -1  # the far transposition (0, 2)
    assert pd.rest == 0
    assert kz.pair_data(vx.from_seq((1,)), vx.from_seq((1,))).rest is None  # repetition


def test_special_cases():
    n = 4
    for a in range(n + 1):
        for b in range(n + 1):
            got = kz.higher_mult(n, 1 << a, 1 << b)
            if a > b:
                assert got == {(1 << a) | (1 << b): ONE}
            elif a == b:
                assert got == {}
            elif a < b - 1:
                assert got == {
                    (1 << a) | (1 << b): LaurentZH.monomial(0, (-1) ** (a + b + 1))
                }
            else:
                assert got == {
                    0: LaurentZH.monomial(2 * a + 1 - n, 0),
                    (1 << a) | (1 << b): H,
                }


def test_keep_h_example():
    got = kz.higher_mult(2, vx.from_seq((1, 0)), vx.from_seq((2, 1)))
    assert got == {
        0: LaurentZH.monomial(0, -1),
        vx.from_seq((1, 0)): LaurentZH.monomial(1, 0),
        vx.from_seq((2, 1)): LaurentZH.monomial(-1, 0),
    }


def test_specialized_example():
    got = kz.mult_mono(2, 1 << 0, 1 << 1)
    assert got == {0: LaurentZ.q_power(-1), vx.from_seq((1, 0)): LaurentZ({0: -1})}


def test_unit():
    n = 3
    for v in vx.all_vertices(n):
        assert kz.mult_mono(n, 0, v) == kz.kclass(v)
        assert kz.mult_mono(n, v, 0) == kz.kclass(v)


def test_local_lemma_one_symbolic():
    for n in range(1, 6):
        for s in range(n):
            a, b = 1 << s, 1 << (s + 1)
            lhs = kz.higher_mult_kh(n, {a: ONE}, kz.higher_mult(n, a, b))
            assert lhs == {a: (ONE + H) * LaurentZH.monomial(2 * s + 1 - n, 0)}
            assert not kz.higher_mult_kh(n, kz.higher_mult(n, a, a), {b: ONE})
            # vanishes on specialization, witnessing associativity of m only
            assert not any(c.specialize_h() for c in lhs.values())


def test_local_lemma_three_symbolic():
    for n in range(2, 6):
        for s in range(1, n):
            a, b, c = 1 << (s - 1), 1 << s, 1 << (s + 1)
            lhs = kz.higher_mult_kh(n, {a: ONE}, kz.higher_mult(n, b, c))
            rhs = kz.higher_mult_kh(n, kz.higher_mult(n, a, b), {c: ONE})
            want = {
                a: LaurentZH.monomial(2 * s + 1 - n, 0),
                c: LaurentZH.monomial(2 * s - 1 - n, 0),
                vx.from_seq((s + 1, s, s - 1)): H,
            }
            assert lhs == rhs == want


def test_higher_mult_not_associative():
    # the h-graded product genuinely fails associativity before specializing
    n, s = 2, 0
    a, b = 1 << s, 1 << (s + 1)
    lhs = kz.higher_mult_kh(n, {a: ONE}, kz.higher_mult(n, a, b))
    rhs = kz.higher_mult_kh(n, kz.higher_mult(n, a, a), {b: ONE})
    assert lhs != rhs


def test_associativity_exhaustive_n2():
    n = 2
    for a in vx.all_vertices(n):
        for b in vx.all_vertices(n):
            for c in vx.all_vertices(n):
                lhs = kz.mult(n, kz.mult_mono(n, a, b), kz.kclass(c))
                rhs = kz.mult(n, kz.kclass(a), kz.mult_mono(n, b, c))
                assert lhs == rhs


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 5), st.data())
def test_associativity_random(n, data):
    mask = (1 << (n + 1)) - 1
    a = data.draw(st.integers(0, mask))
    b = data.draw(st.integers(0, mask))
    c = data.draw(st.integers(0, mask))
    lhs = kz.mult(n, kz.mult_mono(n, a, b), kz.kclass(c))
    rhs = kz.mult(n, kz.kclass(a), kz.mult_mono(n, b, c))
    assert lhs == rhs


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5), st.data())
def test_h_exponent_bounds(n, data):
    # every h-exponent in M(x,y) lies between mu and mu + p
    mask = (1 << (n + 1)) - 1
    x = data.draw(st.integers(0, mask))
    y = data.draw(st.integers(0, mask))
    pd = kz.pair_data(x, y)
    for coeff in kz.higher_mult(n, x, y).values():
        for (qe, he), c in coeff.items():
            assert pd.mu <= he <= pd.mu + pd.lows.bit_count()


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5), st.data())
def test_euler_additive(n, data):
    mask = (1 << (n + 1)) - 1
    x = data.draw(st.integers(0, mask))
    y = data.draw(st.integers(0, mask))
    e = vx.euler(x) + vx.euler(y)
    for v in kz.higher_mult(n, x, y):
        assert vx.euler(v) == e


def test_clifford_all_n():
    for n in range(1, 6):
        failures, checks = ck.clifford_failures(n)
        assert failures == []
        assert checks == 4 ** (n + 1) + (n + 1) + n * (n - 1) // 2 + n + ck.QFORM_DRAWS


def test_iota_relations():
    # E^2 = F^2 = 0 and EF + FE = q^{n-1} + ... + q^{1-n} on the unit
    for n in range(1, 5):
        E = kz.iota_letter(n, "E")
        F = kz.iota_letter(n, "F")
        assert kz.mult(n, E, E) == {}
        assert kz.mult(n, F, F) == {}
        anti = kz.kclass_add(kz.mult(n, E, F), kz.mult(n, F, E))
        want = LaurentZ({e: 1 for e in range(1 - n, n, 2)})
        assert anti == {0: want}


def test_uq_relation_failures_name_the_relation(monkeypatch):
    # every relation holds, and a wrong letter class is reported by relation
    assert ck.uq_relation_failures(3) == ([], 6)
    real = kz.iota_letter
    monkeypatch.setattr(kz, "iota_letter", lambda n, l: real(n, "One" if l == "F" else l))
    failures, _ = ck.uq_relation_failures(3)
    assert [f.split(":")[1].strip() for f in failures] == ["FF = 0", "EF + FE = [n]"]


def test_iota_word_fold():
    n = 2
    ef = kz.iota(n, ("E", "F"), (0, 1))
    assert ef == kz.mult(n, kz.iota_letter(n, "E"), kz.iota_letter(n, "F"))
    assert kz.iota(n, ("Q", "Qinv"), (0, 1)) == kz.kclass(0)
    assert kz.iota(n, ("E",), 0) == kz.iota_letter(n, "E")
    # the aliases of catun.parse_word are not letters
    for alias in ("1", "q", "q-1"):
        with pytest.raises(ValueError, match="unknown letter"):
            kz.iota_letter(n, alias)


def test_postorder_walks_children_first():
    assert list(kz.postorder(0)) == [0]
    tree = ((0, 1), (2, (3, 4)))
    assert list(kz.postorder(tree)) == [0, 1, (0, 1), 2, 3, 4, (3, 4), (2, (3, 4)), tree]


def test_iota_folds_any_depth():
    # 5,000 nested pairs are far past Python's recursion limit
    k = 5000
    left, right = 0, k - 1
    for i in range(1, k):
        left, right = (left, i), (k - 1 - i, right)
    for tree in (left, right):
        assert kz.iota(2, ("Q",) * k, tree) == kz.kclass(0, LaurentZ.q_power(k))


def test_fmt_kclass():
    got = kz.fmt_kclass(kz.higher_mult(2, vx.from_seq((1, 0)), vx.from_seq((2, 1))))
    assert got == "h^-1*[] + q*[1,0] + q^-1*[2,1]"
    assert kz.fmt_kclass({}) == "0"
