"""The F2 pair-insertion algebra against the path-enumeration oracle."""

from collections import Counter

from hypothesis import example, given, settings, strategies as st

from cliffcat import complexes as cx
from cliffcat import ralgebra as ra
from cliffcat import vertices as vx


def run_decomposition(diff):
    """Maximal runs of consecutive integers in the mask diff, as (start, len)."""
    runs = []
    s = 0
    m = diff
    while m:
        if m & 1:
            start = s
            ln = 0
            while m & 1:
                m >>= 1
                s += 1
                ln += 1
            runs.append((start, ln))
        else:
            m >>= 1
            s += 1
    return runs


def run_walk_pairs(x, w):
    """forced_pairs by walking the runs of w - x: the reference for the bit walk."""
    if x & ~w:
        return None
    pairs = []
    for start, ln in run_decomposition(w & ~x):
        if ln % 2:
            return None
        pairs.extend(range(start, start + ln, 2))
    return tuple(pairs)


def test_forced_pairs_matches_run_walk():
    # every (x, w) at n = 6, odd runs and non-contained pairs included
    assert run_decomposition(0b1101110) == [(1, 3), (5, 2)]
    for x in vx.all_vertices(6):
        for w in vx.all_vertices(6):
            assert ra.forced_pairs(x, w) == run_walk_pairs(x, w), (x, w)


@given(st.lists(st.integers(0, 7), max_size=20))
@example([])
@example([3, 1, 4])  # all distinct: the one-pass case
@example([3, 1, 4, 1])  # one repeat: the toggle loop
def test_f2_sum_keeps_odd_counts(items):
    got = ra.f2_sum(items)
    assert isinstance(got, frozenset)
    assert got == {m for m, c in Counter(items).items() if c % 2}


def test_forced_pairs_examples():
    # [] -> [1,0]: the single pair {0,1}
    assert ra.forced_pairs(0, 0b11) == (0,)
    # [] -> [3,2,1,0]: pairs {0,1} and {2,3}
    assert ra.forced_pairs(0, 0b1111) == (0, 2)
    # odd run: no monomial
    assert ra.forced_pairs(0b1, 0b1111) is None
    # not contained
    assert ra.forced_pairs(0b100, 0b11) is None


def test_qdeg():
    n = 2
    assert ra.mono_qdeg_r(n, (0, 0b11)) == 1  # pair at 0: n-1-0
    assert ra.mono_qdeg_r(n, (0b1, 0b111)) == -1  # pair at 1
    assert ra.mono_qdeg_r(n, (0, 0)) == 0


def test_cached_qdeg_matches_path_sum():
    # the degree, direct and through the memoized entry degrees, equals the
    # pair-by-pair sum along every enumerated path
    for n in (1, 2, 3):
        ops = cx.RAlgebraOps(n)
        for x in vx.all_vertices(n):
            for w in vx.all_vertices(n):
                if ra.basis_mon_r(n, x, w) is None:
                    continue
                sums = {sum(n - 1 - 2 * s for s in p) for p in ra._paths(n, x, w)}
                cached = ops.degrees[frozenset([(x, w)])][0]
                assert sums == {ra.mono_qdeg_r(n, (x, w))} == {cached}


@settings(max_examples=60)
@given(st.integers(1, 4), st.integers(0, 31), st.integers(0, 31))
def test_dim_matches_oracle(n, x, w):
    mask = (1 << (n + 1)) - 1
    x, w = x & mask, w & mask
    d = 0 if ra.basis_mon_r(n, x, w) is None else 1
    assert d == ra.oracle_dim_r(n, x, w)


def test_oracle_exhaustive_n3():
    for x in vx.all_vertices(3):
        for w in vx.all_vertices(3):
            d = 0 if ra.basis_mon_r(3, x, w) is None else 1
            assert d == ra.oracle_dim_r(3, x, w), (vx.fmt(x), vx.fmt(w))


def test_composable_products_nonzero():
    n = 3
    for x in vx.all_vertices(n):
        for w in vx.all_vertices(n):
            if ra.basis_mon_r(n, x, w) is None:
                continue
            for v in vx.all_vertices(n):
                if ra.basis_mon_r(n, w, v) is None:
                    continue
                assert ra.mult_mono_r(n, (x, w), (w, v)) == (x, v)
                assert ra.oracle_dim_r(n, x, v) == 1


def test_mult_elements():
    n = 2
    a = frozenset([(0, 0b11)])
    b = frozenset([(0b11, 0b11)])
    assert ra.mult_r(n, a, b) == a
    # mismatched endpoints multiply to zero
    assert ra.mult_r(n, a, a) == frozenset()
    # F2: e([]) * r + r * e([1,0]) = r + r = 0
    assert ra.mult_r(n, frozenset([(0, 0), (0, 0b11)]), a | b) == frozenset()


def test_tensor_square():
    n = 2
    m1 = ((0, 0b11), (0b100, 0b100))
    m2 = ((0b11, 0b11), (0b100, 0b100))
    assert ra.mult_mono_rr(n, m1, m2) == ((0, 0b11), (0b100, 0b100))
    assert ra.mult_mono_rr(n, m2, m1) is None
    assert ra.dim_rr(n, (0, 0b100), (0b11, 0b100)) == 1
    assert ra.dim_rr(n, (0, 0b100), (0b1, 0b100)) == 0
