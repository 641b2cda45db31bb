"""The per-pair complexes T(x,y) and the generator-by-generator right action."""

import pytest

from cliffcat import bimodule as bm
from cliffcat import checks as ck
from cliffcat import kzero as kz
from cliffcat import ralgebra as ra
from cliffcat import vertices as vx
from cliffcat.boxalgebra import apply_arrow, box_algebra
import cliffcat.complexes as cx
from cliffcat.laurent import LaurentZ
from cliffcat.quiver import DIAG, XSIDE, YSIDE, box_arrow_targets, pair_mask


def test_t_pair_example_n2():
    # T([0],[1]): P([]){-1} at 0, P([1,0]) at 1, one generator entry
    tp = bm.t_pair(2, 1 << 0, 1 << 1)
    assert [(s.vertex, s.qshift, s.cohshift) for s in tp.complex.summands] == [
        (0, -1, 0),
        (vx.from_seq((1, 0)), 0, 1),
    ]
    assert tp.complex.delta == {(1, 0): frozenset([(0, vx.from_seq((1, 0)))])}


def test_t_pair_k0_is_product():
    for n in (1, 2, 3):
        for x in vx.all_vertices(n):
            for y in vx.all_vertices(n):
                tp = bm.t_pair(n, x, y)
                assert cx.k0_class(tp.complex) == kz.mult_mono(n, x, y), (
                    vx.fmt(x),
                    vx.fmt(y),
                )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_act_element_matches_chainmap_fold(n):
    # the memoized right action of every box class equals the composite of
    # its generators' entries, folded from the identity of T(source), and
    # a fresh computation
    mult = cx.RAlgebraOps(n).mult
    for source, arrows in box_algebra(n).all_monomials():
        tp = bm.t_pair(n, *source)
        entries = {(i, i): frozenset([(m, m)]) for i, (m, *_) in enumerate(tp.complex.summands)}
        at = source
        for kind, s in arrows:
            entries = cx.mat_then(mult, entries, bm.right_act_chainmap(n, at, kind, s))
            at = apply_arrow(at, kind, s)
        elem = frozenset([(source, arrows)])
        assert bm.act_element(n, elem) == entries
        assert bm.act_element(n, elem) == bm.act_element.__wrapped__(n, elem)


# the parent's eight-way split of _case_data, one row per (kind, lower,
# upper): (step, added index - a_t or None, uses the generator); the last
# column is the set formula's generator rule, which the action reads off
# its endpoints instead
CASES = {
    (YSIDE, False, False): (0, None, True),
    (YSIDE, False, True): (1, None, False),
    (YSIDE, True, False): (1, 1, True),
    (YSIDE, True, True): (2, 2, False),
    (XSIDE, False, False): (0, None, True),
    (XSIDE, True, False): (1, None, False),
    (XSIDE, False, True): (1, 1, True),
    (XSIDE, True, True): (2, 1, False),
}


def _neighbors(xy, kind, t):
    """(lower, upper): the memberships of the inserted pair's two neighbors."""
    x, y = xy
    if kind == YSIDE:
        return t >= 1 and bool(x >> (t - 1) & 1), bool(x >> t & 1)
    return bool(y >> (t + 1) & 1), bool(y >> (t + 2) & 1)


def test_case_data_matches_eight_way_table():
    # every side generator out of every vertex pair at n <= 4 meets its row
    # of the table, and every row is met
    seen = set()
    for n in range(1, 5):
        for x in vx.all_vertices(n):
            for y in vx.all_vertices(n):
                for kind, t, _ in box_arrow_targets(n, (x, y)):
                    if kind == DIAG:
                        continue
                    row = (kind, *_neighbors((x, y), kind, t))
                    _, a_t, step, added, dslice = bm._case_data(n, (x, y), kind, t)
                    offsets = [a - a_t for a in vx.seq(added)]  # added is a mask
                    got = (step, offsets[0] if offsets else None)
                    assert len(offsets) <= 1 and dslice == 0
                    assert got == CASES[row][:2], (n, x, y, kind, t)
                    seen.add(row)
    assert seen == set(CASES)


def _set_formula_action(n, xy, kind, t):
    """right_act_chainmap's entries by the set formula that the mask map
    replaced: subsets as frozensets of pair indices, decoded from the masks
    here, mapped by a -> a + step above a_t, plus added; the factor is the
    generator or the idempotent as CASES says (the idempotent for D)."""
    tgt_pair, a_t, step, added, dslice = bm._case_data(n, xy, kind, t)
    uses_gen = kind != DIAG and CASES[(kind, *_neighbors(xy, kind, t))][2]
    assert a_t == sum(1 for s in vx.seq(kz.pair_data(*xy).lows) if s > t)
    added = frozenset(vx.seq(added))
    src, tgt = bm.t_pair(n, *xy), bm.t_pair(n, *tgt_pair)
    tgt_index = {frozenset(vx.seq(A)): j for A, j in tgt.index.items()}
    entries = {}
    for A, i in src.index.items():
        A = frozenset(vx.seq(A))
        j = tgt_index.get(frozenset(a if a <= a_t else a + step for a in A) | added)
        if j is None:
            continue
        (mon, _, k), (mon_t, _, kt) = src.complex.summands[i], tgt.complex.summands[j]
        assert kt == k + dslice
        if uses_gen:
            if mon & pair_mask(t):
                continue
            want = mon | pair_mask(t)
        else:
            want = mon
        if mon_t == want:
            entries[(j, i)] = frozenset([ra.basis_mon_r(n, mon, mon_t)])
    return entries


def test_right_action_matches_set_formula():
    # every generator (X, Y and D) out of every vertex pair at n <= 4
    kinds = set()
    for n in range(1, 5):
        for x in vx.all_vertices(n):
            for y in vx.all_vertices(n):
                for kind, t, _ in box_arrow_targets(n, (x, y)):
                    got = bm.right_act_chainmap(n, (x, y), kind, t)
                    assert got == _set_formula_action(n, (x, y), kind, t), (n, x, y, kind, t)
                    kinds.add(kind)
    assert kinds == {XSIDE, YSIDE, DIAG}


def test_t_pair_zero_when_repetition():
    # x and y sharing a letter with no pair to absorb it gives the zero complex
    tp = bm.t_pair(2, 1 << 2, 1 << 2)
    assert tp.complex.summands == ()


def test_diag_action_from_empty_pair():
    # e([]) under the diagonal generator lands in slice -1 of T([1,0],[2,1])
    ch = bm.right_act_chainmap(2, (0, 0), DIAG, 0)
    assert ch == {(0, 0): frozenset([(0, 0)])}
    tgt = bm.t_pair(2, vx.from_seq((1, 0)), vx.from_seq((2, 1)))
    mon, e, k = tgt.complex.summands[0]
    assert (k, mon, e) == (-1, 0, 0)


def test_yside_action_case_generator():
    # from T([0],[1]), inserting the y-pair at 2 multiplies by a generator
    n = 3
    ch = bm.right_act_chainmap(n, (1 << 0, 1 << 1), YSIDE, 2)
    src = bm.t_pair(n, 1 << 0, 1 << 1)
    tgt = bm.t_pair(n, 1 << 0, vx.from_seq((3, 2, 1)))
    # slice 0 (A empty, vertex []) maps onto e([]) * generator into P([3,2])
    i = src.index[0]  # the empty subset
    assert ch[(0, i)] == frozenset([(0, vx.from_seq((3, 2)))])
    # slice 1 (vertex [1,0]) maps into P([3,2,1,0]) at the same position
    assert ch[(1, 1)] == frozenset(
        [(vx.from_seq((1, 0)), vx.from_seq((3, 2, 1, 0)))]
    )
    assert tgt.complex.summands[0].vertex == vx.from_seq((3, 2))


@pytest.mark.parametrize("xy, kind", [((0b11, 0), XSIDE), ((0, 0b110), DIAG)])
def test_right_act_chainmap_rejects_arrow_that_does_not_apply(xy, kind):
    # X0 needs bits 0 and 1 of x clear; D0 also needs bits 1 and 2 of y clear
    with pytest.raises(AssertionError, match=f"arrow {kind}0 does not apply"):
        bm.right_act_chainmap(2, xy, kind, 0)


@pytest.mark.parametrize("kind, t", [(XSIDE, 2), (YSIDE, 5), (DIAG, 1), (XSIDE, -1)])
def test_generator_out_of_range_raises(kind, t):
    # at n = 2 the generators are X0, X1, Y0, Y1 and D0; X2 would insert
    # {2, 3} and map into T([3,2], []), off the vertices of {0..2}
    with pytest.raises(AssertionError, match=f"no arrow {kind}{t} at n=2"):
        bm.right_act_chainmap(2, (0, 0), kind, t)
    with pytest.raises(AssertionError, match=f"no arrow {kind}{t} at n=2"):
        bm.act_element(2, frozenset([((0, 0), ((kind, t),))]))


def test_act_element_rejects_path_that_leaves_the_quiver():
    # the second X0 does not apply after the first
    with pytest.raises(AssertionError, match=f"arrow {XSIDE}0 does not apply"):
        bm.act_element(2, frozenset([((0, 0), ((XSIDE, 0), (XSIDE, 0)))]))


def test_leibniz_all_generators_n2():
    n = 2
    for x in vx.all_vertices(n):
        for y in vx.all_vertices(n):
            failures = []
            ck._check_pair(n, (x, y), failures, bm.right_act_chainmap)
            assert failures == [], vx.fmt_pair((x, y))


def _drop_first_entry(at, kind, t):
    """The sweep's act with the first entry of one generator's map dropped."""
    real = bm.right_act_chainmap
    broken = dict(real(2, at, kind, t))
    broken.pop(sorted(broken)[0])

    def act(*args):
        return broken if args == (2, at, kind, t) else real(*args)

    return act


@pytest.mark.parametrize(
    "xy, kind", [((vx.from_seq((1, 0)), 1 << 2), YSIDE), ((0, 0), DIAG)], ids=["Y0", "D0"]
)
def test_leibniz_negative_control(xy, kind):
    # dropping one entry from a generator's map must break Leibniz
    failures = []
    ck._check_pair(2, xy, failures, _drop_first_entry(xy, kind, 0))
    assert f"{vx.fmt_pair(xy)} {kind}0: Leibniz fails" in failures, failures


def test_relation_negative_control():
    # dropping one entry of Y0 at the middle pair of X0.Y0 breaks the
    # identification of X0.Y0 with Y0.X0 at the empty pair
    failures = []
    ck._check_pair(2, (0, 0), failures, _drop_first_entry((vx.from_seq((1, 0)), 0), YSIDE, 0))
    assert f"([],[]): {XSIDE}0.{YSIDE}0 != {YSIDE}0.{XSIDE}0" in failures, failures


@pytest.mark.parametrize("broken", ["endpoint", "q-degree"])
def test_generator_degree_check_negative_control(broken, monkeypatch):
    # one entry of a generator's map moved off its target vertex, or its
    # target summand moved off the generator's q-degree, is reported
    n = 2
    xy = (vx.from_seq((1, 0)), 1 << 2)
    real = bm.right_act_chainmap
    entries = real(n, xy, YSIDE, 0)
    (j, i), e = sorted(entries.items())[0]
    ((src, tgt),) = e
    if broken == "endpoint":
        other = next(
            w for w in vx.all_vertices(n) if w != tgt and ra.basis_mon_r(n, src, w)
        )
        entries = dict(entries)
        entries[(j, i)] = frozenset([ra.basis_mon_r(n, src, other)])
        want = f"entry ({j},{i}) endpoints do not match summands"
    else:
        target = apply_arrow(xy, YSIDE, 0)
        real_t_pair = bm.t_pair

        def t_pair(n, x, y):
            tp = real_t_pair(n, x, y)
            if (x, y) != target:
                return tp
            summands = list(tp.complex.summands)
            s = summands[j]
            summands[j] = cx.Summand(s.vertex, s.qshift + 1, s.cohshift)
            shifted = cx.ProjComplex(tp.complex.ops, tuple(summands), tp.complex.delta)
            return bm.TPair(shifted, tp.index)

        monkeypatch.setattr(bm, "t_pair", t_pair)
        want = "violates the q contract"

    def act(*args):
        return entries if args == (n, xy, YSIDE, 0) else real(*args)

    failures = []
    ck._check_pair(n, xy, failures, act)
    prefix = f"{vx.fmt_pair(xy)} {YSIDE}0: "
    assert any(f.startswith(prefix) and want in f for f in failures), failures


def test_verify_bimodule_small():
    for n in (1, 2):
        failures, checks = ck.bimodule_failures(n)
        assert failures == [] and checks > (1 << (n + 1)) ** 2


def test_verify_bimodule_n3():
    assert ck.bimodule_failures(3)[0] == []


def test_verify_bimodule_n4():
    # every vertex pair, every generator entry, every left multiple
    assert ck.bimodule_failures(4)[0] == []


def test_tensor_T_single_projective(tensor_T_of_box):
    n = 2
    ops = cx.BoxAlgebraOps(n)
    for x in vx.all_vertices(n):
        for y in vx.all_vertices(n):
            out = tensor_T_of_box(cx.projective(ops, (x, y)))
            tp = bm.t_pair(n, x, y)
            assert out.summands == tp.complex.summands
            assert out.delta == tp.complex.delta


def test_tensor_T_respects_shifts(tensor_T_of_box):
    n = 2
    ops = cx.BoxAlgebraOps(n)
    c = cx.projective(ops, (1 << 0, 1 << 1), qshift=2, cohshift=1)
    out = tensor_T_of_box(c)
    assert cx.k0_class(out) == {
        v: LaurentZ.q_power(2, -1) * coeff
        for v, coeff in kz.mult_mono(n, 1 << 0, 1 << 1).items()
    }


def test_tensor_T_refuses_colliding_blocks(monkeypatch, tensor_T_of_box):
    # a diagonal entry off its endpoints (the Box contract allows neither):
    # its action lands on the T block's differential entry (1, 0).  tensor_T
    # never sums overlapping pieces: it refuses them before its verify_mc.
    n = 2
    x, y = vx.from_seq((0,)), vx.from_seq((1,))
    mono = ((0, 0), ((YSIDE, 1), (XSIDE, 0)))
    c = cx.ProjComplex(
        cx.BoxAlgebraOps(n), (cx.Summand((x, y), 0, 0),), {(0, 0): frozenset({mono})}
    )
    act = bm.act_element(n, frozenset([mono]))
    assert set(act) & set(bm.t_pair(n, x, y).complex.delta)
    monkeypatch.setattr(bm, "verify_mc", lambda out: pytest.fail("verify_mc reached"))
    with pytest.raises(AssertionError, match="pieces overlap"):
        tensor_T_of_box(c)


def test_tensor_T_zero(tensor_T_of_box):
    out = tensor_T_of_box(cx.ProjComplex(cx.BoxAlgebraOps(2), (), {}))
    assert out.summands == () and not out.delta


def test_tensor_T_k0_multiplicative_n3(tensor_T_of_box):
    n = 3
    ops = cx.BoxAlgebraOps(n)
    for x in vx.all_vertices(n):
        for y in vx.all_vertices(n):
            out = tensor_T_of_box(cx.projective(ops, (x, y)))
            assert cx.k0_class(out) == kz.mult_mono(n, x, y)
