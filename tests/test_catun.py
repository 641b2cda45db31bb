"""Word liftings, unit laws, and the squared-generator shape."""

import pytest

from cliffcat import catun as cu
from cliffcat import kzero as kz
from cliffcat import vertices as vx
import cliffcat.bimodule as bm
import cliffcat.complexes as cx


def test_make_EF():
    E = cu.make_E(2)
    F = cu.make_F(2)
    assert sorted(vx.fmt(s.vertex) for s in E.summands) == ["[0]", "[2]"]
    assert [vx.fmt(s.vertex) for s in F.summands] == ["[1]"]
    assert not E.delta and not F.delta
    for n in (1, 2, 3, 4):
        assert cx.k0_class(cu.make_E(n)) == kz.iota_letter(n, "E")
        assert cx.k0_class(cu.make_F(n)) == kz.iota_letter(n, "F")


def test_rho_of_projectives_is_t():
    n = 2
    ops = cx.RAlgebraOps(n)
    got = cu.rho(cx.projective(ops, 1 << 0), cx.projective(ops, 1 << 1))
    T = bm.t_pair(n, 1 << 0, 1 << 1).complex
    assert cx.find_relabeling(got, T) is not None


def test_unit_laws():
    for n in (1, 2):
        for c in (cu.make_E(n), cu.make_F(n)):
            assert cu.unit_law_check(n, c) == []
    # and on a complex with a nontrivial differential
    T = bm.t_pair(2, 1 << 0, 1 << 1).complex
    assert cu.unit_law_check(2, T) == []


def test_rho_k0_multiplicative():
    n = 2
    E, F = cu.make_E(n), cu.make_F(n)
    for a in (E, F):
        for b in (E, F):
            got = cx.k0_class(cu.rho(a, b))
            want = kz.mult(n, cx.k0_class(a), cx.k0_class(b))
            assert got == want


def test_ef_plus_fe_relation():
    # the lifted anticommutator realizes q^{n-1} + ... + q^{1-n} on the unit
    for n in (1, 2, 3):
        E, F = cu.make_E(n), cu.make_F(n)
        s = kz.kclass_add(
            cx.k0_class(cu.rho(E, F)), cx.k0_class(cu.rho(F, E))
        )
        assert s == kz.kclass_add(
            kz.mult(n, kz.iota_letter(n, "E"), kz.iota_letter(n, "F")),
            kz.mult(n, kz.iota_letter(n, "F"), kz.iota_letter(n, "E")),
        )


def test_association_parsing():
    assert cu.parse_association("((..).)") == ((0, 1), 2)
    assert cu.parse_association(".") == 0
    assert cu.parse_association("(.(..))") == (0, (1, 2))
    with pytest.raises(ValueError):
        cu.parse_association("((..)")
    with pytest.raises(ValueError):
        cu.parse_association("(..))")


def test_word_validation():
    with pytest.raises(ValueError):
        cu.Word(("E", "bogus"))
    with pytest.raises(ValueError):
        cu.Word(("E", "F"), ((0, 1), 2))
    w = cu.parse_word("q E q-1")
    assert w.letters == ("Q", "E", "Qinv")
    assert cu.parse_word("EFE").letters == ("E", "F", "E")


def test_shift_letters():
    n = 2
    c = cu.lift_word(n, cu.parse_word("q q-1"))
    assert [(s.vertex, s.qshift, s.cohshift) for s in c.summands] == [(0, 0, 0)]
    cq = cu.lift_word(n, cu.Word(("Q", "E")))
    assert cx.k0_class(cq) == kz.iota(n, ("Q", "E"))


def test_ee_shape():
    for n in (1, 2, 3, 4):
        assert cu.ee_shape_check(n) == []


def test_ee_summands_explicit_n2():
    c = cu.lift_word(2, cu.Word(("E", "E")))
    got = sorted((vx.fmt(s.vertex), s.qshift, s.cohshift) for s in c.summands)
    # regression baseline: both slices are P([2,0]) with no q-shift
    assert got == [("[2,0]", 0, -1), ("[2,0]", 0, 0)]
    assert not c.delta
    assert cx.k0_class(c) == {}


def test_all_trees_catalan():
    assert len(cu._all_trees(0, 1)) == 1
    assert len(cu._all_trees(0, 2)) == 1
    assert len(cu._all_trees(0, 3)) == 2
    assert len(cu._all_trees(0, 4)) == 5
