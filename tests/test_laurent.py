import pytest
from hypothesis import given, strategies as st

from cliffcat.laurent import LaurentZ, LaurentZH


def lz(draw_dict):
    return LaurentZ(draw_dict)


laurents = st.dictionaries(
    st.integers(-6, 6), st.integers(-9, 9), max_size=5
).map(LaurentZ)

laurents_qh = st.dictionaries(
    st.tuples(st.integers(-5, 5), st.integers(-3, 3)),
    st.integers(-9, 9),
    max_size=5,
).map(LaurentZH)


@given(laurents, laurents, laurents)
def test_ring_axioms_q(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + LaurentZ() == a
    assert a * LaurentZ.unit() == a


@given(laurents_qh, laurents_qh, laurents_qh)
def test_ring_axioms_qh(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * LaurentZH.unit() == a


@given(laurents_qh, laurents_qh)
def test_specialize_is_ring_map(a, b):
    assert (a + b).specialize_h() == a.specialize_h() + b.specialize_h()
    assert (a * b).specialize_h() == a.specialize_h() * b.specialize_h()


def test_specialize_values():
    one_plus_h = LaurentZH.unit() + LaurentZH.monomial(0, 1)
    assert not one_plus_h.specialize_h()
    assert LaurentZH.monomial(2, -1).specialize_h() == LaurentZ({2: -1})
    assert LaurentZH.monomial(1, 2, 3).specialize_h() == LaurentZ({1: 3})


def test_formatting():
    assert str(LaurentZ()) == "0"
    assert str(LaurentZ({0: 1})) == "1"
    assert str(LaurentZ({1: 1, -1: 1})) == "q^-1 + q"
    assert str(LaurentZ({2: -1, 0: 3})) == "3 - q^2"
    assert str(LaurentZH.monomial(1, -1)) == "q*h^-1"
    assert str(LaurentZH.monomial(0, 2, -2)) == "-2*h^2"


def test_int_comparison():
    # a Laurent polynomial equals only a Laurent polynomial of its own type,
    # never an int, and it stays unhashable as a class that defines __eq__
    assert LaurentZ({0: 5}) != 5
    assert LaurentZ() != 0
    assert LaurentZH.unit() != 1
    with pytest.raises(TypeError):
        hash(LaurentZ({0: 5}))
    with pytest.raises(TypeError):
        hash(LaurentZH.unit())


def test_to_json_shapes():
    assert LaurentZ({1: 2, -1: -1}).to_json() == [[-1, -1], [1, 2]]
    assert LaurentZH({(1, -1): 3, (0, 2): -2}).to_json() == [[0, 2, -2], [1, -1, 3]]


def test_repr_names_its_class():
    assert repr(LaurentZ({1: 2})) == "LaurentZ({1: 2})"
    assert repr(LaurentZH.monomial(1, -1, 3)) == "LaurentZH({(1, -1): 3})"


def test_types_stay_apart():
    assert LaurentZ() != LaurentZH()
    assert LaurentZ.unit() != LaurentZH.unit()
    a = LaurentZH.monomial(1, 1, 2)
    assert {type(x) for x in (a + a, a * a)} == {LaurentZH}
    assert type(a.specialize_h()) is LaurentZ
    assert a.specialize_h() == LaurentZ({1: -2})
    assert LaurentZH.q_power(1) == LaurentZ.q_power(1) == LaurentZ({1: 1})
