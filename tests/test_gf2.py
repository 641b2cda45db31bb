from hypothesis import given, strategies as st

from cliffcat import gf2

rows_st = st.lists(st.integers(0, 2**12 - 1), max_size=8)


@given(rows_st)
def test_rank_bounds(rows):
    r = gf2.rank(rows)
    assert 0 <= r <= len(rows)
    assert gf2.rank(rows + rows) == r


@given(rows_st, st.integers(0, 2**12 - 1))
def test_solve_round_trip(rows, target):
    combo = gf2.solve(rows, target)
    if combo is None:
        assert gf2.rank(rows + [target]) == gf2.rank(rows) + 1
    else:
        acc = 0
        for i, row in enumerate(rows):
            if combo >> i & 1:
                acc ^= row
        assert acc == target


def test_solve_examples():
    assert gf2.solve([0b01, 0b10], 0b11) == 0b11
    assert gf2.solve([0b11, 0b10], 0b01) == 0b11
    assert gf2.solve([0b01], 0b10) is None
    assert gf2.solve([], 0) == 0
