"""Fixtures shared by every test module."""

import pytest

from cliffcat import bimodule as bm
from cliffcat import catun as cu
from cliffcat import complexes as cx


def _clear_lift_memos():
    cu._SUBLIFTS.clear()
    cu._block.cache_clear()
    cu._cross_correction.cache_clear()
    cu._side_lift.cache_clear()
    cu._side_action.cache_clear()


@pytest.fixture(autouse=True)
def _fresh_sublifts():
    # lift_word keeps its sub-lifts across calls, and a rho step its shifted
    # T blocks, per-pair corrections, lifted side entries and their actions;
    # a test that patches a function on the lift path must neither read
    # values made before the patch nor leave patched ones to a later test
    _clear_lift_memos()
    yield
    _clear_lift_memos()


@pytest.fixture
def no_sublift_memo(monkeypatch):
    """lift_word with a memo that stores nothing, so every sub-lift is made
    by its own rho steps, as the pinned step counts assume."""
    monkeypatch.setattr(cu, "_SUBLIFT_CAP", 0)


def _tensor_T_of_box(c):
    """bimodule.tensor_T of a complex over the box algebra: each boxed
    summand becomes its shifted T block and each entry acts factor-wise.
    The last stage of rho's whole-square oracle,
    tensor_T(lift_to_box(tensor_f2(m, nc))).  The blocks are shifted here,
    straight from t_pair, so the oracle does not read rho's memo of shifted
    blocks."""
    n = c.ops.n
    blocks = []
    for v, q, k in c.summands:
        t = bm.t_pair(n, *v).complex
        blocks.append((tuple(cx.Summand(u, q + tq, k + tk) for u, tq, tk in t.summands), t.delta))
    actions = [(j, i, bm.act_element(n, e)) for (j, i), e in c.delta.items()]
    return bm.tensor_T(n, blocks, actions)


@pytest.fixture
def tensor_T_of_box():
    """The whole-square oracle's tensor_T, which takes a Box complex."""
    return _tensor_T_of_box
