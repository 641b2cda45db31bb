"""Fixtures shared by every test module."""

import pytest

from cliffcat import catun as cu


def _clear_lift_memos():
    cu._SUBLIFTS.clear()
    cu._cross_correction.cache_clear()
    cu._side_lift.cache_clear()


@pytest.fixture(autouse=True)
def _fresh_sublifts():
    # lift_word keeps its sub-lifts across calls, and a two-sided rho step
    # its per-pair corrections and lifted side entries; a test that patches
    # a function on the lift path must neither read values made before the
    # patch nor leave patched ones to a later test
    _clear_lift_memos()
    yield
    _clear_lift_memos()


@pytest.fixture
def no_sublift_memo(monkeypatch):
    """lift_word with a memo that stores nothing, so every sub-lift is made
    by its own rho steps, as the pinned step counts assume."""
    monkeypatch.setattr(cu, "_SUBLIFT_CAP", 0)
