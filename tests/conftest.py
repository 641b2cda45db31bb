"""Fixtures shared by every test module."""

import pytest

from cliffcat import catun as cu


@pytest.fixture(autouse=True)
def _fresh_sublifts():
    # lift_word keeps its sub-lifts across calls; a test that patches a
    # function on the lift path must neither read sub-lifts made before the
    # patch nor leave patched ones to a later test
    cu._SUBLIFTS.clear()
    yield
    cu._SUBLIFTS.clear()


@pytest.fixture
def no_sublift_memo(monkeypatch):
    """lift_word with a memo that stores nothing, so every sub-lift is made
    by its own rho steps, as the pinned step counts assume."""
    monkeypatch.setattr(cu, "_SUBLIFT_CAP", 0)
