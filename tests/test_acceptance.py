"""Acceptance gate: one test per release criterion, exact tolerances.

Each test prints a single PASS/FAIL line (straight to the terminal, past
pytest's capture) so the gate can be audited from the test log alone.
"""

import sys
import time

import pytest

from cliffcat import checks as ck


_CAPTURE = None


@pytest.fixture(autouse=True)
def _route_past_capture(capfd):
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def report(num, label, failures, t0):
    status = "PASS" if not failures else f"FAIL ({len(failures)})"
    line = f"[acceptance {num:2d}] {status}: {label} [{time.time() - t0:.2f}s]\n"
    with _CAPTURE.disabled():
        sys.stdout.write(line)
        sys.stdout.flush()
    assert not failures, failures[:5]


def test_criterion_01_gamma2_structure():
    t0 = time.time()
    failures, _ = ck.quiver_failures(2)
    report(1, "two-strand quiver structure", failures, t0)


def test_criterion_02_clifford_presentation():
    t0 = time.time()
    failures = []
    for n in range(1, 7):
        failures += ck.clifford_failures(n)[0]
    report(2, "Clifford basis, relations and quadratic form, n=1..6", failures, t0)


def test_criterion_03_associativity():
    t0 = time.time()
    failures = []
    for n in (1, 2, 3, 4, 5):
        failures += ck.associativity_failures(n)[0]
    report(3, "associativity of the specialized product, every triple", failures, t0)


def test_criterion_04_local_lemmas():
    t0 = time.time()
    failures = []
    for n in range(1, 6):
        failures += ck.local_lemma_failures(n)[0]
    report(4, "local associativity lemmas, symbolic", failures, t0)


def test_criterion_05_dg_differential():
    t0 = time.time()
    failures = []
    for n in (1, 2, 3):
        failures += ck.box_dg_failures(n)[0]
    report(5, "thickened algebra differential squares to zero", failures, t0)


def test_criterion_06_formality():
    t0 = time.time()
    failures = []
    for n in (1, 2, 3):
        failures += ck.box_formality_failures(n)[0]
    report(6, "formality and multiplicative comparison map", failures, t0)


def test_criterion_07_bimodule_axioms():
    t0 = time.time()
    failures = []
    for n in (1, 2, 3, 4):
        failures += ck.bimodule_failures(n)[0]
    report(7, "bimodule axioms exhaustive n<=4", failures, t0)


def test_criterion_08_k0_of_t_is_m():
    t0 = time.time()
    failures = []
    for n in (1, 2, 3, 4):
        failures += ck.t_pair_k0_failures(n)[0]
    report(8, "K0 of every per-pair complex equals the product", failures, t0)


def test_criterion_09_word_liftings():
    t0 = time.time()
    failures = []
    for n in (1, 2, 3):
        failures += ck.word_lift_failures(n)[0]
    report(9, "word liftings multiply on K0, all associations", failures, t0)


def test_criterion_10_squared_generator_shape():
    t0 = time.time()
    failures = []
    for n in range(1, 6):
        failures += ck.ee_shape_failures(n)[0]
    report(10, "squared-generator complexes split with zero differential", failures, t0)


def test_criterion_11_oracle_equivalence():
    t0 = time.time()
    failures = []
    for n in (1, 2, 3, 4):
        failures += ck.oracle_failures(n)[0]
    report(11, "normal form agrees with the path-engine oracle", failures, t0)


def test_criterion_12_uq_relations_in_k0():
    t0 = time.time()
    failures = []
    for n in range(1, 7):
        failures += ck.uq_relation_failures(n)[0]
    report(12, "K0 classes of the letters satisfy the U_q(sl(1|1)) relations, n=1..6",
           failures, t0)
