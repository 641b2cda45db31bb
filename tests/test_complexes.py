"""Twisted complexes: validity, K0, tensoring, and the diagonal lift."""

import json
import os
import subprocess
import sys
from functools import reduce
from itertools import product
from operator import or_
from unittest import mock

import pytest
from hypothesis import find, given, settings, strategies as st

import cliffcat
from cliffcat import catun as cu
from cliffcat import cli
from cliffcat import kzero as kz
from cliffcat import ralgebra as ra
from cliffcat import vertices as vx
from cliffcat.boxalgebra import box_algebra
from cliffcat.quiver import DIAG, arrow_qdeg, pair_mask
import cliffcat.complexes as cx
from cliffcat.laurent import LaurentZ


def two_step(n=2):
    """P([]){-1} at 0 -> P([1,0]) at 1, the smallest nonsplit complex."""
    ops = cx.RAlgebraOps(n)
    summands = (
        cx.Summand(0, -1, 0),
        cx.Summand(vx.from_seq((1, 0)), 0, 1),
    )
    delta = {(1, 0): frozenset([(0, vx.from_seq((1, 0)))])}
    return cx.ProjComplex(ops, summands, delta)


def test_projective_k0():
    ops = cx.RAlgebraOps(2)
    c = cx.projective(ops, vx.from_seq((1,)), qshift=2, cohshift=1)
    assert cx.k0_class(c) == {vx.from_seq((1,)): LaurentZ({2: -1})}


def test_two_step_valid():
    c = two_step()
    ok, witness = cx.verify_mc(c)
    assert ok, witness
    assert cx.k0_class(c) == kz.mult_mono(2, 1 << 0, 1 << 1)


def test_mc_negative_controls():
    c = two_step()
    # wrong q-shift breaks the degree contract
    bad = cx.ProjComplex(c.ops, (cx.Summand(0, 0, 0), c.summands[1]), dict(c.delta))
    ok, witness = cx.verify_mc(bad)
    assert not ok and "q contract" in witness
    # wrong position breaks the cohomological contract
    bad = cx.ProjComplex(c.ops, (c.summands[0], cx.Summand(vx.from_seq((1, 0)), 0, 2)), dict(c.delta))
    ok, witness = cx.verify_mc(bad)
    assert not ok and "cohomological" in witness
    # entry endpoints must match the summand vertices
    bad = cx.ProjComplex(c.ops, c.summands, {(0, 1): frozenset([(0, vx.from_seq((1, 0)))])})
    assert cx.verify_mc(bad) == (False, "entry (0,1) endpoints do not match summands")
    # an entry past the last summand or before the first (which Python's
    # negative indexing would silently read), or one mixing two degrees, is
    # reported
    for j, i in ((2, 0), (-1, 0), (0, -1)):
        bad = cx.ProjComplex(c.ops, c.summands, {(j, i): frozenset([(0, vx.from_seq((1, 0)))])})
        assert cx.verify_mc(bad) == (False, f"entry ({j},{i}) out of range")
    mixed = frozenset([(0, vx.from_seq((1, 0))), (0, 0)])
    ok, witness = cx.verify_mc(cx.ProjComplex(c.ops, c.summands, {(1, 0): mixed}))
    assert not ok and witness.startswith("inhomogeneous entry")


def test_delta_square_witness():
    # a single chain of two generators composes to a nonzero square
    n = 3
    ops = cx.RAlgebraOps(n)
    v0, v1, v2 = 0, vx.from_seq((1, 0)), vx.from_seq((3, 2, 1, 0))
    summands = (cx.Summand(v0, 0, 0), cx.Summand(v1, 2, 1), cx.Summand(v2, 0, 2))
    delta = {
        (1, 0): frozenset([(v0, v1)]),
        (2, 1): frozenset([(v1, v2)]),
    }
    c = cx.ProjComplex(ops, summands, delta)
    ok, witness = cx.verify_mc(c)
    assert not ok and "nonzero" in witness


@pytest.mark.parametrize("ops, ends, entry", [
    (cx.RAlgebraOps(2), (0b10, 0b01), (0b10, 0b01)),
    (cx.RRAlgebraOps(2), ((0b10, 0), (0b01, 0)), ((0b10, 0b01), (0, 0))),
    (cx.RRAlgebraOps(2), ((0, 0b10), (0, 0b01)), ((0, 0), (0b10, 0b01))),
])
def test_entry_without_hom_space_is_contract_witness(ops, ends, entry):
    # [1] -> [0] has no R monomial: the contract check names it, so every
    # entry that passes the check is a basis monomial
    summands = (cx.Summand(ends[0], 0, 0), cx.Summand(ends[1], 0, 1))
    c = cx.ProjComplex(ops, summands, {(1, 0): frozenset([entry])})
    assert cx.verify_mc(c) == (False, "no R monomial [1] -> [0] at n=2")


def _r_potential(n, v):
    """A q-shift per vertex with qdeg(v -> w) = shift(w) - shift(v) on every
    R monomial: (n|v| - 2 sum(v)) / 2, rounded up; n|v| keeps its parity
    along a monomial, which inserts pairs."""
    s = vx.seq(v)
    return -(-(n * len(s) - 2 * sum(s)) // 2)


@st.composite
def contract_r_complexes(draw, n=None):
    """Complexes over R at n <= 4 (or the given n) that keep the degree
    contract: summands at unions of adjacent pairs in positions 0..2, and a
    drawn subset of the entries the contract allows between them."""
    if n is None:
        n = draw(st.integers(1, 4))
    cells = draw(st.lists(
        st.tuples(st.frozensets(st.integers(0, n - 1)), st.integers(0, 2)),
        min_size=1, max_size=8,
    ))
    verts = [reduce(or_, map(pair_mask, lows), 0) for lows, _ in cells]
    summands = tuple(cx.Summand(v, _r_potential(n, v), b) for v, (_, b) in zip(verts, cells))
    allowed = [
        (j, i)
        for i, si in enumerate(summands)
        for j, sj in enumerate(summands)
        if sj.cohshift == si.cohshift + 1
        and ra.basis_mon_r(n, si.vertex, sj.vertex) is not None
    ]
    keep = draw(st.lists(st.booleans(), min_size=len(allowed), max_size=len(allowed)))
    delta = {
        (j, i): frozenset([(verts[i], verts[j])])
        for (j, i), kept in zip(allowed, keep) if kept
    }
    return cx.ProjComplex(cx.RAlgebraOps(n), summands, delta)


@given(contract_r_complexes())
@settings(max_examples=300, deadline=None)
def test_parity_square_matches_generic_square(c):
    assert cx.contract_violation(c) is None
    assert cx.parity_square(c) == cx.delta_square(c)
    with mock.patch.object(cx, "parity_square", cx.delta_square):
        generic = cx.verify_mc(c)
    assert cx.verify_mc(c) == generic


def test_contract_complexes_reach_both_square_outcomes():
    # the strategy above meets both outcomes of the square check
    assert find(contract_r_complexes(), lambda c: cx.delta_square(c))
    assert find(contract_r_complexes(), lambda c: c.delta and not cx.delta_square(c))


def test_contract_check_runs_before_parity_square(monkeypatch):
    # an entry off its endpoints would be read by its endpoints' positions;
    # the contract check reports it before the parity kernel runs
    c = two_step()
    bad = cx.ProjComplex(c.ops, c.summands, {(1, 0): frozenset([(0, vx.from_seq((2, 1)))])})
    monkeypatch.setattr(cx, "parity_square", lambda c: pytest.fail("parity kernel reached"))
    assert cx.verify_mc(bad) == (False, "entry (1,0) endpoints do not match summands")


R_MONOS_N2 = [
    (x, w) for x in vx.all_vertices(2) for w in vx.all_vertices(2)
    if ra.basis_mon_r(2, x, w) is not None
]
sparse_r = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.frozensets(st.sampled_from(R_MONOS_N2), min_size=1, max_size=3),
    max_size=8,
)


@given(sparse_r, sparse_r)
@settings(max_examples=200, deadline=None)
def test_kernel_product_matches_dense_loop(a, b):
    def mult(x, y):
        return ra.mult_r(2, x, y)

    dense = {}
    for i in range(4):
        for k in range(4):
            acc = frozenset()
            for j in range(4):
                acc ^= mult(a.get((j, i), frozenset()), b.get((k, j), frozenset()))
            if acc:
                dense[(k, i)] = acc
    assert cx.mat_then(mult, a, b) == dense
    assert cx.mat_add(a, b, a) == cx.mat_add(b)


def test_tensor_f2_bilinear_on_k0():
    n = 2
    ops = cx.RAlgebraOps(n)
    a = two_step()
    b = cx.projective(ops, vx.from_seq((2,)), qshift=1)
    t = cx.tensor_f2(a, b)
    k0 = cx.k0_class(t)
    want = {}
    for v1, c1 in cx.k0_class(a).items():
        for v2, c2 in cx.k0_class(b).items():
            want[(v1, v2)] = c1 * c2
    assert k0 == {k: v for k, v in want.items() if v}


def _tensor_f2_oracle(m, nc):
    """tensor_f2's delta as the sum of separately built d(x)1 and 1(x)d."""
    w = len(nc.summands)
    left = {
        (j * w + j2, i * w + j2): frozenset((mo, (sj.vertex, sj.vertex)) for mo in e)
        for (j, i), e in m.delta.items()
        for j2, sj in enumerate(nc.summands)
    }
    right = {
        (i2 * w + j, i2 * w + i): frozenset(((si.vertex, si.vertex), mo) for mo in e)
        for (j, i), e in nc.delta.items()
        for i2, si in enumerate(m.summands)
    }
    return cx.mat_add(left, right)


def test_tensor_f2_refuses_diagonal_entries():
    # d(x)1 and 1(x)d could meet only where both factors have a diagonal
    # entry, which breaks the contract: tensor_f2 refuses such an input with
    # its witness, so the blocks it writes once are disjoint
    n = 2
    ops = cx.RAlgebraOps(n)
    v, w = vx.from_seq((1, 0)), vx.from_seq((2,))
    loop_v = cx.ProjComplex(ops, (cx.Summand(v, 0, 0),), {(0, 0): frozenset({(v, v)})})
    loop_w = cx.ProjComplex(ops, (cx.Summand(w, 0, 0),), {(0, 0): frozenset({(w, w)})})
    mixed_w = cx.ProjComplex(ops, (cx.Summand(w, 0, 0),), {(0, 0): frozenset({(w, w), (0, w)})})
    bare_w = cx.projective(ops, w)
    for m, nc in [(two_step(), two_step()), (two_step(), bare_w), (bare_w, two_step())]:
        assert cx.tensor_f2(m, nc).delta == _tensor_f2_oracle(m, nc)
    # (left, right, the first invalid one, whose witness is raised)
    for m, nc, bad in [(loop_v, loop_w, loop_v), (loop_v, mixed_w, loop_v),
                       (two_step(), loop_w, loop_w), (loop_v, two_step(), loop_v),
                       (bare_w, mixed_w, mixed_w)]:
        with pytest.raises(cx.LiftError) as err:
            cx.tensor_f2(m, nc)
        assert cx.verify_mc(bad) == (False, str(err.value))


def test_lift_of_tensor_is_valid():
    n = 2
    ops = cx.RAlgebraOps(n)
    t = cx.tensor_f2(two_step(), two_step())
    lifted = cx.lift_to_box(t)
    ok, witness = cx.verify_mc(lifted)
    assert ok, witness
    # the lift collapses back onto the tensor-square complex
    alg = lifted.ops.algebra
    for key, e in t.delta.items():
        assert alg.h_map(lifted.delta[key]) == e


def test_lift_to_box_keeps_contract_check():
    # one entry off the q contract with delta^2 = 0: lift_to_box relies on
    # the contract, and rho refuses the input in tensor_f2, either side
    good = two_step()
    (_, qshift, cohshift), target = good.summands
    bad = cx.ProjComplex(good.ops, (cx.Summand(0, qshift + 1, cohshift), target), good.delta)
    assert not cx.delta_square(bad)
    other = cx.projective(good.ops, 0)
    for pair in ((bad, other), (other, bad)):
        with pytest.raises(cx.LiftError, match="q contract"):
            cu.rho(*pair)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cached_box_degrees_match_sums(n):
    # the degrees of every box class, direct and through the memoized
    # entry degrees, are the sums over its arrows
    ops = cx.BoxAlgebraOps(n)
    for m in box_algebra(n).all_monomials():
        arrows = m[1]
        sums = (
            sum(arrow_qdeg(n, kind, s) for kind, s in arrows),
            -sum(kind == DIAG for kind, _ in arrows),
        )
        assert ops.mono_degrees(m)[:2] == ops.degrees[frozenset([m])][:2] == sums


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_section_keeps_rr_degrees(n):
    # the section lifts every RR monomial (every pair of R basis monomials)
    # to a Box path of the same endpoints, q-degree and cohomological
    # degree 0, so an RR complex that keeps the contract lifts to one that
    # does, and lift_to_box checks the contract over RR only
    box, rr = cx.BoxAlgebraOps(n), cx.RRAlgebraOps(n)
    verts = vx.all_vertices(n)
    monos = [m for x in verts for w in verts if (m := ra.basis_mon_r(n, x, w)) is not None]
    for m in product(monos, repeat=2):
        assert box.mono_degrees(box.algebra.section_rr(m)) == rr.mono_degrees(m), m


# tensor_T's case: complex[1:] is a block record (summands, delta), and the
# block's own differential, passed again as an action, overlaps it
@pytest.mark.parametrize("call", [
    "cx.lift_to_box(cx.projective(cx.RAlgebraOps(2), 0))",
    "bm.tensor_T(2, [t := bm.t_pair(2, 1, 2).complex[1:]], [(0, 0, t[1])])",
    "cx.tensor_f2(cx.projective(cx.RAlgebraOps(2), 0), cx.projective(cx.RAlgebraOps(3), 0))",
    "cu.rho(cu.letter_complex(2, 'One'), cu.letter_complex(3, 'F'))",
    "cu.rho(cx.projective(cx.BoxAlgebraOps(2), (0, 0)), cu.letter_complex(2, 'F'))",
])
def test_invariant_guards_survive_optimize(call):
    # python -O strips assert statements; the guards must raise regardless
    src = os.path.dirname(os.path.dirname(cliffcat.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    imports = "import cliffcat.complexes as cx, cliffcat.bimodule as bm, cliffcat.catun as cu"
    code = f"{imports}\n{call}"
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.strip().splitlines()[-1].startswith("AssertionError")


def test_lift_section_property():
    # side-generator entries lift to pure side paths (no diagonal needed here)
    n = 2
    t = cx.tensor_f2(two_step(), cx.projective(cx.RAlgebraOps(n), 0))
    lifted = cx.lift_to_box(t)
    for e in lifted.delta.values():
        for _, arrows in e:
            assert all(kind in ("X", "Y") for kind, _ in arrows)


def test_json_round_trip_all_tags():
    n = 2
    r = two_step()
    rr = cx.tensor_f2(r, cx.projective(cx.RAlgebraOps(n), vx.from_seq((2,))))
    box = cx.lift_to_box(rr)
    for c in (r, rr, box):
        data = json.loads(json.dumps(cx.complex_to_json(c)))
        back = cx.complex_from_json(data)
        assert back.summands == c.summands
        assert back.delta == c.delta
        assert back.ops.tag == c.ops.tag
        # the decoder, like tensor_f2 and lift_to_box, takes the one shared
        # adapter of its algebra and n
        assert back.ops is cx.algebra(c.ops.tag, c.ops.n)
        assert c is r or c.ops is back.ops
        # an empty entry is zero, and the decoder drops it
        data["delta"].append({"row": 0, "col": 0, "monomials": []})
        assert cx.complex_from_json(data).delta == c.delta


@pytest.mark.parametrize("arrows, message", [
    ([["X", 0], ["X", 0]], "error: r(([],[]);X0.X0) is not a Box path"),
    ([["Z", 0]], "error: no Box arrow Z0 at n=2"),
    ([["X", 5]], "error: no Box arrow X5 at n=2"),
])
def test_bad_box_monomial_is_usage_error(tmp_path, capsys, arrows, message):
    lifted = cx.lift_to_box(cx.tensor_f2(two_step(), two_step()))
    data = cx.complex_to_json(lifted)
    data["delta"][0]["monomials"][0]["arrows"] = arrows
    path = tmp_path / "c.json"
    path.write_text(json.dumps(data))
    assert cli.main(["complex", "--file", str(path)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(message)


def _vertex_7_at_n0(data):
    data["n"] = 0
    data["summands"][0]["vertex"] = [7]


def _vertex_9999999_at_n10000000(data):
    data["n"] = 10000000
    data["summands"] = data["summands"][:1]
    data["summands"][0]["vertex"] = [9999999]
    data["delta"] = []


def _drop_delta(data):
    del data["delta"]


def _bad_row(data):
    data["delta"][0]["row"] = len(data["summands"])


def _bad_col(data):
    data["delta"][0]["col"] = -1


def _r_entry_twice(data):
    data["delta"][0]["monomials"] *= 2


def _empty_entry_then_repeat(data):
    data["delta"].insert(0, {"row": 1, "col": 0, "monomials": []})


def _box_entry_twice(data):
    # X0 and Y0 commute, so both orders name one class; over F2 the entry
    # listing both is their sum, 0
    data.clear()
    data.update(cx.complex_to_json(cx.lift_to_box(cx.tensor_f2(two_step(), two_step()))))
    data["delta"].append({"row": 3, "col": 0, "monomials": [
        {"source": [[], []], "arrows": [["X", 0], ["Y", 0]]},
        {"source": [[], []], "arrows": [["Y", 0], ["X", 0]]},
    ]})


@pytest.mark.parametrize("edit, message", [
    (_vertex_7_at_n0, "error: n must be positive, got 0"),
    (lambda d: d.update(n=40), "error: n must be at most 10, got 40"),
    (_vertex_9999999_at_n10000000, "error: n must be at most 10, got 10000000"),
    (lambda d: d["summands"][0].update(vertex=[7]), "error: element 7 out of range [0, 2]"),
    (lambda d: d["summands"][0].update(vertex=[0, 1]),
     "error: vertex [0, 1] is not strictly decreasing"),
    (_drop_delta, "error: complex has no field 'delta'"),
    (_bad_row, "error: delta entry (2, 0) out of range for 2 summands"),
    (_bad_col, "error: delta entry (1, -1) out of range for 2 summands"),
    (lambda d: d["delta"][0]["monomials"][0].reverse(), "error: no R monomial [1,0] -> []"),
    (_r_entry_twice, "error: delta entry (1, 0) lists one monomial twice"),
    (_empty_entry_then_repeat, "error: delta entry (1, 0) repeated"),
    (_box_entry_twice, "error: delta entry (3, 0) lists one monomial twice"),
])
def test_bad_complex_json_is_usage_error(tmp_path, capsys, edit, message):
    data = cx.complex_to_json(two_step())
    edit(data)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(data))
    assert cli.main(["complex", "--file", str(path)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(message)


def test_top_level_list_is_usage_error(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps([cx.complex_to_json(two_step())]))
    assert cli.main(["complex", "--file", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: complex is not a JSON object\n"


def _json_sites(data, path=()):
    """Every (container path, key) in a JSON tree."""
    items = data.items() if isinstance(data, dict) else enumerate(data)
    for key, value in items:
        yield path, key
        if isinstance(value, (dict, list)):
            yield from _json_sites(value, path + (key,))


def _fuzz_base():
    r = two_step()
    rr = cx.tensor_f2(r, r)
    return [cx.complex_to_json(c) for c in (r, rr, cx.lift_to_box(rr))]


_FUZZ_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 9), st.text(max_size=2),
    st.just([]), st.just({}), st.lists(st.integers(-1, 4), max_size=3),
    st.just("delete"),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2), st.data())
def test_mutated_complex_json_never_crashes(which, data):
    # a decoded complex verifies or fails the Maurer-Cartan check; anything
    # else must be refused by the decoder with ValueError (exit 2)
    doc = _fuzz_base()[which]
    path, key = data.draw(st.sampled_from(list(_json_sites(doc))))
    holder = doc
    for step in path:
        holder = holder[step]
    value = data.draw(_FUZZ_VALUES)
    if value == "delete":
        del holder[key]
    else:
        holder[key] = value
    try:
        c = cx.complex_from_json(doc)
    except ValueError:
        return
    cx.verify_mc(c)
    cx.k0_class(c)
