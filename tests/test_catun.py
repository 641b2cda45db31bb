"""Word liftings, unit laws, and the squared-generator shape."""

import hashlib
import json
import re
from itertools import product

import pytest

from cliffcat import catun as cu
from cliffcat import checks as ck
from cliffcat import kzero as kz
from cliffcat import ralgebra as ra
from cliffcat import vertices as vx
import cliffcat.bimodule as bm
import cliffcat.complexes as cx
from cliffcat.quiver import DIAG


def test_make_EF():
    E = cu.letter_complex(2, "E")
    F = cu.letter_complex(2, "F")
    assert sorted(vx.fmt(s.vertex) for s in E.summands) == ["[0]", "[2]"]
    assert [vx.fmt(s.vertex) for s in F.summands] == ["[1]"]
    assert not E.delta and not F.delta
    for n in (1, 2, 3, 4):
        assert cx.k0_class(cu.letter_complex(n, "E")) == kz.iota_letter(n, "E")
        assert cx.k0_class(cu.letter_complex(n, "F")) == kz.iota_letter(n, "F")


def test_rho_of_projectives_is_t():
    n = 2
    ops = cx.RAlgebraOps(n)
    got = cu.rho(cx.projective(ops, 1 << 0), cx.projective(ops, 1 << 1))
    T = bm.t_pair(n, 1 << 0, 1 << 1).complex
    assert got.summands == T.summands and got.delta == T.delta


def test_unit_laws():
    for n in (1, 2):
        for c in (cu.letter_complex(n, "E"), cu.letter_complex(n, "F")):
            assert ck.unit_law_check(n, c) == []
    # and on a complex with a nontrivial differential
    T = bm.t_pair(2, 1 << 0, 1 << 1).complex
    assert ck.unit_law_check(2, T) == []


def _reversed(c):
    last = len(c.summands) - 1
    delta = {(last - j, last - i): e for (j, i), e in c.delta.items()}
    return cx.ProjComplex(c.ops, c.summands[::-1], delta)


def test_unit_law_check_sees_relabeling(monkeypatch):
    # a rho that reverses the summands returns a relabeling of its input;
    # the unit laws hold exactly, so the check must report it
    for c in (cu.letter_complex(2, "E"), bm.t_pair(2, 1 << 0, 1 << 1).complex):
        monkeypatch.setattr(cu, "rho", lambda m, nc: _reversed(c))
        assert ck.unit_law_check(2, c) == ["right unit law fails", "left unit law fails"]


def _invalid_r_complexes(n=4):
    """Six complexes over R that break validity in different ways."""
    ops = cx.RAlgebraOps(n)
    v = vx.from_seq
    a, b, c, e, c2 = 0, v((1, 0)), v((3, 2, 1, 0)), v((2, 1)), v((4, 3, 2, 1))
    ab, bc = ra.basis_mon_r(n, a, b), ra.basis_mon_r(n, b, c)
    ae, ec2 = ra.basis_mon_r(n, a, e), ra.basis_mon_r(n, e, c2)
    q = lambda m: ra.mono_qdeg_r(n, m)
    S = cx.Summand
    square = cx.ProjComplex(
        ops, (S(a, 0, 0), S(b, q(ab), 1), S(c, q(ab) + q(bc), 2)),
        {(1, 0): frozenset({ab}), (2, 1): frozenset({bc})},
    )
    q_off = cx.ProjComplex(ops, (S(a, 0, 0), S(b, q(ab) + 1, 1)), {(1, 0): frozenset({ab})})
    ends_off = cx.ProjComplex(ops, (S(a, 0, 0), S(b, q(ae), 1)), {(1, 0): frozenset({ae})})
    # a -> b -> c and a -> e -> c2 land in one entry of delta^2: mixed endpoints
    mixed = cx.ProjComplex(
        ops, (S(a, 0, 0), S(b, q(ab), 1), S(c, q(ab) + q(bc), 2), S(e, q(ae), 1)),
        {(1, 0): frozenset({ab}), (2, 1): frozenset({bc}),
         (3, 0): frozenset({ae}), (2, 3): frozenset({ec2})},
    )
    # [1] -> [0] is no R monomial: the entry has no Hom-space
    no_hom = cx.ProjComplex(ops, (S(v((1,)), 0, 0), S(v((0,)), 0, 1)),
                            {(1, 0): frozenset({(v((1,)), v((0,)))})})
    # the identity loop on P([]): in the tensor square of loop with itself
    # the d(x)1 and 1(x)d blocks cancel over F2, so only a check of the
    # inputs sees it
    loop = cx.ProjComplex(ops, (S(a, 0, 0),), {(0, 0): frozenset({(a, a)})})
    return {"square": square, "q_off": q_off, "ends_off": ends_off, "mixed": mixed,
            "no_hom": no_hom, "loop": loop}


@pytest.mark.parametrize("defect", ["square", "q_off", "ends_off", "mixed", "no_hom", "loop"])
def test_rho_rejects_invalid_input(defect):
    # tensor_f2 checks both inputs and reports every defect with its
    # witness over R, on one-sided steps (with a letter) and two-sided ones
    # (with EF or itself)
    n = 4
    bad = _invalid_r_complexes(n)[defect]
    ok, witness = cx.verify_mc(bad)
    assert not ok
    others = [cu.letter_complex(n, letter) for letter in ("One", "E", "F")]
    for other in others + [cu.lift_word(n, cu.parse_word("EF"))]:
        for pair in ((bad, other), (other, bad)):
            with pytest.raises(cx.LiftError, match=re.escape(witness)):
                cu.rho(*pair)
    with pytest.raises(cx.LiftError, match=re.escape(witness)):
        cu.rho(bad, bad)


def _corrections(c):
    """The keys of the D-bearing entries of a Box complex: a rho step's
    corrections, since its side entries lift to X-only or Y-only paths."""
    return [key for key, e in c.delta.items()
            if any(kind == DIAG for _, arrows in e for kind, _ in arrows)]


def _moves(c):
    """Whether c has an entry monomial (x, w) with x != w."""
    return any(x != w for e in c.delta.values() for x, w in e)


def _record_steps(monkeypatch):
    """Every rho step met from now on, as (m, nc, values): values lists what
    each _cross_correction read of the step returned, a correction or None.
    A two-sided step is one whose inputs both move (_moves); only those
    read _cross_correction."""
    steps, real_rho, real_cross = [], cu.rho, cu._cross_correction

    def rho(m, nc):
        steps.append((m, nc, []))
        return real_rho(m, nc)

    def cross(*args):
        steps[-1][2].append(out := real_cross(*args))
        return out

    monkeypatch.setattr(cu, "rho", rho)
    monkeypatch.setattr(cu, "_cross_correction", cross)
    return steps


def _placed(values):
    return sum(c is not None for c in values)


def test_rho_checks_contract_twice(monkeypatch):
    # on warm caches one rho step checks the degree contract at two points:
    # on both R inputs in check_factors, and on the output in tensor_T's
    # verify_mc; three calls, never over RR or Box.  This holds one-sided
    # (E, F), two-sided without correction (EF, EF) and two-sided with one
    # correction (EF, FE), whose per-pair lifts are memoized
    E, F = cu.letter_complex(3, "E"), cu.letter_complex(3, "F")
    EF, FE = cu.rho(E, F), cu.rho(F, E)
    cu.rho(EF, EF), cu.rho(EF, FE)  # fill the t_pair, per-entry and per-pair caches
    real = cx.contract_violation
    for pair, corrected in (((E, F), 0), ((EF, EF), 0), ((EF, FE), 1)):
        assert (_moves(pair[0]) and _moves(pair[1])) == (pair != (E, F))
        calls = []
        monkeypatch.setattr(cx, "contract_violation", lambda c: calls.append(c) or real(c))
        with monkeypatch.context() as mp:
            steps = _record_steps(mp)
            out = cu.rho(*pair)
        assert [_placed(values) for _, _, values in steps] == [corrected]
        assert len(calls) == 3 and all(c is x for c, x in zip(calls, (*pair, out)))


def _identity_loops(n=2):
    """P([0]) and P([1]), each with the identity loop as its differential."""
    ops = cx.RAlgebraOps(n)
    v, w = 1 << 0, 1 << 1
    loop_v = cx.ProjComplex(ops, (cx.Summand(v, 0, 0),), {(0, 0): frozenset({(v, v)})})
    loop_w = cx.ProjComplex(ops, (cx.Summand(w, 0, 0),), {(0, 0): frozenset({(w, w)})})
    return loop_v, loop_w


def test_rho_refuses_cancelling_loops():
    # identity loops break the cohomological contract; the loops of P(v) and
    # P(w) would cancel in the tensor square over F2, so only the check of
    # the inputs refuses rho(P(v) with loop, P(w) with loop)
    loop_v, loop_w = _identity_loops()
    bare_w = cx.projective(loop_v.ops, loop_w.summands[0].vertex)
    for pair in ((loop_v, loop_w), (loop_v, bare_w), (bare_w, loop_w)):
        with pytest.raises(cx.LiftError, match=r"entry \(0,0\) violates the cohomological"):
            cu.rho(*pair)


def test_delta_square_skips_zero_differential(monkeypatch):
    # over R and RR, d = 0 and delta_square is the product alone, on
    # squares zero and not: both algebras sit in cohomological degree 0, so
    # every entry has cohdeg 0 and its differential, of cohdeg 1, is zero.
    # The sweep takes LIFT_WORDS: only their two-sided steps build a tensor
    # square, and WORDS alone has none
    loop_v, loop_w = _identity_loops()
    (v, _, _), (w, _, _) = loop_v.summands[0], loop_w.summands[0]
    loop_vw = cx.ProjComplex(cx.RRAlgebraOps(2), (cx.Summand((v, w), 0, 0),),
                             {(0, 0): frozenset({((v, v), (w, w))})})
    complexes = [loop_v, loop_w, loop_vw]
    real_f2 = cx.tensor_f2

    def record(m, nc):
        out = real_f2(m, nc)
        complexes.extend([m, nc, out])
        return out

    monkeypatch.setattr(cu, "tensor_f2", record)
    for n in (1, 2, 3):
        for w in LIFT_WORDS:
            for tree in ck.all_trees(0, len(w)):
                cu.lift_word(n, cu.Word(w, tree))
    assert len(complexes) > 3, "no rho step built a tensor square"
    assert {c.ops.tag for c in complexes} == {"R", "RR"}
    assert any(cx.delta_square(c) for c in complexes)
    for c in complexes:
        ops = c.ops
        assert all(ops.degrees[e][1] == 0 for e in c.delta.values())
        assert cx.delta_square(c) == cx.mat_then(ops.mult, c.delta, c.delta)


# Box products are only met where both factors of a rho step have a
# differential, as in (EF)(EF), so four words of length 4 join WORDS
LIFT_WORDS = ck.WORDS + [tuple(w) for w in ("EFEF", "FEFE", "EEFF", "EFFE")]

# SHA-256 over the lifts of LIFT_WORDS under every tree at n = 3, one
# sort_keys JSON line each; pinned before R squares were counted by parity
# and tensor blocks were assembled without summing
LIFT_DIGEST_N3 = "923158d822c5bcc28faffaaddf2c2f903f4879ab70fe87f5e2ae1a53c854a1b9"


def test_lift_json_digest_pinned():
    h = hashlib.sha256()
    for w in LIFT_WORDS:
        for tree in ck.all_trees(0, len(w)):
            doc = cx.complex_to_json(cu.lift_word(3, cu.Word(w, tree)))
            h.update(json.dumps(doc, sort_keys=True).encode() + b"\n")
    assert h.hexdigest() == LIFT_DIGEST_N3


def _lift_json(n, w, tree):
    return json.dumps(cx.complex_to_json(cu.lift_word(n, cu.Word(w, tree))), sort_keys=True)


def test_sublift_memo_matches_bypassed_lifts(monkeypatch):
    # LIFT_WORDS under every tree at n = 1..3: lifts that fill the sub-lift
    # memo, and then lifts that read it full, give the JSON of lifts that
    # bypass it, and no lift returns a complex the memo holds.  With a tiny
    # cap the memo evicts, never holds more than the cap, and the lifts stay
    # the same
    memo = cu._SUBLIFTS
    cases = [(n, w, tree) for n in (1, 2, 3) for w in LIFT_WORDS for tree in ck.all_trees(0, len(w))]
    with monkeypatch.context() as mp:
        mp.setattr(cu, "_SUBLIFT_CAP", 0)
        bypassed = [_lift_json(*case) for case in cases]
    assert not memo.lifts
    for _ in ("fill", "full"):
        for case, want in zip(cases, bypassed):
            out = cu.lift_word(case[0], cu.Word(*case[1:]))
            assert all(out is not c for c in memo.lifts.values()), case
            assert json.dumps(cx.complex_to_json(out), sort_keys=True) == want, case
    full = memo.held
    assert full == sum(map(cu._held, memo.lifts.values()))
    cap = full // 8
    monkeypatch.setattr(cu, "_SUBLIFT_CAP", cap)
    memo.clear()
    for case, want in zip(cases, bypassed):
        assert _lift_json(*case) == want, case
        assert memo.held == sum(map(cu._held, memo.lifts.values())) <= cap, case
    assert memo.lifts


def test_failed_step_stores_no_sublift(monkeypatch):
    # at n = 3 EFFE under ((0, 1), (2, 3)) takes a correction, so with none
    # the lift of EFFEE under (((0, 1), (2, 3)), 4) raises at that sub-lift:
    # the memo then holds EF and FE below it and nothing else, and once the
    # correction is back the lift equals a fresh one
    word = cu.Word(tuple("EFFEE"), (((0, 1), (2, 3)), 4))
    with monkeypatch.context() as mp:
        mp.setattr(cx, "_correction", lambda ops, key, e: frozenset())
        with pytest.raises(cx.LiftError):
            cu.lift_word(3, word)
    memo = cu._SUBLIFTS
    e, f = memo.keys[(3, "E")], memo.keys[(3, "F")]
    assert set(memo.lifts) == {memo.keys[(e, f)], memo.keys[(f, e)]}
    got = _lift_json(3, word.letters, word.association)
    memo.clear()
    assert got == _lift_json(3, word.letters, word.association)


def test_long_word_adds_one_key_per_node(monkeypatch):
    # the left fold of 2,000 letters E: the leaves share one key and each
    # inner node below the root adds one.  Keys outlive evicted sub-lifts,
    # so once they pass the cap the next lift starts from none
    cu.lift_word(1, cu.Word(("E",) * 2000))
    assert len(cu._SUBLIFTS.keys) == 1999
    monkeypatch.setattr(cu, "_SUBLIFT_CAP", 1000)
    cu.lift_word(1, cu.Word(("E", "E", "E")))
    assert len(cu._SUBLIFTS.keys) == 2


# every memo that a rho step passes its entries through, besides the
# entry degrees (each adapter's degrees dict): RHO_MEMOS by module
# attribute, ADAPTER_MEMOS by adapter attribute
RHO_MEMOS = [
    (cx, "_lift_entry"),
    (cx, "_side_entry"),
    (cx, "_boundary_preimage"),
    (cu, "act_element"),
    (cu, "_side_lift"),
    (cu, "_side_action"),
    (cu, "_cross_correction"),
    (cu, "_block"),
]
ADAPTER_MEMOS = [("RR", "mult"), ("Box", "mult"), ("Box", "diff")]


def test_rho_memos_match_fresh_computation(monkeypatch):
    # every word in WORDS under every tree at n <= 3: each memoized value a
    # lift reads equals a fresh computation, and lifting twice gives the same
    # JSON, so no caller mutates a cached object.  The degree memos start
    # empty (cleared on the shared adapters), and each degree a lift stored
    # is a fresh computation too.
    ns = (1, 2, 3)
    adapters = [cx.algebra(tag, n) for tag in cx._OPS for n in ns]
    for ops in adapters:
        ops.degrees.clear()
    holders = [(mod, name, name) for mod, name in RHO_MEMOS]
    holders += [(cx.algebra(tag, n), name, f"{tag} {name} n={n}")
                for tag, name in ADAPTER_MEMOS for n in ns]
    memos, seen = {}, {}
    for holder, name, label in holders:
        memo = memos[label] = getattr(holder, name)
        calls = seen[label] = {}

        def record(*args, memo=memo, calls=calls):
            calls[args] = out = memo(*args)
            return out

        monkeypatch.setattr(holder, name, record)
    for n in ns:
        for w in LIFT_WORDS:
            for tree in ck.all_trees(0, len(w)):
                word = cu.Word(w, tree)
                first = json.dumps(cx.complex_to_json(cu.lift_word(n, word)))
                second = json.dumps(cx.complex_to_json(cu.lift_word(n, word)))
                assert first == second, (n, w, tree)
    for _, name in RHO_MEMOS:
        assert seen[name], f"no lift read {name}"
    for tag, name in ADAPTER_MEMOS:
        assert any(seen[f"{tag} {name} n={n}"] for n in ns), f"no lift read {tag} {name}"
    for label, calls in seen.items():
        fresh = memos[label].__wrapped__
        for args, out in calls.items():
            assert out == fresh(*args), (label, args)
    assert {ops.tag for ops in adapters if ops.degrees} == {"R", "Box"}
    for ops in adapters:
        for e, degs in ops.degrees.items():
            assert {ops.mono_degrees(m) for m in e} == {degs}, (ops.tag, ops.n, e)


def test_rho_builds_normalized_complexes(monkeypatch):
    # ProjComplex takes its data as given, so every builder must make it in
    # normal form: a tuple of summands and nonempty frozenset entries
    built = []
    for name in ("tensor_f2", "lift_to_box", "tensor_T"):
        step = getattr(cu, name)

        def record(*args, step=step):
            built.append(out := step(*args))
            return out

        monkeypatch.setattr(cu, name, record)
    for n in (1, 2, 3):
        for w in LIFT_WORDS:
            for tree in ck.all_trees(0, len(w)):
                cu.lift_word(n, cu.Word(w, tree))
    assert {c.ops.tag for c in built} == {"R", "RR", "Box"}
    built += [cx.complex_from_json(cx.complex_to_json(c)) for c in built]
    for n in (1, 2, 3):
        verts = vx.all_vertices(n)
        built += [bm.t_pair(n, x, y).complex for x in verts for y in verts]
        built += [cu.letter_complex(n, letter) for letter in cu.LETTERS]
        built += [cx.projective(cx.algebra("R", n), 0), cx.projective(cx.algebra("Box", n), (0, 0))]
    for c in built:
        assert type(c.summands) is tuple
        assert all(type(e) is frozenset and e for e in c.delta.values())
        # every complex over one algebra and n shares its adapter
        assert c.ops is cx.algebra(c.ops.tag, c.ops.n)


def _rho_steps(words, ns):
    """Every rho step met while lifting words under every tree at each n,
    as (n, m, nc) in the order met."""
    real, met = cu.rho, []

    def record(m, nc):
        met.append((m.ops.n, m, nc))
        return real(m, nc)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cu, "rho", record)
        for n in ns:
            for w in words:
                for tree in ck.all_trees(0, len(w)):
                    cu.lift_word(n, cu.Word(w, tree))
    return met


def _distinct(steps):
    """The rho steps (n, m, nc) with distinct n and inputs, one of each."""
    return {
        (n, m.summands, frozenset(m.delta.items()), nc.summands, frozenset(nc.delta.items())):
        (n, m, nc)
        for n, m, nc in steps
    }.values()


def test_one_sided_lifts_match_corrected_path(no_sublift_memo, tensor_T_of_box):
    # every E/F word of 2-5 letters under every tree at n = 2..4 makes 6,024
    # one-sided rho steps (one input moves no vertex) and 180 two-sided ones.
    # On each distinct one-sided step the RR square and the plain section
    # lift's square are zero, the whole-square lift adds no correction, and
    # rho's output equals tensor_T(lift_to_box(tensor_f2(m, nc))).
    words = [w for k in range(2, 6) for w in product("EF", repeat=k)]
    met = _rho_steps(words, (2, 3, 4))
    one_sided = [(n, m, nc) for n, m, nc in met if not (_moves(m) and _moves(nc))]
    assert (len(one_sided), len(met) - len(one_sided)) == (6024, 180)
    for n, m, nc in _distinct(one_sided):
        square = cx.tensor_f2(m, nc)
        assert cx.delta_square(square) == {}
        plain = {k: cx._lift_entry(n, e) for k, e in square.delta.items()}
        assert not cx.delta_square(cx.ProjComplex(cx.BoxAlgebraOps(n), square.summands, plain))
        lifted = cx.lift_to_box(square)
        assert lifted.delta == plain
        slow = tensor_T_of_box(lifted)
        fast = cu.rho(m, nc)
        assert fast.summands == slow.summands and fast.delta == slow.delta


def test_two_sided_lifts_match_corrected_path(no_sublift_memo, tensor_T_of_box):
    # the 180 two-sided rho steps of the same sweep.  On each distinct one
    # the whole square's lift has its residual only at cross keys, the keys
    # (j*w + j2, i*w + i2) of a left entry (j, i) and a right entry
    # (j2, i2); its corrections are the per-pair ones, with none at a pair
    # that has an idempotent entry; and rho's output equals
    # tensor_T(lift_to_box(tensor_f2(m, nc))).
    words = [w for k in range(2, 6) for w in product("EF", repeat=k)]
    two_sided = [(n, m, nc) for n, m, nc in _rho_steps(words, (2, 3, 4))
                 if _moves(m) and _moves(nc)]
    assert len(two_sided) == 180
    corrected = 0
    for n, m, nc in _distinct(two_sided):
        w = len(nc.summands)
        square = cx.tensor_f2(m, nc)
        plain = {k: cx._lift_entry(n, e) for k, e in square.delta.items()}
        residual = cx.delta_square(cx.ProjComplex(cx.algebra("Box", n), square.summands, plain))
        cross = {
            (j * w + j2, i * w + i2): cu._cross_correction(n, e, f)
            for (j, i), e in m.delta.items() for (j2, i2), f in nc.delta.items()
        }
        assert set(residual) <= set(cross)
        lifted = cx.lift_to_box(square)
        assert {k: e for k, e in lifted.delta.items() if k not in plain} == {
            k: c for k, c in cross.items() if c is not None}
        assert {k: lifted.delta[k] for k in plain} == plain
        corrected += len(lifted.delta) > len(plain)
        slow = tensor_T_of_box(lifted)
        fast = cu.rho(m, nc)
        assert fast.summands == slow.summands and fast.delta == slow.delta
    assert corrected


def test_idempotent_entries_take_no_cross_correction():
    # an idempotent entry lifts to the empty path, so at its cross key with
    # any other entry the two paths are equal and cancel over F2: no
    # correction, on either side, for every vertex and basis monomial at
    # n = 1..3 (1,160 ordered pairs).  So rho pairs only moving entries.
    pairs = 0
    for n in (1, 2, 3):
        verts = vx.all_vertices(n)
        monos = [m for x in verts for w in verts if (m := ra.basis_mon_r(n, x, w)) is not None]
        for x in verts:
            e = frozenset([(x, x)])
            for f in (frozenset([m]) for m in monos):
                assert cu._cross_correction(n, e, f) is None
                assert cu._cross_correction(n, f, e) is None
                pairs += 2
    assert pairs == 1160


def test_one_sided_step_skips_both_squares(monkeypatch):
    # on warm caches a one-sided rho step builds no tensor square and no
    # lift, multiplies no RR and no Box entries and reads no cross
    # correction: no tensor_f2, lift_to_box, RR product, mat_then or
    # _cross_correction call, so a one-sided step that enters the cross
    # loop shows; a two-sided step reads the cross corrections and makes
    # the other four on the pairs of entries it has not lifted before
    n = 3
    EF = cu.lift_word(n, cu.parse_word("EF"))
    one_sided = [(EF, cu.letter_complex(n, "E")), (cu.letter_complex(n, "F"), EF)]
    for pair in one_sided:
        cu.rho(*pair)  # fill the t_pair and per-entry caches
    calls = []
    for holder, name in ((cu, "tensor_f2"), (cu, "lift_to_box"), (cx.algebra("RR", n), "mult"),
                         (cx, "mat_then"), (bm, "mat_then"), (cu, "mat_then"),
                         (cu, "_cross_correction")):
        real = getattr(holder, name)
        monkeypatch.setattr(
            holder, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
    for pair in one_sided:
        cu.rho(*pair)
    assert EF.delta and calls == []
    cu.rho(EF, EF)
    assert set(calls) == {"tensor_f2", "lift_to_box", "mat_then", "mult", "_cross_correction"}


def test_parity_square_names_rr_monomials():
    # a factor with a nonzero square makes the RR square nonzero too:
    # tensor_f2 refuses it before any RR complex is built, one-sided (with a
    # letter) or not, and names the R monomial of the factor's square, the
    # one delta_square gives
    n = 4
    square = _invalid_r_complexes(n)["square"]
    assert cx.parity_square(square) == cx.delta_square(square) != {}
    witness = "d(delta)+delta^2 nonzero at (2,0): r([]->[3,2,1,0])"
    assert cx.verify_mc(square) == (False, witness)
    pairs = [(square, square)]
    for letter in ("One", "E", "F"):
        other = cu.letter_complex(n, letter)
        pairs += [(square, other), (other, square)]
    for pair in pairs:
        with pytest.raises(cx.LiftError) as err:
            cx.tensor_f2(*pair)
        assert str(err.value) == witness


def test_word_sweep_reaches_corrections(monkeypatch, no_sublift_memo):
    # the catun word sweep lifts the four- and five-letter E/F words, so at
    # n = 3 it meets 68 two-sided steps and takes 58 corrections (4 and 2
    # of them in the four-letter words), counted as the values other than
    # None that rho reads from _cross_correction; no one-sided step reads one
    steps = _record_steps(monkeypatch)
    assert ck.word_lift_failures(3) == ([], 676)
    two_sided = [values for m, nc, values in steps if _moves(m) and _moves(nc)]
    assert len(two_sided) == 68
    assert sum(_placed(values) for values in two_sided) == 58
    assert all(not values for m, nc, values in steps if not (_moves(m) and _moves(nc)))


def test_lift_without_correction_is_refused(monkeypatch):
    # among the four-letter E/F lifts at n = 3 only EFFE and FEEF under
    # ((0, 1), (2, 3)) take a diagonal correction, and EFEF takes none under
    # any tree; with no correction the lift is refused, at the least key of
    # the whole Box complex that fails, not at the corner of a pair's lift
    monkeypatch.setattr(cx, "_correction", lambda ops, key, e: frozenset())
    for tree in ck.all_trees(0, 4):
        cu.lift_word(3, cu.Word(tuple("EFEF"), tree))
    for w, key in (("EFFE", "(7, 1)"), ("FEEF", "(17, 10)")):
        with pytest.raises(cx.LiftError) as err:
            cu.lift_word(3, cu.Word(tuple(w), ((0, 1), (2, 3))))
        assert str(err.value) == f"d(delta)+delta^2 nonzero at {key} over Box"


def test_box_square_check_refuses_one_changed_correction(monkeypatch):
    # a step's corrections cancel their products with the side entries,
    # c*delta + delta*c + c*c, only together.  Adding the first basis class
    # of the Hom-space of cohomological degree -1 at the cross key, over F2,
    # to the correction at the first cross key of rho(EF, EFFE) alone
    # leaves a nonzero product, which rho refuses before tensor_T is
    # reached.  Adding it at every cross key alike keeps the products
    # cancelling, and only tensor_T's verify_mc refuses the output.
    n = 3
    EF, EFFE = (cu.lift_word(n, cu.parse_word(w)) for w in ("EF", "EFFE"))
    real = cu._cross_correction

    def changed(first_only):
        keys = []

        def cross(n, e, f):
            c = real(n, e, f)
            ((x, w),), ((x2, w2),) = e, f
            basis = cx.box_algebra(n).hom_basis((x, x2), (w, w2), cohdeg=-1)
            if not basis or first_only and keys:
                return c
            keys.append((e, f))
            return (c or frozenset()) ^ {((x, x2), basis[0])} or None

        return cross

    with monkeypatch.context() as mp:
        mp.setattr(cu, "_cross_correction", changed(first_only=True))
        mp.setattr(bm, "verify_mc", lambda c: pytest.fail("tensor_T reached"))
        with pytest.raises(cx.LiftError) as err:
            cu.rho(EF, EFFE)
    assert str(err.value) == "d(delta)+delta^2 nonzero at (35, 1) over Box"
    monkeypatch.setattr(cu, "_cross_correction", changed(first_only=False))
    with pytest.raises(AssertionError, match="tensor functor produced an invalid complex"):
        cu.rho(EF, EFFE)


@pytest.mark.parametrize("n", [3, 4])
def test_one_correction_pass_lifts_five_letter_words(monkeypatch, no_sublift_memo, n):
    # every five-letter E/F word under every tree: 40 two-sided steps take
    # a correction, and the Box complex of each, rebuilt by the
    # whole-square oracle, bears those corrections and is valid after its
    # one pass
    steps = _record_steps(monkeypatch)
    for w in product("EF", repeat=5):
        for tree in ck.all_trees(0, 5):
            cu.lift_word(n, cu.Word(w, tree))
    corrected = [(m, nc, _placed(values)) for m, nc, values in steps if _placed(values)]
    assert len(corrected) == 40
    for m, nc, placed in corrected:
        box = cx.lift_to_box(cx.tensor_f2(m, nc))
        assert len(_corrections(box)) == placed
        ok, witness = cx.verify_mc(box)
        assert ok, witness


def test_rho_k0_multiplicative():
    n = 2
    E, F = cu.letter_complex(n, "E"), cu.letter_complex(n, "F")
    for a in (E, F):
        for b in (E, F):
            got = cx.k0_class(cu.rho(a, b))
            want = kz.mult(n, cx.k0_class(a), cx.k0_class(b))
            assert got == want


def test_ef_plus_fe_relation():
    # the lifted anticommutator realizes q^{n-1} + ... + q^{1-n} on the unit
    for n in (1, 2, 3):
        E, F = cu.letter_complex(n, "E"), cu.letter_complex(n, "F")
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
    for text in ("..", "(..)."):
        with pytest.raises(ValueError, match="trailing characters"):
            cu.parse_association(text)
    with pytest.raises(ValueError, match="unbalanced"):  # a third subtree
        cu.parse_association("(...)")


def test_word_validation():
    with pytest.raises(ValueError):
        cu.Word(("E", "bogus"))
    with pytest.raises(ValueError):
        cu.Word(("E", "F"), ((0, 1), 2))
    for tree in ((0, 1, 2), ((0, 1, 2),), (0, (1,))):  # a node that is not a pair
        with pytest.raises(ValueError):
            cu.Word(("E", "F", "E"), tree)
    w = cu.parse_word("q E q-1")
    assert w.letters == ("Q", "E", "Qinv")
    assert cu.parse_word("EFE").letters == ("E", "F", "E")
    # whitespace-free text that names one letter is that letter
    for text, letter in (("q-1", "Qinv"), ("Qinv", "Qinv"), ("One", "One")):
        assert cu.parse_word(text).letters == (letter,)
    with pytest.raises(ValueError, match="cannot parse word"):
        cu.parse_word("q-")


def test_shift_letters():
    n = 2
    c = cu.lift_word(n, cu.parse_word("q q-1"))
    assert [(s.vertex, s.qshift, s.cohshift) for s in c.summands] == [(0, 0, 0)]
    cq = cu.lift_word(n, cu.Word(("Q", "E")))
    assert cx.k0_class(cq) == kz.iota(n, ("Q", "E"), (0, 1))


def test_ee_shape():
    for n in (1, 2, 3, 4):
        assert ck.ee_shape_failures(n) == ([], 2)


def test_ee_summands_explicit_n2():
    c = cu.lift_word(2, cu.Word(("E", "E")))
    got = sorted((vx.fmt(s.vertex), s.qshift, s.cohshift) for s in c.summands)
    # regression baseline: both slices are P([2,0]) with no q-shift
    assert got == [("[2,0]", 0, -1), ("[2,0]", 0, 0)]
    assert not c.delta
    assert cx.k0_class(c) == {}


def test_all_trees_catalan():
    assert len(ck.all_trees(0, 1)) == 1
    assert len(ck.all_trees(0, 2)) == 1
    assert len(ck.all_trees(0, 3)) == 2
    assert len(ck.all_trees(0, 4)) == 5


def test_letter_complex_rejects_unknown_letter():
    with pytest.raises(ValueError, match="unknown letter 'G'"):
        cu.letter_complex(2, "G")
