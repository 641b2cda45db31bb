import contextlib
import hashlib
import io
import json

from hypothesis import example, given, settings, strategies as st

from cliffcat import checks as ck
from cliffcat import cli
from cliffcat import complexes as cx
from cliffcat import kzero as kz
from cliffcat import ralgebra as ra
from cliffcat import vertices as vx


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_multiply_keep_h(capsys):
    code, out = run(capsys, "multiply", "--n", "2", "--x", "[1,0]", "--y", "[2,1]", "--keep-h")
    assert code == 0
    assert out.strip() == "h^-1*[] + q*[1,0] + q^-1*[2,1]"


def test_multiply_specialized(capsys):
    code, out = run(capsys, "multiply", "--n", "2", "--x", "[0]", "--y", "[1]")
    assert code == 0
    assert out.strip() == "q^-1*[] - [1,0]"


def test_multiply_json(capsys):
    # the classes of the two text tests above: [qexp, hexp, coeff] with the
    # h-grading kept, [qexp, coeff] without
    code, out = run(capsys, "multiply", "--n", "2", "--x", "[1,0]", "--y", "[2,1]",
                    "--keep-h", "--json")
    assert code == 0
    assert json.loads(out) == {
        "n": 2, "x": "[1,0]", "y": "[2,1]", "keep_h": True,
        "result": [{"vertex": "[]", "coeff": [[0, -1, 1]]},
                   {"vertex": "[1,0]", "coeff": [[1, 0, 1]]},
                   {"vertex": "[2,1]", "coeff": [[-1, 0, 1]]}],
    }
    code, out = run(capsys, "multiply", "--n", "2", "--x", "[0]", "--y", "[1]", "--json")
    assert code == 0
    assert json.loads(out) == {
        "n": 2, "x": "[0]", "y": "[1]", "keep_h": False,
        "result": [{"vertex": "[]", "coeff": [[-1, 1]]},
                   {"vertex": "[1,0]", "coeff": [[0, -1]]}],
    }


def test_quiver_json_vertex_count(capsys):
    code, out = run(capsys, "quiver", "--n", "2", "--json")
    assert code == 0
    assert len(json.loads(out)["vertices"]) == 8


def test_quiver_json_deterministic(capsys):
    _, out1 = run(capsys, "quiver", "--n", "3", "--json")
    _, out2 = run(capsys, "quiver", "--n", "3", "--json")
    assert out1 == out2


def test_quiver_text_lists_components(capsys):
    code, out = run(capsys, "quiver", "--n", "2")
    assert (code, out) == (0, (
        "n=2: 8 vertices, 4 arrows\n"
        "  euler +0: [] [1,0] [2,1]\n"
        "  euler +1: [0] [2] [2,1,0]\n"
        "  euler -1: [1]\n"
        "  euler +2: [2,0]\n"
    ))


def test_box_quiver_text_and_json(capsys):
    # the boxed quiver prints its size only: it has no component list
    assert run(capsys, "quiver", "--n", "2", "--box") == (0, "n=2: 64 vertices, 68 arrows\n")
    code, out = run(capsys, "quiver", "--n", "2", "--box", "--json")
    assert code == 0
    data = json.loads(out)
    assert (len(data["vertices"]), len(data["arrows"])) == (64, 68)


def test_algebra_hom(capsys):
    code, out = run(capsys, "algebra", "--n", "2", "--source", "[]",
                    "--target", "[1,0]", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 1 and data["qdeg"] == 1


def test_bimodule_text(capsys):
    # two pairs, (2, 3) and (0, 1): one slice per subset A of their indices
    code, out = run(capsys, "bimodule", "--n", "3", "--pair", "[2,0]", "[3,1]")
    assert code == 0
    assert out == (
        "slice 1: P([]){0}  A=[]\n"
        "slice 2: P([3,2]){-2}  A=[1]\n"
        "slice 2: P([1,0]){2}  A=[2]\n"
        "slice 3: P([3,2,1,0]){0}  A=[1, 2]\n"
        "k0 = -[] + q^2*[1,0] + q^-2*[3,2] - [3,2,1,0]\n"
    )


def test_bimodule_json(capsys):
    code, out = run(capsys, "bimodule", "--n", "2", "--pair", "[0]", "[1]", "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data["summands"]) == 2
    assert len(data["delta"]) == 1


def test_lift_and_complex_file(tmp_path, capsys):
    code, out = run(capsys, "lift", "--n", "2", "--word", "EF", "--json")
    assert code == 0
    data = json.loads(out)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(data))
    code, out = run(capsys, "complex", "--file", str(path))
    assert code == 0
    assert "valid" in out


def test_complex_file_names_rr_square(tmp_path, capsys):
    # an RR complex that keeps the contract but squares to nonzero: the left
    # factor moves, then the right.  The text, the JSON and the exit code
    # are pinned as they were when the RR square was counted by parity.
    n, b = 2, vx.from_seq((1, 0))
    q = ra.mono_qdeg_r(n, (0, b))
    S = cx.Summand
    c = cx.ProjComplex(
        cx.RRAlgebraOps(n), (S((0, 0), 0, 0), S((b, 0), q, 1), S((b, b), 2 * q, 2)),
        {(1, 0): frozenset({((0, b), (0, 0))}), (2, 1): frozenset({((b, b), (0, b))})},
    )
    path = tmp_path / "rr.json"
    path.write_text(json.dumps(cx.complex_to_json(c)))
    witness = "d(delta)+delta^2 nonzero at (2,0): r([]->[1,0])(x)r([]->[1,0])"
    assert run(capsys, "complex", "--file", str(path)) == (1, f"INVALID: {witness}\n")
    assert run(capsys, "complex", "--file", str(path), "--json") == (1, (
        '{\n "k0": null,\n "valid": false,\n'
        f' "witness": "{witness}"\n}}\n'
    ))


def test_lift_assoc(capsys):
    code, out = run(capsys, "lift", "--n", "2", "--word", "EFE",
                    "--assoc", "(.(..))", "--json")
    assert code == 0


def test_lift_one_token_word(capsys):
    # a one-token word is one letter, not one letter per character
    code, out = run(capsys, "lift", "--n", "2", "--word", "q-1")
    assert (code, out) == (0, "P([]){-1} at position 0\ndelta entries: 0\nk0 = q^-1*[]\n")


def test_verify_clifford(capsys):
    code, out = run(capsys, "verify", "--n", "3", "--suite", "clifford")
    assert code == 0
    assert "ok" in out


def test_verify_quiver_json(capsys):
    code, out = run(capsys, "verify", "--n", "2", "--suite", "quiver", "--json")
    assert code == 0
    (rep,) = json.loads(out)
    assert rep["failures"] == [] and rep["checks"] > 0


def test_verify_all_counts(capsys):
    # every suite passes with exactly these check counts; a count rises when
    # a check is added, and falls only when a check that cannot fail goes
    code, out = run(capsys, "verify", "--suite", "all", "--n", "3", "--json")
    assert code == 0
    reports = json.loads(out)
    assert all(r["failures"] == [] for r in reports)
    assert {r["suite"]: r["checks"] for r in reports} == {
        "quiver": 18, "algebra": 300, "box": 68585, "clifford": 1272,
        "kzero": 4126, "bimodule": 1392, "catun": 684,
    }


def test_broken_product_is_reported(monkeypatch):
    # a wrong vertex product for one pair shows in the clifford suite, with
    # the pair as witness, and in the kzero suite and the shared check alike,
    # with a failing triple as witness (the kzero sweep at n = 5 takes 4 s,
    # so it is shown at n = 2 only)
    real = kz.mult_mono
    bad = {(2, 0b001, 0b010), (5, 0b100100, 0b000011)}  # [0],[1] and [5,2],[1,0]

    def broken(n, x, y):
        out = real(n, x, y)
        if (n, x, y) in bad:
            out = kz.kclass_add(out, kz.kclass(0))
        return out

    monkeypatch.setattr(kz, "mult_mono", broken)
    assert "n=2: Clifford basis at [0],[1]" in cli.run_suite("clifford", 2).failures
    assert "n=5: Clifford basis at [5,2],[1,0]" in cli.run_suite("clifford", 5).failures
    witness = "n=2: associativity at [0],[1],[2]"
    assert witness in cli.run_suite("kzero", 2).failures
    assert witness in ck.associativity_failures(2)[0]


def test_suite_seconds_survive_a_clock_step(monkeypatch):
    # the wall clock may step back while a suite runs; its duration may not
    clock = iter(range(1000, 0, -1))
    monkeypatch.setattr(cli.time, "time", lambda: float(next(clock)))
    assert cli.run_suite("quiver", 1).seconds >= 0


def test_verify_caps_n(capsys):
    # bound capping keeps oversized n runnable; --bound-override lifts the cap
    code, out = run(capsys, "verify", "--n", "9", "--suite", "catun")
    assert code == 0
    assert "n=6" in out
    code, out = run(capsys, "verify", "--n", "9", "--suite", "quiver")
    assert code == 0
    assert "n=9" in out
    code, out = run(capsys, "verify", "--n", "7", "--suite", "algebra", "--bound-override")
    assert code == 0
    assert "n=7" in out


def test_verify_text_lists_failures(monkeypatch, capsys):
    # a failing sweep exits 1 and prints its first 10 failures, indented
    def sweep(n):
        return [f"n={n}: bad {i}" for i in range(12)], 12

    monkeypatch.setitem(cli.SUITES, "broken", (3, [sweep]))
    code, out = run(capsys, "verify", "--n", "2", "--suite", "broken")
    assert code == 1
    status, *listed = out.splitlines()
    assert status.startswith("broken     n=2  checks=12      FAIL (12)  [")
    assert listed == [f"    n=2: bad {i}" for i in range(10)]


def test_usage_errors(capsys):
    assert cli.main(["bogus"]) == 2
    assert cli.main(["multiply", "--n", "2", "--x", "[0]"]) == 2
    assert cli.main(["quiver", "--n", "0"]) == 2
    assert cli.main(["verify", "--n", "2", "--seed", "0"]) == 2
    # a lone --source or --target is refused, not ignored
    assert cli.main(["algebra", "--n", "2", "--source", "[]"]) == 2
    assert cli.main(["algebra", "--n", "2", "--target", "[1,0]"]) == 2
    assert capsys.readouterr().out == ""
    # parse errors of an association or a vertex: one stderr line each
    for argv, message in (
        (["lift", "--n", "2", "--word", "EF", "--assoc", ".."], "trailing characters"),
        (["lift", "--n", "2", "--word", "EF", "--assoc", "(..)."], "trailing characters"),
        (["lift", "--n", "2", "--word", "EFE", "--assoc", "(...)"], "unbalanced"),
        (["lift", "--n", "2", "--word", "EFE", "--assoc", ""], "unbalanced"),
        (["multiply", "--n", "3", "--x", "[1,1]", "--y", "[0]"], "repeated element 1"),
        (["algebra", "--n", "2", "--source", "[x]", "--target", "[]"], "bad vertex syntax"),
    ):
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, argv
        assert message in err, argv
    # an n above MAX_N is refused before any enumeration: one stderr line
    for n in (vx.MAX_N + 1, 40, 99999999999999999999):
        assert cli.main(["quiver", "--n", str(n)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: --n must be between 1 and {vx.MAX_N}\n"


def test_lift_assoc_unexpected_character(capsys):
    assert cli.main(["lift", "--n", "2", "--word", "EF", "--assoc", "(.x)"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: unexpected 'x' in association string\n")


def run_quiet(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# deeper than Python's recursion limit, also while hypothesis raises it
DEEP = 5000
DEEP_ASSOC = ["lift", "--n", "2", "--word", "EF", "--assoc", "(" * DEEP]
DEEP_WORD = ["lift", "--n", "1", "--word", "E" * DEEP]


def test_deep_input():
    # nesting and word length are not bounded by Python's recursion limit
    code, _, err = run_quiet(DEEP_ASSOC)
    assert code == 2 and err == "error: unbalanced association string\n"
    code, out, _ = run_quiet(DEEP_WORD)
    assert code == 0 and out == "delta entries: 0\nk0 = 0\n"
    right_nested = "(." * (DEEP - 1) + "." + ")" * (DEEP - 1)
    assert run_quiet(DEEP_WORD + ["--assoc", right_nested])[:2] == (0, out)


def test_deep_complex_file(tmp_path):
    # JSON nested past the decoder's recursion limit is a usage error
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run_quiet(["complex", "--file", str(path)])
    assert (code, out) == (2, "")
    assert err == f"error: {path}: JSON nested too deeply\n"


# argument text: mostly the characters the parsers know, sometimes any
_TEXT = st.text(st.sampled_from("EFq1-().[], 0123") | st.characters(), max_size=8)


def _opt(name, text):
    # the --name=value form keeps a value that starts with '-' a value
    return [] if text is None else [f"--{name}={text}"]


_ARGV = st.builds(
    lambda cmd, n, a, b: {
        "lift": ["lift", "--n", n] + _opt("word", a) + _opt("assoc", b),
        "multiply": ["multiply", "--n", n] + _opt("x", a) + _opt("y", b),
        "bimodule": ["bimodule", "--n", n, "--pair", a or "", b or ""],
        "algebra": ["algebra", "--n", n] + _opt("source", a) + _opt("target", b),
    }[cmd],
    st.sampled_from(["lift", "multiply", "bimodule", "algebra"]),
    st.sampled_from(["1", "2", "3"]),
    st.none() | _TEXT,
    st.none() | _TEXT,
)


@settings(max_examples=250, deadline=None)
@given(_ARGV)
@example(DEEP_ASSOC)
@example(DEEP_WORD)
@example(["multiply", "--n", "1", "--x=--", "--y=[0]"])  # argparse gives x = []
def test_fuzzed_arguments_exit_cleanly(argv):
    # any argument text ends in exit 0, 1 or 2, never in an exception; a
    # usage error prints exactly one line on stderr
    code, _, err = run_quiet(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.count("\n") == 1 and err.endswith("\n"), err


# SHA-256 of every file export-all --n 2 writes; fixes the export bytes,
# the boxed quiver's arrow order among them
EXPORT_DIGESTS_N2 = {
    "box_quiver_n2.json": "5528364e5e58f04238e798ca0075b68a5f73b42a65fe608790937ddf7b64d457",
    "lift_EF_n2.json": "5af433030c19f604773b9f63063b8e9c32dab5d0305963fc066181cd56b077fa",
    "lift_E_n2.json": "6692235e1dc7daba2dcea71af5cefcc1c4207d7385a61b5a4ce0898c06fd7d52",
    "lift_FE_n2.json": "9bf4d3f55ae4715d1e614f8a8784dccba02568cc31f777b00b8c278a284d6b32",
    "lift_F_n2.json": "1b23661640b954dbcf08e834a74129f4bf0293873ac296be441c4c5a28779f2c",
    "multiplication_n2.json": "5e8158fcf576eb1e7394291e2d6bb017110eec23d7bac50ec1d6feb171fd085b",
    "quiver_n2.json": "cf09a824b2f648033f8b9c9d13c82a6720f1ec55016a0f9376f9f6abd5f020ee",
    "t_complexes_n2.json": "b204204bfe54b6504d20a4a32f74dbd85852ebef1c8bf934705067c3e75eff97",
}


def test_export_all(tmp_path, capsys):
    code, _ = run(capsys, "export-all", "--n", "2", "--out", str(tmp_path))
    assert code == 0
    names = {p.name for p in tmp_path.iterdir()}
    assert "quiver_n2.json" in names
    assert "multiplication_n2.json" in names
    assert "t_complexes_n2.json" in names
    data = json.loads((tmp_path / "multiplication_n2.json").read_text())
    assert len(data["table"]) == 64
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert digests == EXPORT_DIGESTS_N2


def test_export_all_n4_skips_box_files(tmp_path, capsys):
    # above n = 3 the boxed quiver and the T(x, y) complexes are not written
    code, out = run(capsys, "export-all", "--n", "4", "--out", str(tmp_path))
    assert code == 0
    names = {"quiver_n4.json", "multiplication_n4.json"}
    names |= {f"lift_{word}_n4.json" for word in ("E", "F", "EF", "FE")}
    assert {p.name for p in tmp_path.iterdir()} == names
    assert len(out.splitlines()) == len(names)
