import json
import random

from cliffcat import checks as ck
from cliffcat import cli
from cliffcat import kzero as kz


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


def test_quiver_json_vertex_count(capsys):
    code, out = run(capsys, "quiver", "--n", "2", "--json")
    assert code == 0
    assert len(json.loads(out)["vertices"]) == 8


def test_quiver_json_deterministic(capsys):
    _, out1 = run(capsys, "quiver", "--n", "3", "--json")
    _, out2 = run(capsys, "quiver", "--n", "3", "--json")
    assert out1 == out2


def test_algebra_hom(capsys):
    code, out = run(capsys, "algebra", "--n", "2", "--source", "[]",
                    "--target", "[1,0]", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 1 and data["qdeg"] == 1


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


def test_lift_assoc(capsys):
    code, out = run(capsys, "lift", "--n", "2", "--word", "EFE",
                    "--assoc", "(.(..))", "--json")
    assert code == 0


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
    # every suite passes with exactly these check counts; a count may only
    # rise, when a check is added
    code, out = run(capsys, "verify", "--suite", "all", "--n", "3", "--json")
    assert code == 0
    reports = json.loads(out)
    assert all(r["failures"] == [] for r in reports)
    assert {r["suite"]: r["checks"] for r in reports} == {
        "quiver": 18, "algebra": 300, "box": 68585, "clifford": 1010,
        "kzero": 4126, "bimodule": 2212, "catun": 156,
    }


def test_broken_product_is_reported(monkeypatch):
    # a wrong vertex product for one pair shows in the CLI suite and in the
    # shared check alike, each with the failing triple as witness
    real = kz.mult_mono

    def broken(n, x, y):
        out = real(n, x, y)
        if (n, x, y) == (2, 0b001, 0b010):
            out = kz.kclass_add(out, kz.kclass(0))
        return out

    monkeypatch.setattr(kz, "mult_mono", broken)
    witness = "n=2: associativity at [0],[1],[2]"
    assert witness in cli.run_suite("kzero", 2, 0).failures
    failures, _ = ck.associativity_failures(2, ck.assoc_triples(2, random.Random(0)))
    assert witness in failures


def test_verify_caps_n(capsys):
    # bound capping keeps oversized n runnable
    code, out = run(capsys, "verify", "--n", "9", "--suite", "catun")
    assert code == 0
    assert "n=5" in out


def test_usage_errors(capsys):
    assert cli.main(["bogus"]) == 2
    assert cli.main(["multiply", "--n", "2", "--x", "[0]"]) == 2
    assert cli.main(["quiver", "--n", "0"]) == 2


def test_export_all(tmp_path, capsys):
    code, _ = run(capsys, "export-all", "--n", "2", "--out", str(tmp_path))
    assert code == 0
    names = {p.name for p in tmp_path.iterdir()}
    assert "quiver_n2.json" in names
    assert "multiplication_n2.json" in names
    assert "t_complexes_n2.json" in names
    data = json.loads((tmp_path / "multiplication_n2.json").read_text())
    assert len(data["table"]) == 64
