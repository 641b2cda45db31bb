"""Command-line entry point: object dumps, verification suites, JSON export.

Exit codes: 0 on success, 1 when a suite reports failures, 2 on usage errors.
All JSON output has stable key and list orderings so reruns are byte-identical,
except the timing field "seconds" of `verify --json`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field

from . import bimodule as bm
from . import catun as cu
from . import checks as ck
from . import complexes as cx
from . import kzero as kz
from . import quiver as qv
from . import ralgebra as ra
from . import vertices as vx

# each suite's default n cap, tuned so `verify --suite all` stays at desk
# scale, and its sweeps from cliffcat.checks
SUITES = {
    "quiver": (vx.MAX_N, [ck.quiver_failures]),
    "algebra": (6, [ck.oracle_failures]),
    "box": (4, [ck.box_dg_failures, ck.box_formality_failures]),
    "clifford": (6, [ck.clifford_failures, ck.uq_relation_failures]),
    "kzero": (5, [ck.local_lemma_failures, ck.single_letter_failures,
                  ck.associativity_failures]),
    "bimodule": (6, [ck.bimodule_failures, ck.t_pair_k0_failures]),
    "catun": (6, [ck.ee_shape_failures, ck.letter_failures, ck.word_lift_failures]),
}


@dataclass
class SuiteReport:
    suite: str
    n: int
    checks: int = 0
    failures: list = field(default_factory=list)
    seconds: float = 0.0

    @property
    def ok(self):
        return not self.failures


def run_suite(name, n, bound_override=False):
    """Run a suite's sweeps at n, capped unless bound_override, summing
    their (failures, checks)."""
    cap, sweeps = SUITES[name]
    rep = SuiteReport(name, n if bound_override else min(n, cap))
    t0 = time.perf_counter()
    for sweep in sweeps:
        failures, checks = sweep(rep.n)
        rep.failures += failures
        rep.checks += checks
    rep.seconds = round(time.perf_counter() - t0, 3)
    return rep


# ---------------------------------------------------------------------------
# object dumps


def _class_json(a):
    out = []
    for v in sorted(a, key=vx.seq):
        out.append({"vertex": vx.fmt(v), "coeff": a[v].to_json()})
    return out


def cmd_quiver(args):
    if args.box:
        data = qv.box_quiver_json(qv.build_gamma_box(args.n))
    else:
        data = qv.quiver_json(qv.build_gamma(args.n))
    if args.json:
        _emit(data)
    else:
        print(f"n={args.n}: {len(data['vertices'])} vertices, {len(data['arrows'])} arrows")
        if not args.box:
            for comp in data["components"]:
                print(f"  euler {comp['euler']:+d}: {' '.join(comp['vertices'])}")
    return 0


def cmd_algebra(args):
    n = args.n
    if (args.source is None) != (args.target is None):
        raise ValueError("--source and --target must be given together")
    if args.source is None:
        total = sum(
            1
            for x in vx.all_vertices(n)
            for w in vx.all_vertices(n)
            if ra.basis_mon_r(n, x, w)
        )
        data = {"n": n, "nonzero_hom_spaces": total, "vertices": 1 << (n + 1)}
        _emit(data) if args.json else print(
            f"n={n}: {total} nonzero Hom-spaces among {(1 << (n + 1)) ** 2}"
        )
        return 0
    x, w = vx.parse(args.source, n), vx.parse(args.target, n)
    mono = ra.basis_mon_r(n, x, w)
    data = {
        "n": n,
        "source": vx.fmt(x),
        "target": vx.fmt(w),
        "dim": 0 if mono is None else 1,
        "qdeg": None if mono is None else ra.mono_qdeg_r(n, mono),
    }
    _emit(data) if args.json else print(
        "0" if mono is None else f"{ra.fmt_mono_r(mono)}  qdeg={data['qdeg']}"
    )
    return 0


def cmd_multiply(args):
    n = args.n
    x, y = vx.parse(args.x, n), vx.parse(args.y, n)
    if args.keep_h:
        result = kz.higher_mult(n, x, y)
    else:
        result = kz.mult_mono(n, x, y)
    if args.json:
        _emit({"n": n, "x": vx.fmt(x), "y": vx.fmt(y), "keep_h": bool(args.keep_h),
               "result": _class_json(result)})
    else:
        print(kz.fmt_kclass(result))
    return 0


def cmd_bimodule(args):
    n = args.n
    x, y = vx.parse(args.pair[0], n), vx.parse(args.pair[1], n)
    tp = bm.t_pair(n, x, y)
    data = cx.complex_to_json(tp.complex)
    data["pair"] = [vx.fmt(x), vx.fmt(y)]
    data["k0"] = _class_json(cx.k0_class(tp.complex))
    if args.json:
        _emit(data)
    else:
        for A, i in tp.index.items():
            mon, e, k = tp.complex.summands[i]
            print(f"slice {k}: P({vx.fmt(mon)}){{{e}}}  A={sorted(vx.seq(A))}")
        print("k0 =", kz.fmt_kclass(cx.k0_class(tp.complex)))
    return 0


def cmd_complex(args):
    with open(args.file) as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError(f"{args.file}: JSON nested too deeply") from None
    c = cx.complex_from_json(data)
    ok, witness = cx.verify_mc(c)
    k0 = cx.k0_class(c) if c.ops.tag == "R" else None
    if args.json:
        _emit({"valid": ok, "witness": witness,
               "k0": None if k0 is None else _class_json(k0)})
    else:
        print("valid" if ok else f"INVALID: {witness}")
        if k0 is not None:
            print("k0 =", kz.fmt_kclass(k0))
    return 0 if ok else 1


def cmd_lift(args):
    n = args.n
    word = cu.parse_word(args.word, args.assoc)
    c = cu.lift_word(n, word)
    if args.json:
        data = cx.complex_to_json(c)
        data["word"] = list(word.letters)
        data["k0"] = _class_json(cx.k0_class(c))
        _emit(data)
    else:
        for s in sorted(c.summands, key=lambda s: (s.cohshift, vx.seq(s.vertex), s.qshift)):
            print(f"P({vx.fmt(s.vertex)}){{{s.qshift}}} at position {s.cohshift}")
        print("delta entries:", len(c.delta))
        print("k0 =", kz.fmt_kclass(cx.k0_class(c)))
    return 0


def cmd_verify(args):
    names = list(SUITES) if args.suite == "all" else [args.suite]
    reports = [run_suite(s, args.n, args.bound_override) for s in names]
    if args.json:
        _emit([asdict(r) for r in reports])
    else:
        for r in reports:
            status = "ok" if r.ok else f"FAIL ({len(r.failures)})"
            print(f"{r.suite:10s} n={r.n}  checks={r.checks:<7d} {status}  [{r.seconds}s]")
            for f in r.failures[:10]:
                print(f"    {f}")
    return 0 if all(r.ok for r in reports) else 1


def cmd_export_all(args):
    n = args.n
    os.makedirs(args.out, exist_ok=True)

    def dump(name, data):
        path = os.path.join(args.out, name)
        with open(path, "w") as fh:
            _emit(data, fh)
        print("wrote", path)

    dump(f"quiver_n{n}.json", qv.quiver_json(qv.build_gamma(n)))
    if n <= 3:
        dump(f"box_quiver_n{n}.json", qv.box_quiver_json(qv.build_gamma_box(n)))
    table = []
    for x in vx.all_vertices(n):
        for y in vx.all_vertices(n):
            table.append(
                {"x": vx.fmt(x), "y": vx.fmt(y),
                 "m": _class_json(kz.mult_mono(n, x, y)),
                 "M": [[vx.fmt(v), c.to_json()] for v, c in
                       sorted(kz.higher_mult(n, x, y).items(), key=lambda t: vx.seq(t[0]))]}
            )
    dump(f"multiplication_n{n}.json", {"n": n, "table": table})
    if n <= 3:
        complexes = []
        for x in vx.all_vertices(n):
            for y in vx.all_vertices(n):
                data = cx.complex_to_json(bm.t_pair(n, x, y).complex)
                data["pair"] = [vx.fmt(x), vx.fmt(y)]
                complexes.append(data)
        dump(f"t_complexes_n{n}.json", complexes)
    for word in ("E", "F", "EF", "FE"):
        c = cu.lift_word(n, cu.parse_word(word))
        data = cx.complex_to_json(c)
        data["word"] = list(word)
        dump(f"lift_{word}_n{n}.json", data)
    return 0


def _emit(data, fh=None):
    """Write data as stable JSON to fh (stdout by default)."""
    fh = fh or sys.stdout
    json.dump(data, fh, indent=1, sort_keys=True)
    fh.write("\n")


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line, like every other usage error
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser():
    ap = _Parser(prog="cliffcat")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("quiver", help="dump a quiver")
    common(p)
    p.add_argument("--box", action="store_true")
    p.set_defaults(func=cmd_quiver)

    p = sub.add_parser("algebra", help="Hom-space data of the base algebra")
    common(p)
    p.add_argument("--source")
    p.add_argument("--target")
    p.set_defaults(func=cmd_algebra)

    p = sub.add_parser("multiply", help="product of two vertex classes")
    common(p)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--keep-h", action="store_true", dest="keep_h")
    p.set_defaults(func=cmd_multiply)

    p = sub.add_parser("bimodule", help="the per-pair complex T(x,y)")
    common(p)
    p.add_argument("--pair", nargs=2, required=True, metavar=("X", "Y"))
    p.set_defaults(func=cmd_bimodule)

    p = sub.add_parser("complex", help="verify a complex JSON file")
    p.add_argument("--file", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_complex)

    p = sub.add_parser("lift", help="lift a word to a complex")
    common(p)
    p.add_argument("--word", required=True)
    p.add_argument("--assoc")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("verify", help="run a verification suite")
    common(p)
    p.add_argument("--suite", default="all", choices=["all"] + sorted(SUITES))
    p.add_argument("--bound-override", action="store_true", dest="bound_override")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export-all", help="write all JSON artifacts")
    common(p)
    p.add_argument("--out", default="export")
    p.set_defaults(func=cmd_export_all)

    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        if [] in vars(args).values():  # argparse reads --opt=-- as []
            ap.error("an option is missing its value")
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if not 1 <= getattr(args, "n", 1) <= vx.MAX_N:
        print(f"error: --n must be between 1 and {vx.MAX_N}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
