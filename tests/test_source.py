"""Source-level rules for the cliffcat package."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

import cliffcat

PACKAGE = pathlib.Path(cliffcat.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parents[1]

# Installs perfbench's tracer and reports the traced names it could not
# resolve and the span metrics that got no wrapper in any cliffcat module or
# class (a method inherited from a base class the tracer does not name is
# one way to lose a wrapper).
_TRACED_NAMES = """
import json, sys, tracing
tracer = tracing.Tracer()
tracer.install()
wrapped = set()
for name, mod in sys.modules.items():
    if name.split(".")[0] == tracing.PACKAGE:
        classes = [v for v in vars(mod).values() if isinstance(v, type)]
        for space in [mod] + classes:
            wrapped |= {getattr(v, tracing.MARKER) for v in vars(space).values()
                        if hasattr(v, tracing.MARKER)}
print(json.dumps({"missing": tracer.missing,
                  "unwrapped": sorted(set(tracing.SPANS) - wrapped)}))
"""

# Installs perfbench's tracer, lifts a fixed word set at n = 4 (the lift-n4
# workload's n) with the tracer active, and reports the traced names that got
# calls, the names run.CALLED["lift-n4"] predicts, and the harness's own
# bypass problems.  FEEF's tree splits it into FE and EF, both with a
# differential, so its last step is two-sided and takes a correction.  With
# the argument "early", the three algebra adapters at n = 4 are made before
# the tracer is installed, as a process that lifted before tracing has them.
_LIFT_BYPASS = """
import json, run, sys, tracing
from cliffcat import catun as cu, complexes as cx
if sys.argv[1:] == ["early"]:
    for tag in ("R", "RR", "Box"):
        cx.algebra(tag, 4)
tracer = tracing.Tracer()
tracer.install()
real, corrections = cx._correction, []
cx._correction = lambda *a: corrections.append(a) or real(*a)
tracer.start_op(0)
for word, tree in [("EF", None), ("FEF", None), ("FEEF", ((0, 1), (2, 3)))]:
    cu.lift_word(4, cu.Word(tuple(word), tree))
tracer.stop_op()
print(json.dumps({
    "corrections": len(corrections),
    "called": sorted(name for name, stats in tracer.stats.items() if stats[0]),
    "predicted": sorted(run.CALLED["lift-n4"]),
    "problems": run.bypass_problems("lift-n4", tracer.metrics()),
}))
"""

# Installs perfbench's tracer, runs one round (200 ops) of an assoc workload
# with the tracer active, and reports the traced names that got calls, the
# names run.CALLED predicts, and the harness's own bypass problems.
_ASSOC_BYPASS = """
import json, sys, run, tracing, workloads
workload = sys.argv[1]
tracer = tracing.Tracer()
tracer.install()
wl = workloads.WORKLOADS[workload][1](1)
for i in range(200):
    inp = wl.next_input()
    tracer.start_op(i)
    wl.op(inp)
    tracer.stop_op()
print(json.dumps({
    "called": sorted(name for name, stats in tracer.stats.items() if stats[0]),
    "predicted": sorted(run.CALLED[workload]),
    "problems": run.bypass_problems(workload, tracer.metrics()),
}))
"""

# Runs each benchmark workload for a fixed number of ops at seed 1 and
# reports its failed-op count and output digest.
_WORKLOAD_DIGESTS = """
import json, run, workloads
out = {}
for name, n_ops in [("assoc-n5", 200), ("assoc-n10", 200), ("lift-n4", 336), ("box-sweep-n3", 2)]:
    result = run.run_ops(workloads.WORKLOADS[name][1](1), n_ops=n_ops)
    out[name] = [result["failed"], result["digest"]]
print(json.dumps(out))
"""


def test_no_bare_assert_in_package():
    # python -O strips assert statements, so no invariant may rest on one;
    # guards raise AssertionError (or another exception) explicitly
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.relative_to(PACKAGE)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, found


def test_only_cli_imports_checks():
    # the sweeps in cliffcat.checks sit above the library: the command line
    # tool runs them, and no library module may depend on them
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name in ("checks.py", "cli.py"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any(name.split(".")[-1] == "checks" for name in names):
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert not found, found


def test_runtime_imports_only_stdlib():
    # the runtime has no dependencies: every absolute import is __future__,
    # a cliffcat module or a module of the standard library
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in ("__future__", "cliffcat") and top not in sys.stdlib_module_names:
                    found.append(f"{path.relative_to(PACKAGE)}:{node.lineno} {name}")
    assert not found, found


def test_every_definition_has_a_caller():
    # "delete code that nothing calls": every module-level function and
    # class of the package is named somewhere in the package or its scripts
    # (as a name, an attribute or an import); tests do not count as callers
    used, defined = set(), []
    for path in sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "scripts").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.split(".")[-1])
        if path.is_relative_to(PACKAGE):
            defined += [
                (f"{path.relative_to(PACKAGE)}:{node.lineno}", node.name)
                for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            ]
    orphans = [f"{where} {name}" for where, name in defined if name not in used]
    assert not orphans, orphans


def test_traced_names_resolve():
    # the benchmark traces cliffcat functions by name; a rename or a moved
    # method must not leave a metric silently at zero.  install() rebinds
    # module attributes for the whole process, so it runs in a child.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", _TRACED_NAMES], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report == {"missing": [], "unwrapped": []}, report


@pytest.mark.parametrize("name", ["assoc-n5", "assoc-n10"])
def test_assoc_bypass_prediction_holds(name):
    # the vertex product calls exactly the traced names the assoc workloads
    # predict (higher_mult, specialize_h and the Laurent arithmetic among
    # them), so a kernel change that drops one fails here, not only under
    # the harness's --trace 1 run
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", _ASSOC_BYPASS, name], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["called"] == report["predicted"]
    assert report["problems"] == []


def test_lift_bypass_prediction_holds():
    # the traced names a word lift calls are exactly those the lift-n4
    # workload predicts, so a change that adds or drops a layer's calls
    # fails here, not only under the harness's --trace 1 run.  Adapters made
    # before the tracer must not hide their products or differentials from
    # it, so the adapters look up their kernels when called
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    for args in ([], ["early"]):
        proc = subprocess.run([sys.executable, "-c", _LIFT_BYPASS, *args], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, (args, proc.stderr)
        report = json.loads(proc.stdout)
        assert report["corrections"] > 0, args
        assert report["called"] == report["predicted"], args
        assert report["problems"] == [], args


def test_workload_outputs_pinned():
    # the benchmark's ops give the same outputs as when these digests were
    # taken (a whole lift-n4 round is 336 ops), so a change that claims
    # byte-identical output cannot drift unseen
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", _WORKLOAD_DIGESTS], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "assoc-n5": [0, "8ddf8df432f759853e04a710191327bccafd3eacb459244bd9e190a72428440f"],
        "assoc-n10": [0, "4a2c7d58dd0d282dd76a5d6ea223c1687786f1eb9525a9c60a9419c636f1c313"],
        "lift-n4": [0, "d9bbed0f0a335b3b50b502ead5f7d1ab71c87808fac1d4c5b4c4ca9dad040213"],
        "box-sweep-n3": [0, "501f0a730fd5bc384e39eb0777cd5f0762a6b2106bbb8237adaba9e98465f6a4"],
    }
