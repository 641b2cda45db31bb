"""Source-level rules for the cliffcat package."""

import ast
import pathlib

import cliffcat

PACKAGE = pathlib.Path(cliffcat.__file__).parent


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
