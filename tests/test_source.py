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
