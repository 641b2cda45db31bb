"""The scripts under scripts/ still run against the package."""

import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

# the memos of the rho pipeline that the ladder reports: each algebra
# adapter's, then the module-level ones
MEMO_NAMES = [
    "R degrees", "RR degrees", "RR mult", "Box degrees", "Box mult", "Box diff",
    "lift_entry", "side_entry", "boundary_preimage", "act_element", "side_lift", "side_action",
    "cross_correction", "block", "t_pair",
]
# the memos that only a two-sided rho step fills
TWO_SIDED_MEMOS = ["RR mult", "Box mult", "Box diff", "boundary_preimage", "cross_correction"]


def test_lift_ladder_runs():
    # the ladder reads the algebra adapters' memos and private memos of
    # complexes, bimodule and catun by name, so a renamed memo breaks it; it
    # prints a header, five rows per n = 3..5 (four left folds, then one
    # two-sided tree) and one memo line after each n
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "lift_ladder.py")], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    header, *lines = proc.stdout.splitlines()
    assert header.split() == ["n", "word", "tree", "summands", "delta", "seconds"]
    memos = [line for line in lines if line.lstrip().startswith("memo entries:")]
    rows = [line for line in lines if line not in memos]
    assert len(rows) == 15 and len(memos) == 3
    words = [("EF" * k, "left") for k in (1, 2, 3, 4)] + [("EFFE", "((..)(..))")]
    assert [(int(row.split()[0]), *row.split()[1:3]) for row in rows] == [
        (n, *w) for n in (3, 4, 5) for w in words
    ]
    # every memo is named with its entry count, so a dropped one fails by
    # name, and the two-sided row fills the memos of the two-sided path
    for line in memos:
        for name in MEMO_NAMES:
            assert re.search(rf"(: |, ){name} \d+(,|$)", line), (name, line)
        for name in TWO_SIDED_MEMOS:
            assert not re.search(rf"(: |, ){name} 0(,|$)", line), (name, line)
