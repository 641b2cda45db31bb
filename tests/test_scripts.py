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
    "lift_entry", "side_entry", "boundary_preimage", "act_element", "side_action", "t_pair",
]


def test_lift_ladder_runs():
    # the ladder reads the algebra adapters' memos and private memos of
    # complexes, bimodule and catun by name, so a renamed memo breaks it; it
    # prints a header, four rows per n = 3..5 and one memo line after each n
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "lift_ladder.py")], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    header, *lines = proc.stdout.splitlines()
    assert header.split() == ["n", "k", "summands", "delta", "seconds"]
    memos = [line for line in lines if line.lstrip().startswith("memo entries:")]
    rows = [line for line in lines if line not in memos]
    assert len(rows) == 12 and len(memos) == 3
    assert [tuple(map(int, row.split()[:2])) for row in rows] == [
        (n, k) for n in (3, 4, 5) for k in (1, 2, 3, 4)
    ]
    # every memo is named with its entry count, so a dropped one fails by name
    for line in memos:
        for name in MEMO_NAMES:
            assert re.search(rf"(: |, ){name} \d+(,|$)", line), (name, line)
