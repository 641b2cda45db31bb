"""Set-up probe: import the named cliffcat modules, then print "ready".

run.py starts this script as a fresh process and times it from launch to
the "ready" line, which is a cliffcat process's cost before its first op.
"""

import importlib
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))
for name in sys.argv[1:]:
    importlib.import_module(name)
print("ready", flush=True)
