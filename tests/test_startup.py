"""Every CLI call imports cechfib in a fresh interpreter, so the modules
that import pulls in are a cost each call pays.  The check is on module
names, not times, so it is the same on every machine and Python version."""

import json
import subprocess
import sys
from pathlib import Path

import cechfib

PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import cechfib, cechfib.cli, cechfib.io
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_import_loads_neither_dataclasses_nor_inspect():
    src = str(Path(cechfib.__file__).resolve().parent.parent)
    # -S: no site hooks, so only what cechfib itself asks for is counted
    proc = subprocess.run([sys.executable, "-S", "-c", PROBE, src],
                          stdout=subprocess.PIPE, text=True, check=True)
    added = set(json.loads(proc.stdout))
    assert "cechfib.cli" in added
    assert not added & {"dataclasses", "inspect"}, sorted(added)
