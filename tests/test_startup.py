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


def test_import_of_the_library_does_not_load_io():
    # documents are the command line's concern: the library sits below io
    src = str(Path(cechfib.__file__).resolve().parent.parent)
    probe = ("import json, sys; sys.path.insert(0, sys.argv[1]); import cechfib; "
             "print(json.dumps(sorted(m for m in sys.modules if m.startswith('cechfib'))))")
    proc = subprocess.run([sys.executable, "-S", "-c", probe, src],
                          stdout=subprocess.PIPE, text=True, check=True)
    loaded = json.loads(proc.stdout)
    assert "cechfib.groups" in loaded
    assert "cechfib.io" not in loaded and "cechfib.cli" not in loaded, loaded
