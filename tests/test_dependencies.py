"""The package runs on the standard library alone."""

import os
import subprocess
import sys
from pathlib import Path

import morphfin

_IMPORT_ALL = """
import importlib, pkgutil, sys
import morphfin
names = [m.name for m in pkgutil.iter_modules(morphfin.__path__, "morphfin.")]
for name in names:
    importlib.import_module(name)
print(len(names))
print(sorted(m for m in sys.modules if m == "numpy" or m.startswith("numpy.")))
"""


def test_no_module_imports_numpy():
    # a fresh interpreter, so that numpy imported by other tests does not count
    src = str(Path(morphfin.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_ALL],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    count, loaded = done.stdout.splitlines()
    assert int(count) >= 10
    assert loaded == "[]"
