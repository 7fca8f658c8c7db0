"""The package and its CLI run on the standard library alone.

Each check runs a fresh `python -S`: no site-packages, so a third-party import
fails there whatever the test environment has installed.
"""

import os
import subprocess
import sys
from pathlib import Path

import morphfin

_SRC = str(Path(morphfin.__file__).resolve().parent.parent)

_IMPORT_ALL = """
import importlib, pkgutil, sys
import morphfin
names = [m.name for m in pkgutil.iter_modules(morphfin.__path__, "morphfin.")]
for name in names:
    importlib.import_module(name)
print(len(names))
print(sorted({m.partition(".")[0] for m in sys.modules} - sys.stdlib_module_names))
"""


def _python(*args, cwd=None):
    """`python -S` with the source tree alone on its path; exits 0 with no traceback."""
    done = subprocess.run(
        [sys.executable, "-S", *args],
        env={**os.environ, "PYTHONPATH": _SRC},
        cwd=cwd,
        capture_output=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert b"Traceback" not in done.stderr
    return done.stdout


def test_every_module_imports_only_the_standard_library():
    count, loaded = _python("-c", _IMPORT_ALL).decode().splitlines()
    assert int(count) >= 10
    assert loaded == "['__main__', 'morphfin']"


def test_cli_runs_streams_and_replays_on_the_standard_library_alone(tmp_path):
    config = tmp_path / "config.json"
    config.write_text('{"sim": {"dt": 0.005, "duration": 12.0}}')
    cli = ["-m", "morphfin.cli", "--config", str(config)]
    _python(*cli, "--out", "out", "run", cwd=tmp_path)
    streamed = _python(*cli, "run", "--stream", cwd=tmp_path)
    _python(*cli, "--out", "out", "replay", "out/run.csv", cwd=tmp_path)
    header, rows = (tmp_path / "out" / "run.csv").read_bytes().split(b"\n", 1)
    assert streamed == rows
    assert (tmp_path / "out" / "replay_metrics.json").exists()
