"""The package source only gets smaller."""

from pathlib import Path

import morphfin

# Lines in src/morphfin/*.py when the ceiling was last set. Lower it whenever
# a change removes lines; never raise it: a change that must add lines
# removes as many elsewhere.
LINE_CEILING = 2412


def test_source_stays_under_the_line_ceiling():
    package = Path(morphfin.__file__).resolve().parent
    lines = sum(path.read_bytes().count(b"\n") for path in package.glob("*.py"))
    assert lines <= LINE_CEILING
