"""The package source only gets smaller."""

from pathlib import Path

import morphfin

# Lines in src/morphfin/*.py when the ceiling was last set. Lower it whenever
# a change removes lines; never raise it: a change that must add lines
# removes as many elsewhere.
LINE_CEILING = 2364


def _lines():
    package = Path(morphfin.__file__).resolve().parent
    return sum(path.read_bytes().count(b"\n") for path in package.glob("*.py"))


def test_source_stays_under_the_line_ceiling():
    assert _lines() <= LINE_CEILING


def test_the_ceiling_is_lowered_to_the_count():
    lines = _lines()
    assert LINE_CEILING <= lines, f"src/morphfin/*.py has {lines} lines: set LINE_CEILING to it"
