"""Telemetry CSV format: one row per sampled instant, strict fixed header."""

from __future__ import annotations

import math
import operator
import os
import sys
from array import array
from contextlib import suppress
from dataclasses import dataclass, field
from functools import cache
from itertools import chain, islice, repeat, starmap
from typing import Iterable, Iterator

from .errors import TelemetryFormatError

HEADER = (
    "time_s,x_m,y_m,depth_m,yaw_deg,yaw_rate_dps,surge_mps,sway_mps,"
    "servo_deg,torque_nm,power_w,erection,syringe_ml"
)

_COLUMNS = tuple(HEADER.split(","))
_WIDTH = len(_COLUMNS)

# 9 significant digits per field: '%.9g' % v is format(v, '.9g') for every
# float, so one %-format of a block's values writes the same bytes
_LINE = ",".join(["%.9g"] * _WIDTH) + "\n"
_row_values = operator.attrgetter(*_COLUMNS)

# Bytes per read and records per formatted block: the reader holds one block
# of text, the writer one plus the file's encoded bytes.
_READ_BLOCK = 1 << 16
_WRITE_BLOCK = 1024


@dataclass
class TelemetryRecord:
    """One sampled instant; fields in CSV column order.

    A plain dataclass, built on demand from a `Telemetry`: a frozen one costs
    about 8x as much to build. Treat records as values all the same.
    """

    time_s: float
    x_m: float
    y_m: float
    depth_m: float
    yaw_deg: float
    yaw_rate_dps: float
    surge_mps: float
    sway_mps: float
    servo_deg: float
    torque_nm: float
    power_w: float
    erection: float
    syringe_ml: float


@dataclass
class Telemetry:
    """A run's records: one flat array of doubles, row after row in CSV column order."""

    values: array = field(default_factory=lambda: array("d"))

    def __len__(self) -> int:
        return len(self.values) // _WIDTH

    def __getitem__(self, index: int) -> TelemetryRecord:
        start = range(0, len(self.values), _WIDTH)[index]  # negative indices as a list's
        return TelemetryRecord(*self.values[start : start + _WIDTH])

    def __iter__(self) -> Iterator[TelemetryRecord]:
        return starmap(TelemetryRecord, zip(*[iter(self.values)] * _WIDTH))

    def column(self, name: str) -> array:
        """The named column, one value per record, without building a record."""
        return self.values[_COLUMNS.index(name) :: _WIDTH]


@cache
def _pin_mmap_threshold() -> None:
    """Hold glibc's mmap threshold at its 128 KiB default, once per process.

    glibc raises the threshold to the size of each mapped buffer freed and
    then serves smaller ones from the brk heap, whose freed pages stay
    resident. Whether the next multi-MB I/O buffer fits in such a hole then
    depends on heap layout, and resident memory varies from run to run.
    An explicit MALLOC_MMAP_THRESHOLD_ in the environment wins.
    """
    if sys.platform == "linux" and "MALLOC_MMAP_THRESHOLD_" not in os.environ:
        import ctypes

        getattr(ctypes.CDLL(None), "mallopt", lambda *_: 0)(-3, 128 * 1024)  # M_MMAP_THRESHOLD


def encode_telemetry(records: Iterable[TelemetryRecord]) -> list[bytes]:
    """The records' CSV file, header first, as blocks of ASCII bytes.

    A record that fails the checks, or no record at all, raises TelemetryFormatError.
    """
    _pin_mmap_threshold()
    blocks = [(HEADER + "\n").encode("ascii"), *map(str.encode, csv_rows(records))]
    if len(blocks) == 1:
        raise TelemetryFormatError("no records to write")
    return blocks


def write_telemetry(records: Iterable[TelemetryRecord], destination) -> int:
    """Write records as CSV; returns the byte count written.

    A record that fails the checks creates no file: all are checked before the
    file opens. Raises OSError (I/O error with path) on an unwritable destination.
    """
    blocks = encode_telemetry(records)
    with open(destination, "wb") as out:
        out.writelines(blocks)
    return sum(map(len, blocks))


def csv_rows(records: Iterable[TelemetryRecord]) -> Iterator[str]:
    """The records' CSV rows without the header, checked and formatted a block at a time."""
    rows = map(_row_values, records)
    start, prev = 0, -math.inf
    while block := list(chain.from_iterable(islice(rows, _WRITE_BLOCK))):
        n = len(block) // _WIDTH
        text = (_LINE * n) % tuple(block)
        times = block[::_WIDTH]
        # '%.9g' writes an "n" only in inf and nan; a block that fails either
        # check holds a bad record, and the first one is named
        if "n" in text or not all(map(operator.lt, chain((prev,), times), times)):
            for i, values in enumerate(zip(*[iter(block)] * _WIDTH), start):
                if not all(map(math.isfinite, values)):
                    name = next(c for c, v in zip(_COLUMNS, values) if not math.isfinite(v))
                    raise TelemetryFormatError(f"non-finite {name} in record {i}")
                if not values[0] > prev:
                    raise TelemetryFormatError(f"time not strictly increasing at record {i}")
                prev = values[0]
        yield text
        start, prev = start + n, times[-1]


def read_telemetry(path) -> Telemetry:
    """Parse a telemetry CSV, enforcing the exact header and monotone time.

    The file is read as ASCII, the only bytes `encode_telemetry` gives; any
    other byte is a TelemetryFormatError naming its line, raised ahead of every
    other error in the file.
    """
    _pin_mmap_threshold()
    with open(path, "rb") as stream:
        blocks = _line_blocks(stream)
        records = Telemetry()
        prev, header = -math.inf, False
        try:
            for lineno, lines in blocks:
                if not header and lines:
                    if lines[0] != HEADER:
                        raise TelemetryFormatError(
                            f"header mismatch: expected {HEADER!r}, got {lines[0]!r}", line=1
                        )
                    header, lineno, lines = True, 2, lines[1:]
                prev = _parse_block(lines, lineno, prev, records.values)
        except TelemetryFormatError:
            for _ in blocks:  # a non-ASCII byte later in the file is raised instead
                pass
            raise
    if not header:
        raise TelemetryFormatError("empty file: header row required", line=1)
    if not records:
        raise TelemetryFormatError("file has a header but no records", line=2)
    return records


def _line_blocks(stream):
    """(first line number, lines) per block of a binary stream; a block ends after
    its last complete line break, so the lines are those `str.splitlines` gives.
    """
    carry, lineno = "", 1
    while chunk := stream.read(_READ_BLOCK):
        try:
            text = carry + chunk.decode("ascii")
        except UnicodeDecodeError as exc:
            # the bytes before the bad one are ASCII; count lines as splitlines does
            head = carry + chunk[: exc.start].decode("ascii") + "x"
            raise TelemetryFormatError(
                f"non-ASCII byte 0x{chunk[exc.start]:02x}",
                line=lineno - 1 + len(head.splitlines()),
            ) from exc
        # a "\r" that ends the text may be the first half of a "\r\n"
        cut = 1 + max(text.rfind("\n"), text.rfind("\r", 0, -1))
        lines, carry = text[:cut].splitlines(), text[cut:]
        yield lineno, lines
        lineno += len(lines)
    yield lineno, carry.splitlines()


def _parse_block(lines: list[str], lineno: int, prev: float, out: array) -> float:
    """Append the values of lines, numbered from lineno, to out; returns the last time.

    A block of 13-field rows of finite, increasing values is checked and parsed
    by whole-block operations; any other is walked line by line to its first error.
    """
    if set(map(str.count, lines, repeat(","))) == {_WIDTH - 1}:
        with suppress(ValueError):  # a field float() rejects
            values = list(map(float, ",".join(lines).split(",")))
            times = values[0::_WIDTH]
            increasing = all(map(operator.lt, chain((prev,), times), times))
            if increasing and all(map(math.isfinite, values)):
                out.extend(values)
                return times[-1]
    for lineno, line in enumerate(lines, start=lineno):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != _WIDTH:
            raise TelemetryFormatError(f"expected {_WIDTH} columns, got {len(parts)}", line=lineno)
        try:
            values = list(map(float, parts))
        except ValueError as exc:
            raise TelemetryFormatError(str(exc), line=lineno) from exc
        if not all(map(math.isfinite, values)):
            raise TelemetryFormatError("non-finite value", line=lineno)
        if not values[0] > prev:
            raise TelemetryFormatError("time not strictly increasing", line=lineno)
        prev = values[0]
        out.extend(values)
    return prev
