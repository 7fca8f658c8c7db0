"""Telemetry CSV format: one row per sampled instant, strict fixed header."""

from __future__ import annotations

import math
import operator
import os
import sys
from dataclasses import dataclass
from functools import cache
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Iterable, TextIO

from .errors import TelemetryFormatError

HEADER = (
    "time_s,x_m,y_m,depth_m,yaw_deg,yaw_rate_dps,surge_mps,sway_mps,"
    "servo_deg,torque_nm,power_w,erection,syringe_ml"
)

_COLUMNS = tuple(HEADER.split(","))
_WIDTH = len(_COLUMNS)

# 9 significant digits per field: '%.9g' % v is format(v, '.9g') for every
# float, so one %-format of all the columns writes the same bytes
_ROW_FORMAT = ",".join(["%.9g"] * _WIDTH)
_row_values = operator.attrgetter(*_COLUMNS)

# Characters (or bytes) per read and records per formatted block: the reader
# holds one block of text, the writer one plus the file's encoded bytes.
_READ_BLOCK = 1 << 16
_WRITE_BLOCK = 1024


@dataclass
class TelemetryRecord:
    """One sampled instant; fields in CSV column order.

    A plain dataclass: a frozen one costs about 8x as much to build, and
    `read_telemetry` and `simulate` build one per row. Treat records as
    values all the same.
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

    def row(self) -> str:
        """One CSV row (no newline), 9 significant digits per field."""
        return _ROW_FORMAT % _row_values(self)


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


def write_telemetry(records: Iterable[TelemetryRecord], destination) -> int:
    """Write records as CSV; returns the byte count written.

    A record that fails the checks creates no file: all are checked before the
    file opens. Raises OSError (I/O error with path) on an unwritable destination.
    """
    _pin_mmap_threshold()
    line = _ROW_FORMAT + "\n"
    blocks = [(HEADER + "\n").encode("ascii")]
    records = iter(records)
    start, prev = 0, -math.inf
    while block := list(islice(records, _WRITE_BLOCK)):
        text = "".join([line % _row_values(r) for r in block])
        times = [r.time_s for r in block]
        # '%.9g' writes an "n" only in inf and nan
        if "n" in text or not all(map(operator.lt, chain((prev,), times), times)):
            _validate(map(_row_values, block), start, prev)
        blocks.append(text.encode("ascii"))
        start, prev = start + len(block), times[-1]
    if not start:
        raise TelemetryFormatError("no records to write")
    with open(destination, "wb") as out:
        out.writelines(blocks)
    return sum(map(len, blocks))


def stream_records(records: Iterable[TelemetryRecord], out: TextIO) -> None:
    """Newline-delimited rows (same column order, no header) for live piping."""
    for record in records:
        out.write(record.row() + "\n")


def _validate(rows: Iterable[tuple[float, ...]], start: int, prev: float) -> None:
    """Every value finite and time strictly increasing from `prev` on, per row
    of column values; `start` is the index of the first row's record.
    """
    for i, values in enumerate(rows, start):
        if not all(map(math.isfinite, values)):
            name = next(n for n, v in zip(_COLUMNS, values) if not math.isfinite(v))
            raise TelemetryFormatError(f"non-finite {name} in record {i}")
        if not values[0] > prev:
            raise TelemetryFormatError(f"time not strictly increasing at record {i}")
        prev = values[0]


def read_telemetry(source) -> list[TelemetryRecord]:
    """Parse a telemetry CSV, enforcing the exact header and monotone time.

    A path or a binary stream is read as ASCII, the only bytes `write_telemetry`
    writes; any other byte is a TelemetryFormatError naming its line, raised
    ahead of every other error in the file. A text stream is parsed as it reads.
    """
    _pin_mmap_threshold()
    if isinstance(source, (str, Path)):
        with open(source, "rb") as stream:
            return _read(stream)
    return _read(source)


def _read(stream) -> list[TelemetryRecord]:
    blocks = _line_blocks(stream)
    records: list[TelemetryRecord] = []
    prev, header = -math.inf, False
    try:
        for lineno, lines in blocks:
            if not header and lines:
                if lines[0] != HEADER:
                    raise TelemetryFormatError(
                        f"header mismatch: expected {HEADER!r}, got {lines[0]!r}", line=1
                    )
                header, lineno, lines = True, 2, lines[1:]
            prev = _parse_block(lines, lineno, prev, records)
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
    """(first line number, lines) per block read; a block ends after its last
    complete line break, so the lines are those `str.splitlines` gives the text.
    """
    carry, lineno = "", 1
    while chunk := stream.read(_READ_BLOCK):
        if isinstance(chunk, bytes):
            try:
                chunk = chunk.decode("ascii")
            except UnicodeDecodeError as exc:
                # the bytes before the bad one are ASCII; count lines as splitlines does
                head = carry + chunk[: exc.start].decode("ascii") + "x"
                raise TelemetryFormatError(
                    f"non-ASCII byte 0x{chunk[exc.start]:02x}",
                    line=lineno - 1 + len(head.splitlines()),
                ) from exc
        text = carry + chunk
        # a "\r" that ends the text may be the first half of a "\r\n"
        cut = 1 + max(text.rfind("\n"), text.rfind("\r", 0, -1))
        lines, carry = text[:cut].splitlines(), text[cut:]
        yield lineno, lines
        lineno += len(lines)
    yield lineno, carry.splitlines()


def _parse_block(lines: list[str], lineno: int, prev: float, records: list) -> float:
    """Append the records of lines, numbered from lineno; returns the last time.

    A block of 13-field rows of finite, increasing values is checked and built
    by whole-block operations; any other is walked line by line.
    """
    if set(map(str.count, lines, repeat(","))) == {_WIDTH - 1}:
        try:
            values = list(map(float, ",".join(lines).split(",")))
        except ValueError:
            return _parse_lines(lines, lineno, prev, records)
        times = values[0::_WIDTH]
        increasing = all(map(operator.lt, chain((prev,), times), times))
        if increasing and all(map(math.isfinite, values)):
            records.extend(map(TelemetryRecord, *[values[i::_WIDTH] for i in range(_WIDTH)]))
            return times[-1]
    return _parse_lines(lines, lineno, prev, records)


def _parse_lines(lines: list[str], lineno: int, prev: float, records: list) -> float:
    """The per-line parse: appends each row's record, raises the first error."""
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
        records.append(TelemetryRecord(*values))
    return prev
