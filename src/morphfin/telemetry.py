"""Telemetry CSV format: one row per sampled instant, strict fixed header."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, TextIO

from .errors import TelemetryFormatError

HEADER = (
    "time_s,x_m,y_m,depth_m,yaw_deg,yaw_rate_dps,surge_mps,sway_mps,"
    "servo_deg,torque_nm,power_w,erection,syringe_ml"
)

_COLUMNS = tuple(HEADER.split(","))

# 9 significant digits per field: '%.9g' % v is format(v, '.9g') for every
# float, so one %-format of all the columns writes the same bytes
_ROW_FORMAT = ",".join(["%.9g"] * len(_COLUMNS))
_row_values = operator.attrgetter(*_COLUMNS)


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


def write_telemetry(records: Iterable[TelemetryRecord], destination) -> int:
    """Write records as CSV; returns the byte count written.

    Raises OSError (I/O error with path) on an unwritable destination.
    """
    rows = list(map(_row_values, records))
    if not rows:
        raise TelemetryFormatError("no records to write")
    _validate(rows)
    text = HEADER + "\n" + "\n".join([_ROW_FORMAT % values for values in rows]) + "\n"
    data = text.encode("ascii")
    Path(destination).write_bytes(data)
    return len(data)


def stream_records(records: Iterable[TelemetryRecord], out: TextIO) -> None:
    """Newline-delimited rows (same column order, no header) for live piping."""
    for record in records:
        out.write(record.row() + "\n")


def _validate(rows: list[tuple[float, ...]]) -> None:
    """Every value finite and time strictly increasing, per row of column values."""
    prev = -math.inf
    for i, values in enumerate(rows):
        if not all(map(math.isfinite, values)):
            name = next(n for n, v in zip(_COLUMNS, values) if not math.isfinite(v))
            raise TelemetryFormatError(f"non-finite {name} in record {i}")
        if not values[0] > prev:
            raise TelemetryFormatError(f"time not strictly increasing at record {i}")
        prev = values[0]


def read_telemetry(source) -> list[TelemetryRecord]:
    """Parse a telemetry CSV, enforcing the exact header and monotone time.

    A path or a binary stream is read as ASCII, the only bytes `write_telemetry`
    writes; any other byte is a TelemetryFormatError naming its line. A text
    stream is parsed as it reads.
    """
    data = Path(source).read_bytes() if isinstance(source, (str, Path)) else source.read()
    return _parse(_decode(data) if isinstance(data, bytes) else data)


def _decode(data: bytes) -> str:
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        # the bytes before the bad one are ASCII; count lines as _parse does
        line = len((data[: exc.start].decode("ascii") + "x").splitlines())
        raise TelemetryFormatError(
            f"non-ASCII byte 0x{data[exc.start]:02x}", line=line
        ) from exc


def _parse(text: str) -> list[TelemetryRecord]:
    lines = text.splitlines()
    if not lines:
        raise TelemetryFormatError("empty file: header row required", line=1)
    if lines[0] != HEADER:
        raise TelemetryFormatError(
            f"header mismatch: expected {HEADER!r}, got {lines[0]!r}", line=1
        )
    records: list[TelemetryRecord] = []
    prev_time = -math.inf
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(_COLUMNS):
            raise TelemetryFormatError(
                f"expected {len(_COLUMNS)} columns, got {len(parts)}", line=lineno
            )
        try:
            values = list(map(float, parts))
        except ValueError as exc:
            raise TelemetryFormatError(str(exc), line=lineno) from exc
        if not all(map(math.isfinite, values)):
            raise TelemetryFormatError("non-finite value", line=lineno)
        if not values[0] > prev_time:
            raise TelemetryFormatError("time not strictly increasing", line=lineno)
        prev_time = values[0]
        records.append(TelemetryRecord(*values))
    if not records:
        raise TelemetryFormatError("file has a header but no records", line=2)
    return records
