import dataclasses
import math
import reprlib
import struct
from array import array
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphfin import telemetry
from morphfin.cli import _environment
from morphfin.config import RunConfig
from morphfin.control import GaitCommand
from morphfin.controllers import SwimController
from morphfin.errors import TelemetryFormatError
from morphfin.hydro import FishParams, simulate
from morphfin.telemetry import (
    _COLUMNS,
    HEADER,
    Telemetry,
    TelemetryRecord,
    csv_rows,
    read_telemetry,
    write_telemetry,
)


def record(time=0.5):
    return TelemetryRecord(
        time_s=time,
        x_m=1.25,
        y_m=-2.5,
        depth_m=0.3,
        yaw_deg=12.3456789,
        yaw_rate_dps=-4.5,
        surge_mps=0.225,
        sway_mps=0.0,
        servo_deg=12.5,
        torque_nm=0.0625,
        power_w=1.1,
        erection=1.0,
        syringe_ml=30.0,
    )


GOLDEN_ROW = "0.5,1.25,-2.5,0.3,12.3456789,-4.5,0.225,0,12.5,0.0625,1.1,1,30"


class TestWrite:
    def test_single_record_two_lines(self, tmp_path):
        path = tmp_path / "one.csv"
        count = write_telemetry([record()], path)
        text = path.read_text()
        assert count == len(text.encode())
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[0] == HEADER

    def test_golden_row(self):
        assert list(csv_rows([record()])) == [GOLDEN_ROW + "\n"]

    def test_round_trip(self, tmp_path):
        records = [record(0.01 * i) for i in range(1, 50)]
        path = tmp_path / "trip.csv"
        write_telemetry(records, path)
        back = read_telemetry(path)
        assert len(back) == len(records)
        for a, b in zip(records, back):
            assert b.time_s == pytest.approx(a.time_s, rel=1e-8)
            assert b.yaw_deg == pytest.approx(a.yaw_deg, rel=1e-8)

    def test_unwritable_destination(self, tmp_path):
        with pytest.raises(OSError):
            write_telemetry([record()], tmp_path / "no" / "such" / "dir.csv")

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(TelemetryFormatError):
            write_telemetry([], tmp_path / "empty.csv")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column", _COLUMNS)
    def test_non_finite_value_names_column_and_record(self, tmp_path, column, value):
        records = [record(0.5), dataclasses.replace(record(0.6), **{column: value})]
        path = tmp_path / "bad.csv"
        with pytest.raises(TelemetryFormatError, match=f"non-finite {column} in record 1$"):
            write_telemetry(records, path)
        assert not path.exists()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column", _COLUMNS)
    def test_first_non_finite_in_last_record_wins_over_a_time_tie(
        self, tmp_path, column, value
    ):
        records = [record(0.1 * i) for i in range(1, 5)]
        # the last record repeats the previous time and holds bad values from
        # `column` on: the first bad column is named
        bad = dict.fromkeys(_COLUMNS[_COLUMNS.index(column) :], value)
        records.append(dataclasses.replace(record(0.4), **bad))
        path = tmp_path / "bad.csv"
        with pytest.raises(TelemetryFormatError, match=f"non-finite {column} in record 4$"):
            write_telemetry(records, path)
        assert not path.exists()

    def test_time_tie_at_last_record(self, tmp_path):
        records = [record(0.1 * i) for i in range(1, 5)] + [record(0.4)]
        path = tmp_path / "tie.csv"
        with pytest.raises(
            TelemetryFormatError, match="time not strictly increasing at record 4$"
        ):
            write_telemetry(records, path)
        assert not path.exists()


def _oracle_row(r):
    """The per-field format() join that the block-wise %-format replaced."""
    return ",".join(format(getattr(r, c), ".9g") for c in _COLUMNS) + "\n"


# any finite double: subnormals, +-0.0 and the extremes included
_finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]),
)


class TestRowOracle:
    @given(st.lists(_finite, min_size=13, max_size=13))
    @settings(max_examples=500)
    def test_row_matches_per_field_format(self, values):
        r = TelemetryRecord(*values)
        assert list(csv_rows([r])) == [_oracle_row(r)]
        assert list(csv_rows(Telemetry(array("d", values)))) == [_oracle_row(r)]


def _packed(values):
    return struct.pack(f"<{len(values)}d", *values)


def _increasing_times(raw):
    """Strictly increasing times that stay strictly increasing at 9 significant digits."""
    times, last = [], None
    for t in sorted(set(raw)):
        rounded = float("%.9g" % t)
        if rounded != last:
            times.append(t)
            last = rounded
    return times


class TestRoundTrip:
    @given(st.lists(st.lists(_finite, min_size=13, max_size=13), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_read_returns_written_values_at_9_digits(self, tmp_path_factory, rows):
        times = _increasing_times(row[0] for row in rows)
        records = [TelemetryRecord(t, *row[1:]) for t, row in zip(times, rows)]
        path = tmp_path_factory.getbasetemp() / "trip.csv"
        write_telemetry(records, path)
        back = read_telemetry(path)
        assert len(back) == len(records)
        for written, read in zip(records, back):
            expected = [float("%.9g" % v) for v in dataclasses.astuple(written)]
            assert _packed(dataclasses.astuple(read)) == _packed(expected)


class TestRecordContract:
    """perfbench reads records through their instance __dict__, in column order,
    from iterating a Telemetry and from indexing it, negative indices included.
    """

    def assert_contract(self, r):
        assert list(vars(r)) == list(_COLUMNS)

    def test_fields_are_the_columns(self):
        assert [f.name for f in dataclasses.fields(TelemetryRecord)] == list(_COLUMNS)

    def test_built_by_keyword(self):
        self.assert_contract(record())

    def test_built_positionally(self):
        self.assert_contract(TelemetryRecord(*range(len(_COLUMNS))))

    def test_read_records(self, tmp_path):
        path = tmp_path / "golden.csv"
        path.write_text(HEADER + "\n" + GOLDEN_ROW + "\n")
        (rec,) = read_telemetry(path)
        self.assert_contract(rec)

    def test_simulated_records(self):
        gait = GaitCommand(frequency=1.0, amplitude=20.0)
        controller = SwimController(_environment(RunConfig()), gait)
        records = simulate(FishParams(), controller, 0.05, 0.001)
        for rec in records:
            self.assert_contract(rec)
        self.assert_contract(records[-1])
        assert records[-1] == records[len(records) - 1] == list(records)[-1]
        with pytest.raises(IndexError):
            records[len(records)]


def _bad_row(column, token):
    parts = GOLDEN_ROW.split(",")
    parts[0] = "0.7"
    parts[_COLUMNS.index(column)] = token
    return ",".join(parts)


class TestRead:
    def test_golden_file(self, tmp_path):
        path = tmp_path / "golden.csv"
        path.write_text(HEADER + "\n" + GOLDEN_ROW + "\n")
        (rec,) = read_telemetry(path)
        assert rec == record()

    def test_header_with_swapped_columns(self, tmp_path):
        cols = HEADER.split(",")
        cols[0], cols[1] = cols[1], cols[0]
        path = tmp_path / "swapped.csv"
        path.write_text(",".join(cols) + "\n" + GOLDEN_ROW + "\n")
        with pytest.raises(TelemetryFormatError):
            read_telemetry(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(TelemetryFormatError):
            read_telemetry(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "headeronly.csv"
        path.write_text(HEADER + "\n")
        with pytest.raises(TelemetryFormatError):
            read_telemetry(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(HEADER + "\n" + GOLDEN_ROW + "\n" + "not,a,row\n")
        with pytest.raises(TelemetryFormatError) as exc:
            read_telemetry(path)
        assert exc.value.line == 3

    def test_non_monotone_time(self, tmp_path):
        path = tmp_path / "time.csv"
        path.write_text(HEADER + "\n" + GOLDEN_ROW + "\n" + GOLDEN_ROW + "\n")
        with pytest.raises(TelemetryFormatError) as exc:
            read_telemetry(path)
        assert exc.value.line == 3

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999"])
    @pytest.mark.parametrize("column", _COLUMNS)
    def test_non_finite_token_names_line(self, tmp_path, column, token):
        # 1e999 parses, overflowing to inf inside float()
        path = tmp_path / "bad.csv"
        rows = [GOLDEN_ROW, GOLDEN_ROW.replace("0.5,", "0.6,", 1), _bad_row(column, token)]
        path.write_text(HEADER + "\n" + "\n".join(rows) + "\n")
        with pytest.raises(TelemetryFormatError, match="^line 4: non-finite value$") as exc:
            read_telemetry(path)
        assert exc.value.line == 4

    def test_column_count_wins_over_a_bad_token(self, tmp_path):
        path = tmp_path / "bad.csv"
        short = _bad_row("x_m", "nan").rsplit(",", 1)[0]
        path.write_text(HEADER + "\n" + GOLDEN_ROW + "\n" + short + "\n")
        with pytest.raises(TelemetryFormatError, match="^line 3: expected 13 columns, got 12$"):
            read_telemetry(path)

    @pytest.mark.parametrize(
        "prefix, line",
        [
            (b"", 1),
            (HEADER.encode()[:7], 1),
            (HEADER.encode() + b"\n", 2),
            (HEADER.encode() + b"\r\n" + GOLDEN_ROW.encode() + b"\r\n0.6,", 3),
        ],
        ids=["first-byte", "in-header", "second-line", "crlf-third-line"],
    )
    def test_non_ascii_byte_names_its_line(self, tmp_path, prefix, line):
        path = tmp_path / "binary.csv"
        path.write_bytes(prefix + b"\xff" + b"\n" + GOLDEN_ROW.encode() + b"\n")
        with pytest.raises(TelemetryFormatError, match="non-ASCII byte 0xff$") as exc:
            read_telemetry(path)
        assert exc.value.line == line


# The whole-text reader and single-pass writer the block-wise ones replaced,
# kept as their oracles: the block-wise versions must return the same records
# and bytes and raise the same first error with the same message and line.


def _oracle_decode(data: bytes) -> str:
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        line = len((data[: exc.start].decode("ascii") + "x").splitlines())
        raise TelemetryFormatError(
            f"non-ASCII byte 0x{data[exc.start]:02x}", line=line
        ) from exc


def _oracle_parse(text: str) -> list[TelemetryRecord]:
    lines = text.splitlines()
    if not lines:
        raise TelemetryFormatError("empty file: header row required", line=1)
    if lines[0] != HEADER:
        raise TelemetryFormatError(
            f"header mismatch: expected {HEADER!r}, got {reprlib.repr(lines[0])}", line=1
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
        values = []
        for part in parts:
            try:
                values.append(float(part))
            except ValueError as exc:
                message = f"could not convert string to float: {reprlib.repr(part)}"
                raise TelemetryFormatError(message, line=lineno) from exc
        if not all(map(math.isfinite, values)):
            raise TelemetryFormatError("non-finite value", line=lineno)
        if not values[0] > prev_time:
            raise TelemetryFormatError("time not strictly increasing", line=lineno)
        prev_time = values[0]
        records.append(TelemetryRecord(*values))
    if not records:
        raise TelemetryFormatError("file has a header but no records", line=2)
    return records


def _oracle_write(records) -> bytes:
    rows = [dataclasses.astuple(r) for r in records]
    if not rows:
        raise TelemetryFormatError("no records to write")
    prev = -math.inf
    for i, values in enumerate(rows):
        if not all(map(math.isfinite, values)):
            name = next(n for n, v in zip(_COLUMNS, values) if not math.isfinite(v))
            raise TelemetryFormatError(f"non-finite {name} in record {i}")
        if not values[0] > prev:
            raise TelemetryFormatError(f"time not strictly increasing at record {i}")
        prev = values[0]
    text = HEADER + "\n" + "\n".join(",".join(format(v, ".9g") for v in row) for row in rows)
    return (text + "\n").encode("ascii")


def _outcome(call):
    """("ok", bit patterns of the records) or ("error", message, line)."""
    try:
        return ("ok", [_packed(dataclasses.astuple(r)) for r in call()])
    except TelemetryFormatError as exc:
        return ("error", str(exc), exc.line)


# short fields keep several rows inside one small block
_short_field = st.one_of(
    st.sampled_from(["0", "1", "-2.5", "0.125", "1e-05", "3e+08", "-0"]),
    _finite.map(lambda v: "%.9g" % v),
)
_ENDINGS = ["\n", "\r\n", "\r"]
_CORRUPTIONS = [
    "none", "columns", "unparsable", "non-finite", "time", "non-ascii",
    "blank-lines", "splitlines-break", "empty", "header-only", "header",
]


@st.composite
def _telemetry_bytes(draw, corruption):
    """A telemetry file as bytes, valid but for the named corruption."""
    n = draw(st.integers(1, 12))
    times = sorted(draw(st.sets(st.integers(-50, 10**6), min_size=n, max_size=n)))
    rows = [[str(t)] + draw(st.lists(_short_field, min_size=12, max_size=12)) for t in times]
    lines = [HEADER] + [",".join(row) for row in rows]
    k = draw(st.integers(1, n))  # the row corrupted
    if corruption == "columns":
        fields = lines[k].split(",")
        lines[k] = ",".join(fields[:-1] if draw(st.booleans()) else fields + ["1"])
    elif corruption in ("unparsable", "non-finite"):
        tokens = {
            "unparsable": ["x", "", "1.2.3", "--1", "0x10", "1e", " "],
            "non-finite": ["nan", "inf", "-inf", "1e400", "-1e400", "NaN"],
        }
        fields = lines[k].split(",")
        fields[draw(st.integers(0, 12))] = draw(st.sampled_from(tokens[corruption]))
        lines[k] = ",".join(fields)
    elif corruption == "time":
        # a copy of row k or an earlier one after row k: a time at or below the one before
        lines.insert(k + 1, lines[draw(st.integers(1, k))])
    elif corruption == "blank-lines":
        for _ in range(draw(st.integers(1, 3))):
            lines.insert(draw(st.integers(1, len(lines))), "")
    elif corruption == "empty":
        return b""
    elif corruption == "header-only":
        lines = [HEADER]
    elif corruption == "header":
        lines[0] = draw(st.sampled_from([HEADER[:-1], HEADER + ",", HEADER.upper(), ""]))
    endings = draw(st.lists(st.sampled_from(_ENDINGS), min_size=len(lines), max_size=len(lines)))
    data = "".join(line + end for line, end in zip(lines, endings))
    if not draw(st.booleans()):
        data = data[: -len(endings[-1])]  # no line break after the last line
    data = data.encode("ascii")
    if corruption in ("non-ascii", "splitlines-break"):
        pool = [0x80, 0x85, 0xA0, 0xFF] if corruption == "non-ascii" else [0x0B, 0x0C, 0x1C]
        for _ in range(draw(st.integers(1, 2))):
            at = draw(st.integers(0, len(data)))
            data = data[:at] + bytes([draw(st.sampled_from(pool))]) + data[at:]
    return data


class TestBlockReader:
    """The block-wise reader against the whole-text parse, over small blocks."""

    @pytest.mark.parametrize("corruption", _CORRUPTIONS)
    @given(data=st.data(), block=st.integers(1, 96))
    @settings(max_examples=40, deadline=None)
    def test_matches_the_whole_text_parse(self, tmp_path_factory, corruption, data, block):
        raw = data.draw(_telemetry_bytes(corruption))
        path = tmp_path_factory.getbasetemp() / "blocks.csv"
        path.write_bytes(raw)
        expected = _outcome(lambda: _oracle_parse(_oracle_decode(raw)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(telemetry, "_READ_BLOCK", block)
            assert _outcome(lambda: read_telemetry(path)) == expected
            assert _outcome(lambda: read_telemetry(str(path))) == expected

    def test_non_ascii_byte_is_raised_ahead_of_an_earlier_bad_row(self, tmp_path, monkeypatch):
        monkeypatch.setattr(telemetry, "_READ_BLOCK", 64)
        # the bad row is in the first 64-byte block, the bad byte blocks later
        rows = [GOLDEN_ROW, "not,a,row"] + [GOLDEN_ROW] * 8
        path = tmp_path / "late.csv"
        path.write_bytes((HEADER + "\n" + "\n".join(rows) + "\n\xff\n").encode("latin-1"))
        with pytest.raises(TelemetryFormatError, match="^line 12: non-ASCII byte 0xff$"):
            read_telemetry(path)

    def test_a_default_size_block_boundary_falls_inside_a_row(self, tmp_path):
        records = [record(0.001 * i) for i in range(1, 3001)]
        path = tmp_path / "long.csv"
        write_telemetry(records, path)
        assert path.stat().st_size > 2 * telemetry._READ_BLOCK
        assert list(read_telemetry(path)) == _oracle_parse(path.read_text())


_bad_value = st.sampled_from([math.nan, math.inf, -math.inf])


class TestBlockWriter:
    """The block-wise writer against the single-pass one, over small blocks."""

    @given(
        rows=st.lists(st.lists(_finite, min_size=12, max_size=12), max_size=14),
        flaws=st.lists(
            st.tuples(st.integers(0, 13), st.integers(0, 12), st.one_of(_bad_value, st.none())),
            max_size=2,
        ),
        block=st.integers(1, 5),
        generator=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_single_pass_writer(self, tmp_path_factory, rows, flaws, block, generator):
        records = [TelemetryRecord(float(i), *row) for i, row in enumerate(rows)]
        for index, column, value in flaws:
            if index < len(records):
                # None repeats the previous record's time
                bad = value if value is not None else records[max(index - 1, 0)].time_s
                setattr(records[index], _COLUMNS[column if value is not None else 0], bad)
        path = tmp_path_factory.mktemp("write") / "out.csv"
        try:
            expected = _oracle_write(records)
        except TelemetryFormatError as exc:
            expected = str(exc)
        source = (r for r in records) if generator else records
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(telemetry, "_WRITE_BLOCK", block)
            if isinstance(expected, str):
                with pytest.raises(TelemetryFormatError) as exc:
                    write_telemetry(source, path)
                assert str(exc.value) == expected
                assert not path.exists()
            else:
                assert write_telemetry(source, path) == len(expected)
                assert path.read_bytes() == expected


class TestTelemetryWrite:
    """A Telemetry writes through its records: the single-pass writer's bytes or
    its first error, and what it writes reads back at 9 significant digits.
    """

    @given(
        rows=st.lists(st.lists(_finite, min_size=13, max_size=13), min_size=1, max_size=14),
        block=st.integers(1, 5),
        flaw=st.one_of(st.none(), st.just("time"), st.tuples(st.integers(0, 12), _bad_value)),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_oracle_and_reads_back(self, tmp_path_factory, rows, block, flaw, data):
        times = _increasing_times(row[0] for row in rows)
        values = array("d", chain.from_iterable([t, *row[1:]] for t, row in zip(times, rows)))
        if flaw is not None and len(times) > block:
            # in a later block: a time repeating the one before, or a bad value
            k = data.draw(st.integers(block, len(times) - 1))
            if flaw == "time":
                values[13 * k] = values[13 * (k - 1)]
            else:
                values[13 * k + flaw[0]] = flaw[1]
        run = Telemetry(values)
        path = tmp_path_factory.mktemp("telemetry") / "out.csv"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(telemetry, "_WRITE_BLOCK", block)
            try:
                expected = _oracle_write(list(run))
            except TelemetryFormatError as exc:
                with pytest.raises(TelemetryFormatError) as got:
                    write_telemetry(run, path)
                assert str(got.value) == str(exc)
                assert not path.exists()
                return
            assert write_telemetry(run, path) == len(expected)
        assert path.read_bytes() == expected
        rounded = array("d", [float("%.9g" % v) for v in values])
        assert read_telemetry(path).values.tobytes() == rounded.tobytes()


class TestMmapThreshold:
    """The first read or write fixes glibc's mmap threshold, once, unless the environment does."""

    @pytest.fixture
    def mallopt_calls(self, monkeypatch):
        import ctypes

        calls = []

        class Libc:
            def mallopt(self, *args):
                calls.append(args)
                return 1

        monkeypatch.setattr(ctypes, "CDLL", lambda name: Libc())
        monkeypatch.setattr(telemetry.sys, "platform", "linux")
        monkeypatch.delenv("MALLOC_MMAP_THRESHOLD_", raising=False)
        telemetry._pin_mmap_threshold.cache_clear()
        yield calls
        telemetry._pin_mmap_threshold.cache_clear()

    def test_pinned_once_at_128_kib(self, tmp_path, mallopt_calls):
        path = tmp_path / "t.csv"
        write_telemetry([record(0.5), record(0.6)], path)
        read_telemetry(path)
        assert mallopt_calls == [(-3, 128 * 1024)]

    def test_an_explicit_environment_setting_wins(self, tmp_path, monkeypatch, mallopt_calls):
        monkeypatch.setenv("MALLOC_MMAP_THRESHOLD_", "65536")
        path = tmp_path / "t.csv"
        path.write_text(HEADER + "\n" + GOLDEN_ROW + "\n")
        read_telemetry(path)
        assert mallopt_calls == []

    def test_not_called_off_linux(self, tmp_path, monkeypatch, mallopt_calls):
        monkeypatch.setattr(telemetry.sys, "platform", "darwin")
        path = tmp_path / "t.csv"
        path.write_text(HEADER + "\n" + GOLDEN_ROW + "\n")
        read_telemetry(path)
        assert mallopt_calls == []
