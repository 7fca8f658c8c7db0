import math
import random
import struct
from array import array
from dataclasses import astuple
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morphfin.errors import DomainError, InsufficientDataError, UndefinedCotError
from morphfin.experiments import ConditionMetrics, condition_metrics
from morphfin.metrics import (
    PowerModel,
    cot,
    fit_quadratic,
    improvement,
    servo_power,
    steady_window,
)
from morphfin.telemetry import Telemetry, TelemetryRecord

# Peak-to-peak yaw pairs and their printed improvements (measured data the
# calibration anchors to): (amplitude deg, frequency Hz, erect, folded, printed %)
YAW_TABLE = [
    (10.0, 0.5, 6.07, 7.65, 20.67),
    (10.0, 1.0, 6.99, 8.64, 19.12),
    (20.0, 0.5, 13.24, 16.16, 18.14),
    (20.0, 1.0, 14.01, 18.47, 24.20),
    (30.0, 0.5, 23.32, 27.93, 16.51),
    (30.0, 1.0, 21.85, 26.47, 17.47),
]


class TestServoPower:
    MODEL = PowerModel(efficiency=0.5, idle_power=0.5)

    def test_stall_draws_idle_only(self):
        assert servo_power(self.MODEL, 0.2, 0.0) == 0.5

    def test_hand_arithmetic(self):
        assert servo_power(self.MODEL, 0.1, 3.0) == pytest.approx(1.1)

    def test_no_regeneration(self):
        assert servo_power(self.MODEL, 0.1, -3.0) == 0.5


class TestCot:
    def test_hand_arithmetic(self):
        assert cot(1.0, 2.305, 9.81, 0.1) == pytest.approx(0.4423, abs=1e-4)

    def test_zero_power(self):
        assert cot(0.0, 2.305, 9.81, 0.1) == 0.0

    def test_zero_speed_undefined(self):
        with pytest.raises(UndefinedCotError):
            cot(1.0, 2.305, 9.81, 0.0)
        with pytest.raises(DomainError):
            cot(1.0, -1.0, 9.81, 0.1)

    @given(st.floats(0.01, 100.0), st.floats(0.01, 10.0), st.floats(0.01, 5.0))
    def test_scale_laws(self, power, lam, speed):
        base = cot(power, 2.305, 9.81, speed)
        assert cot(lam * power, 2.305, 9.81, speed) == pytest.approx(
            lam * base, rel=1e-12
        )
        assert cot(power, 2.305, 9.81, lam * speed) == pytest.approx(
            base / lam, rel=1e-12
        )


def _record(t, x=0.0, y=0.0, yaw=0.0, power=0.0):
    return TelemetryRecord(t, x, y, 0.0, yaw, 0.0, 0.0, 0.0, 0.0, 0.0, power, 0.0, 0.0)


def _telemetry(records):
    """The records as the flat array a run returns."""
    return Telemetry(array("d", chain.from_iterable(map(astuple, records))))


def _yaw_run(times, signal):
    return _telemetry([_record(t, yaw=v) for t, v in zip(times, signal)])


def _p2p_yaw(times, signal, frequency=1.0):
    return condition_metrics(_yaw_run(times, signal), frequency).p2p_yaw


class TestPeakToPeak:
    # at 1 Hz the steady window of a run from t = 0 starts at 5 s
    TIMES = [i * 0.01 for i in range(1501)]

    def test_pure_sine(self):
        signal = [3.0 * math.sin(2 * math.pi * t) for t in self.TIMES]
        assert _p2p_yaw(self.TIMES, signal) == pytest.approx(6.0, abs=1e-3)

    def test_constant_signal(self):
        assert _p2p_yaw(self.TIMES, [4.2] * len(self.TIMES)) == 0.0

    def test_noisy_sine_matches_max_min_oracle(self):
        rng = random.Random(7)
        signal = [
            3.0 * math.sin(2 * math.pi * t) + rng.gauss(0.0, 0.1) for t in self.TIMES
        ]
        got = _p2p_yaw(self.TIMES, signal)
        window = [v for t, v in zip(self.TIMES, signal) if 5.0 <= t <= 15.0]
        assert got == max(window) - min(window)
        # Extreme-value statistics of 1000 Gaussian draws add roughly
        # 6 sigma to the peak-to-peak range, hence the wider band here.
        assert got == pytest.approx(6.0, abs=0.8)

    def test_window_too_short(self):
        times = self.TIMES[:751]  # window [5, 7.5] s: 2.5 cycles < 3
        with pytest.raises(InsufficientDataError, match="fewer than 3 cycles"):
            _p2p_yaw(times, times)

    @settings(deadline=None)
    @given(st.floats(-50.0, 50.0), st.floats(0.01, 20.0))
    def test_translation_and_scaling(self, offset, scale):
        times = self.TIMES[:901]  # window [5, 9] s
        signal = [math.sin(2 * math.pi * t) for t in times]
        base = _p2p_yaw(times, signal)
        shifted = _p2p_yaw(times, [v + offset for v in signal])
        scaled = _p2p_yaw(times, [v * scale for v in signal])
        assert shifted == pytest.approx(base, rel=1e-9, abs=1e-12)
        assert scaled == pytest.approx(scale * base, rel=1e-9)


class TestImprovement:
    def test_flagship_pair(self):
        # direct formula gives 24.15; the printed 24.20 reflects source rounding
        assert improvement(18.47, 14.01) == pytest.approx(24.15, abs=0.005)

    def test_no_change(self):
        assert improvement(5.0, 5.0) == 0.0

    def test_second_pair(self):
        assert improvement(7.65, 6.07) == pytest.approx(20.65, abs=0.005)

    def test_domain(self):
        with pytest.raises(DomainError):
            improvement(0.0, 1.0)

    def test_recomputes_all_printed_percentages(self):
        for _, _, erect, folded, printed in YAW_TABLE:
            assert improvement(folded, erect) == pytest.approx(printed, abs=0.1)

    @given(st.floats(0.1, 100.0), st.floats(0.0, 99.0), st.floats(0.01, 50.0))
    def test_scale_invariance(self, folded, erect_frac, scale):
        erect = folded * erect_frac / 100.0
        assert improvement(scale * folded, scale * erect) == pytest.approx(
            improvement(folded, erect), rel=1e-9, abs=1e-9
        )


class TestFitQuadratic:
    def test_exact_parabola(self):
        points = [(x, x * x) for x in (-2.0, -1.0, 0.5, 1.0, 2.0)]
        c2, c1, c0, r2 = fit_quadratic(points)
        assert c2 == pytest.approx(1.0, abs=1e-9)
        assert c1 == pytest.approx(0.0, abs=1e-9)
        assert c0 == pytest.approx(0.0, abs=1e-9)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_nested_linear_model(self):
        points = [(x, 2.0 * x + 1.0) for x in (0.0, 1.0, 2.0, 3.0, 4.0)]
        c2, c1, c0, r2 = fit_quadratic(points)
        assert abs(c2) <= 1e-9
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(11)
        xs = np.linspace(0.5, 2.5, 10)
        ys = 0.04 * xs**2 + 0.05 * xs + 0.01 + rng.normal(0.0, 0.004, 10)
        got = fit_quadratic(list(zip(xs, ys)))
        vander = np.column_stack([xs**2, xs, np.ones_like(xs)])
        oracle = np.linalg.solve(vander.T @ vander, vander.T @ ys)
        assert got[0] == pytest.approx(oracle[0], abs=1e-9)
        assert got[1] == pytest.approx(oracle[1], abs=1e-9)
        assert got[2] == pytest.approx(oracle[2], abs=1e-9)

    def test_degenerate_abscissae(self):
        with pytest.raises(DomainError):
            fit_quadratic([(1.0, 1.0), (1.0, 2.0), (2.0, 3.0), (2.0, 4.0)])
        with pytest.raises(DomainError):
            fit_quadratic([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])
        # three distinct abscissae, but two a rounding step apart
        with pytest.raises(DomainError):
            fit_quadratic([(0.0, 0.0), (0.0, 0.0), (1.0, 1.0), (1.0 + 2**-52, 1.0)])

    @pytest.mark.parametrize("scale", [1e-30, 1e30, 1e120])
    def test_abscissa_scale(self, scale):
        # the fit of y = 2 u^2 - 3 u + 1 at x = scale * u does not depend on scale
        us = (0.5, 1.0, 1.5, 2.0, 3.0)
        points = [(scale * u, 2.0 * u * u - 3.0 * u + 1.0) for u in us]
        c2, c1, c0, r2 = fit_quadratic(points)
        assert c2 * scale * scale == pytest.approx(2.0, rel=1e-12)
        assert c1 * scale == pytest.approx(-3.0, rel=1e-12)
        assert c0 == pytest.approx(1.0, rel=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "points",
        [
            # c2 = 2e400 overflows the power-of-two rescaling
            [(1e-200 * u, 2.0 * u * u - 3.0 * u + 1.0) for u in range(5)],
            # the ordinates' squared deviations overflow
            [(2.0**52 + u, 1e300 * u * u) for u in range(5)],
        ],
        ids=["coefficient", "sum_of_squares"],
    )
    def test_out_of_double_range_is_a_domain_error(self, points):
        with pytest.raises(DomainError):
            fit_quadratic(points)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column", [0, 1])
    def test_non_finite_point_is_a_domain_error(self, bad, column):
        points = [[x, 0.5 * x * x] for x in (0.0, 1.0, 2.0, 3.0, 4.0)]
        points[2][column] = bad
        with pytest.raises(DomainError):
            fit_quadratic([tuple(p) for p in points])


class TestWindows:
    def test_steady_window_discards_transient(self):
        assert steady_window(0.0, 25.0, 2.0) == (5.0, 25.0)
        assert steady_window(0.0, 25.0, 0.5) == (10.0, 25.0)  # 5 cycles at 0.5 Hz
        assert steady_window(0.0, 25.0, 0.0) == (5.0, 25.0)  # a still tail

    def test_window_is_measured_from_the_first_record(self):
        assert steady_window(100.0, 125.0, 2.0) == (105.0, 125.0)
        assert steady_window(-10.0, 15.0, 0.5) == (0.0, 15.0)

    @pytest.mark.parametrize("first", [0.0, 100.0])
    def test_all_transient_rejected(self, first):
        with pytest.raises(InsufficientDataError, match="run of 4.0 s is entirely transient"):
            steady_window(first, first + 4.0, 2.0)

    def test_displacement_speed(self):
        # straight path at 0.5 m/s; at 2 Hz the window is [5, 8] s
        records = _telemetry([_record(float(t), x=0.3 * t, y=0.4 * t) for t in range(9)])
        assert condition_metrics(records, 2.0).mean_speed == pytest.approx(0.5)


def _swim(times, frequency, origin=0.0):
    """A straight swim with a tail beat, sampled at `times` and stamped `origin` s later."""
    records = []
    for t in times:
        phase = 2.0 * math.pi * frequency * t
        records.append(_record(
            t + origin, x=0.2 * t + 0.01 * math.sin(phase), y=0.01 * math.cos(phase),
            yaw=10.0 * math.sin(phase), power=1.0 + math.sin(phase) ** 2,
        ))
    return _telemetry(records)


@settings(max_examples=25, deadline=None)
@given(
    frequency=st.sampled_from([0.3, 0.5, 1.0, 2.5]),
    step=st.sampled_from([0.01, 0.02, 0.1]),
    origin=st.floats(-1e3, 1e3),
)
@example(1.0, 0.01, 100.0)  # a run cut from a longer one, 100 s in
def test_metrics_do_not_depend_on_the_time_origin(frequency, step, origin):
    # the samples and the window move together, so the same samples are
    # selected: power and yaw are exact, and the speed moves only with the
    # rounding of the shifted times, a few ulps of the largest of them over
    # the window's length, below 1e-12 relative
    times = [i * step for i in range(round(30.0 / step) + 1)]
    base = condition_metrics(_swim(times, frequency), frequency)
    moved = condition_metrics(_swim(times, frequency, origin), frequency)
    assert moved.mean_speed == pytest.approx(base.mean_speed, rel=1e-12)
    assert (moved.mean_power, moved.p2p_yaw) == (base.mean_power, base.p2p_yaw)


# The steady-window metrics as three functions computed them, each filtering
# the window from the times again: the reference condition_metrics must match.


def _oracle_peak_to_peak(times, signal, window, gait_frequency):
    t0, t1 = window
    if gait_frequency > 0.0 and (t1 - t0) < 3.0 / gait_frequency:
        raise InsufficientDataError(
            f"window of {t1 - t0:.3f} s holds fewer than 3 cycles at "
            f"{gait_frequency} Hz"
        )
    values = [v for t, v in zip(times, signal) if t0 <= t <= t1]
    if len(values) < 2:
        raise InsufficientDataError("window contains fewer than 2 samples")
    return max(values) - min(values)


def _oracle_displacement_speed(times, xs, ys, window):
    t0, t1 = window
    idx = [i for i, t in enumerate(times) if t0 <= t <= t1]
    if len(idx) < 2:
        raise InsufficientDataError("window contains fewer than 2 samples")
    i0, i1 = idx[0], idx[-1]
    elapsed = times[i1] - times[i0]
    if elapsed <= 0.0:
        raise InsufficientDataError("window elapsed time is zero")
    return math.hypot(xs[i1] - xs[i0], ys[i1] - ys[i0]) / elapsed


def _oracle_mean_over_window(times, values, window):
    t0, t1 = window
    sel = [v for t, v in zip(times, values) if t0 <= t <= t1]
    if not sel:
        raise InsufficientDataError("window contains no samples")
    return sum(sel) / len(sel)


def _oracle_condition_metrics(records, frequency):
    window = steady_window(records[0].time_s, records[-1].time_s, frequency)
    times = [r.time_s for r in records]
    speed = _oracle_displacement_speed(
        times, [r.x_m for r in records], [r.y_m for r in records], window
    )
    power = _oracle_mean_over_window(times, [r.power_w for r in records], window)
    p2p = _oracle_peak_to_peak(times, [r.yaw_deg for r in records], window, frequency)
    return ConditionMetrics(speed, power, math.nan, p2p)


def _outcome(metrics, records, frequency):
    """The metrics' bits, or the message of the InsufficientDataError raised."""
    try:
        return [struct.pack("<d", v) for v in astuple(metrics(records, frequency))]
    except InsufficientDataError as exc:
        return str(exc)


_VALUE = st.floats(-1e3, 1e3, allow_nan=False)


@st.composite
def _runs(draw):
    """Records at non-decreasing times (a zero step repeats a time) from a start in [0, 10] s."""
    t = draw(st.floats(0.0, 10.0))
    n = draw(st.integers(0, 40))
    steps = st.lists(st.just(0.0) | st.floats(0.01, 4.0), min_size=n, max_size=n)
    records = []
    for step in [0.0] + draw(steps):
        t += step
        records.append(
            _record(t, x=draw(_VALUE), y=draw(_VALUE), yaw=draw(_VALUE), power=draw(_VALUE))
        )
    return _telemetry(records)


@given(_runs(), st.sampled_from([0.0, 0.3, 1.0, 2.5]))
@example(_telemetry([_record(0.0), _record(6.0), _record(6.0)]), 2.5)  # elapsed time zero
@example(_telemetry([_record(0.0), _record(20.0)]), 0.3)  # fewer than 2 samples
@example(_telemetry([_record(float(t)) for t in range(21)]), 0.3)  # fewer than 3 cycles
def test_condition_metrics_matches_the_per_metric_oracle(records, frequency):
    assert _outcome(condition_metrics, records, frequency) == _outcome(
        _oracle_condition_metrics, records, frequency
    )


_FREQUENCIES = st.sampled_from([0.0, 0.3, 0.5, 1.0, 2.5])


@st.composite
def _windowed_runs(draw):
    """(records, frequency): strictly increasing times, some exactly on the window's edges.

    The window [t0, t1] depends only on the first and last times, so a sample
    added between them at t0 or t1 leaves the window where it was.
    """
    frequency = draw(_FREQUENCIES)
    raw = draw(st.lists(st.floats(0.0, 40.0) | st.integers(0, 40).map(float), min_size=1))
    times = sorted(set(raw))
    edges = []
    try:
        t0, t1 = steady_window(times[0], times[-1], frequency)
        edges = [t for t in (t0, t1) if times[0] < t < times[-1] and draw(st.booleans())]
    except InsufficientDataError:
        pass
    values = st.floats(-1e3, 1e3, allow_nan=False)
    records = [
        _record(t, x=draw(values), y=draw(values), yaw=draw(values), power=draw(values))
        for t in sorted(set(times + edges))
    ]
    return _telemetry(records), frequency


@given(_windowed_runs())
@example((_yaw_run([0.0, 5.0, 7.0, 12.0], [1.0, 2.0, -3.0, 4.0]), 1.0))  # t0, t1 on samples
def test_condition_metrics_bisect_window_matches_the_filter(run):
    records, frequency = run
    assert _outcome(condition_metrics, records, frequency) == _outcome(
        _oracle_condition_metrics, records, frequency
    )
