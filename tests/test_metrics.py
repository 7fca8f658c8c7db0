import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from morphfin.errors import DomainError, InsufficientDataError, UndefinedCotError
from morphfin.metrics import (
    PowerModel,
    cot,
    fit_quadratic,
    improvement,
    mean_displacement_speed,
    peak_to_peak,
    servo_power,
    steady_window,
)

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


class TestPeakToPeak:
    def test_pure_sine(self):
        times = [i * 0.01 for i in range(1001)]
        signal = [3.0 * math.sin(2 * math.pi * t) for t in times]
        assert peak_to_peak(times, signal, (0.0, 10.0), 1.0) == pytest.approx(6.0, abs=1e-3)

    def test_constant_signal(self):
        times = [i * 0.01 for i in range(1001)]
        assert peak_to_peak(times, [4.2] * len(times), (0.0, 10.0), 1.0) == 0.0

    def test_noisy_sine_matches_max_min_oracle(self):
        rng = random.Random(7)
        times = [i * 0.01 for i in range(1001)]
        signal = [
            3.0 * math.sin(2 * math.pi * t) + rng.gauss(0.0, 0.1) for t in times
        ]
        got = peak_to_peak(times, signal, (0.0, 10.0), 1.0)
        window = [v for t, v in zip(times, signal) if 0.0 <= t <= 10.0]
        assert got == max(window) - min(window)
        # Extreme-value statistics of 1000 Gaussian draws add roughly
        # 6 sigma to the peak-to-peak range, hence the wider band here.
        assert got == pytest.approx(6.0, abs=0.8)

    def test_window_too_short(self):
        times = [i * 0.01 for i in range(1001)]
        with pytest.raises(InsufficientDataError):
            peak_to_peak(times, times, (0.0, 2.5), 1.0)  # 2.5 cycles < 3

    @given(st.floats(-50.0, 50.0), st.floats(0.01, 20.0))
    def test_translation_and_scaling(self, offset, scale):
        times = [i * 0.01 for i in range(401)]
        signal = [math.sin(2 * math.pi * t) for t in times]
        base = peak_to_peak(times, signal, (0.0, 4.0), 1.0)
        shifted = peak_to_peak(times, [v + offset for v in signal], (0.0, 4.0), 1.0)
        scaled = peak_to_peak(times, [v * scale for v in signal], (0.0, 4.0), 1.0)
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
        assert steady_window(25.0, 2.0) == (5.0, 25.0)
        assert steady_window(25.0, 0.5) == (10.0, 25.0)  # 5 cycles at 0.5 Hz

    def test_all_transient_rejected(self):
        with pytest.raises(InsufficientDataError):
            steady_window(4.0, 2.0)

    def test_displacement_speed(self):
        times = [0.0, 1.0, 2.0, 3.0]
        xs = [0.0, 0.3, 0.6, 0.9]
        ys = [0.0, 0.4, 0.8, 1.2]
        # straight path at 0.5 m/s
        assert mean_displacement_speed(times, xs, ys, (1.0, 3.0)) == pytest.approx(0.5)
