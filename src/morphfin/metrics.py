"""Derived swimming-performance quantities.

Covers servo electrical power, cost of transport COT = P / (m g U), the
steady analysis window, yaw-stability improvement percentages, and the
quadratic speed-frequency fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import ConfigError, DomainError, InsufficientDataError, UndefinedCotError

# Initial portion of every run excluded from averaged metrics: the larger of
# 5 s and 5 gait cycles, while the thrust-drag balance settles.
TRANSIENT_SECONDS = 5.0
TRANSIENT_CYCLES = 5.0


@dataclass(frozen=True)
class PowerModel:
    """Electrical surrogate for the measured servo power draw (calibrated defaults)."""

    efficiency: float = 0.740078125
    idle_power: float = 0.5

    def validate(self) -> None:
        if not (0.0 < self.efficiency <= 1.0):
            raise ConfigError("efficiency must be in (0, 1]", "power.efficiency")
        if not (self.idle_power >= 0.0):
            raise ConfigError("idle_power must be >= 0", "power.idle_power")


def servo_power(model: PowerModel, torque: float, angular_vel: float) -> float:
    """Instantaneous electrical power (W) drawn by the tail servo.

    Mechanical output below zero (back-driving) is not regenerated; the servo
    then draws only its idle power.
    """
    mechanical = torque * angular_vel
    return max(mechanical, 0.0) / model.efficiency + model.idle_power


def cot(mean_power: float, mass: float, gravity: float, mean_speed: float) -> float:
    """Dimensionless cost of transport, mean_power / (mass * gravity * mean_speed)."""
    if mass <= 0.0:
        raise DomainError(f"mass must be > 0, got {mass}")
    if mean_speed <= 0.0:
        raise UndefinedCotError(
            f"COT is undefined at mean speed {mean_speed} m/s (zero-speed run)"
        )
    return mean_power / (mass * gravity * mean_speed)


def transient(frequency: float) -> float:
    """Length (s) of a run's initial transient at a gait frequency: max(5 s, 5 cycles)."""
    cycles = TRANSIENT_CYCLES / frequency if frequency > 0.0 else 0.0
    return max(TRANSIENT_SECONDS, cycles)


def steady_window(first: float, last: float, frequency: float) -> tuple[float, float]:
    """(start, end) times of the steady analysis window of a run from `first` to `last` s."""
    start = first + transient(frequency)
    if start >= last:
        raise InsufficientDataError(
            f"run of {last - first} s is entirely transient (window starts at {start} s)"
        )
    return start, last


def improvement(folded_p2p: float, erect_p2p: float) -> float:
    """Yaw-stability improvement in percent when erecting the fin."""
    if folded_p2p <= 0.0:
        raise DomainError(f"folded peak-to-peak must be > 0, got {folded_p2p}")
    return (folded_p2p - erect_p2p) / folded_p2p * 100.0


def _det3(c0, c1, c2) -> float:
    """Determinant of the 3x3 matrix with columns c0, c1, c2."""
    (a, d, g), (b, e, h), (c, f, i) = c0, c1, c2
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def fit_quadratic(
    points: Sequence[tuple[float, float]]
) -> tuple[float, float, float, float]:
    """Least-squares degree-2 polynomial through (x, y) points.

    Returns (c2, c1, c0, r_squared). Solves the normal equations of
    y = a d^2 + b d + c on the centred abscissae d = x - mean(x), then maps
    (a, b, c) back to the coefficients of x.
    """
    if len(points) < 4:
        raise DomainError(f"need >= 4 points, got {len(points)}")
    xs = [float(p[0]) for p in points]
    ys = [float(p[1]) for p in points]
    if not all(math.isfinite(v) for v in xs + ys):
        raise DomainError("points must be finite")
    if len(set(xs)) < 3:
        raise DomainError("abscissae are degenerate (fewer than 3 distinct values)")
    try:
        return _centred_fit(xs, ys)
    except OverflowError:  # from math.ldexp or **: a coefficient or a sum of squares
        raise DomainError("the fit leaves the double range") from None


def _centred_fit(xs: list[float], ys: list[float]) -> tuple[float, float, float, float]:
    n = len(xs)
    mean = math.fsum(xs) / n
    # an exact power-of-two scale keeps the sums finite and every rounding as it was
    _, exp = math.frexp(max(abs(x - mean) for x in xs))
    ds = [math.ldexp(x - mean, -exp) for x in xs]
    s1, s2, s3, s4 = (math.fsum(d**k for d in ds) for k in (1, 2, 3, 4))
    rhs = (
        math.fsum(d * d * y for d, y in zip(ds, ys)),
        math.fsum(d * y for d, y in zip(ds, ys)),
        math.fsum(ys),
    )
    cols = ((s4, s3, s2), (s3, s2, s1), (s2, s1, float(n)))
    det = _det3(*cols)
    if not det > 0.0:
        raise DomainError("abscissae are too close together to fit a quadratic")
    a = math.ldexp(_det3(rhs, cols[1], cols[2]) / det, -2 * exp)
    b = math.ldexp(_det3(cols[0], rhs, cols[2]) / det, -exp)
    c = _det3(cols[0], cols[1], rhs) / det
    c2, c1, c0 = a, b - 2.0 * a * mean, (a * mean - b) * mean + c
    ss_res = math.fsum((y - (c2 * x * x + c1 * x + c0)) ** 2 for x, y in zip(xs, ys))
    ss_tot = math.fsum((y - rhs[2] / n) ** 2 for y in ys)
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return c2, c1, c0, r_squared
