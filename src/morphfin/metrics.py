"""Derived swimming-performance quantities.

Covers servo electrical power, cost of transport COT = P / (m g U), yaw
peak-to-peak amplitude over a steady window, yaw-stability improvement
percentages, and the quadratic speed-frequency fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DomainError, InsufficientDataError, UndefinedCotError

# Initial portion of every run excluded from averaged metrics: the larger of
# 5 s and 5 gait cycles, while the thrust-drag balance settles.
TRANSIENT_SECONDS = 5.0
TRANSIENT_CYCLES = 5.0


@dataclass(frozen=True)
class PowerModel:
    """Electrical surrogate for the measured servo power draw."""

    efficiency: float
    idle_power: float

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


def steady_window(duration: float, frequency: float) -> tuple[float, float]:
    """(start, end) of the steady analysis window for a run of given duration."""
    start = TRANSIENT_SECONDS
    if frequency > 0.0:
        start = max(start, TRANSIENT_CYCLES / frequency)
    if start >= duration:
        raise InsufficientDataError(
            f"run of {duration} s is entirely transient (window starts at {start} s)"
        )
    return start, duration


def peak_to_peak(
    times: Sequence[float],
    signal: Sequence[float],
    window: tuple[float, float],
    gait_frequency: float,
) -> float:
    """Max minus min of a signal restricted to the steady window.

    The window must contain at least 3 full gait cycles.
    """
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


def improvement(folded_p2p: float, erect_p2p: float) -> float:
    """Yaw-stability improvement in percent when erecting the fin."""
    if folded_p2p <= 0.0:
        raise DomainError(f"folded peak-to-peak must be > 0, got {folded_p2p}")
    return (folded_p2p - erect_p2p) / folded_p2p * 100.0


def fit_quadratic(
    points: Sequence[tuple[float, float]]
) -> tuple[float, float, float, float]:
    """Least-squares degree-2 polynomial through (x, y) points.

    Returns (c2, c1, c0, r_squared).
    """
    if len(points) < 4:
        raise DomainError(f"need >= 4 points, got {len(points)}")
    xs = np.array([p[0] for p in points], dtype=float)
    ys = np.array([p[1] for p in points], dtype=float)
    if np.unique(xs).size < 3:
        raise DomainError("abscissae are degenerate (fewer than 3 distinct values)")
    c2, c1, c0 = np.polyfit(xs, ys, 2)
    residuals = ys - (c2 * xs * xs + c1 * xs + c0)
    ss_res = float(np.sum(residuals**2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(c2), float(c1), float(c0), r_squared


def mean_displacement_speed(
    times: Sequence[float],
    xs: Sequence[float],
    ys: Sequence[float],
    window: tuple[float, float],
) -> float:
    """Net planar displacement over elapsed time inside the window.

    Mirrors timing a traverse over a known pool length rather than averaging
    the instantaneous speed.
    """
    t0, t1 = window
    idx = [i for i, t in enumerate(times) if t0 <= t <= t1]
    if len(idx) < 2:
        raise InsufficientDataError("window contains fewer than 2 samples")
    i0, i1 = idx[0], idx[-1]
    elapsed = times[i1] - times[i0]
    if elapsed <= 0.0:
        raise InsufficientDataError("window elapsed time is zero")
    dist = math.hypot(xs[i1] - xs[i0], ys[i1] - ys[i0])
    return dist / elapsed


def mean_over_window(
    times: Sequence[float], values: Sequence[float], window: tuple[float, float]
) -> float:
    t0, t1 = window
    sel = [v for t, v in zip(times, values) if t0 <= t <= t1]
    if not sel:
        raise InsufficientDataError("window contains no samples")
    return sum(sel) / len(sel)
