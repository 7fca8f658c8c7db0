"""Actuation laws: caudal-fin gait, PID depth hold, and the syringe buoyancy actuator.

The caudal servo follows a biased sine; straight swimming uses zero bias and
turning uses a constant offset. Depth is regulated by a PID loop commanding
the volume rate of the swim-bladder syringe, which is rate- and range-limited.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

from .errors import ConfigError, DomainError

MAX_AMPLITUDE_DEG = 45.0  # largest caudal gait amplitude, deg


@dataclass(frozen=True)
class GaitCommand:
    """Caudal-fin oscillation law plus the dorsal-fin erection setpoint.

    frequency in Hz, amplitude and bias in degrees, erection in [0, 1].
    """

    frequency: float = 1.0
    amplitude: float = 20.0
    bias: float = 0.0
    fin_erection_setpoint: float = 0.0

    def validate(self) -> None:
        if not (self.frequency >= 0.0):
            raise ConfigError("frequency must be >= 0", "gait.frequency")
        if self.frequency == math.inf:  # sin of an infinite phase is undefined
            raise ConfigError("frequency must be finite", "gait.frequency")
        if not (0.0 <= self.amplitude <= MAX_AMPLITUDE_DEG):
            message = f"amplitude must be in [0, {MAX_AMPLITUDE_DEG:g}] deg"
            raise ConfigError(message, "gait.amplitude")
        if not (abs(self.bias) <= 30.0):
            raise ConfigError("|bias| must be <= 30 deg", "gait.bias")
        if not (0.0 <= self.fin_erection_setpoint <= 1.0):
            message = "fin erection setpoint must be in [0, 1]"
            raise ConfigError(message, "gait.fin_erection_setpoint")


@dataclass(frozen=True)
class PidGains:
    """Depth-hold PID gains; the output is a syringe-volume offset in m^3."""

    kp: float = 4e-4
    ki: float = 5e-7
    kd: float = 5e-4
    integral_limit: float = 1.0
    output_limit: float = 3e-5

    def validate(self) -> None:
        if not (self.integral_limit > 0.0 and self.output_limit > 0.0):
            raise ConfigError("limits must be > 0", "pid")
        if self.kp < 0.0 or self.ki < 0.0 or self.kd < 0.0:
            raise ConfigError("gains must be >= 0", "pid")


class PidMemory(NamedTuple):
    """Integrator state and previous error of a PID loop."""

    integral: float = 0.0
    prev_error: float = 0.0


@dataclass(frozen=True)
class BuoyancyState:
    """Syringe piston state (volumes in m^3, rate in m^3/s).

    Volume above `neutral_volume` means water drawn in: the fish is heavier
    than neutral and sinks.
    """

    syringe_volume: float = 3e-5
    volume_min: float = 0.0
    volume_max: float = 6e-5
    max_rate: float = 1.2e-5
    neutral_volume: float = 3e-5

    def validate(self) -> None:
        for name in ("syringe_volume", "neutral_volume"):
            if not (self.volume_min <= getattr(self, name) <= self.volume_max):
                raise ConfigError(
                    f"{name} must lie in [volume_min, volume_max]", f"buoyancy.{name}"
                )
        if not (self.max_rate > 0.0):
            raise ConfigError("max_rate must be > 0", "buoyancy.max_rate")


def _clamp(x: float, lo: float, hi: float) -> float:
    return lo if x < lo else hi if x > hi else x


def pid_step(gains: PidGains, error: float, dt: float,
             memory: PidMemory) -> tuple[float, PidMemory]:
    """One PID update; returns (actuation, new memory).

    The integral is clamped to +/- integral_limit (anti-windup) and the
    output to +/- output_limit.
    """
    if dt <= 0.0:
        raise DomainError(f"dt must be > 0, got {dt}")
    integral = _clamp(memory.integral + error * dt, -gains.integral_limit, gains.integral_limit)
    derivative = (error - memory.prev_error) / dt
    u = gains.kp * error + gains.ki * integral + gains.kd * derivative
    u = _clamp(u, -gains.output_limit, gains.output_limit)
    return u, PidMemory(integral=integral, prev_error=error)


def apply_volume_rate(buoy: BuoyancyState, rate: float, dt: float) -> BuoyancyState:
    """Advance the syringe volume by a rate command, honoring rate and range limits."""
    rate = _clamp(rate, -buoy.max_rate, buoy.max_rate)
    volume = _clamp(buoy.syringe_volume + rate * dt, buoy.volume_min, buoy.volume_max)
    return replace(buoy, syringe_volume=volume)


def depth_controller(target_depth: float, measured_depth: float, gains: PidGains,
                     buoy: BuoyancyState, volume: float, dt: float,
                     memory: PidMemory) -> tuple[float, PidMemory]:
    """Depth-hold step: returns (syringe volume rate command, new PID memory).

    `buoy` gives the syringe's limits and neutral volume, `volume` its volume now.
    The PID output is a commanded syringe-volume offset below neutral, so the
    loop drives the actuator position rather than its rate; the returned rate
    is the clamped slew toward that commanded volume.  Positive error (too
    deep) expels water, i.e. the commanded volume drops below neutral and the
    rate goes negative.
    """
    error = measured_depth - target_depth
    u, memory = pid_step(gains, error, dt, memory)
    commanded = _clamp(buoy.neutral_volume - u, buoy.volume_min, buoy.volume_max)
    rate = _clamp((commanded - volume) / dt, -buoy.max_rate, buoy.max_rate)
    return rate, memory


DepthSchedule = Callable[[float], float]


def step_schedule(steps: list[tuple[float, float]]) -> DepthSchedule:
    """Piecewise-constant target-depth schedule from (start_time, target) pairs."""
    if not steps:
        raise DomainError("schedule must be nonempty")
    for _, target in steps:
        if not math.isfinite(target) or target < 0.0:
            raise ConfigError("depth targets must be finite and >= 0", "schedule")
    ordered = sorted(steps)
    if any(a[0] == b[0] for a, b in zip(ordered, ordered[1:])):
        raise DomainError("schedule start times must differ")

    starts = [start for start, _ in ordered]

    def schedule(t: float) -> float:  # the last target started by t, else the first
        return ordered[max(bisect_right(starts, t) - 1, 0)][1]

    return schedule
