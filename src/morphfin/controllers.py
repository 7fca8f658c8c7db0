"""Closed-loop controllers advanced by the simulation clock.

SwimController combines the open-loop caudal gait with the optional PID
depth hold and its sensor, which adds seeded noise to the true depth, then
quantizes it. The PID updates at the control rate (default 50 Hz) while the
commanded servo angle is evaluated analytically every simulation step.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace
from typing import TYPE_CHECKING

# apply_volume_rate is unused here but stays importable: perfbench's tracer
# wraps controllers.apply_volume_rate by that name.
from .control import (  # noqa: F401
    DepthSchedule,
    GaitCommand,
    PidMemory,
    apply_volume_rate,
    depth_controller,
    slew_volume,
    syringe_buoyancy,
)
from .errors import DomainError
from .hydro import _DEG, ControlInput

if TYPE_CHECKING:  # experiments imports this module
    from .experiments import RunEnvironment


class SwimController:
    """Gait generation plus optional depth hold through the buoyancy syringe.

    The depth loop runs exactly when a depth schedule is given, with the
    PID gains, syringe, control period, depth noise std and depth resolution
    of `env`; the noise is drawn from `seed`, by the depth loop alone, and
    only when its std is > 0.
    `command` runs every simulation step, so it keeps the syringe volume as a
    float and builds a BuoyancyState only for the PID updates. The servo
    angle and rate are control.servo_angle/servo_rate with 2*pi*f and
    amplitude*2*pi*f computed once, in the same association, so the
    commands are bit-identical to theirs.
    """

    def __init__(
        self,
        env: RunEnvironment,
        gait: GaitCommand,
        depth_schedule: DepthSchedule | None = None,
        seed: int = 0,
    ):
        self.depth_hold = depth_schedule is not None
        gait.validate()
        if self.depth_hold:
            env.pid.validate()
            env.buoyancy.validate()
        self.params = env.params
        self.gait = gait
        self.gains = env.pid
        self.buoyancy = env.buoyancy
        self.depth_schedule = depth_schedule
        self.control_period = env.control_period
        self.depth_resolution = env.depth_resolution
        self._volume = env.buoyancy.syringe_volume if self.depth_hold else 0.0
        self._memory = PidMemory()
        self._rate = 0.0
        self._last_update: float | None = None
        self._last_time: float | None = None
        self._update_after = env.control_period - 1e-12
        self._omega = 2.0 * math.pi * gait.frequency
        self._amp_omega = gait.amplitude * self._omega
        self._amplitude_rad = gait.amplitude * _DEG
        self._gauss = random.Random(seed).gauss if self.depth_hold and env.noise > 0.0 else None
        self._depth_std = env.noise

    def command(self, t: float, depth: float) -> ControlInput:
        if t < 0.0:
            raise DomainError(f"time must be >= 0, got {t}")
        buoyancy_n = 0.0
        if self.depth_hold:
            if self._gauss is not None:
                # gauss makes its normals in pairs and the reading takes the
                # second of each, so the first is drawn and dropped every call
                self._gauss(0.0, 1.0)
                depth = max(0.0, depth + self._gauss(0.0, self._depth_std))
            buoy = self.buoyancy
            # integrate the syringe between calls, then refresh the PID at
            # the control rate on the quantized depth reading
            last = self._last_time
            if last is not None and t > last:
                self._volume = slew_volume(
                    self._volume, self._rate, t - last,
                    buoy.volume_min, buoy.volume_max, buoy.max_rate,
                )
            if self._last_update is None or t - self._last_update >= self._update_after:
                quantum = self.depth_resolution
                # a depth of no finite number of quanta is used unquantized
                steps = depth / quantum if quantum > 0.0 else math.inf
                measured = round(steps) * quantum if math.isfinite(steps) else depth
                dt = (
                    self.control_period
                    if self._last_update is None
                    else t - self._last_update
                )
                self._rate, self._memory = depth_controller(
                    self.depth_schedule(t),
                    measured,
                    self.gains,
                    replace(buoy, syringe_volume=self._volume),
                    dt,
                    self._memory,
                )
                self._last_update = t
            self._last_time = t
            buoyancy_n = syringe_buoyancy(
                self.params.water_density, self.params.gravity, self._volume, buoy.neutral_volume
            )
        gait = self.gait
        wt = self._omega * t
        # in ControlInput's field order; tuple.__new__ skips its generated Python __new__
        return tuple.__new__(ControlInput, (
            (gait.bias + gait.amplitude * math.sin(wt)) * _DEG,
            self._amp_omega * math.cos(wt) * _DEG,
            gait.frequency,
            self._amplitude_rad,
            gait.fin_erection_setpoint,
            buoyancy_n,
            self._volume,
        ))
