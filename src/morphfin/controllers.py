"""Closed-loop controllers advanced by the simulation clock.

SwimController combines the open-loop caudal gait with the optional PID
depth hold and its sensor, which adds seeded noise to the true depth, then
quantizes it. The PID updates at the control rate (default 50 Hz) while the
commanded servo angle is evaluated analytically at every command.
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
from .hydro import gait_law

if TYPE_CHECKING:  # experiments imports this module
    from .experiments import RunEnvironment


class SwimController:
    """Gait generation plus optional depth hold through the buoyancy syringe.

    The depth loop runs exactly when a depth schedule is given, with the
    PID gains, syringe, control period, depth noise std and depth resolution
    of `env`; the noise is drawn from `seed`, by the depth loop alone, and
    only when its std is > 0.
    `command` returns ControlInput's seven fields as a plain tuple. With a depth
    loop, simulate calls it every step, so it keeps the syringe volume as a float
    and builds a BuoyancyState only for the PID updates. With none, `open_loop` is
    the gait: simulate commands step 0 alone and runs the gait's law inline.
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
        self.env = env  # the depth loop reads its settings here
        self.depth_schedule = depth_schedule
        self._volume = env.buoyancy.syringe_volume if self.depth_hold else 0.0
        self._memory = PidMemory()
        self._rate = 0.0
        self._last_update: float | None = None
        self._last_time: float | None = None
        self._update_after = env.control_period - 1e-12
        self.open_loop = None if self.depth_hold else gait
        self._control = gait_law(gait)  # the sine of hydro._GAIT
        self._gauss = random.Random(seed).gauss if self.depth_hold and env.noise > 0.0 else None

    def command(self, t: float, depth: float) -> tuple:
        if t < 0.0:
            raise DomainError(f"time must be >= 0, got {t}")
        buoyancy_n = 0.0
        if self.depth_hold:
            env, buoy = self.env, self.env.buoyancy
            if self._gauss is not None:
                # gauss makes its normals in pairs and the reading takes the
                # second of each, so the first is drawn and dropped every call
                self._gauss(0.0, 1.0)
                depth = max(0.0, depth + self._gauss(0.0, env.noise))
            # integrate the syringe between calls, then refresh the PID at
            # the control rate on the quantized depth reading
            last = self._last_time
            if last is not None and t > last:
                self._volume = slew_volume(
                    self._volume, self._rate, t - last,
                    buoy.volume_min, buoy.volume_max, buoy.max_rate,
                )
            if self._last_update is None or t - self._last_update >= self._update_after:
                quantum = env.depth_resolution
                # a depth of no finite number of quanta is used unquantized
                steps = depth / quantum if quantum > 0.0 else math.inf
                measured = round(steps) * quantum if math.isfinite(steps) else depth
                dt = (
                    env.control_period
                    if self._last_update is None
                    else t - self._last_update
                )
                self._rate, self._memory = depth_controller(
                    self.depth_schedule(t),
                    measured,
                    env.pid,
                    replace(buoy, syringe_volume=self._volume),
                    dt,
                    self._memory,
                )
                self._last_update = t
            self._last_time = t
            buoyancy_n = syringe_buoyancy(
                env.params.water_density, env.params.gravity, self._volume, buoy.neutral_volume
            )
        return self._control(t, buoyancy_n, self._volume)
