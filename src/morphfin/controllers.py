"""Closed-loop controllers advanced by the simulation clock.

SwimController combines the open-loop caudal gait with the optional PID
depth hold and its sensor, which adds seeded noise to the true depth, then
quantizes it. The PID updates at the control rate (default 50 Hz) while the
commanded servo angle is evaluated analytically at every command.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING

# apply_volume_rate is unused here but stays importable: perfbench's tracer
# wraps controllers.apply_volume_rate by that name. command calls
# depth_controller through this module, so a wrapper of it sees every PID update.
from .control import (  # noqa: F401
    DepthSchedule,
    GaitCommand,
    PidMemory,
    apply_volume_rate,
    depth_controller,
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
    `command` returns ControlInput's seven fields as a plain tuple. With no depth loop,
    `open_loop` is the gait: simulate commands step 0 alone and runs the gait's law inline,
    on step 0's buoyancy and syringe volume. run_condition sets `open_loop` beside a fresh
    loop of a constant target too; simulate runs its law after step 0 if `at_rest`.
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
        self.open_loop = None if self.depth_hold else gait
        self._control = gait_law(gait)  # the sine of hydro._GAIT
        self._gauss = random.Random(seed).gauss if self.depth_hold and env.noise > 0.0 else None
        # syringe volume and slew rate, times of the last call and PID update, PID memory
        self._state = (env.buoyancy.syringe_volume, 0.0, None, None, PidMemory())

    def command(self, t: float, depth: float) -> tuple:
        if t < 0.0:
            raise DomainError(f"time must be >= 0, got {t}")
        if not self.depth_hold:
            return self._control(t)
        env, buoy, gauss = self.env, self.env.buoyancy, self._gauss
        volume, slew, last, updated, memory = self._state
        if gauss is not None:  # gauss makes its normals in pairs; the reading takes the second
            depth = max(0.0, depth + (gauss(0.0, 1.0), gauss(0.0, env.noise))[1])
        # the syringe slews between calls at the rate the PID set, within max_rate
        if last is not None and t > last:
            volume = volume + slew * (t - last)
            volume = (buoy.volume_min if volume < buoy.volume_min
                      else buoy.volume_max if volume > buoy.volume_max else volume)
        # the PID refreshes at the control rate on the quantized reading; a reading of no
        # finite number of quanta is used unquantized
        if updated is None or t - updated >= env.control_period - 1e-12:
            quantum = env.depth_resolution
            steps = depth / quantum if quantum > 0.0 else math.inf
            slew, memory = depth_controller(
                self.depth_schedule(t), round(steps) * quantum if math.isfinite(steps) else depth,
                env.pid, buoy, volume, env.control_period if updated is None else t - updated,
                memory)
            updated = t
        self._state = volume, slew, t, updated, memory
        weight = -env.params.water_density * env.params.gravity
        return self._control(t, weight * (volume - buoy.neutral_volume), volume)

    def at_rest(self) -> bool:
        """Whether the depth loop, commanded at step 0, stays at rest: with no noise, each
        later update sees step 0's PID error of 0.0 and slews by 0.0, which keeps a syringe
        volume's bits unless it is -0.0, and a refresh's dt is > 0 from t = 0 or past the slack."""
        volume, slew, _, updated, memory = self._state
        return (self._gauss is None and memory.prev_error == 0.0 == slew
                and math.copysign(1.0, volume) > 0.0
                and (updated == 0.0 or self.env.control_period > 1e-12))
