"""Closed-loop controllers advanced by the simulation clock.

SwimController combines the open-loop caudal gait with the optional PID
depth hold and its sensor, which adds seeded noise to the true depth, then
quantizes it. The PID updates at the control rate (default 50 Hz) while the
commanded servo angle is evaluated analytically at every command. The depth
loop's arithmetic is hydro._DEPTH, which simulate runs inline in a depth block.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

# apply_volume_rate is unused here but stays importable: perfbench's tracer
# wraps controllers.apply_volume_rate by that name. The depth loop calls
# controllers.depth_controller, so a wrapper of it sees every PID update.
from .control import (  # noqa: F401
    DepthSchedule,
    GaitCommand,
    PidMemory,
    apply_volume_rate,
    depth_controller,
)
from .errors import DomainError
from .hydro import depth_law, gait_law

if TYPE_CHECKING:  # experiments imports this module
    from .experiments import RunEnvironment


class SwimController:
    """Gait generation plus optional depth hold through the buoyancy syringe.

    The depth loop runs exactly when a depth schedule is given, with the
    PID gains, syringe, control period, depth noise std and depth resolution
    of `env`; the noise is drawn from `seed`, by the depth loop alone, and
    only when its std is > 0.
    `command` returns ControlInput's seven fields as a plain tuple. simulate commands
    step 0 alone and runs the rest inline: `open_loop`'s gait in a law block, on step 0's
    buoyancy and syringe volume, or with `depth_hold`, hydro._DEPTH on the loop's state,
    `_state`, in a depth block that writes it back. run_condition sets `open_loop` beside
    a fresh loop of a constant target; simulate runs its law if step 0 leaves it at rest.
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
        self.gait = gait
        self.open_loop = None if self.depth_hold else gait
        self._control = gait_law(gait)  # the sine of hydro._GAIT
        self._gauss = random.Random(seed).gauss if self.depth_hold and env.noise > 0.0 else None
        # hydro._LOOP: syringe volume and rate, times of the last call and PID update, PID memory
        self._state = (env.buoyancy.syringe_volume, 0.0, None, None, PidMemory())
        self._depth_law = depth_law(self) if self.depth_hold else None

    def command(self, t: float, depth: float) -> tuple:
        if t < 0.0:
            raise DomainError(f"time must be >= 0, got {t}")
        return self._control(t) if self._depth_law is None else self._depth_law(t, depth)
