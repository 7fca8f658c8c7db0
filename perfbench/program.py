"""The program under test: import it, load its default config, build its RunEnvironment.

`set_up` does this in the calling interpreter and returns the loaded
modules. Run as a script from the repository root,

    python3 perfbench/program.py

it makes one cold set-up in a fresh interpreter (the program's dependencies,
numpy among them, are imported inside the timed region) and prints its
timing as one JSON line: `start` and `end` of the whole set-up on
`time.perf_counter`'s clock, and `config_s`, the seconds of
`load_default_config` within it.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PROGRAM_MODULES = ("experiments", "config", "control", "controllers", "metrics", "telemetry")


class Program:
    """The imported program modules, addressed the way the tracer patches them."""

    def __init__(self):
        for name in PROGRAM_MODULES:
            setattr(self, "xp" if name == "experiments" else name, importlib.import_module(f"morphfin.{name}"))


def build_environment(prog, config):
    sim = config.sim
    return prog.xp.RunEnvironment(
        params=config.fish,
        power=config.power,
        pid=config.pid,
        buoyancy=config.buoyancy,
        dt=sim.dt,
        record_every=sim.record_every,
        control_period=sim.control_period,
        depth_resolution=sim.depth_resolution_m,
        depth_hold=sim.depth_hold,
        target_depth=sim.target_depth,
        noise=sim.noise(),
    )


def set_up():
    """Import the program, load the default config, build the environment.

    Returns the program, the environment and the seconds
    `load_default_config` took.
    """
    prog = Program()
    loaded = time.perf_counter()
    config = prog.config.load_default_config()
    config_s = time.perf_counter() - loaded
    return prog, build_environment(prog, config), config_s


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    _, _, config_s = set_up()
    end = time.perf_counter()
    print(json.dumps({"start": start, "end": end, "config_s": config_s}))
