"""Run configuration: JSON-syntax config file with strict validation.

Every type invariant is checked at load time with a field-path diagnostic;
unknown keys are rejected. The committed default config corresponds to the
calibrated robot.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from importlib import resources
from pathlib import Path
from typing import Any, get_args, get_origin, get_type_hints

from .control import BuoyancyState, GaitCommand, PidGains
from .errors import ConfigError
from .experiments import ExperimentSpec
from .hydro import MAX_DT, FishParams, NoiseConfig
from .linkage import FinGeometry, LinkageGeometry
from .metrics import PowerModel


@dataclass(frozen=True)
class SimSettings:
    dt: float = 0.001
    duration: float = 20.0
    seed: int = 0
    record_hz: float = 100.0
    control_hz: float = 50.0
    depth_hold: bool = True
    target_depth: float = 0.2
    initial_depth: float = 0.2
    depth_resolution_m: float = 0.001
    noise_enabled: bool = False
    noise_yaw_std_deg: float = 0.1
    noise_depth_std_m: float = 0.001

    def validate(self) -> None:
        if not (0.0 < self.dt <= MAX_DT):
            raise ConfigError(f"dt must be in (0, {MAX_DT}] s", "sim.dt")
        if not (self.duration > 0.0):
            raise ConfigError("duration must be > 0", "sim.duration")
        for name in ("record_hz", "control_hz"):
            hz = getattr(self, name)
            if not (hz > 0.0):
                raise ConfigError("must be > 0", f"sim.{name}")
            steps = 1.0 / (hz * self.dt)
            whole = round(steps) if math.isfinite(steps) else 0
            if not (whole >= 1 and abs(steps - whole) <= 1e-9 * steps):
                raise ConfigError(
                    f"1/({name}*dt) must be a whole number of steps >= 1, got {steps:.6g}",
                    f"sim.{name}",
                )
        if self.target_depth < 0.0 or self.initial_depth < 0.0:
            raise ConfigError("depths must be >= 0", "sim.target_depth")
        if self.depth_resolution_m < 0.0:
            raise ConfigError("depth resolution must be >= 0", "sim.depth_resolution_m")

    @property
    def record_every(self) -> int:
        return max(1, round(1.0 / (self.record_hz * self.dt)))

    @property
    def control_period(self) -> float:
        return 1.0 / self.control_hz

    def noise(self) -> NoiseConfig:
        return NoiseConfig(
            enabled=self.noise_enabled,
            yaw_std_deg=self.noise_yaw_std_deg,
            depth_std_m=self.noise_depth_std_m,
        )


@dataclass(frozen=True)
class RunConfig:
    fish: FishParams = field(default_factory=FishParams)
    power: PowerModel = field(default_factory=lambda: PowerModel(0.740078125, 0.5))
    pid: PidGains = field(
        default_factory=lambda: PidGains(4e-4, 5e-7, 5e-4, 1.0, 3e-5)
    )
    buoyancy: BuoyancyState = field(
        default_factory=lambda: BuoyancyState(3e-5, 0.0, 6e-5, 1.2e-5, 3e-5)
    )
    linkage: LinkageGeometry = field(
        default_factory=lambda: LinkageGeometry(
            ground_len=0.06,
            crank_len=0.025,
            coupler_len=0.06,
            rocker_len=0.05,
            ground_pivot_a=(0.0, 0.0),
            ground_pivot_b=(0.06, 0.0),
            drive_angle_folded=0.5236,
            drive_angle_erect=2.5307,
            max_drive_torque=0.5,
        )
    )
    fin: FinGeometry = field(
        default_factory=lambda: FinGeometry(0.201, 0.128, 0.012, 0.0)
    )
    gait: GaitCommand = field(default_factory=lambda: GaitCommand(1.0, 20.0))
    experiment: ExperimentSpec = field(default_factory=ExperimentSpec)
    sim: SimSettings = field(default_factory=SimSettings)
    depth_schedule: list[list[float]] = field(
        default_factory=lambda: [[0.0, 0.0], [5.0, 0.3]]
    )
    output_dir: str = "results"

    def validate(self) -> None:
        self.fish.validate()
        self.power.validate()
        self.pid.validate()
        self.buoyancy.validate()
        self.linkage.validate()
        self.fin.validate()
        self.gait.validate()
        self.experiment.validate()
        self.sim.validate()
        for i, entry in enumerate(self.depth_schedule):
            if len(entry) != 2 or not all(math.isfinite(v) for v in entry):
                raise ConfigError(
                    "entries must be [time, target] pairs", f"depth_schedule[{i}]"
                )
            if entry[1] < 0.0:
                raise ConfigError("target must be >= 0", f"depth_schedule[{i}]")


_SECTIONS = (
    "fish",
    "power",
    "pid",
    "buoyancy",
    "linkage",
    "fin",
    "gait",
    "experiment",
    "sim",
)


def _coerce(value: Any, hint: Any, path: str) -> Any:
    origin = get_origin(hint)
    if hint is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"expected a number, got {value!r}", path)
        return float(value)
    if hint is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"expected an integer, got {value!r}", path)
        return value
    if hint is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"expected a boolean, got {value!r}", path)
        return value
    if hint is str:
        if not isinstance(value, str):
            raise ConfigError(f"expected a string, got {value!r}", path)
        return value
    if origin is tuple:
        args = get_args(hint)
        if not isinstance(value, (list, tuple)) or len(value) != len(args):
            raise ConfigError(f"expected a {len(args)}-element array", path)
        return tuple(
            _coerce(v, a, f"{path}[{i}]") for i, (v, a) in enumerate(zip(value, args))
        )
    if origin is list:
        (elem,) = get_args(hint)
        if not isinstance(value, list):
            raise ConfigError("expected an array", path)
        return [_coerce(v, elem, f"{path}[{i}]") for i, v in enumerate(value)]
    raise ConfigError(f"unsupported config type {hint!r}", path)


def _build(default, data: Any, path: str):
    """The section `default` with the fields `data` gives replaced."""
    if not isinstance(data, dict):
        raise ConfigError("expected an object", path)
    cls = type(default)
    hints = get_type_hints(cls)
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown key(s): {sorted(unknown)}", path)
    kwargs = {
        name: _coerce(value, hints[name], f"{path}.{name}")
        for name, value in data.items()
    }
    return replace(default, **kwargs)


def config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("top-level config must be an object")
    known = set(_SECTIONS) | {"depth_schedule", "output_dir"}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown key(s): {sorted(unknown)}", "config")
    defaults = RunConfig()
    kwargs = {}
    for name in _SECTIONS:
        if name in data:
            kwargs[name] = _build(getattr(defaults, name), data[name], name)
    if "depth_schedule" in data:
        kwargs["depth_schedule"] = _coerce(
            data["depth_schedule"], list[list[float]], "depth_schedule"
        )
    if "output_dir" in data:
        kwargs["output_dir"] = _coerce(data["output_dir"], str, "output_dir")
    config = RunConfig(**kwargs)
    config.validate()
    return config


def load_config(path) -> RunConfig:
    """Load and validate a JSON config file."""
    try:
        text = Path(path).read_text()
    except OSError:
        raise
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}", str(path)) from exc
    return config_from_dict(data)


def load_default_config() -> RunConfig:
    """The committed calibrated default configuration."""
    text = resources.files("morphfin.configs").joinpath("default.json").read_text()
    return config_from_dict(json.loads(text))
