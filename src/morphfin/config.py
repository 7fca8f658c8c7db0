"""Run configuration: JSON-syntax config file with strict validation.

Every type invariant is checked at load time with a field-path diagnostic;
unknown keys are rejected. Each default lives on its section dataclass, so
`RunConfig()` is the calibrated robot and the packaged configs/default.json
is a copy of it. Annotations here are evaluated, not postponed, so that the
loader's type-hint lookups compile no strings.
"""

import json
import math
import reprlib
from dataclasses import dataclass, field, fields, is_dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Any, get_args, get_origin, get_type_hints

from .control import BuoyancyState, GaitCommand, PidGains, step_schedule
from .errors import ConfigError, DomainError
from .experiments import ExperimentSpec
from .hydro import FishParams, check_run
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
    noise_depth_std_m: float = 0.001

    def validate(self) -> None:
        check_run(self.duration, self.dt)
        for name in ("record_hz", "control_hz"):
            hz = getattr(self, name)
            if not (hz > 0.0):
                raise ConfigError("must be > 0", f"sim.{name}")
            # a subnormal hz*dt would divide by zero: its step count is no finite number
            steps = 1.0 / (hz * self.dt) if hz * self.dt > 0.0 else math.inf
            whole = round(steps) if math.isfinite(steps) else 0
            if not (whole >= 1 and abs(steps - whole) <= 1e-9 * steps):
                raise ConfigError(
                    f"1/({name}*dt) must be a whole number of steps >= 1, got {steps:.6g}",
                    f"sim.{name}",
                )
        for name, what in (
            ("target_depth", "depths"), ("initial_depth", "depths"),
            ("depth_resolution_m", "depth resolution"), ("noise_depth_std_m", "noise stds"),
        ):
            value = getattr(self, name)
            if not (0.0 <= value < math.inf):
                rule = "must be >= 0" if value < 0.0 else "must be finite"
                raise ConfigError(f"{what} {rule}", f"sim.{name}")

    @property
    def record_every(self) -> int:
        return max(1, round(1.0 / (self.record_hz * self.dt)))

    @property
    def control_period(self) -> float:
        return 1.0 / self.control_hz

    def noise(self) -> float:
        return self.noise_depth_std_m if self.noise_enabled else 0.0


@dataclass(frozen=True)
class RunConfig:
    fish: FishParams = field(default_factory=FishParams)
    power: PowerModel = field(default_factory=PowerModel)
    pid: PidGains = field(default_factory=PidGains)
    buoyancy: BuoyancyState = field(default_factory=BuoyancyState)
    linkage: LinkageGeometry = field(default_factory=LinkageGeometry)
    fin: FinGeometry = field(default_factory=FinGeometry)
    gait: GaitCommand = field(default_factory=GaitCommand)
    experiment: ExperimentSpec = field(default_factory=ExperimentSpec)
    sim: SimSettings = field(default_factory=SimSettings)
    depth_schedule: list[list[float]] = field(
        default_factory=lambda: [[0.0, 0.0], [5.0, 0.3]]
    )
    output_dir: str = "results"

    def validate(self) -> None:
        for f in fields(self):
            section = getattr(self, f.name)
            if is_dataclass(section):
                section.validate()
        # each grid cell runs experiment.duration at sim.dt
        check_run(self.experiment.duration, self.sim.dt, "experiment.duration")
        for i, entry in enumerate(self.depth_schedule):
            if len(entry) != 2 or not all(math.isfinite(v) for v in entry):
                raise ConfigError(
                    "entries must be [time, target] pairs", f"depth_schedule[{i}]"
                )
            if entry[1] < 0.0:
                raise ConfigError("target must be >= 0", f"depth_schedule[{i}]")
        try:  # a step schedule's own rules: nonempty, start times distinct
            step_schedule(self.depth_schedule)
        except DomainError as exc:
            raise ConfigError(str(exc), "depth_schedule") from None


_SCALARS = {int: "an integer", bool: "a boolean", str: "a string"}


def _coerce(value: Any, hint: Any, path: str) -> Any:
    origin = get_origin(hint)
    if hint is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"expected a number, got {reprlib.repr(value)}", path)
        try:
            return float(value)
        except OverflowError:  # an integer beyond the double range
            raise ConfigError("number out of the double range", path) from None
    if hint in _SCALARS:
        # a bool is an int to isinstance, but an int field takes none
        if not isinstance(value, hint) or (hint is int and isinstance(value, bool)):
            raise ConfigError(f"expected {_SCALARS[hint]}, got {reprlib.repr(value)}", path)
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


def _build(default, data: Any, path: str = ""):
    """`default` with the fields `data` gives replaced; a dataclass field merges the same way."""
    if not isinstance(data, dict):
        raise ConfigError("expected an object", path)
    unknown = set(data) - {f.name for f in fields(default)}
    if unknown:
        raise ConfigError(f"unknown key(s): {reprlib.repr(sorted(unknown))}", path or "config")
    hints = get_type_hints(type(default))
    kwargs = {}
    for name, value in data.items():
        sub = f"{path}.{name}" if path else name
        current = getattr(default, name)
        if is_dataclass(current):
            kwargs[name] = _build(current, value, sub)
        else:
            kwargs[name] = _coerce(value, hints[name], sub)
    return replace(default, **kwargs)


def config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("top-level config must be an object")
    if isinstance(data.get("experiment"), dict) and "seed" in data["experiment"]:
        raise ConfigError("the run seed is sim.seed; set it there", "experiment.seed")
    config = _build(RunConfig(), data)
    config.validate()
    return config


def _object(pairs: list) -> dict:
    """A JSON object's dict; a key given twice, whose last value json.loads keeps, is an error."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ConfigError(f"duplicate key {reprlib.repr(key)}")
        data[key] = value
    return data


def load_config(path) -> RunConfig:
    """Load and validate a JSON config file."""
    try:
        data = json.loads(Path(path).read_text(), object_pairs_hook=_object)
    except (ValueError, RecursionError) as exc:  # not JSON, not text, or nested too deep
        raise ConfigError(f"invalid JSON: {exc}", str(path)) from exc
    return config_from_dict(data)


def load_default_config() -> RunConfig:
    """The committed calibrated default configuration."""
    text = resources.files("morphfin.configs").joinpath("default.json").read_text()
    return config_from_dict(json.loads(text, object_pairs_hook=_object))
