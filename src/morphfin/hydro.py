"""Rigid-body dynamics of the free-swimming robotic tuna.

Planar pose (x, y, yaw) plus depth, with body-frame surge/sway velocities,
yaw rate, and heave velocity. Forces are quasi-steady surrogates: quadratic
hull drag, a cycle-mean thrust law driven by the caudal gait, a tail reaction
moment exciting head yaw, quadratic yaw damping scaled by dorsal-fin
erection, and syringe buoyancy acting on heave. States advance with a fixed
step classical Runge-Kutta (RK4) integrator.
"""

from __future__ import annotations

import functools
import linecache
import math
import re
import struct
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple, Protocol

from .errors import ConfigError, DomainError, MorphfinError, SimulationFault
from .metrics import PowerModel
from .telemetry import Telemetry

# s, the largest step accepted. It bounds the step, not stability: some fish within
# the calibration's DEFAULT_BOUNDS diverge at it, and a diverging run is a SimulationFault.
MAX_DT = 0.01
# most steps one run may take; the longest protocol run, 60 s at 1 ms, takes 6e4
MAX_STEPS = 10**7

_DEG = math.pi / 180.0
_pack = struct.Struct("13d").pack  # a record's bytes in array("d"): frombytes beats extend 4x

# The RK4 step is generated from this table: one row per integrated FishState
# field, with its local name in the step and its rate at stage {k}. A rate reads
# the loads (thrust, moment, damping, buoyancy), the run's coefficients and the
# stage values of the locals it names; c and s are the cos and sin of the stage
# yaw. Each rate keeps the association of the tuple-form oracle in
# tests/test_hydro.py, so the step stays bit-identical to it.
_RATES = (
    ("x", "x", "u{k} * c{k} - v{k} * s{k}"),
    ("y", "y", "u{k} * s{k} + v{k} * c{k}"),
    ("depth", "depth", "w{k}"),
    ("yaw", "yaw", "r{k}"),
    ("surge_vel", "u", "(thrust - rho_cda * u{k} * abs(u{k})) / mass"),
    ("sway_vel", "v", "-rho_cda * v{k} * abs(v{k}) / mass"),  # lightly damped, unforced
    ("yaw_rate", "r", "(moment - damping * r{k} * abs(r{k})) / yaw_inertia"),
    ("heave_vel", "w", "(-buoyancy - heave_drag_coeff * w{k} * abs(w{k})) / heave_mass"),
)
# the FishState fields the step advances, in the order of its flat tuple
_STATE_FIELDS = tuple(field for field, _, _ in _RATES)
# all that yaw reads: a step of these fields alone calls no cos or sin
YAW_FIELDS = ("yaw", "yaw_rate")
# The gait law and the tail moment, each written once for SwimController's law and the
# blocks: lines run once per run (on the GaitCommand `gait` or FishParams `params`), then
# at each time t. The moment is the tail's reaction plus thrust vectored by its deflection.
_GAIT = (("omega = 2.0 * pi * gait.frequency",
          "bias, amplitude, amp_omega = gait.bias, gait.amplitude, gait.amplitude * omega"),
         ("wt = omega * t", "angle = (bias + amplitude * sin(wt)) * _DEG",
          "rate = amp_omega * cos(wt) * _DEG"))
_MOMENT = (("reaction, half_tail = params.tail_reaction_coeff, params.tail_length / 2.0",),
           ("moment = reaction * rate * abs(rate) + thrust * sin(angle) * half_tail",))


@dataclass(frozen=True)
class FishParams:
    """Physical constants and surrogate-model coefficients.

    The defaults are the one source of the calibrated set reproducing the
    published speed, COT, and yaw-stability anchors; configs/default.json
    is their packaged copy. body_length is validated but the dynamics do
    not read it.
    """

    mass: float = 2.305  # kg
    yaw_inertia: float = 0.02  # kg*m^2
    body_length: float = 0.544  # m
    tail_length: float = 0.288  # m
    frontal_area: float = 0.0458  # m^2, ellipse through the 290x201 mm section
    frontal_drag_coeff: float = 0.30
    water_density: float = 1000.0  # kg/m^3
    thrust_coeff: float = 0.121546875
    thrust_freq_exponent: float = 2.0
    thrust_amp_exponent: float = 2.0
    tail_reaction_coeff: float = 0.0784  # N*m per (rad/s)^2
    yaw_damping_body: float = 0.3399625  # N*m per (rad/s)^2
    yaw_damping_fin: float = 0.245  # N*m per (rad/s)^2 at full erection
    heave_drag_coeff: float = 95.0  # N per (m/s)^2
    heave_added_mass: float = 1.5  # kg
    gravity: float = 9.81  # m/s^2

    def validate(self) -> None:
        positives = ("mass", "yaw_inertia", "water_density", "gravity", "frontal_area",
                     "frontal_drag_coeff")
        nonnegatives = ("body_length", "tail_length", "thrust_coeff", "tail_reaction_coeff",
                        "yaw_damping_body", "yaw_damping_fin", "heave_drag_coeff",
                        "heave_added_mass")
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if name in positives and not (value > 0.0):
                raise ConfigError("must be > 0", f"fish.{name}")
            if name in nonnegatives and not (value >= 0.0):
                raise ConfigError("must be >= 0", f"fish.{name}")
            if not math.isfinite(value):  # JSON's 1e400 loads as inf
                raise ConfigError("must be finite", f"fish.{name}")


@dataclass(frozen=True)
class FishState:
    """Kinematic state. Depth is positive down; the free surface is depth 0."""

    x: float = 0.0
    y: float = 0.0
    depth: float = 0.0
    yaw: float = 0.0  # rad
    surge_vel: float = 0.0  # m/s, body frame
    sway_vel: float = 0.0  # m/s, body frame
    yaw_rate: float = 0.0  # rad/s
    heave_vel: float = 0.0  # m/s, positive down
    time: float = 0.0  # s

    def validate(self) -> None:
        for name in (*_STATE_FIELDS, "time"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"state field {name} is not finite")
        if self.depth < 0.0:
            raise DomainError(f"depth must be >= 0, got {self.depth}")

    def vector(self):
        """The integrated fields as the flat tuple the integrator advances."""
        return tuple(getattr(self, name) for name in _STATE_FIELDS)


class ControlInput(NamedTuple):
    """Instantaneous actuation fed to the force model for one step.

    A NamedTuple for callers that build an input by name; its field order is part of
    its interface, as SwimController.command returns the seven fields as a plain tuple.
    """

    servo_angle: float = 0.0  # rad
    servo_rate: float = 0.0  # rad/s
    gait_frequency: float = 0.0  # Hz
    gait_amplitude: float = 0.0  # rad
    erection: float = 0.0  # [0, 1]
    buoyancy: float = 0.0  # N, positive up
    syringe_volume: float = 0.0  # m^3, carried for telemetry only


def _rho_cda(params: FishParams) -> float:
    """Hull-drag coefficient 0.5*rho*Cd*A (N per (m/s)^2) of surge and sway."""
    return 0.5 * params.water_density * params.frontal_drag_coeff * params.frontal_area


def drag_force(params: FishParams, speed: float) -> float:
    """Quadratic hull drag, signed so it always opposes the motion."""
    return -_rho_cda(params) * speed * abs(speed)


def mean_thrust(params: FishParams, freq: float, amp: float) -> float:
    """Cycle-mean propulsive force of the caudal gait (freq in Hz, amp in rad).

    Power-law surrogate k_T * rho * A * L_tail^2 * f^a * amp^b, strictly
    increasing in both arguments; the exponents are calibration variables.
    """
    if freq < 0.0 or amp < 0.0:
        raise DomainError(f"freq and amp must be >= 0, got freq={freq}, amp={amp}")
    if freq == 0.0 or amp == 0.0:
        return 0.0
    try:
        return (params.thrust_coeff * params.water_density * params.frontal_area
                * params.tail_length**2 * freq**params.thrust_freq_exponent
                * amp**params.thrust_amp_exponent)
    except OverflowError:  # a power beyond the double range
        return math.inf


def _source(lines, indent: str = "") -> str:
    """Python source of `lines`; a nested list of lines is indented one level more."""
    return "".join(f"{indent}{line}\n" if isinstance(line, str) else _source(line, indent + "    ")
                   for line in lines)


def _compiled(name: str, lines) -> dict:
    """The names `lines` define; linecache keeps the source for tracebacks and inspect."""
    source, filename = _source(lines), f"<hydro {name}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {**vars(math), **globals()}  # cos, sin, pi, isfinite and hydro's names
    exec(compile(source, filename, "exec"), namespace)
    return namespace


# gait_law(gait) -> control(t, buoyancy=0.0, volume=0.0), ControlInput's fields as a plain tuple
gait_law = _compiled("gait law", [
    "def gait_law(gait):", [
        *_GAIT[0],
        "frequency, amp, erection = gait.frequency, amplitude * _DEG, gait.fin_erection_setpoint",
        "def control(t, buoyancy=0.0, volume=0.0):", [
            *_GAIT[1], "return angle, rate, frequency, amp, erection, buoyancy, volume"],
        "return control"],
])["gait_law"]


@functools.cache
def _step_factory(fields: tuple[str, ...]) -> dict:
    """make_command(params, power, dt, t0, command) and make_law(params, power, dt, t0, gait,
    control) -> block(sv, loads, i, ends, values) -> (sv, loads, control), generated from
    _RATES, _GAIT and _MOMENT once per field set. A block runs steps i+1 to the last of `ends`
    in locals: step i > 0 advances `fields` (the rest hold their values at every stage) to
    t0 + i*dt under the loads of step i-1, then gets its control and loads; at each of `ends`
    it appends the record, with the PowerModel `power`'s servo power, to `values` (None records
    nothing). A commanded block calls `command` and computes the loads inline; a law block
    evaluates the gait law and the tail moment inline, and takes the rest from step 0's
    `control` and loads. A ValueError of cos or sin, a non-finite control, or a non-finite
    state at a record (naming its field) is a SimulationFault at t.
    """
    rows = [row for row in _RATES if row[0] in fields]
    if not 0 < len(rows) == len(set(fields)):
        raise ValueError(f"{fields} is not a nonempty set of state fields")
    read = set(re.findall(r"(\w+)\{k\}", " ".join(rate for _, _, rate in rows)))
    trig = bool(read & {"c", "s"})
    # a rate reads a held local, and c and s if yaw is held, as itself at every stage
    moving = {local for _, local, _ in rows} | ({"c", "s"} if "yaw" in fields else set())
    staged = sorted((read - {"c", "s"} | ({"yaw"} if trig else set())) & moving)
    body = []
    ks = {}  # (local, stage) -> the rate's name, or its expression if no stage reads it
    for k, h in enumerate(("half", "half", "dt", None), 1):
        n = k if k > 1 else ""  # stage 1 reads the state itself
        if trig and (k == 1 or "yaw" in fields):
            body.append(f"c{n}, s{n} = cos(yaw{n}), sin(yaw{n})")
        stage = {name: f"{name}{n}" if name in moving else name for name in read}
        for _, local, rate in rows:
            ks[local, k] = re.sub(r"(\w+)\{k\}", lambda m: stage[m[1]], rate)
            if not ks[local, k].isidentifier():
                if local in staged:
                    body.append(f"d{local}{k} = {ks[local, k]}")
                ks[local, k] = f"d{local}{k}" if local in staged else f"({ks[local, k]})"
        body += [f"{local}{k + 1} = {local} + {h} * {ks[local, k]}" for local in staged if h]
    # in place, in _RATES order: no rate reads x or y, and yaw only through c and s
    body += ["{0} = {0} + sixth * ({1} + 2.0 * {2} + 2.0 * {3} + {4})".format(
        local, *(ks[local, k] for k in (1, 2, 3, 4))) for _, local, _ in rows]
    if "depth" in fields:  # hard free-surface boundary: clamp depth, kill upward heave on contact
        body += ["if depth < 0.0:", ["depth = 0.0", *["w = max(w, 0.0)"] * ("w" in moving)]]
    state, loads = ", ".join(local for _, local, _ in _RATES), "thrust, moment, damping, buoyancy"
    # a held field keeps its start value, which simulate has checked to be finite
    record = (
        f"if not ({' and '.join(f'isfinite({local})' for _, local, _ in rows)}):",
        ["raise SimulationFault(t, 'non-finite state ' + next(name for name, value in",
         f"    zip(_STATE_FIELDS, ({state})) if not isfinite(value)))"],
        "torque = abs(moment)",  # the row in CSV column order, with PowerModel's power
        "values.frombytes(_pack(t, x, y, depth, yaw / _DEG, r / _DEG, u, v, angle / _DEG, torque,",
        "    max(torque * abs(rate), 0.0) / efficiency + idle_power, erection, volume * 1e6))")

    coefficients = (  # once per run, from `params`, `power` and `dt`
        "rho_cda, mass, yaw_inertia = _rho_cda(params), params.mass, params.yaw_inertia",
        "heave_drag_coeff, heave_mass = params.heave_drag_coeff, mass + params.heave_added_mass",
        "efficiency, idle_power = power.efficiency, power.idle_power",
        "half, sixth = dt / 2.0, dt / 6.0")

    def maker(signature, once, control, finite, load, final):
        block = "def block(sv, loads, i, ends, values):"
        return [f"def {signature}:", [*coefficients, *once, block, [
            f"{state} = sv", f"{loads} = loads", "t = t0",
            "for end in ends:", [
                "for i in range(i + 1, end + 1):", [
                    "if i:", [
                        "t = t0 + i * dt", "try:", body,
                        "except ValueError as exc:  # cos/sin of an infinite yaw",
                        ["raise SimulationFault(t, 'non-finite state yaw') from exc"]],
                    "try:", control,
                    "except MorphfinError:  # a DomainError is a ValueError too", ["raise"],
                    "except ValueError as exc:  # sin/cos of an infinite gait phase",
                    ["raise SimulationFault(t) from exc"],
                    f"if not ({finite}):", ["raise SimulationFault(t)"],
                    *load],
                "if values is not None:", record],
            f"return ({state}), ({loads}), {final}"], "return block"]]

    # a commanded step's loads
    load = ("angle, rate, frequency, amplitude, erection, buoyancy, volume = control",
            "if not (0.0 <= erection <= 1.0):",
            ["raise DomainError(f'erection must be in [0, 1], got {erection}')"],
            "thrust = mean_thrust(params, frequency, amplitude)",
            *_MOMENT[1], "damping = damping_body + erection * damping_fin")
    damping = "damping_body, damping_fin = params.yaw_damping_body, params.yaw_damping_fin"
    return _compiled(f"RK4 step of {', '.join(fields)}", [
        *maker("make_command(params, power, dt, t0, command)", (*_MOMENT[0], damping),
               ["control = command(t, depth)"], "all(map(isfinite, control))", load, "control"),
        *maker("make_law(params, power, dt, t0, gait, control)",
               (*_GAIT[0], *_MOMENT[0], "erection, volume = control[4], control[6]"), _GAIT[1],
               "isfinite(angle) and isfinite(rate)", _MOMENT[1], "(angle, rate, *control[2:])"),
    ])


def check_run(duration: float, dt: float, field: str = "sim.duration") -> None:
    """Raise ConfigError unless a run of `duration` at step `dt` takes 1 to MAX_STEPS steps."""
    if not (0.0 < dt <= MAX_DT):
        raise ConfigError(f"dt must be in (0, {MAX_DT}] s", "sim.dt")
    if not (duration > 0.0):
        raise ConfigError("duration must be > 0", field)
    if not (duration / dt <= MAX_STEPS):
        raise ConfigError(f"duration/dt must be <= {MAX_STEPS} steps", field)


def step(
    params: FishParams, state: FishState, control: ControlInput, dt: float
) -> FishState:
    """Advance the state by exactly dt with one RK4 step (controls held)."""
    check_run(dt, dt)
    block = _step_factory(_STATE_FIELDS)["make_command"](
        params, PowerModel(), dt, state.time, lambda t, depth: control)
    # step 0 takes the control and its loads at state.time, as simulate starts a run
    new = FishState(*block(state.vector(), (0.0,) * 4, -1, (1,), None)[0], time=state.time + dt)
    new.validate()
    return new


class Controller(Protocol):
    def command(self, time: float, depth: float) -> tuple: ...  # ControlInput's fields


def simulate(
    params: FishParams,
    controller: Controller,
    duration: float,
    dt: float,
    *,
    initial_state: FishState | None = None,
    power_model: PowerModel = PowerModel(),
    record_every: int = 1,
    fields: tuple[str, ...] = _STATE_FIELDS,
) -> Telemetry:
    """Run a closed-loop simulation and return sampled telemetry.

    Every `record_every`-th step is sampled (1 keeps all steps, so a run of duration/dt steps
    yields ceil(duration/dt)+1 records, the first being the initial state); step 0 runs in a
    commanded _step_factory block, the rest in one block that records as it goes. The
    controller is handed the true time and depth every step, or at step 0 alone if its
    `open_loop` is a gait, whose law then runs inline on step 0's buoyancy and syringe volume.
    A depth loop (`depth_hold`) gives way to a gait beside it (of a constant target) only if
    step 0 leaves it `at_rest`, with heave and depth held. A non-finite control or state, or a
    ValueError that is no MorphfinError, is a SimulationFault. Only `fields` are integrated;
    the others hold their start values, as does a sway that starts at +0.0: it is unforced, so
    its rate is -0.0 at every stage and it stays +0.0 bit for bit (one step turns a -0.0 into
    +0.0). So do, under a law of zero buoyancy, a heave from +0.0 and a depth that is not -0.0.
    """
    check_run(duration, dt)
    if not isinstance(record_every, int) or record_every < 1:
        raise ConfigError("record_every must be an integer >= 1", "sim.record_every")
    params.validate()
    state = initial_state if initial_state is not None else FishState()
    state.validate()

    n_steps = math.ceil(duration / dt)
    if state.sway_vel == 0.0 and math.copysign(1.0, state.sway_vel) > 0.0:
        fields = tuple(field for field in fields if field != "sway_vel") or fields
    makers = _step_factory(tuple(fields))
    records = Telemetry()
    # command is bound once per run; a tracer that wraps the class method wraps it too
    block = makers["make_command"](params, power_model, dt, state.time, controller.command)
    # step 0 is commanded and recorded on every path; it advances nothing, so reads no loads
    sv, loads, control = block(state.vector(), (0.0,) * 4, -1, (0,), records.values)
    gait = getattr(controller, "open_loop", None)
    # a law block holds step 0's buoyancy: with none, a heave from +0.0 has a +-0.0 rate
    # at every stage, so it stays +0.0, and a depth with its sign bit clear keeps its bits
    held = control[5] == 0.0 == state.heave_vel and min(
        math.copysign(1.0, state.heave_vel), math.copysign(1.0, state.depth)) > 0.0
    # a depth loop that step 0 leaves moving stays in the commanded block
    if getattr(controller, "depth_hold", False) and not (held and controller.at_rest()):
        gait = None
    if gait is not None:
        if held:
            makers = _step_factory(tuple(f for f in fields if f not in ("heave_vel", "depth"))
                                   or tuple(fields))
        block = makers["make_law"](params, power_model, dt, state.time, gait, control)
    block(sv, loads, 0, chain(range(record_every, n_steps, record_every), (n_steps,)),
          records.values)
    return records
