"""Rigid-body dynamics of the free-swimming robotic tuna.

Planar pose (x, y, yaw) plus depth, with body-frame surge/sway velocities,
yaw rate, and heave velocity. Forces are quasi-steady surrogates: quadratic
hull drag, a cycle-mean thrust law driven by the caudal gait, a tail reaction
moment exciting head yaw, quadratic yaw damping scaled by dorsal-fin
erection, and syringe buoyancy acting on heave. States advance with a fixed
step classical Runge-Kutta (RK4) integrator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Protocol

from .errors import ConfigError, DomainError, SimulationFault
from .metrics import PowerModel, servo_power
from .telemetry import Telemetry

# s, the largest step accepted. It bounds the step, not stability: some fish within
# the calibration's DEFAULT_BOUNDS diverge at it, and a diverging run is a SimulationFault.
MAX_DT = 0.01
# most steps one run may take; the longest protocol run, 60 s at 1 ms, takes 6e4
MAX_STEPS = 10**7

_DEG = math.pi / 180.0

# FishState fields the integrator advances, in the order of its flat tuple
_STATE_FIELDS = ("x", "y", "depth", "yaw", "surge_vel", "sway_vel", "yaw_rate", "heave_vel")


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
        positives = (
            "mass",
            "yaw_inertia",
            "water_density",
            "gravity",
            "frontal_area",
            "frontal_drag_coeff",
        )
        for name in positives:
            if not (getattr(self, name) > 0.0):
                raise ConfigError("must be > 0", f"fish.{name}")
        nonnegatives = (
            "body_length",
            "tail_length",
            "thrust_coeff",
            "tail_reaction_coeff",
            "yaw_damping_body",
            "yaw_damping_fin",
            "heave_drag_coeff",
            "heave_added_mass",
        )
        for name in nonnegatives:
            if not (getattr(self, name) >= 0.0):
                raise ConfigError("must be >= 0", f"fish.{name}")


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

    A NamedTuple, so the per-step controller can build it positionally at
    the cost of a tuple; the field order is part of its interface.
    """

    servo_angle: float = 0.0  # rad
    servo_rate: float = 0.0  # rad/s
    gait_frequency: float = 0.0  # Hz
    gait_amplitude: float = 0.0  # rad
    erection: float = 0.0  # [0, 1]
    buoyancy: float = 0.0  # N, positive up
    syringe_volume: float = 0.0  # m^3, carried for telemetry only

    def is_finite(self) -> bool:
        isfinite = math.isfinite
        angle, rate, frequency, amplitude, erection, buoyancy, volume = self
        return (
            isfinite(angle)
            and isfinite(rate)
            and isfinite(frequency)
            and isfinite(amplitude)
            and isfinite(erection)
            and isfinite(buoyancy)
            and isfinite(volume)
        )


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
        return (
            params.thrust_coeff
            * params.water_density
            * params.frontal_area
            * params.tail_length**2
            * freq**params.thrust_freq_exponent
            * amp**params.thrust_amp_exponent
        )
    except OverflowError:  # a power beyond the double range
        return math.inf


def _loads(params: FishParams):
    """load(control) -> (thrust, tail_moment, damping, buoyancy) for fixed params.

    thrust (N) is the cycle-mean gait thrust; tail_moment (N*m) is the
    reaction moment of the oscillating tail plus thrust vectoring from the
    instantaneous tail deflection (zero-mean over a symmetric cycle, it
    carries the turning bias into a mean yaw drift); damping (N*m per
    (rad/s)^2) is the quadratic yaw-damping coefficient, which grows with
    dorsal-fin erection; buoyancy (N, positive up) is the syringe force.
    params is read once, and the last gait's thrust is kept.
    """
    reaction = params.tail_reaction_coeff
    half_tail = params.tail_length / 2.0
    damping_body, damping_fin = params.yaw_damping_body, params.yaw_damping_fin
    sin = math.sin
    # nan equals nothing, so the first call computes the thrust
    last_frequency = last_amplitude = thrust = math.nan

    def load(control):
        nonlocal last_frequency, last_amplitude, thrust
        angle, rate, frequency, amplitude, erection, buoyancy, _ = control
        if not (0.0 <= erection <= 1.0):
            raise DomainError(f"erection must be in [0, 1], got {erection}")
        if frequency != last_frequency or amplitude != last_amplitude:
            thrust = mean_thrust(params, frequency, amplitude)
            last_frequency, last_amplitude = frequency, amplitude
        moment = reaction * rate * abs(rate) + thrust * sin(angle) * half_tail
        return thrust, moment, damping_body + erection * damping_fin, buoyancy

    return load


# Internal fast path: state as a flat tuple (x, y, depth, yaw, u, v, r, w),
# loads as the tuple a _loads closure returns. The per-step loop works on scalar
# locals and allocates nothing but the returned tuples. Every expression keeps
# the association of the tuple-form oracle in tests/test_hydro.py, so the
# output stays bit-identical to it.


def _integrator(params: FishParams, dt: float):
    """The RK4 step advance(sv, loads) -> sv for fixed params and dt.

    The coefficients are read from params once here, not in each of the four
    derivative stages of every step; simulate builds one per run.
    """
    rho_cda = _rho_cda(params)
    mass = params.mass
    yaw_inertia = params.yaw_inertia
    heave_drag_coeff = params.heave_drag_coeff
    heave_mass = mass + params.heave_added_mass
    cos, sin = math.cos, math.sin
    half = dt / 2.0
    sixth = dt / 6.0

    def advance(sv, loads):
        # Four derivative stages: stage k's d(depth) is w_k, d(yaw) is r_k, and
        # its dx, dy are summed below from c_k, s_k, the cos and sin of its yaw.
        x, y, depth, yaw, u, v, r, w = sv
        f, m, c, b = loads
        c1, s1 = cos(yaw), sin(yaw)
        du1 = (f - rho_cda * u * abs(u)) / mass
        dv1 = -rho_cda * v * abs(v) / mass  # lightly damped, unforced at zero bias
        dr1 = (m - c * r * abs(r)) / yaw_inertia
        dw1 = (-b - heave_drag_coeff * w * abs(w)) / heave_mass
        u2, v2, r2, w2 = u + half * du1, v + half * dv1, r + half * dr1, w + half * dw1
        yaw_k = yaw + half * r
        c2, s2 = cos(yaw_k), sin(yaw_k)
        du2 = (f - rho_cda * u2 * abs(u2)) / mass
        dv2 = -rho_cda * v2 * abs(v2) / mass
        dr2 = (m - c * r2 * abs(r2)) / yaw_inertia
        dw2 = (-b - heave_drag_coeff * w2 * abs(w2)) / heave_mass
        u3, v3, r3, w3 = u + half * du2, v + half * dv2, r + half * dr2, w + half * dw2
        yaw_k = yaw + half * r2
        c3, s3 = cos(yaw_k), sin(yaw_k)
        du3 = (f - rho_cda * u3 * abs(u3)) / mass
        dv3 = -rho_cda * v3 * abs(v3) / mass
        dr3 = (m - c * r3 * abs(r3)) / yaw_inertia
        dw3 = (-b - heave_drag_coeff * w3 * abs(w3)) / heave_mass
        u4, v4, r4, w4 = u + dt * du3, v + dt * dv3, r + dt * dr3, w + dt * dw3
        yaw_k = yaw + dt * r3
        c4, s4 = cos(yaw_k), sin(yaw_k)
        du4 = (f - rho_cda * u4 * abs(u4)) / mass
        dv4 = -rho_cda * v4 * abs(v4) / mass
        dr4 = (m - c * r4 * abs(r4)) / yaw_inertia
        dw4 = (-b - heave_drag_coeff * w4 * abs(w4)) / heave_mass
        depth = depth + sixth * (w + 2.0 * w2 + 2.0 * w3 + w4)
        w = w + sixth * (dw1 + 2.0 * dw2 + 2.0 * dw3 + dw4)
        # hard free-surface boundary: clamp depth, kill upward heave on contact
        if depth < 0.0:
            depth = 0.0
            w = max(w, 0.0)
        return (
            x + sixth * ((u * c1 - v * s1) + 2.0 * (u2 * c2 - v2 * s2)
                         + 2.0 * (u3 * c3 - v3 * s3) + (u4 * c4 - v4 * s4)),
            y + sixth * ((u * s1 + v * c1) + 2.0 * (u2 * s2 + v2 * c2)
                         + 2.0 * (u3 * s3 + v3 * c3) + (u4 * s4 + v4 * c4)),
            depth,
            yaw + sixth * (r + 2.0 * r2 + 2.0 * r3 + r4),
            u + sixth * (du1 + 2.0 * du2 + 2.0 * du3 + du4),
            v + sixth * (dv1 + 2.0 * dv2 + 2.0 * dv3 + dv4),
            r + sixth * (dr1 + 2.0 * dr2 + 2.0 * dr3 + dr4),
            w,
        )

    return advance


def _check_dt(dt: float) -> None:
    if not (0.0 < dt <= MAX_DT):
        raise ConfigError(f"dt must be in (0, {MAX_DT}] s", "sim.dt")


def check_run(duration: float, dt: float, field: str = "sim.duration") -> None:
    """Raise ConfigError unless a run of `duration` at step `dt` takes 1 to MAX_STEPS steps."""
    _check_dt(dt)
    if not (duration > 0.0):
        raise ConfigError("duration must be > 0", field)
    if not (duration / dt <= MAX_STEPS):
        raise ConfigError(f"duration/dt must be <= {MAX_STEPS} steps", field)


def step(
    params: FishParams, state: FishState, control: ControlInput, dt: float
) -> FishState:
    """Advance the state by exactly dt with one RK4 step (controls held)."""
    _check_dt(dt)
    sv = _integrator(params, dt)(state.vector(), _loads(params)(control))
    new = FishState(*sv, time=state.time + dt)
    new.validate()
    return new


class Controller(Protocol):
    def command(self, time: float, depth: float) -> ControlInput: ...


def simulate(
    params: FishParams,
    controller: Controller,
    duration: float,
    dt: float,
    *,
    initial_state: FishState | None = None,
    power_model: PowerModel = PowerModel(),
    record_every: int = 1,
) -> Telemetry:
    """Run a closed-loop simulation and return sampled telemetry.

    Every `record_every`-th step is sampled (1 keeps all steps, so a run of
    duration/dt steps yields ceil(duration/dt)+1 records, the first being the
    initial state). The controller is handed the true time and depth.
    """
    check_run(duration, dt)
    if record_every < 1:
        raise ConfigError("record_every must be >= 1", "sim.record_every")
    params.validate()
    state = initial_state if initial_state is not None else FishState()
    state.validate()

    n_steps = math.ceil(duration / dt)
    advance = _integrator(params, dt)
    load = _loads(params)
    # bound once per run; a tracer that wraps the class method wraps this too
    command = controller.command
    sv = state.vector()
    t0 = state.time
    records = Telemetry()
    extend = records.values.extend

    # Step i > 0 advances to t0 + i*dt under the loads held since step i-1.
    t = t0
    for i in range(n_steps + 1):
        if i:
            t = t0 + i * dt
            try:
                sv = advance(sv, loads)
            except ValueError as exc:  # math.cos/sin of an infinite yaw
                raise SimulationFault(t, "non-finite state yaw") from exc
        control = command(t, sv[2])
        if not control.is_finite():
            raise SimulationFault(t)
        loads = load(control)
        if i % record_every == 0 or i == n_steps:
            if not all(map(math.isfinite, sv)):
                name = next(n for n, v in zip(_STATE_FIELDS, sv) if not math.isfinite(v))
                raise SimulationFault(t, f"non-finite state {name}")
            x, y, z, yaw, u, v, r, _ = sv
            torque = abs(loads[1])
            extend((  # in CSV column order
                t, x, y, z, yaw / _DEG, r / _DEG, u, v, control.servo_angle / _DEG, torque,
                servo_power(power_model, torque, abs(control.servo_rate)),
                control.erection, control.syringe_volume * 1e6,
            ))
    return records
