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
import random
from dataclasses import dataclass
from typing import Protocol

from .errors import ConfigError, DomainError, SimulationFault
from .metrics import PowerModel, servo_power
from .telemetry import TelemetryRecord

MAX_DT = 0.01  # s, stability envelope of the fixed-step integrator

_DEG = math.pi / 180.0

# FishState fields the integrator advances, in the order of its flat tuple
_STATE_FIELDS = ("x", "y", "depth", "yaw", "surge_vel", "sway_vel", "yaw_rate", "heave_vel")


@dataclass(frozen=True)
class FishParams:
    """Physical constants and surrogate-model coefficients.

    Defaults are the committed calibrated set reproducing the published
    speed, COT, and yaw-stability anchors (see configs/default.json).
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
        if not (self.yaw_damping_fin >= 0.0):
            raise ConfigError("must be >= 0", "fish.yaw_damping_fin")
        nonnegatives = (
            "body_length",
            "tail_length",
            "thrust_coeff",
            "tail_reaction_coeff",
            "yaw_damping_body",
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
    servo_angle: float = 0.0  # rad
    time: float = 0.0  # s

    def validate(self) -> None:
        for name in (*_STATE_FIELDS, "servo_angle", "time"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"state field {name} is not finite")
        if self.depth < 0.0:
            raise DomainError(f"depth must be >= 0, got {self.depth}")

    def vector(self):
        """The integrated fields as the flat tuple the integrator advances."""
        return (
            self.x,
            self.y,
            self.depth,
            self.yaw,
            self.surge_vel,
            self.sway_vel,
            self.yaw_rate,
            self.heave_vel,
        )


@dataclass(frozen=True)
class ForceBreakdown:
    thrust: float  # N, forward
    drag: float  # N, signed against surge
    tail_yaw_moment: float  # N*m
    yaw_damping_moment: float  # N*m
    net_buoyancy: float  # N, positive up
    heave_drag: float  # N, signed against heave


@dataclass(frozen=True)
class ControlInput:
    """Instantaneous actuation fed to the force model for one step."""

    servo_angle: float = 0.0  # rad
    servo_rate: float = 0.0  # rad/s
    gait_frequency: float = 0.0  # Hz
    gait_amplitude: float = 0.0  # rad
    erection: float = 0.0  # [0, 1]
    buoyancy: float = 0.0  # N, positive up
    syringe_volume: float = 0.0  # m^3, carried for telemetry only

    def is_finite(self) -> bool:
        isfinite = math.isfinite
        return (
            isfinite(self.servo_angle)
            and isfinite(self.servo_rate)
            and isfinite(self.gait_frequency)
            and isfinite(self.gait_amplitude)
            and isfinite(self.erection)
            and isfinite(self.buoyancy)
            and isfinite(self.syringe_volume)
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
    return (
        params.thrust_coeff
        * params.water_density
        * params.frontal_area
        * params.tail_length**2
        * freq**params.thrust_freq_exponent
        * amp**params.thrust_amp_exponent
    )


def control_loads(params: FishParams, control: ControlInput):
    """Loads of a control held over a step: (thrust, tail_moment, damping, buoyancy).

    thrust (N) is the cycle-mean gait thrust; tail_moment (N*m) is the
    reaction moment of the oscillating tail plus thrust vectoring from the
    instantaneous tail deflection (zero-mean over a symmetric cycle, it
    carries the turning bias into a mean yaw drift); damping (N*m per
    (rad/s)^2) is the quadratic yaw-damping coefficient, which grows with
    dorsal-fin erection; buoyancy (N, positive up) is the syringe force.
    """
    if not (0.0 <= control.erection <= 1.0):
        raise DomainError(f"erection must be in [0, 1], got {control.erection}")
    thrust = mean_thrust(params, control.gait_frequency, control.gait_amplitude)
    sr = control.servo_rate
    tail_moment = params.tail_reaction_coeff * sr * abs(sr) + thrust * math.sin(
        control.servo_angle
    ) * (params.tail_length / 2.0)
    damping = params.yaw_damping_body + control.erection * params.yaw_damping_fin
    return thrust, tail_moment, damping, control.buoyancy


def net_forces(
    params: FishParams, state: FishState, control: ControlInput
) -> ForceBreakdown:
    """Quasi-steady force and moment breakdown for one instant."""
    thrust, tail_moment, damping, buoyancy = control_loads(params, control)
    r, w = state.yaw_rate, state.heave_vel
    return ForceBreakdown(
        thrust=thrust,
        drag=drag_force(params, state.surge_vel),
        tail_yaw_moment=tail_moment,
        yaw_damping_moment=-damping * r * abs(r),
        net_buoyancy=buoyancy,
        heave_drag=-params.heave_drag_coeff * w * abs(w),
    )


# Internal fast path: state as a flat tuple (x, y, depth, yaw, u, v, r, w),
# loads as the tuple control_loads returns. The per-step loop works on scalar
# locals and allocates nothing but the returned tuples. Every expression keeps
# the association of the tuple-form oracle in tests/test_hydro.py, so the
# output stays bit-identical to it.


def _derivs(params: FishParams, loads, yaw, u, v, r, w):
    """(dx, dy, du, dv, dr, dw) at one state; d(depth) is w and d(yaw) is r."""
    thrust, tail_moment, damping, buoyancy = loads
    rho_cda = _rho_cda(params)
    mass = params.mass
    cos_y, sin_y = math.cos(yaw), math.sin(yaw)
    return (
        u * cos_y - v * sin_y,
        u * sin_y + v * cos_y,
        (thrust - rho_cda * u * abs(u)) / mass,
        -rho_cda * v * abs(v) / mass,  # lightly damped, unforced at zero bias
        (tail_moment - damping * r * abs(r)) / params.yaw_inertia,
        (-buoyancy - params.heave_drag_coeff * w * abs(w)) / (mass + params.heave_added_mass),
    )


def _rk4(params: FishParams, sv, loads, dt: float):
    x, y, depth, yaw, u, v, r, w = sv
    half = dt / 2.0
    dx1, dy1, du1, dv1, dr1, dw1 = _derivs(params, loads, yaw, u, v, r, w)
    u2, v2, r2, w2 = u + half * du1, v + half * dv1, r + half * dr1, w + half * dw1
    dx2, dy2, du2, dv2, dr2, dw2 = _derivs(params, loads, yaw + half * r, u2, v2, r2, w2)
    u3, v3, r3, w3 = u + half * du2, v + half * dv2, r + half * dr2, w + half * dw2
    dx3, dy3, du3, dv3, dr3, dw3 = _derivs(params, loads, yaw + half * r2, u3, v3, r3, w3)
    u4, v4, r4, w4 = u + dt * du3, v + dt * dv3, r + dt * dr3, w + dt * dw3
    dx4, dy4, du4, dv4, dr4, dw4 = _derivs(params, loads, yaw + dt * r3, u4, v4, r4, w4)
    sixth = dt / 6.0
    depth = depth + sixth * (w + 2.0 * w2 + 2.0 * w3 + w4)
    w = w + sixth * (dw1 + 2.0 * dw2 + 2.0 * dw3 + dw4)
    # hard free-surface boundary: clamp depth, kill upward heave on contact
    if depth < 0.0:
        depth = 0.0
        w = max(w, 0.0)
    return (
        x + sixth * (dx1 + 2.0 * dx2 + 2.0 * dx3 + dx4),
        y + sixth * (dy1 + 2.0 * dy2 + 2.0 * dy3 + dy4),
        depth,
        yaw + sixth * (r + 2.0 * r2 + 2.0 * r3 + r4),
        u + sixth * (du1 + 2.0 * du2 + 2.0 * du3 + du4),
        v + sixth * (dv1 + 2.0 * dv2 + 2.0 * dv3 + dv4),
        r + sixth * (dr1 + 2.0 * dr2 + 2.0 * dr3 + dr4),
        w,
    )


def _check_dt(dt: float) -> None:
    if not (0.0 < dt <= MAX_DT):
        raise ConfigError(f"dt must be in (0, {MAX_DT}] s, got {dt}", "sim.dt")


def step(
    params: FishParams, state: FishState, control: ControlInput, dt: float
) -> FishState:
    """Advance the state by exactly dt with one RK4 step (controls held)."""
    _check_dt(dt)
    sv = _rk4(params, state.vector(), control_loads(params, control), dt)
    new = FishState(*sv, servo_angle=control.servo_angle, time=state.time + dt)
    new.validate()
    return new


@dataclass(frozen=True)
class Measurement:
    """Sensor view of the state handed to controllers (possibly noisy/quantized)."""

    time: float
    depth: float
    yaw: float  # rad


class Controller(Protocol):
    def command(self, measurement: Measurement) -> ControlInput: ...


@dataclass(frozen=True)
class NoiseConfig:
    """Seeded white sensor noise on the yaw and depth channels; off by default."""

    enabled: bool = False
    yaw_std_deg: float = 0.1
    depth_std_m: float = 0.001


def simulate(
    params: FishParams,
    controller: Controller,
    duration: float,
    dt: float = 1e-3,
    seed: int = 0,
    *,
    initial_state: FishState | None = None,
    power_model: PowerModel | None = None,
    record_every: int = 1,
    noise: NoiseConfig | None = None,
) -> list[TelemetryRecord]:
    """Run a closed-loop simulation and return sampled telemetry.

    Every `record_every`-th step is sampled (1 keeps all steps, so a run of
    duration/dt steps yields ceil(duration/dt)+1 records, the first being the
    initial state). Reproducible bit-for-bit for a fixed seed.
    """
    if duration <= 0.0:
        raise ConfigError("duration must be > 0", "sim.duration")
    _check_dt(dt)
    if record_every < 1:
        raise ConfigError("record_every must be >= 1", "sim.record_every")
    params.validate()
    state = initial_state if initial_state is not None else FishState()
    state.validate()
    pm = power_model if power_model is not None else PowerModel(efficiency=0.740078125, idle_power=0.5)
    noise = noise if noise is not None else NoiseConfig()
    rng = random.Random(seed)

    n_steps = math.ceil(duration / dt)
    sv = state.vector()
    t0 = state.time
    records: list[TelemetryRecord] = []

    def hold(t: float, sv):
        """The controller's command at time t and the loads it holds over the next step."""
        depth, yaw = sv[2], sv[3]
        if noise.enabled:
            yaw = yaw + rng.gauss(0.0, noise.yaw_std_deg * _DEG)
            depth = max(0.0, depth + rng.gauss(0.0, noise.depth_std_m))
        control = controller.command(Measurement(time=t, depth=depth, yaw=yaw))
        if not control.is_finite():
            raise SimulationFault(t)
        return control, control_loads(params, control)

    def emit(t: float, sv, control: ControlInput, tail_moment: float) -> None:
        for name, value in zip(_STATE_FIELDS, sv):
            if not math.isfinite(value):
                raise SimulationFault(t, f"non-finite state {name}")
        x, y, depth, yaw, u, v, r, w = sv
        torque = abs(tail_moment)
        records.append(
            TelemetryRecord(
                time_s=t,
                x_m=x,
                y_m=y,
                depth_m=depth,
                yaw_deg=yaw / _DEG,
                yaw_rate_dps=r / _DEG,
                surge_mps=u,
                sway_mps=v,
                servo_deg=control.servo_angle / _DEG,
                torque_nm=torque,
                power_w=servo_power(pm, torque, abs(control.servo_rate)),
                erection=control.erection,
                syringe_ml=control.syringe_volume * 1e6,
            )
        )

    control, loads = hold(t0, sv)
    emit(t0, sv, control, loads[1])

    for i in range(n_steps):
        t = t0 + (i + 1) * dt
        try:
            sv = _rk4(params, sv, loads, dt)
        except ValueError as exc:  # math.cos/sin of an infinite yaw
            raise SimulationFault(t, "non-finite state yaw") from exc
        control, loads = hold(t, sv)
        if (i + 1) % record_every == 0 or i + 1 == n_steps:
            emit(t, sv, control, loads[1])
    return records
