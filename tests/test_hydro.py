import ast
import dataclasses
import inspect
import itertools
import math
import struct
from unittest import mock

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from morphfin import controllers, hydro
from morphfin.cli import _environment
from morphfin.config import RunConfig
from morphfin.control import GaitCommand, PidGains, step_schedule
from morphfin.controllers import SwimController
from morphfin.errors import ConfigError, DomainError, MorphfinError, SimulationFault
from morphfin.experiments import run_condition
from morphfin.hydro import (
    MAX_DT,
    MAX_STEPS,
    ControlInput,
    FishParams,
    FishState,
    check_run,
    drag_force,
    mean_thrust,
    simulate,
    step,
)
from morphfin.metrics import PowerModel

DEG = math.pi / 180.0
ENV = _environment(RunConfig())
# all fields but heave and depth, which a run of zero buoyancy from rest holds at +0.0
PLANAR_FIELDS = ("x", "y", "yaw", "surge_vel", "sway_vel", "yaw_rate")


class ConstantController:
    """The same actuation every step: open-loop and fault scenarios."""

    def __init__(self, control):
        self.control = control

    def command(self, t, depth):
        return self.control


class TestDragForce:
    def test_hand_arithmetic(self):
        p = FishParams(water_density=1000.0, frontal_drag_coeff=0.3, frontal_area=0.01)
        # 0.5 * 1000 * 0.2^2 * 0.3 * 0.01 = 0.06, signed against motion
        assert drag_force(p, 0.2) == pytest.approx(-0.06, rel=1e-12)

    def test_zero_speed(self):
        assert drag_force(FishParams(), 0.0) == 0.0

    def test_quadratic_homogeneity(self):
        p = FishParams()
        assert drag_force(p, 0.2) == pytest.approx(4.0 * drag_force(p, 0.1), rel=1e-12)

    @given(st.floats(-3.0, 3.0))
    def test_opposes_motion(self, speed):
        assert drag_force(FishParams(), speed) * speed <= 0.0


class TestMeanThrust:
    def test_zero_cases(self):
        p = FishParams()
        assert mean_thrust(p, 0.0, 0.5) == 0.0
        assert mean_thrust(p, 2.0, 0.0) == 0.0

    def test_a_power_beyond_the_double_range_is_infinite(self):
        assert mean_thrust(FishParams(), 1e200, 0.35) == math.inf
        assert mean_thrust(FishParams(thrust_freq_exponent=1000.0), 2.33, 0.35) == math.inf

    def test_hand_arithmetic(self):
        p = FishParams(
            thrust_coeff=1.0,
            water_density=1000.0,
            frontal_area=0.01,
            tail_length=0.288,
            thrust_freq_exponent=2.0,
            thrust_amp_exponent=2.0,
        )
        # 1000 * 0.01 * 0.288^2 * 2.5^2 * 0.349^2 = 0.63146...
        expected = 1000.0 * 0.01 * 0.288**2 * 2.5**2 * 0.349**2
        assert mean_thrust(p, 2.5, 0.349) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.631, abs=5e-4)

    def test_negative_inputs_rejected(self):
        with pytest.raises(DomainError):
            mean_thrust(FishParams(), -1.0, 0.3)
        with pytest.raises(DomainError):
            mean_thrust(FishParams(), 1.0, -0.3)

    @given(
        st.floats(0.1, 3.0), st.floats(0.1, 3.0), st.floats(0.05, 0.7)
    )
    def test_strictly_increasing_in_frequency(self, f1, f2, amp):
        p = FishParams()
        lo, hi = sorted((f1, f2))
        if hi > lo:
            assert mean_thrust(p, hi, amp) > mean_thrust(p, lo, amp)


def _step0_loads(params, control):
    """(thrust, tail_moment, damping, buoyancy): the loads a commanded block computes at
    step 0 of a run whose controller returns `control`."""
    block = hydro._step_factory(hydro._STATE_FIELDS)["make_command"](
        params, PowerModel(), 0.001, 0.0, lambda t, depth: control)
    return block(FishState().vector(), (0.0,) * 4, -1, (0,), None)[1]


class TestControlLoads:
    """The loads a commanded block computes; the integrator damps yaw by -damping * r * |r|."""

    def test_equilibrium_is_all_zero(self):
        p = FishParams()
        thrust, tail_moment, _, buoyancy = _step0_loads(p, ControlInput())
        assert (thrust, tail_moment, buoyancy) == (0.0, 0.0, 0.0)
        assert drag_force(p, 0.0) == 0.0
        # no drag, heave drag or yaw damping at rest: a step from rest stays at rest
        assert step(p, FishState(), ControlInput(), 0.001) == FishState(time=0.001)

    def test_erect_fin_increases_yaw_damping(self):
        p = FishParams()
        folded = _step0_loads(p, ControlInput(erection=0.0))[2]
        erect = _step0_loads(p, ControlInput(erection=1.0))[2]
        assert erect > folded

    def test_damping_hand_value(self):
        p = FishParams(yaw_damping_body=0.02, yaw_damping_fin=0.01)
        damping = _step0_loads(p, ControlInput(erection=1.0))[2]
        assert damping == pytest.approx(0.03, rel=1e-12)

    def test_erection_out_of_range(self):
        with pytest.raises(DomainError):
            _step0_loads(FishParams(), ControlInput(erection=1.5))

    @given(st.floats(-2.0, 2.0), st.floats(0.0, 1.0))
    @settings(max_examples=50)
    def test_sign_correctness(self, surge, erection):
        p = FishParams()
        assert drag_force(p, surge) * surge <= 0.0
        # a nonnegative coefficient makes the damping moment oppose the yaw rate
        assert _step0_loads(p, ControlInput(erection=erection))[2] >= 0.0

    def test_erection_is_checked_before_the_gait(self):
        both_bad = ControlInput(gait_frequency=-1.0, erection=1.5)
        with pytest.raises(DomainError, match="erection"):
            _step0_loads(FishParams(), both_bad)
        with pytest.raises(DomainError, match="freq and amp"):
            _step0_loads(FishParams(), both_bad._replace(erection=1.0))


def _heave_params(coeff=0.95):
    # buoyancy off, only quadratic heave drag acts
    return FishParams(heave_drag_coeff=coeff, heave_added_mass=1.5)


_EXACT_DT = 2.0**-10  # a power of two, so duration/dt is exact at the ceiling


class TestFishParamsValidate:
    FIELDS = [f.name for f in dataclasses.fields(FishParams)]

    @pytest.mark.parametrize("name", FIELDS)
    def test_an_infinite_coefficient_is_refused_by_name(self, name):
        # JSON's 1e400 loads as inf; an infinite yaw inertia once ran a fish that never yaws
        with pytest.raises(ConfigError, match=rf"^fish\.{name}: must be finite$"):
            dataclasses.replace(FishParams(), **{name: math.inf}).validate()

    @pytest.mark.parametrize("value", [-math.inf, math.nan])
    @pytest.mark.parametrize("name", FIELDS)
    def test_a_negative_infinite_or_nan_coefficient_is_refused_by_name(self, name, value):
        with pytest.raises(ConfigError, match=rf"^fish\.{name}: must be "):
            dataclasses.replace(FishParams(), **{name: value}).validate()

    def test_simulate_refuses_an_infinite_heave_drag_before_a_step(self):
        controller = ConstantController(ControlInput())
        with pytest.raises(ConfigError, match="fish.heave_drag_coeff"):
            simulate(FishParams(heave_drag_coeff=math.inf), controller, 1.0, 0.01)


class TestCheckRun:
    def test_the_step_ceiling_is_inclusive(self):
        check_run(MAX_STEPS * _EXACT_DT, _EXACT_DT)
        check_run(_EXACT_DT, _EXACT_DT)
        with pytest.raises(ConfigError) as exc:
            check_run(math.nextafter(MAX_STEPS * _EXACT_DT, math.inf), _EXACT_DT)
        assert str(exc.value) == f"sim.duration: duration/dt must be <= {MAX_STEPS} steps"

    @pytest.mark.parametrize(
        "duration, dt, field",
        [
            (1.0, 0.0, "sim.dt"),
            (1.0, math.nextafter(MAX_DT, 1.0), "sim.dt"),
            (math.inf, math.nan, "sim.dt"),
            (0.0, _EXACT_DT, "experiment.duration"),
            (math.nan, _EXACT_DT, "experiment.duration"),
            (math.inf, _EXACT_DT, "experiment.duration"),
            (1e300, MAX_DT, "experiment.duration"),
            (20.0, 1e-300, "experiment.duration"),
        ],
    )
    def test_names_the_field_at_fault(self, duration, dt, field):
        with pytest.raises(ConfigError) as exc:
            check_run(duration, dt, "experiment.duration")
        assert exc.value.field == field


class TestStep:
    def test_force_free_drift(self):
        p = FishParams(frontal_drag_coeff=1e-30)  # drag negligible, no gait
        s = FishState(surge_vel=0.1)
        out = step(p, s, ControlInput(), 0.001)
        assert out.x == pytest.approx(1.0e-4, rel=1e-12)
        assert out.surge_vel == pytest.approx(0.1, rel=1e-12)
        assert out.time == 0.001

    def test_dt_out_of_range(self):
        with pytest.raises(ConfigError):
            step(FishParams(), FishState(), ControlInput(), 0.02)
        with pytest.raises(ConfigError):
            step(FishParams(), FishState(), ControlInput(), 0.0)

    def test_a_non_finite_control_faults_at_the_state_time(self):
        # step 0 of the block checks the control at t0, as simulate checks a run's first
        with pytest.raises(SimulationFault) as exc:
            step(FishParams(), FishState(time=2.5), ControlInput(servo_rate=math.nan), 0.001)
        assert exc.value.time == 2.5

    def test_heave_decay_matches_fine_euler(self):
        # dz'' = -(c/m_eff) z'|z'| ; reference by 1e-6-step explicit Euler
        p = _heave_params()
        c_over_m = p.heave_drag_coeff / (p.mass + p.heave_added_mass)
        w = 0.2
        h = 1e-6
        for _ in range(1_000_000):
            w -= h * c_over_m * w * abs(w)
        state = FishState(depth=1.0, heave_vel=0.2)
        for _ in range(1000):
            state = step(p, state, ControlInput(), 1e-3)
        assert state.heave_vel == pytest.approx(w, abs=1e-8)

    def test_determinism_and_replay(self):
        p = FishParams()
        ctrl = ControlInput(servo_rate=1.0, gait_frequency=1.0, gait_amplitude=0.3)
        s1 = step(p, FishState(surge_vel=0.1, yaw_rate=0.2), ctrl, 0.001)
        s2 = step(p, FishState(surge_vel=0.1, yaw_rate=0.2), ctrl, 0.001)
        assert s1 == s2
        # continuing from a replayed intermediate state gives the same endpoint
        assert step(p, s1, ctrl, 0.001) == step(p, s2, ctrl, 0.001)

    def test_integrator_order(self):
        # halving dt shrinks the endpoint error by >= 12x (nominal 16 for RK4)
        p = _heave_params(coeff=3.0)
        c_over_m = p.heave_drag_coeff / (p.mass + p.heave_added_mass)
        w0 = 0.5
        exact = w0 / (1.0 + c_over_m * w0 * 1.0)  # analytic quadratic decay at t=1

        def endpoint(dt):
            state = FishState(depth=1.0, heave_vel=w0)
            for _ in range(round(1.0 / dt)):
                state = step(p, state, ControlInput(), dt)
            return state.heave_vel

        err_coarse = abs(endpoint(0.01) - exact)
        err_fine = abs(endpoint(0.005) - exact)
        assert err_coarse / err_fine >= 12.0

    def test_surface_clamp(self):
        p = FishParams(heave_drag_coeff=0.0)
        state = FishState(depth=0.001, heave_vel=-0.5)
        for _ in range(20):
            state = step(p, state, ControlInput(), 0.001)
        assert state.depth == 0.0
        assert state.heave_vel >= 0.0


class TestSimulate:
    @pytest.mark.parametrize("every", [2.5, 10.0, 0, -1])
    def test_record_every_must_be_an_integer_of_at_least_one(self, every):
        # 2.5 recorded every 5th step: i % 2.5 == 0 at multiples of 5
        with pytest.raises(ConfigError, match=r"^sim.record_every: record_every must be an "
                           r"integer >= 1$"):
            simulate(FishParams(), ConstantController(ControlInput()), 0.1, 0.001,
                     record_every=every)

    def test_record_count(self):
        gait = GaitCommand(frequency=1.0, amplitude=20.0)
        controller = SwimController(ENV, gait)
        records = simulate(FishParams(), controller, 1.0, 0.001)
        assert len(records) == 1001
        assert records[0].time_s == 0.0

    def test_runs_are_deterministic(self):
        def run():
            gait = GaitCommand(frequency=1.5, amplitude=15.0)
            controller = SwimController(ENV, gait)
            return simulate(FishParams(), controller, 2.0, 0.001)

        assert run().values.tobytes() == run().values.tobytes()

    def test_non_finite_actuation_faults_with_time(self):
        class BadController:
            def command(self, t: float, depth: float) -> ControlInput:
                if t > 0.5:
                    return ControlInput(servo_rate=math.nan)
                return ControlInput()

        with pytest.raises(SimulationFault) as exc:
            simulate(FishParams(), BadController(), 2.0, 0.001)
        assert 0.5 < exc.value.time < 0.6

    def test_steady_state_force_balance(self):
        p = FishParams()
        gait = GaitCommand(frequency=2.0, amplitude=20.0)
        controller = SwimController(ENV, gait)
        records = simulate(p, controller, 15.0, 0.001)
        thrust = mean_thrust(p, 2.0, 20.0 * DEG)
        # average |drag| over exactly 10 gait cycles after the transient
        window = [r for r in records if 10.0 <= r.time_s < 15.0]
        mean_drag = sum(abs(drag_force(p, r.surge_mps)) for r in window) / len(window)
        assert abs(thrust - mean_drag) <= 0.02 * thrust

    def test_positive_bias_turns_positive(self):
        p = FishParams()
        gait = GaitCommand(frequency=1.0, amplitude=20.0, bias=10.0)
        controller = SwimController(ENV, gait)
        records = simulate(p, controller, 30.0, 0.001)
        # the startup transient leaves a constant yaw offset, so measure the
        # drift accumulated over a late window rather than the absolute yaw
        yaw_at = {round(r.time_s, 6): r.yaw_deg for r in records}
        drift = yaw_at[30.0] - yaw_at[10.0]
        assert drift > 1.0

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", ControlInput._fields)
    def test_non_finite_syringe_volume_faults(self, name, value):
        # any one non-finite field faults the first step, the syringe volume included
        controller = ConstantController(ControlInput(**{name: value}))
        with pytest.raises(SimulationFault) as exc:
            simulate(FishParams(), controller, 1.0, 0.001)
        assert exc.value.time == 0.0

    def test_erection_out_of_range_raises(self):
        controller = ConstantController(ControlInput(erection=1.5))
        with pytest.raises(DomainError):
            simulate(FishParams(), controller, 1.0, 0.001)

    def test_diverging_state_faults_with_field(self):
        # finite actuation whose heave response overflows within one step
        controller = ConstantController(ControlInput(buoyancy=1e308))
        with pytest.raises(SimulationFault) as exc:
            simulate(FishParams(), controller, 1.0, 0.001)
        assert "non-finite state depth" in str(exc.value)

    @pytest.mark.parametrize("every", [1, 10, 30])
    def test_a_state_that_diverges_between_records_faults_at_the_next(self, every):
        # the depth is nan from step 1 on; the record after it names it, at its own time
        run = (1.0, 0.001, 0.0, every, hydro._STATE_FIELDS)
        controller = ConstantController(ControlInput(buoyancy=1e308))
        fault = _outcome(controller, *run)
        assert fault[:2] == (SimulationFault, f"non-finite state depth at t={every / 1e3:.6f} s")
        with pytest.raises(SimulationFault) as exc:
            _oracle_simulate(controller, *run)
        assert fault == (SimulationFault, str(exc.value), exc.value.time)

    @pytest.mark.parametrize("duration", [math.inf, math.nan, 1e307])
    def test_duration_without_finite_step_count_is_config_error(self, duration):
        # 1e307 is finite, but 1e307 / 1e-3 is not: math.ceil would overflow
        with pytest.raises(ConfigError) as exc:
            simulate(FishParams(), ConstantController(ControlInput()), duration, 0.001)
        assert exc.value.field == "sim.duration"

    def test_constant_controller_neutral(self):
        records = simulate(FishParams(), ConstantController(ControlInput()), 1.0, 0.001)
        last = records[-1]
        assert last.x_m == 0.0 and last.depth_m == 0.0 and last.yaw_deg == 0.0


# The tuple-form integrator the scalar step replaced, kept as its oracle: the
# step of a generated block must reproduce it bit for bit.


def _integrator(params, dt, fields=hydro._STATE_FIELDS):
    """advance(sv, loads) -> sv: step 1 of a generated commanded block, as simulate runs it."""
    block = hydro._step_factory(tuple(fields))["make_command"](
        params, PowerModel(), dt, 0.0, lambda t, depth: ControlInput())
    return lambda sv, loads: block(sv, loads, 0, (1,), None)[0]


def _oracle_derivs(params, sv, loads):
    x, y, depth, yaw, u, v, r, w = sv
    thrust, tail_moment, damping, buoyancy = loads
    rho_cda = 0.5 * params.water_density * params.frontal_drag_coeff * params.frontal_area
    du = (thrust - rho_cda * u * abs(u)) / params.mass
    dv = -rho_cda * v * abs(v) / params.mass
    dr = (tail_moment - damping * r * abs(r)) / params.yaw_inertia
    dw = (-buoyancy - params.heave_drag_coeff * w * abs(w)) / (
        params.mass + params.heave_added_mass
    )
    cos_y, sin_y = math.cos(yaw), math.sin(yaw)
    return (u * cos_y - v * sin_y, u * sin_y + v * cos_y, w, r, du, dv, dr, dw)


def _oracle_rk4(params, sv, loads, dt, fields=hydro._STATE_FIELDS):
    """One tuple-form RK4 step; a field left out of `fields` holds its start value at every
    stage and at the end, and the free surface clamps depth and heave only if they move."""

    def hold(values):
        return tuple(a if f in fields else b for f, a, b in zip(hydro._STATE_FIELDS, values, sv))

    k1 = _oracle_derivs(params, sv, loads)
    half = dt / 2.0
    s2 = hold(tuple(s + half * k for s, k in zip(sv, k1)))
    k2 = _oracle_derivs(params, s2, loads)
    s3 = hold(tuple(s + half * k for s, k in zip(sv, k2)))
    k3 = _oracle_derivs(params, s3, loads)
    s4 = hold(tuple(s + dt * k for s, k in zip(sv, k3)))
    k4 = _oracle_derivs(params, s4, loads)
    sixth = dt / 6.0
    out = hold(tuple(
        s + sixth * (a + 2.0 * b + 2.0 * c + d)
        for s, a, b, c, d in zip(sv, k1, k2, k3, k4)
    ))
    if "depth" in fields and out[2] < 0.0:
        out = hold(out[:2] + (0.0,) + out[3:7] + (max(out[7], 0.0),))
    return out


# the row every block appends, its servo power in servo_power's association
_ROW = (
    "values.frombytes(_pack(t, x, y, depth, yaw / _DEG, r / _DEG, u, v, angle / _DEG, torque,\n",
    "    max(torque * abs(rate), 0.0) / efficiency + idle_power, erection, volume * 1e6))\n")


def _block(maker, fields, *run):
    """A block of the default fish at dt 1 ms from t0 = 0 by one of _step_factory's makers."""
    return hydro._step_factory(fields)[maker](FishParams(), PowerModel(), 0.001, 0.0, *run)


def _bits(values):
    return struct.pack(f"<{len(values)}d", *values)


_params = st.builds(
    FishParams,
    mass=st.floats(0.5, 5.0),
    yaw_inertia=st.floats(0.005, 0.1),
    frontal_drag_coeff=st.floats(0.05, 1.0),
    heave_drag_coeff=st.floats(0.0, 200.0),
    heave_added_mass=st.floats(0.0, 3.0),
)
_load_tuples = st.tuples(
    st.floats(0.0, 5.0), st.floats(-1.0, 1.0), st.floats(0.0, 1.0), st.floats(-2.0, 2.0)
)
_vel = st.floats(-2.0, 2.0)


class TestScalarRk4Oracle:
    @given(
        _params,
        st.tuples(
            st.floats(-10.0, 10.0), st.floats(-10.0, 10.0), st.floats(0.0, 2.0),
            st.floats(-7.0, 7.0), _vel, _vel, _vel, _vel,
        ),
        _load_tuples,
        st.floats(1e-5, 0.01),
    )
    @settings(max_examples=300)
    def test_bit_identical_to_tuple_form(self, params, sv, loads, dt):
        advance = _integrator(params, dt)
        assert _bits(advance(sv, loads)) == _bits(_oracle_rk4(params, sv, loads, dt))

    @given(
        st.floats(0.0, 20.0),
        st.floats(0.0, 1e-4),
        st.floats(-7.0, 7.0),
        _vel,
        _vel,
        st.floats(-3.0, -0.5),
        st.floats(0.0, 2.0),
        st.floats(1e-3, 0.01),
    )
    @settings(max_examples=200)
    def test_bit_identical_at_the_free_surface(
        self, heave_drag, depth, yaw, u, r, w, buoyancy, dt
    ):
        # rising fast from just below the surface, buoyant, lightly damped
        params = FishParams(heave_drag_coeff=heave_drag)
        sv = (0.0, 0.0, depth, yaw, u, 0.0, r, w)
        loads = (0.3, 0.01, 0.4, buoyancy)
        expected = _oracle_rk4(params, sv, loads, dt)
        assert expected[2] == 0.0  # the clamp acted
        assert _bits(_integrator(params, dt)(sv, loads)) == _bits(expected)

    # field sets each holding every field its rates read
    CLOSED = [
        hydro._STATE_FIELDS,
        hydro.YAW_FIELDS,
        PLANAR_FIELDS,
        ("surge_vel",),
        ("depth", "heave_vel"),
    ]

    def test_the_generated_full_step_is_the_oracle_and_reads_as_source(self):
        params, dt = FishParams(), 0.001
        advance = _integrator(params, dt, hydro._STATE_FIELDS)
        sv, loads = (0.1, -0.2, 0.3, 0.7, 0.25, 0.01, -0.4, 0.02), (0.3, 0.01, 0.4, 0.1)
        assert _bits(advance(sv, loads)) == _bits(_oracle_rk4(params, sv, loads, dt))
        source = inspect.getsource(_block("make_command", hydro._STATE_FIELDS, None))
        assert source.startswith("    def block(sv, loads, i, ends, values):\n")
        assert "    dr4 = (moment - damping * r4 * abs(r4)) / yaw_inertia\n" in source
        for line in (*hydro._MOMENT[1], "damping = damping_body + erection * damping_fin"):
            assert f"    {line}\n" in source
        assert "load(" not in source and all(line in source for line in _ROW)
        yaw_only = inspect.getsource(_block("make_command", hydro.YAW_FIELDS, None))
        assert "cos(" not in yaw_only and "du1" not in yaw_only

    @given(
        _params,
        st.tuples(
            st.floats(-10.0, 10.0), st.floats(-10.0, 10.0), st.floats(0.0, 2.0),
            st.floats(-7.0, 7.0), _vel, _vel, _vel, _vel,
        ),
        _load_tuples,
        st.floats(1e-5, 0.01),
        st.sampled_from(CLOSED),
    )
    @settings(max_examples=200)
    def test_a_field_set_advances_as_the_oracle_and_holds_the_rest(
        self, params, sv, loads, dt, fields
    ):
        got, want = _integrator(params, dt, fields)(sv, loads), _oracle_rk4(params, sv, loads, dt)
        held = [want[i] if f in fields else sv[i] for i, f in enumerate(hydro._STATE_FIELDS)]
        assert _bits(got) == _bits(held)

    @pytest.mark.parametrize("fields", [
        subset for n in range(1, len(hydro._STATE_FIELDS) + 1)
        for subset in itertools.combinations(hydro._STATE_FIELDS, n)
    ])
    def test_a_set_leaving_out_a_field_advances_as_the_oracle_holding_it(self, fields):
        # every nonempty subset builds both makers, and a field it leaves out holds its value
        # at every stage, as the rates of the fields it keeps read it; at the surface, a
        # held heave is not clamped
        _block("make_command", fields, ConstantController(ControlInput()).command)
        _block("make_law", fields, GaitCommand(1.0, 20.0), ControlInput())
        for sv, loads in [
            ((0.1, -0.2, 0.3, 0.7, 0.25, 0.01, -0.4, 0.02), (0.3, 0.01, 0.4, 0.1)),
            ((-0.0, 0.0, 0.0, 4.0, 0.0, -0.03, 2.0, -1.5), (0.0, -0.02, 0.3, 2.0)),
        ]:
            want = _oracle_rk4(FishParams(), sv, loads, 0.001, fields)
            assert _bits(_integrator(FishParams(), 0.001, fields)(sv, loads)) == _bits(want)

    @pytest.mark.parametrize("fields", [(), ("yaw", "spin")])
    def test_an_empty_set_or_an_unknown_field_is_refused(self, fields):
        with pytest.raises(ValueError) as exc:
            _block("make_command", fields, ConstantController(ControlInput()).command)
        assert str(exc.value) == f"{fields} is not a nonempty set of state fields"


# SwimController.command returns ControlInput's fields as a plain tuple, so
# their order is pinned here.

_CONTROL_FIELDS = (
    "servo_angle",
    "servo_rate",
    "gait_frequency",
    "gait_amplitude",
    "erection",
    "buoyancy",
    "syringe_volume",
)


class TestValueTypes:
    def test_field_order_is_pinned(self):
        assert ControlInput._fields == _CONTROL_FIELDS

    def test_keyword_and_default_construction(self):
        assert ControlInput() == ControlInput(*[0.0] * 7)
        control = ControlInput(erection=1.0, servo_rate=-2.0)
        assert control.erection == 1.0 and control.servo_rate == -2.0
        assert control.buoyancy == 0.0 and control.servo_angle == 0.0
        assert tuple(ControlInput(1.0, 2.0, 3.0, 4.0, 0.5, 6.0, 7.0)) == (
            1.0, 2.0, 3.0, 4.0, 0.5, 6.0, 7.0
        )


# The load laws of a control, kept as the oracle of a commanded block's loads.


def _oracle_control_loads(params, control):
    if not (0.0 <= control.erection <= 1.0):
        raise DomainError(f"erection must be in [0, 1], got {control.erection}")
    thrust = mean_thrust(params, control.gait_frequency, control.gait_amplitude)
    sr = control.servo_rate
    tail_moment = params.tail_reaction_coeff * sr * abs(sr) + thrust * math.sin(
        control.servo_angle
    ) * (params.tail_length / 2.0)
    damping = params.yaw_damping_body + control.erection * params.yaw_damping_fin
    return thrust, tail_moment, damping, control.buoyancy


# gait values that repeat, switch, go to zero (either sign) and back, and
# now and then leave the domain
_gait_value = st.sampled_from([0.0, -0.0, 1.0, 0.35, 2.33, -0.5]) | st.floats(0.0, 3.0)
_controls = st.builds(
    ControlInput,
    st.floats(-1.0, 1.0),
    st.floats(-10.0, 10.0),
    _gait_value,
    _gait_value,
    st.sampled_from([0.0, 1.0, -0.0, -0.5, 1.5]) | st.floats(0.0, 1.0),
    st.floats(-2.0, 2.0),
    st.floats(0.0, 1e-4),
)


class _Clock:
    """A controller that returns `controls` in order, then neutral ones, and notes the time
    of every call."""

    def __init__(self, controls=()):
        self.times, self.controls = [], iter(controls)

    def command(self, t, depth):
        self.times.append(t)
        return next(self.controls, ControlInput())


class TestRecordSchedule:
    @given(
        st.floats(1e-4, 0.3), st.floats(1e-4, 0.01), st.integers(1, 40), st.floats(0.0, 100.0)
    )
    @example(0.0105, 0.001, 4, 0.0)  # 11 steps: records at 0, 4, 8 and the last
    @example(0.01, 0.001, 5, 0.0)  # 10 steps: the last is also on the schedule
    @settings(max_examples=100, deadline=None)
    def test_times_and_count(self, duration, dt, every, t0):
        clock = _Clock()
        records = simulate(
            FishParams(), clock, duration, dt,
            initial_state=FishState(time=t0), record_every=every,
        )
        n = math.ceil(duration / dt)
        step_times = [t0 if i == 0 else t0 + i * dt for i in range(n + 1)]
        kept = [t for i, t in enumerate(step_times) if i % every == 0 or i == n]
        assert len(records) == 1 + n // every + (n % every > 0)
        assert _bits([r.time_s for r in records]) == _bits(kept)
        # the controller is asked once per step, at the step's time
        assert _bits(clock.times) == _bits(step_times)


class _CommandOnly:
    """The same controller seen through `command` alone, so simulate calls it every step."""

    def __init__(self, controller):
        self.command = controller.command


def _counted(monkeypatch, module, name):
    """Route module.name through a wrapper; returns the list of each call's arguments."""
    calls, function = [], getattr(module, name)

    def counted(*args):
        calls.append(args)
        return function(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def _result(run):
    """The packed bits of the 13 columns of `run()`'s records, or the type, message and time
    of its fault."""
    try:
        records = run()
    except Exception as exc:  # each path must raise the same, however it fails
        return type(exc), str(exc), getattr(exc, "time", None)
    return records.values.tobytes()


def _outcome(
    controller, duration, dt, t0, every, fields, params=FishParams(), depth=0.0,
    power=PowerModel(), **start
):
    """The _result of a simulate run; `start` sets other fields of the start state."""
    return _result(lambda: simulate(
        params, controller, duration, dt, initial_state=FishState(depth=depth, time=t0, **start),
        power_model=power, record_every=every, fields=fields,
    ))


# The servo power law that every block writes inline in its record row, kept as the oracle
# of the power_w column; tests/test_metrics.py runs its hand cases against it.


def servo_power(model, torque, angular_vel):
    """Instantaneous electrical power (W) drawn by the tail servo.

    Mechanical output below zero (back-driving) is not regenerated; the servo
    then draws only its idle power.
    """
    mechanical = torque * angular_vel
    return max(mechanical, 0.0) / model.efficiency + model.idle_power


# power models of any efficiency in (0, 1] and idle power >= 0, the default among them
_powers = st.just(PowerModel()) | st.builds(
    PowerModel, st.floats(0.0, 1.0, exclude_min=True), st.floats(0.0, 5.0))


def _oracle_simulate(
    controller, duration, dt, t0, every, fields, params=FishParams(), depth=0.0,
    power=PowerModel(), **start
):
    """The packed records of simulate's former per-step loop: the controller's command, the
    load formula and the tuple-form RK4 each step, every `every`-th step and the last kept,
    with servo_power of `power`. It raises the former loop's SimulationFault for a cos/sin
    of an infinite yaw, a non-finite command, or a non-finite state at a kept step."""
    n, out = math.ceil(duration / dt), []
    sv = FishState(depth=depth, time=t0, **start).vector()
    for i in range(n + 1):
        t = t0 + i * dt if i else t0
        if i:
            try:
                new = _oracle_rk4(params, sv, loads, dt)
            except ValueError as exc:
                raise SimulationFault(t, "non-finite state yaw") from exc
            sv = tuple(new[k] if f in fields else sv[k] for k, f in enumerate(hydro._STATE_FIELDS))
        command = controller.command(t, sv[2])
        if not all(map(math.isfinite, command)):
            raise SimulationFault(t)
        control = ControlInput(*command)
        loads = _oracle_control_loads(params, control)
        if i % every == 0 or i == n:
            if not all(map(math.isfinite, sv)):
                name = next(f for f, s in zip(hydro._STATE_FIELDS, sv) if not math.isfinite(s))
                raise SimulationFault(t, f"non-finite state {name}")
            x, y, z, yaw, u, v, r, _ = sv
            torque = abs(loads[1])
            watts = servo_power(power, torque, abs(control.servo_rate))
            out += [t, x, y, z, yaw / DEG, r / DEG, u, v, control.servo_angle / DEG, torque,
                    watts, control.erection, control.syringe_volume * 1e6]
    return _bits(out)


class TestCommandedLoads:
    """A commanded block computes its loads, the thrust among them, at each step."""

    @given(
        st.builds(
            FishParams,
            tail_length=st.floats(0.0, 0.5),
            tail_reaction_coeff=st.floats(0.0, 0.2),
            thrust_freq_exponent=st.floats(0.5, 3.0),
            yaw_damping_fin=st.floats(0.0, 1.0),
        ),
        # a few distinct controls, drawn in any order, so the gait repeats and switches
        st.lists(_controls, min_size=1, max_size=5).flatmap(
            lambda pool: st.lists(st.sampled_from(pool), min_size=2, max_size=40)),
        st.integers(1, 12),
        _powers,
    )
    # records at steps 4, 8, ...: the amplitude alone changes at step 6, the
    # frequency alone at step 14, and the gait stops at step 19
    @example(FishParams(), [ControlInput(0.1, 1.0, 1.0, 0.35, 1.0)] * 6
             + [ControlInput(-0.1, 2.0, 1.0, 0.5, 0.5)] * 8
             + [ControlInput(0.2, -1.0, 2.33, 0.5)] * 5 + [ControlInput()] * 3, 4,
             PowerModel(0.3, 1.25))
    @settings(max_examples=200, deadline=None)
    def test_a_run_of_drawn_controls_equals_the_former_per_step_loop(
        self, params, controls, every, power
    ):
        # one control a step, in order; an exact dt, so the run takes len(controls) - 1 steps
        run = (
            (len(controls) - 1) * _EXACT_DT, _EXACT_DT, 0.0, every, hydro._STATE_FIELDS, params
        )
        got, want = _Clock(controls), _Clock(controls)
        try:
            expected = _oracle_simulate(want, *run, power=power)
        except DomainError as exc:  # an erection or a gait outside its domain
            expected = type(exc), str(exc), None
        assert _outcome(got, *run, power=power) == expected
        # the run stopped at the same step, if a step failed
        assert _bits(got.times) == _bits(want.times)


class TestOpenLoopPath:
    """A SwimController with no depth loop hands simulate its gait: command runs once, and
    the steps between two records run in one generated block of the gait's law. A depth
    loop that moves runs in command, every step (TestDepthLoop)."""

    @given(
        frequency=st.floats(0.0, 5.0),
        amplitude=st.floats(0.0, 45.0),
        bias=st.floats(-30.0, 30.0),
        erection=st.floats(0.0, 1.0),
        duration=st.floats(0.0005, 0.5),
        dt=st.sampled_from([0.01, 0.005, 0.001, 0.0007]),
        every=st.integers(1, 12),
        t0=st.floats(0.0, 1e4),
        fields=st.sampled_from([hydro.YAW_FIELDS, PLANAR_FIELDS, hydro._STATE_FIELDS]),
        power=_powers,
    )
    @example(1.5, 20.0, 0.0, 0.0, 0.5, 0.001, 10, 0.0, hydro._STATE_FIELDS, PowerModel())
    @example(2.33, 20.0, 5.0, 1.0, 0.4955, 0.001, 10, 3.0, PLANAR_FIELDS,  # 496 steps
             PowerModel(1.0, 0.0))
    # at dt = 0.01 a fast, wide gait drives the yaw rate past the largest float in 4 steps
    @example(5.0, 39.0, 0.0, 1.0, 0.5, 0.01, 1, 0.0, hydro.YAW_FIELDS, PowerModel())
    @settings(max_examples=60, deadline=None)
    def test_equals_the_per_step_command_in_every_column(
        self, frequency, amplitude, bias, erection, duration, dt, every, t0, fields, power
    ):
        gait = GaitCommand(frequency, amplitude, bias, erection)
        run = (duration, dt, t0, every, fields, FishParams(), 0.0, power)
        direct = _outcome(SwimController(ENV, gait), *run)
        # a run completes, or faults at the step and with the message of the former loop
        assert isinstance(direct, bytes) or direct[0] is SimulationFault
        assert direct == _outcome(_CommandOnly(SwimController(ENV, gait)), *run)
        try:
            want = _oracle_simulate(SwimController(ENV, gait), *run)
        except SimulationFault as exc:
            want = type(exc), str(exc), exc.time
        assert direct == want

    def test_a_depth_loop_run_equals_the_former_per_step_loop(self):
        gait, schedule = GaitCommand(2.33, 20.0, 0.0, 1.0), step_schedule([(0.0, 0.2), (0.3, 0.25)])
        run = (0.6, 0.001, 0.0, 7, hydro._STATE_FIELDS)
        direct = _outcome(SwimController(ENV, gait, schedule, 3), *run)
        assert isinstance(direct, bytes)
        assert direct == _oracle_simulate(SwimController(ENV, gait, schedule, 3), *run)

    def _count_commands(self, monkeypatch):
        calls = []
        command = SwimController.command

        def counted(self, t, depth):
            calls.append(t)
            return command(self, t, depth)

        monkeypatch.setattr(SwimController, "command", counted)
        return calls

    def test_command_runs_once_without_a_depth_loop(self, monkeypatch):
        calls = self._count_commands(monkeypatch)
        simulate(FishParams(), SwimController(ENV, GaitCommand(1.0, 20.0)), 1.0, 0.001)
        assert calls == [0.0]

    @pytest.mark.parametrize("loop", ["schedule", "depth_hold", "at_rest"])
    def test_command_runs_every_step_while_a_depth_loop_moves(self, monkeypatch, loop):
        # command runs the loop every step and refreshes the PID through
        # controllers.depth_controller: at t0, then every 20 steps of 1 ms (50 Hz). A hold
        # from rest at its target is commanded and refreshes at t0 alone, then runs the
        # gait's law block
        calls = self._count_commands(monkeypatch)
        refreshes = _counted(monkeypatch, controllers, "depth_controller")
        gait = GaitCommand(1.0, 20.0)
        if loop == "schedule":
            targets = []
            schedule = step_schedule([(0.0, 0.2)])
            simulate(FishParams(), SwimController(ENV, gait, lambda t: targets.append(t)
                     or schedule(t)), 1.0, 0.001, initial_state=FishState(depth=0.2))
            assert _bits(targets) == _bits([i * 0.001 for i in range(0, 1001, 20)])
        else:
            assert ENV.depth_hold and ENV.dt == 0.001 and ENV.control_period == 0.02
            # a start off the target moves the loop
            start = {} if loop == "at_rest" else {"initial_state": FishState(depth=0.25)}
            run_condition(ENV, gait, 1.0, 0, **start)
        assert _bits(calls) == _bits([0.0] if loop == "at_rest" else [
            i * 0.001 for i in range(1001)])
        assert len(refreshes) == (1 if loop == "at_rest" else 51)

    @pytest.mark.parametrize(
        "frequency, amplitude, t0",
        [
            (1e308, 20.0, 0.0),  # 2*pi*f is inf, and inf * 0 is nan: a nan servo angle
            (1e308, 20.0, 1.0),  # sin(inf) raises ValueError in the first command
            (1e307, 20.0, 5.0),  # a finite 2*pi*f*t that overflows: the same ValueError
            (1e307, 20.0, 0.0),  # amplitude * 2*pi*f overflows: an infinite servo rate
            (1e307, 1e-300, 2.8),  # a finite servo, an infinite thrust: the yaw diverges
            (1.0, 20.0, -0.5),  # a start before t = 0
        ],
    )
    @pytest.mark.parametrize("fields", [hydro.YAW_FIELDS, hydro._STATE_FIELDS])
    def test_a_fault_is_the_same_on_both_paths(self, frequency, amplitude, t0, fields):
        gait = GaitCommand(frequency, amplitude)
        run = (0.2, 0.01, t0, 1, fields)
        direct = _outcome(SwimController(ENV, gait), *run)
        assert not isinstance(direct, bytes)
        assert direct == _outcome(_CommandOnly(SwimController(ENV, gait)), *run)
        if t0 >= 0.0:  # a start before t = 0 is the controller's DomainError
            assert direct[0] is SimulationFault and direct[2] >= t0

    @pytest.mark.parametrize("fields", [PLANAR_FIELDS, hydro._STATE_FIELDS])
    def test_a_yaw_that_diverges_between_records_faults_at_its_own_step(self, fields):
        # a tail reaction so strong that the yaw rate's quadratic damping overflows: at
        # step 2 the stage yaw is infinite and cos raises ValueError, 8 steps before a record
        params = FishParams(tail_reaction_coeff=1e155)
        gait = GaitCommand(5.0, 45.0)
        run = (0.1, 0.001, 0.05, 10, fields, params)
        direct = _outcome(SwimController(ENV, gait), *run)
        assert direct == _outcome(_CommandOnly(SwimController(ENV, gait)), *run)
        assert direct[:2] == (SimulationFault, "non-finite state yaw at t=0.052000 s")
        assert round((direct[2] - 0.05) / 0.001) == 2

    def test_the_block_reads_as_source(self):
        block = _block("make_law", PLANAR_FIELDS, GaitCommand(1.0, 20.0), ControlInput())
        source = inspect.getsource(block)
        assert source.startswith("    def block(sv, loads, i, ends, values):\n")
        for line in (*hydro._GAIT[1], *hydro._MOMENT[1], "c2, s2 = cos(yaw2), sin(yaw2)"):
            assert f"    {line}\n" in source
        assert "command(" not in source and "load(" not in source
        assert all(line in source for line in _ROW)

    @given(
        frequency=st.floats(0.0, 1e308) | st.sampled_from([math.inf, -math.inf, math.nan]),
        amplitude=st.floats(0.0, 45.0),
        t0=st.floats(-1.0, 1e300),
        loop=st.sampled_from(["law", "command", "depth_loop"]),
    )
    @example(math.inf, 20.0, 1.0, "law")
    @example(1e307, 20.0, 5.0, "command")
    @example(1e307, 20.0, 5.0, "depth_loop")
    @settings(max_examples=100, deadline=None)
    def test_a_drawn_gait_raises_nothing_but_a_morphfin_error(self, frequency, amplitude, t0, loop):
        # a huge or non-finite frequency, or a late start, can make the gait's phase
        # infinite, where math.sin raises ValueError: simulate reports a SimulationFault
        try:
            schedule = step_schedule([(0.0, 0.2)]) if loop == "depth_loop" else None
            controller = SwimController(ENV, GaitCommand(frequency, amplitude), schedule)
            if loop == "command":
                controller = _CommandOnly(controller)
            simulate(FishParams(), controller, 0.05, 0.01,
                     initial_state=FishState(depth=0.2, time=t0))
        except MorphfinError:
            pass


class TestDepthLoop:
    """A SwimController's depth loop runs in its command, which simulate calls every step
    unless step 0 leaves a hold at rest: bit for bit as the controller seen through command
    alone and as the former per-step loop, with the loop's state left where they leave it."""

    def _check(self, env, gait, targets, seed, run, depth, power=PowerModel()):
        """The run of the controller, of it seen through command alone and, if it ends, of
        the oracle loop; returns the controller's outcome."""
        controller = SwimController(env, gait, step_schedule(targets), seed)
        commanded = SwimController(env, gait, step_schedule(targets), seed)
        direct = _outcome(controller, *run, depth=depth, power=power)
        assert direct == _outcome(_CommandOnly(commanded), *run, depth=depth, power=power)
        if isinstance(direct, bytes):
            oracle = SwimController(env, gait, step_schedule(targets), seed)
            assert direct == _oracle_simulate(oracle, *run, depth=depth, power=power)
            assert repr(controller._state) == repr(commanded._state) == repr(oracle._state)
        return direct

    @given(
        gait=st.builds(GaitCommand, st.floats(0.0, 5.0), st.floats(0.0, 45.0),
                       st.floats(-30.0, 30.0), st.floats(0.0, 1.0)),
        noise=st.sampled_from([0.0, 0.001]) | st.floats(1e-6, 0.05),
        quantum=st.sampled_from([0.0, 1e-320, 0.001]) | st.floats(1e-5, 0.05),
        period_steps=st.integers(1, 25),  # the control period, in steps
        targets=st.lists(st.tuples(st.floats(0.0, 0.4), st.floats(0.0, 0.5)),
                         min_size=1, max_size=2, unique_by=lambda target: target[0]),
        seed=st.integers(0, 2**32 - 1),
        duration=st.floats(0.0005, 0.5),
        dt=st.sampled_from([0.001, 0.002, 0.0007]),
        every=st.integers(1, 12),
        t0=st.floats(0.0, 100.0),
        depth=st.floats(0.0, 0.5),
        fields=st.sampled_from([hydro._STATE_FIELDS, PLANAR_FIELDS]),
        power=_powers,
    )
    @example(GaitCommand(2.33, 20.0, 0.0, 1.0), 0.001, 0.001, 20, [(0.0, 0.2), (0.3, 0.25)], 3,
             0.6, 0.001, 7, 0.0, 0.2, hydro._STATE_FIELDS, PowerModel(0.3, 1.25))
    @example(GaitCommand(1.0, 20.0), 0.0, 1e-320, 1, [(0.0, 0.3)], 0, 0.05, 0.001, 1, 0.0, 0.0,
             hydro._STATE_FIELDS, PowerModel())  # no quantization, and a PID refresh every step
    @settings(max_examples=80, deadline=None)
    def test_equals_the_per_step_command_in_every_column(
        self, gait, noise, quantum, period_steps, targets, seed, duration, dt, every, t0, depth,
        fields, power,
    ):
        env = dataclasses.replace(
            ENV, noise=noise, depth_resolution=quantum, control_period=period_steps * dt
        )
        direct = self._check(
            env, gait, targets, seed, (duration, dt, t0, every, fields), depth, power)
        assert isinstance(direct, bytes)

    @pytest.mark.parametrize(
        "env, gait, targets, run, depth, fault",
        [
            # kp * 5 m and kd * (-5 m / 20 ms) overflow to +inf and -inf when the target
            # steps at 0.5 s: the PID's output is nan, and so is the syringe one step on
            (dataclasses.replace(ENV, pid=PidGains(kp=1e308, kd=1e308)), GaitCommand(1.0, 20.0),
             [(0.0, 0.0), (0.5, 5.0)], (1.0, 0.001, 0.0, 10), 10.0,
             (SimulationFault, "non-finite actuation at t=0.501000 s", 0.501)),
            # 2*pi*f*t overflows after t = 2.86 s: math.sin raises ValueError
            (ENV, GaitCommand(1e307, 1e-300), [(0.0, 0.2)], (0.3, 0.001, 2.8, 10), 0.2,
             (SimulationFault, "non-finite state yaw at t=2.801000 s", 2.801)),
            # a control period under the 1e-12 s slack, and a t0 at which t + dt == t: the
            # PID refreshes again at the same time, and pid_step refuses its zero step
            (dataclasses.replace(ENV, control_period=1e-13), GaitCommand(1.0, 20.0),
             [(0.0, 0.2)], (0.1, 0.001, 1e20, 10), 0.2,
             (DomainError, "dt must be > 0, got 0.0", None)),
        ],
    )
    def test_a_fault_is_the_same_on_both_paths(self, env, gait, targets, run, depth, fault):
        direct = self._check(env, gait, targets, 0, (*run, hydro._STATE_FIELDS), depth)
        assert direct[:2] == fault[:2]
        if fault[2] is not None:  # a DomainError carries no time
            assert direct[2] == pytest.approx(fault[2], abs=1e-12)


class TestBlockCalls:
    """simulate makes two block calls a run, whatever its length: step 0 through the
    commanded block, then the rest through the block it picks, which records as it goes."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """The maker of each block call that simulate makes."""
        calls, factory = [], hydro._step_factory

        def counted(name, make):
            def maker(*run):
                block = make(*run)
                return lambda *args: calls.append(name) or block(*args)
            return maker

        monkeypatch.setattr(hydro, "_step_factory", lambda fields: {
            name: counted(name, make) for name, make in factory(fields).items()
            if name.startswith("make_")})
        return calls

    @pytest.mark.parametrize("loop, makers", [
        ("at_rest", ["make_command", "make_law"]),  # the default config's hold
        ("off_target", ["make_command", "make_command"]),
        ("command", ["make_command", "make_command"]),
    ])
    def test_a_default_25_s_run_makes_two_block_calls(self, calls, loop, makers):
        gait = GaitCommand(1.0, 20.0)
        if loop == "command":
            records = simulate(ENV.params, _CommandOnly(SwimController(ENV, gait)), 25.0, ENV.dt,
                               record_every=ENV.record_every)
        else:
            start = {} if loop == "at_rest" else {"initial_state": FishState(depth=0.25)}
            records = run_condition(ENV, gait, 25.0, 0, **start)
        assert len(records) == 2501 and calls == makers

    def test_simulate_has_no_loop(self):
        tree = ast.parse(inspect.getsource(simulate))
        assert not any(isinstance(node, (ast.For, ast.While)) for node in ast.walk(tree))


class TestSwayFromRest:
    """Nothing forces sway: from a start sway of +0.0 its rate is -0.0 at every stage, so
    simulate holds it at +0.0 instead of integrating it. Every column of a run, and any
    fault, is that of the block that integrates every field the caller asked for."""

    @given(
        sway=st.sampled_from([0.0, -0.0, 5e-324, -1e-300, 0.05]),
        yaw=st.sampled_from([0.5, 2.0, 4.0, -2.0]) | st.floats(-7.0, 7.0),
        x=st.sampled_from([0.0, -0.0]),
        y=st.sampled_from([0.0, -0.0]),
        gait=st.just(GaitCommand(0.0, 0.0)) | st.builds(
            GaitCommand, st.floats(0.0, 3.0), st.floats(0.0, 45.0), st.floats(-30.0, 30.0),
            st.floats(0.0, 1.0)),
        loop=st.sampled_from(["law", "command", "depth_loop"]),
        noise=st.sampled_from([0.0, 0.001]),
        # the default fish, drawn ones, and one whose hull drag 0.5*rho*Cd*A is inf
        params=st.sampled_from([FishParams(), FishParams(water_density=1e300, frontal_area=1e10)])
        | _params,
        dt=st.sampled_from([0.001, 0.01]),
        every=st.integers(1, 12),
        fields=st.sampled_from([hydro._STATE_FIELDS, PLANAR_FIELDS, hydro.YAW_FIELDS]),
    )
    # a still fish from x = -0.0 at a yaw whose cos and sin are both negative: the step
    # writes x = +0.0 only as long as the x rate keeps its sway term
    @example(0.0, 4.0, -0.0, 0.0, GaitCommand(0.0, 0.0), "law", 0.0, FishParams(), 0.001, 1,
             hydro._STATE_FIELDS)
    # a step turns a start sway of -0.0 into +0.0: it must be integrated
    @example(-0.0, 4.0, -0.0, -0.0, GaitCommand(0.0, 0.0), "depth_loop", 0.001, FishParams(),
             0.001, 1, PLANAR_FIELDS)
    @settings(max_examples=150, deadline=None)
    def test_every_column_and_fault_is_the_full_blocks(
        self, sway, yaw, x, y, gait, loop, noise, params, dt, every, fields
    ):
        env = dataclasses.replace(ENV, noise=noise)

        def controller():
            schedule = step_schedule([(0.0, 0.2)]) if loop == "depth_loop" else None
            swim = SwimController(env, gait, schedule, 7)
            return _CommandOnly(swim) if loop == "command" else swim

        start = {"sway_vel": sway, "yaw": yaw, "x": x, "y": y}
        run = (0.05, dt, 0.0, every, fields, params, 0.1)
        factory, asked = hydro._step_factory, []
        with mock.patch.object(hydro, "_step_factory", lambda f: asked.append(f) or factory(f)):
            held = _outcome(controller(), *run, **start)
        with mock.patch.object(hydro, "_step_factory", lambda f: factory(fields)):
            full = _outcome(controller(), *run, **start)
        assert held == full
        at_rest = sway == 0.0 and math.copysign(1.0, sway) > 0.0
        kept = tuple(f for f in fields if not (at_rest and f == "sway_vel"))
        # a law block holds heave and depth too: it runs no buoyancy, from a heave of +0.0
        planar = tuple(f for f in kept if f not in ("heave_vel", "depth")) or kept
        assert asked == [kept] + [planar] * (loop == "law")
        if isinstance(held, bytes):
            assert held == _oracle_simulate(controller(), *run, **start)


class _Law:
    """A controller of the gait law at a fixed `buoyancy`: simulate commands step 0 through
    `command`, then runs the law block, which holds that buoyancy."""

    def __init__(self, gait, buoyancy):
        self.open_loop, self.law, self.buoyancy = gait, hydro.gait_law(gait), buoyancy

    def command(self, t, depth):
        return self.law(t, self.buoyancy, 0.0)


def _mostly(value, *others):
    """A strategy of `value` about 3 draws in 4, and of one of `others` in the rest."""
    return st.sampled_from([value] * 3 * len(others) + list(others))


class TestHeldDepthHold:
    """run_condition's own hold has a constant target, so it hands simulate the gait beside
    the loop. simulate runs the loop at step 0, then the gait's law block alone if step 0
    leaves the loop at rest: no noise drawn, a PID error and a slew of 0.0, a syringe volume
    whose sign bit is clear, heave and depth held, and no later PID refresh that could see a
    dt <= 0. Every column of a run, and any fault, is that of the same run with the loop
    commanded every step."""

    NEUTRAL = ENV.buoyancy.neutral_volume
    GAIT = GaitCommand(1.0, 20.0)
    # the default config's run, shortened: at rest
    REST = dict(gait=GAIT, noise=0.0, syringe=(NEUTRAL, NEUTRAL), quantum=0.001, target=0.2,
                start="on", heave=0.0, t0=0.0, period=ENV.control_period, gains=(None,) * 3,
                params=FishParams(), duration=0.2, dt=0.001, every=10)

    @given(
        gait=st.just(GaitCommand(0.0, 0.0)) | st.builds(
            GaitCommand, st.floats(0.0, 3.0), st.floats(0.0, 45.0), st.floats(-30.0, 30.0),
            st.floats(0.0, 1.0)),
        noise=_mostly(0.0, 1e-3),
        syringe=_mostly((NEUTRAL, NEUTRAL), (math.nextafter(NEUTRAL, 1.0), NEUTRAL),
                        (ENV.buoyancy.volume_min, NEUTRAL), (-0.0, 0.0), (-0.0, -0.0),
                        (0.0, -0.0)),  # (syringe volume, neutral volume)
        quantum=st.sampled_from([0.0, 1e-320, 0.001, 0.003]),
        target=st.sampled_from([0.0, 0.1, 0.2]) | st.floats(0.0, 0.5),
        # the start depth: the target, 0.4 quantum deeper (read as the target if it is on
        # the quantizer's grid), or 3 cm deeper
        start=st.sampled_from(["on", "near", "off"]),
        heave=_mostly(0.0, -0.0, 1e-3),
        t0=st.sampled_from([0.0, 5.0, 1e20]),  # from 1e20, t0 + i*dt == t0 at every step
        period=_mostly(ENV.control_period, 1e-13),  # 1e-13 s: under the slack
        gains=st.just((None,) * 3)  # None: the default
        | st.tuples(*[st.sampled_from([None, 1e308, math.inf])] * 3),
        params=st.sampled_from([FishParams()]) | _params,
        duration=st.floats(0.0005, 0.2),
        dt=st.sampled_from([0.001, 0.002, 0.0007]),
        every=st.integers(1, 12),
    )
    @example(**{**REST, "quantum": 0.003, "target": 0.1})  # 0.1 reads as 0.099
    @example(**{**REST, "gains": (math.inf, None, None)})  # inf * 0 is nan at step 0
    @example(**{**REST, "syringe": (math.nextafter(NEUTRAL, 1.0), NEUTRAL)})
    @example(**{**REST, "target": 0.0})  # at the surface
    # the first slew turns a syringe volume of -0.0 into +0.0
    @example(**{**REST, "syringe": (-0.0, 0.0)})
    # t never moves, so a refresh past no slack refreshes again at a dt of 0, and faults
    @example(**{**REST, "t0": 1e20, "period": 1e-13})
    @settings(max_examples=300, deadline=None)
    def test_every_column_and_fault_is_the_commanded_loops(
        self, gait, noise, syringe, quantum, target, start, heave, t0, period, gains, params,
        duration, dt, every,
    ):
        pid = dataclasses.replace(ENV.pid, **{name: gain for name, gain in zip(
            ("kp", "ki", "kd"), gains) if gain is not None})
        volume, neutral = syringe
        env = dataclasses.replace(
            ENV, params=params, pid=pid, buoyancy=dataclasses.replace(
                ENV.buoyancy, syringe_volume=volume, neutral_volume=neutral), dt=dt,
            record_every=every, depth_resolution=quantum, target_depth=target, noise=noise,
            control_period=period)
        assert env.depth_hold and env.power == PowerModel()
        depth = target + {"on": 0.0, "near": 0.4 * quantum, "off": 0.03}[start]
        state = FishState(depth=depth, heave_vel=heave, time=t0)
        # the default start is run_condition's own
        given = {} if repr(state) == repr(FishState(depth=target)) else {"initial_state": state}

        def loop():
            return SwimController(env, gait, step_schedule([(0.0, target)]), 5)

        def counting_refreshes(run):  # run's _result and its number of PID refreshes
            calls, refresh = [], controllers.depth_controller
            with mock.patch.object(controllers, "depth_controller",
                                   lambda *args: calls.append(args) or refresh(*args)):
                return _result(run), len(calls)

        held, held_refreshes = counting_refreshes(
            lambda: run_condition(env, gait, duration, 5, **given))
        commanded, loop_refreshes = counting_refreshes(lambda: simulate(
            params, loop(), duration, dt, initial_state=state, power_model=env.power,
            record_every=every))
        assert held == commanded
        steps = depth / quantum if quantum > 0.0 else math.inf  # the quantizer's
        at_rest = (noise == 0.0 and volume == neutral and math.copysign(1.0, volume) > 0.0
                   and all(map(math.isfinite, (pid.kp, pid.ki, pid.kd)))
                   and (round(steps) * quantum if math.isfinite(steps) else depth) == target
                   and _bits([heave]) == _bits([0.0]) and (t0 == 0.0 or period > 1e-12))
        event(f"at rest: {at_rest}")  # about 1 example in 10
        assert held_refreshes == (1 if at_rest else loop_refreshes)
        if isinstance(held, bytes):
            assert held == _oracle_simulate(loop(), duration, dt, t0, every, hydro._STATE_FIELDS,
                                            params, depth=depth, heave_vel=heave)

    @pytest.mark.parametrize("buoyancy", [0.0, -0.0, 0.5])
    @pytest.mark.parametrize("heave", [0.0, -0.0, 1e-3])
    @pytest.mark.parametrize("depth", [0.0, -0.0, 0.2])
    def test_a_law_block_holds_heave_and_depth_as_the_full_fields_do(
        self, buoyancy, heave, depth
    ):
        # no buoyancy and a heave from +0.0: every heave stage is +-0.0, so heave stays +0.0
        # and a depth keeps its bits, unless it is -0.0, which one step turns into +0.0
        run = (0.05, 0.001, 0.0, 7, hydro._STATE_FIELDS, FishParams(), depth)
        factory, asked = hydro._step_factory, []
        with mock.patch.object(hydro, "_step_factory", lambda f: asked.append(f) or factory(f)):
            held = _outcome(_Law(self.GAIT, buoyancy), *run, heave_vel=heave)
        with mock.patch.object(hydro, "_step_factory", lambda f: factory(hydro._STATE_FIELDS)):
            full = _outcome(_Law(self.GAIT, buoyancy), *run, heave_vel=heave)
        assert held == full == _oracle_simulate(_Law(self.GAIT, buoyancy), *run, heave_vel=heave)
        kept = tuple(f for f in hydro._STATE_FIELDS if f != "sway_vel")
        rest = buoyancy == 0.0 and _bits([heave, math.copysign(1.0, depth)]) == _bits([0.0, 1.0])
        planar = tuple(f for f in kept if f not in ("heave_vel", "depth"))
        assert asked == [kept] + [planar] * rest
