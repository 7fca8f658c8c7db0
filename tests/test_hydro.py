import math
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morphfin import hydro
from morphfin.cli import _environment
from morphfin.config import RunConfig
from morphfin.control import GaitCommand
from morphfin.controllers import SwimController
from morphfin.errors import ConfigError, DomainError, SimulationFault
from morphfin.hydro import (
    _integrator,
    _loads,
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

DEG = math.pi / 180.0
ENV = _environment(RunConfig())


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


class TestControlLoads:
    """The loads a `_loads` closure gives; the integrator damps yaw by -damping * r * |r|."""

    def test_equilibrium_is_all_zero(self):
        p = FishParams()
        thrust, tail_moment, _, buoyancy = _loads(p)(ControlInput())
        assert (thrust, tail_moment, buoyancy) == (0.0, 0.0, 0.0)
        assert drag_force(p, 0.0) == 0.0
        # no drag, heave drag or yaw damping at rest: a step from rest stays at rest
        assert step(p, FishState(), ControlInput(), 0.001) == FishState(time=0.001)

    def test_erect_fin_increases_yaw_damping(self):
        p = FishParams()
        folded = _loads(p)(ControlInput(erection=0.0))[2]
        erect = _loads(p)(ControlInput(erection=1.0))[2]
        assert erect > folded

    def test_damping_hand_value(self):
        p = FishParams(yaw_damping_body=0.02, yaw_damping_fin=0.01)
        damping = _loads(p)(ControlInput(erection=1.0))[2]
        assert damping == pytest.approx(0.03, rel=1e-12)

    def test_erection_out_of_range(self):
        with pytest.raises(DomainError):
            _loads(FishParams())(ControlInput(erection=1.5))

    @given(st.floats(-2.0, 2.0), st.floats(0.0, 1.0))
    @settings(max_examples=50)
    def test_sign_correctness(self, surge, erection):
        p = FishParams()
        assert drag_force(p, surge) * surge <= 0.0
        # a nonnegative coefficient makes the damping moment oppose the yaw rate
        assert _loads(p)(ControlInput(erection=erection))[2] >= 0.0


def _heave_params(coeff=0.95):
    # buoyancy off, only quadratic heave drag acts
    return FishParams(heave_drag_coeff=coeff, heave_added_mass=1.5)


_EXACT_DT = 2.0**-10  # a power of two, so duration/dt is exact at the ceiling


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

    def test_non_finite_syringe_volume_faults(self):
        controller = ConstantController(ControlInput(syringe_volume=math.nan))
        with pytest.raises(SimulationFault):
            simulate(FishParams(), controller, 1.0, 0.001)

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


# The tuple-form integrator the scalar _integrator replaced, kept as its oracle:
# the scalar form must reproduce it bit for bit.


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


def _oracle_rk4(params, sv, loads, dt):
    k1 = _oracle_derivs(params, sv, loads)
    half = dt / 2.0
    s2 = tuple(s + half * k for s, k in zip(sv, k1))
    k2 = _oracle_derivs(params, s2, loads)
    s3 = tuple(s + half * k for s, k in zip(sv, k2))
    k3 = _oracle_derivs(params, s3, loads)
    s4 = tuple(s + dt * k for s, k in zip(sv, k3))
    k4 = _oracle_derivs(params, s4, loads)
    sixth = dt / 6.0
    out = tuple(
        s + sixth * (a + 2.0 * b + 2.0 * c + d)
        for s, a, b, c, d in zip(sv, k1, k2, k3, k4)
    )
    if out[2] < 0.0:
        out = out[:2] + (0.0,) + out[3:7] + (max(out[7], 0.0),)
    return out


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


# The per-step path builds ControlInput positionally (SwimController.command),
# so its field order is pinned here.

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

    @given(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=7, max_size=7),
        st.dictionaries(
            st.integers(0, 6), st.sampled_from([math.nan, math.inf, -math.inf]), max_size=7
        ),
    )
    def test_is_finite_exactly_when_every_field_is(self, values, bad):
        # `bad` puts a nan or an infinity at none, one or several fields
        for i, value in bad.items():
            values[i] = value
        assert ControlInput(*values).is_finite() == (not bad)
        # a single non-finite field is enough, whichever it is
        for i, value in bad.items():
            alone = [0.0] * 7
            alone[i] = value
            assert not ControlInput(*alone).is_finite()


# The load laws recomputed in full on every call, kept as the oracle of the
# memoized _loads, which keeps the last gait's thrust.


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


class TestLoadsMemo:
    @given(
        st.builds(
            FishParams,
            tail_length=st.floats(0.0, 0.5),
            tail_reaction_coeff=st.floats(0.0, 0.2),
            thrust_freq_exponent=st.floats(0.5, 3.0),
            yaw_damping_fin=st.floats(0.0, 1.0),
        ),
        st.lists(_controls, min_size=1, max_size=40),
    )
    @settings(max_examples=200)
    def test_each_load_equals_the_formula(self, params, controls):
        # one _loads applied in order, as simulate applies it
        load = hydro._loads(params)
        for control in controls:
            try:
                expected = _oracle_control_loads(params, control)
            except DomainError as error:
                with pytest.raises(DomainError) as got:
                    load(control)
                assert str(got.value) == str(error)
            else:
                assert _bits(load(control)) == _bits(expected)

    def test_erection_is_checked_before_the_gait(self):
        load = hydro._loads(FishParams())
        both_bad = ControlInput(gait_frequency=-1.0, erection=1.5)
        with pytest.raises(DomainError, match="erection"):
            load(both_bad)
        with pytest.raises(DomainError, match="freq and amp"):
            load(both_bad._replace(erection=1.0))
        # a failed call leaves the kept thrust as it was
        steady = ControlInput(gait_frequency=1.0, gait_amplitude=0.35)
        assert _bits(load(steady)) == _bits(_oracle_control_loads(FishParams(), steady))


class _Clock:
    """A neutral controller that notes the time of every call."""

    def __init__(self):
        self.times = []

    def command(self, t, depth):
        self.times.append(t)
        return ControlInput()


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
