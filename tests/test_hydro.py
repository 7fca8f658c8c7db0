import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphfin.control import GaitCommand
from morphfin.controllers import ConstantController, SwimController
from morphfin.errors import ConfigError, DomainError, SimulationFault
from morphfin.hydro import (
    _rk4,
    ControlInput,
    FishParams,
    FishState,
    Measurement,
    drag_force,
    mean_thrust,
    net_forces,
    simulate,
    step,
)

DEG = math.pi / 180.0


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


class TestNetForces:
    def test_equilibrium_is_all_zero(self):
        fb = net_forces(FishParams(), FishState(), ControlInput())
        assert fb.thrust == 0.0
        assert fb.drag == 0.0
        assert fb.tail_yaw_moment == 0.0
        assert fb.yaw_damping_moment == 0.0
        assert fb.net_buoyancy == 0.0
        assert fb.heave_drag == 0.0

    def test_erect_fin_increases_yaw_damping(self):
        p = FishParams()
        state = FishState(yaw_rate=0.8)
        folded = net_forces(p, state, ControlInput(erection=0.0))
        erect = net_forces(p, state, ControlInput(erection=1.0))
        assert abs(erect.yaw_damping_moment) > abs(folded.yaw_damping_moment)

    def test_damping_hand_value(self):
        p = FishParams(yaw_damping_body=0.02, yaw_damping_fin=0.01)
        fb = net_forces(p, FishState(yaw_rate=1.0), ControlInput(erection=1.0))
        assert fb.yaw_damping_moment == pytest.approx(-0.03, rel=1e-12)

    def test_erection_out_of_range(self):
        with pytest.raises(DomainError):
            net_forces(FishParams(), FishState(), ControlInput(erection=1.5))

    @given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(0.0, 1.0))
    @settings(max_examples=50)
    def test_sign_correctness(self, surge, yaw_rate, erection):
        fb = net_forces(
            FishParams(),
            FishState(surge_vel=surge, yaw_rate=yaw_rate),
            ControlInput(erection=erection),
        )
        assert fb.drag * surge <= 0.0
        assert fb.yaw_damping_moment * yaw_rate <= 0.0


def _heave_params(coeff=0.95):
    # buoyancy off, only quadratic heave drag acts
    return FishParams(heave_drag_coeff=coeff, heave_added_mass=1.5)


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
        controller = SwimController(FishParams(), gait)
        records = simulate(FishParams(), controller, 1.0, 0.001, seed=0)
        assert len(records) == 1001
        assert records[0].time_s == 0.0

    def test_seed_reproducibility(self):
        def run():
            gait = GaitCommand(frequency=1.5, amplitude=15.0)
            controller = SwimController(FishParams(), gait)
            return simulate(FishParams(), controller, 2.0, 0.001, seed=42)

        rows_a = [r.row() for r in run()]
        rows_b = [r.row() for r in run()]
        assert rows_a == rows_b

    def test_non_finite_actuation_faults_with_time(self):
        class BadController:
            def command(self, measurement: Measurement) -> ControlInput:
                if measurement.time > 0.5:
                    return ControlInput(servo_rate=math.nan)
                return ControlInput()

        with pytest.raises(SimulationFault) as exc:
            simulate(FishParams(), BadController(), 2.0, 0.001, seed=0)
        assert 0.5 < exc.value.time < 0.6

    def test_steady_state_force_balance(self):
        p = FishParams()
        gait = GaitCommand(frequency=2.0, amplitude=20.0)
        controller = SwimController(p, gait)
        records = simulate(p, controller, 15.0, 0.001, seed=0)
        thrust = mean_thrust(p, 2.0, 20.0 * DEG)
        # average |drag| over exactly 10 gait cycles after the transient
        window = [r for r in records if 10.0 <= r.time_s < 15.0]
        mean_drag = sum(abs(drag_force(p, r.surge_mps)) for r in window) / len(window)
        assert abs(thrust - mean_drag) <= 0.02 * thrust

    def test_positive_bias_turns_positive(self):
        p = FishParams()
        gait = GaitCommand(frequency=1.0, amplitude=20.0, bias=10.0)
        controller = SwimController(p, gait)
        records = simulate(p, controller, 30.0, 0.001, seed=0)
        # the startup transient leaves a constant yaw offset, so measure the
        # drift accumulated over a late window rather than the absolute yaw
        yaw_at = {round(r.time_s, 6): r.yaw_deg for r in records}
        drift = yaw_at[30.0] - yaw_at[10.0]
        assert drift > 1.0

    def test_non_finite_syringe_volume_faults(self):
        controller = ConstantController(ControlInput(syringe_volume=math.nan))
        with pytest.raises(SimulationFault):
            simulate(FishParams(), controller, 1.0, 0.001, seed=0)

    def test_erection_out_of_range_raises(self):
        controller = ConstantController(ControlInput(erection=1.5))
        with pytest.raises(DomainError):
            simulate(FishParams(), controller, 1.0, 0.001, seed=0)

    def test_diverging_state_faults_with_field(self):
        # finite actuation whose heave response overflows within one step
        controller = ConstantController(ControlInput(buoyancy=1e308))
        with pytest.raises(SimulationFault) as exc:
            simulate(FishParams(), controller, 1.0, 0.001, seed=0)
        assert "non-finite state depth" in str(exc.value)

    def test_constant_controller_neutral(self):
        records = simulate(
            FishParams(), ConstantController(ControlInput()), 1.0, 0.001, seed=0
        )
        last = records[-1]
        assert last.x_m == 0.0 and last.depth_m == 0.0 and last.yaw_deg == 0.0


# The tuple-form integrator the scalar _rk4 replaced, kept as its oracle:
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
_loads = st.tuples(
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
        _loads,
        st.floats(1e-5, 0.01),
    )
    @settings(max_examples=300)
    def test_bit_identical_to_tuple_form(self, params, sv, loads, dt):
        assert _bits(_rk4(params, sv, loads, dt)) == _bits(_oracle_rk4(params, sv, loads, dt))

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
        assert _bits(_rk4(params, sv, loads, dt)) == _bits(expected)
