import math
import struct
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphfin.control import (
    BuoyancyState,
    GaitCommand,
    PidGains,
    PidMemory,
    apply_volume_rate,
    depth_controller,
    pid_step,
    step_schedule,
)
from morphfin.cli import _environment
from morphfin.config import RunConfig
from morphfin.controllers import SwimController
from morphfin.errors import ConfigError, DomainError
from morphfin.hydro import ControlInput, FishParams, FishState, gait_law, simulate


def default_buoyancy(volume=3e-5):
    return BuoyancyState(
        syringe_volume=volume,
        volume_min=0.0,
        volume_max=6e-5,
        max_rate=1.2e-5,
        neutral_volume=3e-5,
    )


def syringe_buoyancy(water_density, gravity, volume, neutral_volume):
    """Net buoyancy in N, positive up, of a syringe volume; zero at neutral. The depth
    loop's buoyancy, in SwimController.command, must match this textbook form."""
    return -water_density * gravity * (volume - neutral_volume)


def command_buoyancy(buoy):
    """The buoyancy a depth-loop SwimController commands at t = 0 with the syringe `buoy`."""
    env = replace(_environment(RunConfig()), buoyancy=buoy)
    controller = SwimController(env, GaitCommand(), step_schedule([(0.0, 0.0)]))
    return controller.command(0.0, 0.0)[5]


def servo_angle(gait, t):
    """The commanded servo angle in degrees at time t: the textbook biased sine."""
    if t < 0.0:
        raise DomainError(f"time must be >= 0, got {t}")
    return gait.bias + gait.amplitude * math.sin(2.0 * math.pi * gait.frequency * t)


def servo_rate(gait, t):
    """The servo's angular rate in deg/s at time t: the sine's analytic derivative."""
    if t < 0.0:
        raise DomainError(f"time must be >= 0, got {t}")
    w = 2.0 * math.pi * gait.frequency
    return gait.amplitude * w * math.cos(w * t)


def _servo_deg(gait, t):
    """The servo angle in degrees of the control law of SwimController and simulate's block."""
    return gait_law(gait)(t)[0] * 180.0 / math.pi


class TestServoAngle:
    def test_zero_crossing_at_t0(self):
        gait = GaitCommand(frequency=1.3, amplitude=17.0, bias=5.0)
        assert _servo_deg(gait, 0.0) == pytest.approx(5.0)

    def test_quarter_period_peak(self):
        gait = GaitCommand(frequency=1.0, amplitude=20.0)
        assert _servo_deg(gait, 0.25) == pytest.approx(20.0)

    def test_eighth_period(self):
        gait = GaitCommand(frequency=1.0, amplitude=20.0)
        # 20 * sin(pi/4)
        assert _servo_deg(gait, 0.125) == pytest.approx(14.142, abs=5e-4)

    @given(st.floats(0.2, 3.0), st.floats(1.0, 45.0))
    @settings(max_examples=30)
    def test_symmetric_cycle_zero_mean(self, freq, amp):
        servo = gait_law(GaitCommand(frequency=freq, amplitude=amp))
        n = 1000
        period = 1.0 / freq
        mean = sum(servo(i * period / n)[0] for i in range(n)) / n
        assert abs(mean) <= 1e-12 * amp * math.pi / 180.0

    @given(
        st.floats(0.0, 5.0), st.floats(0.0, 45.0), st.floats(-30.0, 30.0), st.floats(0.0, 1e4)
    )
    @settings(max_examples=200)
    def test_is_the_textbook_sine_and_the_command_bit_for_bit(self, freq, amp, bias, t):
        gait = GaitCommand(frequency=freq, amplitude=amp, bias=bias)
        deg = math.pi / 180.0
        expected = (servo_angle(gait, t) * deg, servo_rate(gait, t) * deg)
        controller = SwimController(_environment(RunConfig()), gait)
        got = gait_law(gait)(t)
        assert struct.pack("<2d", *got[:2]) == struct.pack("<2d", *expected)
        assert _bits(got) == _bits(controller.command(t, 0.3))  # the whole command


class TestPidStep:
    def test_quiescence(self):
        gains = PidGains(1.0, 1.0, 1.0, 10.0, 10.0)
        u, _ = pid_step(gains, 0.0, 0.1, PidMemory())
        assert u == 0.0

    def test_pure_proportional(self):
        gains = PidGains(2.0, 0.0, 0.0, 10.0, 10.0)
        u, _ = pid_step(gains, 0.1, 0.1, PidMemory())
        assert u == pytest.approx(0.2)

    def test_rectangle_rule_integral(self):
        gains = PidGains(0.0, 1.0, 0.0, 10.0, 10.0)
        u1, mem = pid_step(gains, 0.1, 0.5, PidMemory())
        u2, _ = pid_step(gains, 0.1, 0.5, mem)
        assert u1 == pytest.approx(0.05)
        assert u2 == pytest.approx(0.10)

    def test_output_clamp(self):
        gains = PidGains(100.0, 0.0, 0.0, 10.0, 1.0)
        u, _ = pid_step(gains, 1.0, 0.1, PidMemory())
        assert u == 1.0

    @given(st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=200))
    def test_anti_windup(self, errors):
        gains = PidGains(1.0, 1.0, 0.5, 2.0, 100.0)
        mem = PidMemory()
        for e in errors:
            _, mem = pid_step(gains, e, 0.05, mem)
            assert abs(mem.integral) <= gains.integral_limit


class TestBuoyancy:
    def test_neutral_is_zero(self):
        assert command_buoyancy(default_buoyancy(3e-5)) == 0.0

    def test_ten_ml_above_neutral(self):
        # 10 mL above neutral
        force = command_buoyancy(default_buoyancy(4e-5))
        assert force == pytest.approx(-0.0981, rel=1e-9)
        assert force == syringe_buoyancy(1000.0, 9.81, 4e-5, 3e-5)

    def test_volume_clamps_and_force_saturates(self):
        buoy = default_buoyancy(volume=5.9e-5)
        moved = apply_volume_rate(buoy, rate=1.0, dt=10.0)  # way past the cap
        assert moved.syringe_volume == buoy.volume_max
        force = command_buoyancy(moved)
        assert force == pytest.approx(-1000.0 * 9.81 * 3e-5)
        assert force == syringe_buoyancy(1000.0, 9.81, moved.syringe_volume, moved.neutral_volume)

    @given(
        st.lists(st.floats(-1e-4, 1e-4), min_size=1, max_size=100),
        st.floats(0.001, 0.1),
    )
    @settings(max_examples=50)
    def test_actuator_lipschitz_and_range(self, rates, dt):
        buoy = default_buoyancy()
        for rate in rates:
            nxt = apply_volume_rate(buoy, rate, dt)
            assert abs(nxt.syringe_volume - buoy.syringe_volume) <= buoy.max_rate * dt + 1e-18
            assert buoy.volume_min <= nxt.syringe_volume <= buoy.volume_max
            buoy = nxt

    def test_invariant_validation(self):
        with pytest.raises(ConfigError):
            BuoyancyState(7e-5, 0.0, 6e-5, 1e-5, 3e-5).validate()


class TestDepthController:
    GAINS = PidGains(4e-4, 5e-7, 5e-4, 1.0, 3e-5)

    def test_zero_rate_at_target(self):
        buoy = default_buoyancy()
        rate, _ = depth_controller(
            0.3, 0.3, self.GAINS, buoy, buoy.syringe_volume, 0.02, PidMemory()
        )
        assert rate == 0.0

    def test_surfacing_step_saturates_negative(self):
        # target jumps from 0.3 m to 0.1 m while still at 0.3 m depth:
        # too deep, so expel water at the full rate
        buoy = default_buoyancy()
        rate, _ = depth_controller(
            0.1, 0.3, self.GAINS, buoy, buoy.syringe_volume, 0.02, PidMemory()
        )
        assert rate == -buoy.max_rate


class TestStepSchedule:
    def test_piecewise_lookup(self):
        schedule = step_schedule([(0.0, 0.1), (5.0, 0.4)])
        assert schedule(0.0) == 0.1
        assert schedule(4.999) == 0.1
        assert schedule(5.0) == 0.4
        assert schedule(100.0) == 0.4

    def test_rejects_bad_targets(self):
        with pytest.raises(DomainError):
            step_schedule([])
        with pytest.raises(ConfigError):
            step_schedule([(0.0, -1.0)])
        # which of two targets holds from one start time would hang on the sort order
        with pytest.raises(DomainError, match="^schedule start times must differ$"):
            step_schedule([(5.0, 0.1), (0.0, 0.2), (0.0, 0.4)])


class TestGaitValidation:
    def test_amplitude_range(self):
        with pytest.raises(ConfigError):
            GaitCommand(frequency=1.0, amplitude=50.0).validate()

    def test_bias_range(self):
        with pytest.raises(ConfigError):
            GaitCommand(frequency=1.0, amplitude=20.0, bias=35.0).validate()


class _ReferenceController:
    """SwimController's law rebuilt from the public per-state functions.

    The syringe is a BuoyancyState advanced by apply_volume_rate every call,
    the buoyancy comes from syringe_buoyancy, and the servo from this file's
    servo_angle and servo_rate: the straightforward form the controller must match.
    """

    def __init__(self, params, gait, gains, buoyancy, schedule, period=0.02, quantum=0.001):
        self.params, self.gait, self.gains = params, gait, gains
        self.buoyancy, self.schedule = buoyancy, schedule
        self.period, self.quantum = period, quantum
        self.memory = PidMemory()
        self.rate = 0.0
        self.last_update = None
        self.last_time = None

    def command(self, t, depth):
        if self.last_time is not None and t > self.last_time:
            self.buoyancy = apply_volume_rate(self.buoyancy, self.rate, t - self.last_time)
        if self.last_update is None or t - self.last_update >= self.period - 1e-12:
            measured = round(depth / self.quantum) * self.quantum
            dt = self.period if self.last_update is None else t - self.last_update
            self.rate, self.memory = depth_controller(
                self.schedule(t), measured, self.gains, self.buoyancy,
                self.buoyancy.syringe_volume, dt, self.memory,
            )
            self.last_update = t
        self.last_time = t
        deg = math.pi / 180.0
        return ControlInput(
            servo_angle=servo_angle(self.gait, t) * deg,
            servo_rate=servo_rate(self.gait, t) * deg,
            gait_frequency=self.gait.frequency,
            gait_amplitude=self.gait.amplitude * deg,
            erection=self.gait.fin_erection_setpoint,
            buoyancy=syringe_buoyancy(
                self.params.water_density,
                self.params.gravity,
                self.buoyancy.syringe_volume,
                self.buoyancy.neutral_volume,
            ),
            syringe_volume=self.buoyancy.syringe_volume,
        )


def _bits(control):
    return struct.pack("<7d", *tuple(control))


class TestSwimControllerOracle:
    GAINS = PidGains(4e-4, 5e-7, 5e-4, 1.0, 3e-5)

    def test_control_stream_bit_identical_to_public_laws(self):
        # 2 s depth hold whose target steps from 0.1 m to 0.3 m at 1 s: the
        # syringe slews at its rate limit, then the PID settles
        params = FishParams()
        gait = GaitCommand(frequency=1.65, amplitude=23.0, bias=4.0, fin_erection_setpoint=0.7)
        schedule = step_schedule([(0.0, 0.1), (1.0, 0.3)])
        env = replace(
            _environment(RunConfig()), params=params, pid=self.GAINS, buoyancy=default_buoyancy()
        )
        controller = SwimController(env, gait, schedule)
        reference = _ReferenceController(
            params, gait, self.GAINS, default_buoyancy(), schedule
        )
        streams = ([], [])

        class Both:
            def command(self, t, depth):
                streams[1].append(reference.command(t, depth))
                streams[0].append(controller.command(t, depth))
                return streams[0][-1]

        simulate(params, Both(), 2.0, 0.001, initial_state=FishState(depth=0.1))
        got, expected = streams
        assert len(got) == 2001
        assert len({c[6] for c in got}) > 100  # the syringe volume moved
        assert [_bits(c) for c in got] == [_bits(c) for c in expected]

    def test_negative_time_is_a_domain_error(self):
        controller = SwimController(
            _environment(RunConfig()), GaitCommand(frequency=1.0, amplitude=20.0)
        )
        with pytest.raises(DomainError):
            controller.command(-0.001, 0.0)
