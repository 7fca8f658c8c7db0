"""Tests for the experiment harness: sweeps, yaw study, depth steps, calibration."""

import dataclasses
import math
import statistics
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morphfin import experiments
from morphfin.cli import _environment
from morphfin.config import RunConfig, load_default_config
from morphfin.control import BuoyancyState, GaitCommand
from morphfin.errors import ConfigError, MorphfinError
from morphfin.experiments import (
    DEFAULT_FREQUENCIES,
    YAW_AMPLITUDES,
    YAW_FREQUENCIES,
    CalibrationTarget,
    ExperimentSpec,
    RunEnvironment,
    calibrate,
    run_condition,
    run_depth_step,
    run_speed_sweep,
    run_yaw_study,
    speed_sweep_spec,
    yaw_study_spec,
)
from morphfin.hydro import FishParams, FishState, NoiseConfig
from morphfin.metrics import PowerModel, cot


def fast_env(**overrides) -> RunEnvironment:
    """The default config's environment at a coarse step, so protocol tests stay quick."""
    coarse = {"dt": 0.01, "record_every": 2, "depth_hold": False, **overrides}
    return dataclasses.replace(_environment(RunConfig()), **coarse)


class TestProtocolShape:
    def test_speed_sweep_grid(self):
        spec = speed_sweep_spec()
        assert spec.frequencies == DEFAULT_FREQUENCIES
        assert len(spec.frequencies) == 10
        assert spec.fin_states == ["folded", "erect"]
        assert spec.repeats == 5
        # 10 frequencies x 2 fin states x 5 repeats = 100 runs
        assert len(spec.frequencies) * len(spec.fin_states) * spec.repeats == 100

    def test_yaw_study_grid(self):
        spec = yaw_study_spec()
        assert spec.frequencies == YAW_FREQUENCIES == [0.5, 1.0]
        assert spec.amplitudes == YAW_AMPLITUDES == [10.0, 20.0, 30.0]
        assert spec.fin_states == ["folded", "erect"]
        assert (spec.repeats, spec.duration) == (1, 25.0)
        assert yaw_study_spec(seed=4).seed == speed_sweep_spec(seed=4).seed == 4

    def test_power_defaults_are_the_calibrated_ones(self):
        assert PowerModel() == fast_env().power == PowerModel(0.740078125, 0.5)

    def test_duration_guard(self):
        with pytest.raises(MorphfinError):
            ExperimentSpec(frequencies=[0.5], duration=5.0).validate()  # < 10 / 0.5

    def test_repeats_stay_below_the_cell_seed_stride(self):
        # cell i's repeat r runs with seed + 1000*i + r, so a 1001st repeat
        # would rerun cell i+1's repeat 0
        ExperimentSpec(repeats=1000).validate()
        with pytest.raises(ConfigError) as info:
            ExperimentSpec(repeats=1001).validate()
        assert info.value.field == "experiment.repeats"

    def test_sweep_row_count_and_order(self):
        spec = ExperimentSpec(
            frequencies=[1.0, 2.0],
            amplitudes=[20.0],
            fin_states=["folded", "erect"],
            repeats=2,
            duration=12.0,
        )
        result = run_speed_sweep(fast_env(), spec)
        assert len(result.rows) == 4
        keys = [(r.frequency, r.fin_state) for r in result.rows]
        assert len(set(keys)) == 4

    def test_yaw_study_table_shape(self):
        spec = ExperimentSpec(
            kind="yaw_study",
            frequencies=[1.0],
            amplitudes=[20.0],
            fin_states=["folded", "erect"],
            repeats=1,
            duration=15.0,
        )
        report = run_yaw_study(fast_env(), spec)
        assert len(report.table) == 1
        row = report.table[0]
        assert row.folded_p2p > 0 and row.erect_p2p > 0
        assert row.improvement_pct == pytest.approx(
            100.0 * (row.folded_p2p - row.erect_p2p) / row.folded_p2p
        )


class TestDeterminism:
    def test_sweep_csv_identical_across_calls(self):
        spec = ExperimentSpec(
            frequencies=[1.5], amplitudes=[20.0], fin_states=["folded"],
            repeats=2, duration=12.0, seed=7,
        )
        a = run_speed_sweep(fast_env(), spec).to_csv()
        b = run_speed_sweep(fast_env(), spec).to_csv()
        assert a == b

    def test_repeats_identical_without_noise(self):
        # with noise disabled every repeat is the same trajectory
        spec = ExperimentSpec(
            frequencies=[1.5], amplitudes=[20.0], fin_states=["folded"],
            repeats=3, duration=12.0,
        )
        row = run_speed_sweep(fast_env(), spec).rows[0]
        assert row.speed_std == 0.0
        assert row.power_std == 0.0
        assert row.p2p_std == 0.0

    def test_noise_reaches_the_depth_loop_only(self):
        # depth noise drives the depth PID and so the syringe and heave; no
        # controller reads the yaw measurement, so the planar motion and every
        # sweep metric stay as without noise
        from morphfin.hydro import NoiseConfig

        noisy = fast_env(noise=NoiseConfig(enabled=True), depth_hold=True)
        gait = GaitCommand(frequency=1.5, amplitude=20.0)
        a = run_condition(noisy, gait, 12.0, seed=0)
        b = run_condition(noisy, gait, 12.0, seed=1)
        assert [r.depth_m for r in a] != [r.depth_m for r in b]
        assert [r.syringe_ml for r in a] != [r.syringe_ml for r in b]

        spec = ExperimentSpec(
            frequencies=[1.5], amplitudes=[20.0], fin_states=["folded"],
            repeats=3, duration=12.0,
        )
        row = run_speed_sweep(noisy, spec).rows[0]
        quiet = run_speed_sweep(fast_env(depth_hold=True), spec).rows[0]
        assert row == quiet
        assert row.speed_std == row.power_std == row.p2p_std == 0.0


def _packed(*values: float) -> bytes:
    """The bits of a float sequence, so that -0.0 != 0.0 and nan == nan."""
    return struct.pack(f"<{len(values)}d", *values)


def _telemetry_bits(records) -> bytes:
    return b"".join(_packed(*dataclasses.astuple(r)) for r in records)


def _counting_run_condition(monkeypatch) -> list[tuple[int, list]]:
    """Route the sweep's run_condition through a recorder of (seed, records)."""
    calls = []
    original = experiments.run_condition

    def counted(env, gait, duration, seed, **kwargs):
        records = original(env, gait, duration, seed, **kwargs)
        calls.append((seed, records))
        return records

    monkeypatch.setattr(experiments, "run_condition", counted)
    return calls


class TestRepeatDedupe:
    SPEC = ExperimentSpec(
        frequencies=[1.0, 2.0], amplitudes=[20.0], fin_states=["folded"],
        repeats=5, duration=12.0, seed=3,
    )

    def test_noise_free_row_is_bit_equal_to_every_repeat_run(self, monkeypatch):
        env = fast_env()
        calls = _counting_run_condition(monkeypatch)
        rows = run_speed_sweep(env, self.SPEC).rows
        assert len(calls) == len(rows) == 2  # one simulation per cell
        for cell, row in enumerate(rows):
            base = self.SPEC.seed + 1000 * cell
            speeds, powers, cots, p2ps = [], [], [], []
            for rep in range(self.SPEC.repeats):
                gait = GaitCommand(frequency=row.frequency, amplitude=row.amplitude)
                records = run_condition(env, gait, self.SPEC.duration, base + rep)
                m = experiments.condition_metrics(records, row.frequency)
                speeds.append(m.mean_speed)
                powers.append(m.mean_power)
                cots.append(cot(m.mean_power, env.params.mass, env.params.gravity, m.mean_speed))
                p2ps.append(m.p2p_yaw)
            expected = [
                f(values)
                for values in (speeds, powers, cots, p2ps)
                for f in (statistics.fmean, statistics.pstdev)
            ]
            got = [
                row.mean_speed, row.speed_std, row.mean_power, row.power_std,
                row.cot, row.cot_std, row.p2p_yaw, row.p2p_std,
            ]
            assert _packed(*got) == _packed(*expected)

    @pytest.mark.parametrize("noise_on", [False, True], ids=["noise_off", "noise_on"])
    def test_runs_seeds_and_kept_records_per_cell(self, monkeypatch, noise_on):
        # without noise only repeat 0 of each cell is simulated; with it, all are
        env = fast_env(noise=NoiseConfig(enabled=noise_on), depth_hold=True)
        calls = _counting_run_condition(monkeypatch)
        kept = []
        run_speed_sweep(env, self.SPEC, keep_records=kept)
        runs = self.SPEC.repeats if noise_on else 1
        bases = [self.SPEC.seed + 1000 * cell for cell in range(2)]
        assert [seed for seed, _ in calls] == [b + rep for b in bases for rep in range(runs)]
        assert [f for f, _, _, _ in kept] == [1.0, 2.0]
        assert kept[0][3] is calls[0][1] and kept[1][3] is calls[runs][1]


class TestSeedProperties:
    GAIT = GaitCommand(frequency=1.5, amplitude=20.0)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**64))
    def test_noise_free_telemetry_does_not_read_the_seed(self, seed):
        # the sweep simulates one repeat per noise-free cell on this invariant
        env = fast_env(depth_hold=True)
        got = run_condition(env, self.GAIT, 1.0, seed)
        assert _telemetry_bits(got) == _telemetry_bits(run_condition(env, self.GAIT, 1.0, 0))

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**64))
    def test_noisy_telemetry_is_a_function_of_the_seed(self, seed):
        env = fast_env(noise=NoiseConfig(enabled=True), depth_hold=True)
        first = _telemetry_bits(run_condition(env, self.GAIT, 1.0, seed))
        assert first == _telemetry_bits(run_condition(env, self.GAIT, 1.0, seed))
        quiet = run_condition(fast_env(depth_hold=True), self.GAIT, 1.0, seed)
        assert first != _telemetry_bits(quiet)


class TestDepthStep:
    def test_depth_hold_needs_pid_and_buoyancy(self):
        gait = GaitCommand(frequency=1.0, amplitude=20.0)
        for missing in ("pid", "buoyancy"):
            env = fast_env(depth_hold=True, target_depth=0.3, **{missing: None})
            with pytest.raises(ConfigError):
                run_condition(env, gait, 12.0, seed=0)

    def test_constant_schedule_holds_depth(self):
        env = fast_env(depth_hold=True, target_depth=0.2)
        records, reports = run_depth_step(env, [(0.0, 0.2)], 20.0, initial_depth=0.2)
        # already at target: stays within 2 cm throughout
        assert all(abs(r.depth_m - 0.2) < 0.02 for r in records)
        assert reports == [] or all(rep.target == 0.2 for rep in reports)

    def test_step_down_settles(self):
        env = fast_env(depth_hold=True)
        records, reports = run_depth_step(
            env, [(0.0, 0.2), (5.0, 0.5)], 60.0, initial_depth=0.2
        )
        (report,) = [r for r in reports if r.target == 0.5]
        assert report.settling_time is not None
        assert records[-1].depth_m == pytest.approx(0.5, abs=0.01)

    def test_surface_clamp(self):
        # commanding depth 0 from shallow start never yields negative depth
        env = fast_env(depth_hold=True)
        records, _ = run_depth_step(env, [(0.0, 0.0)], 20.0, initial_depth=0.05)
        assert all(r.depth_m >= 0.0 for r in records)


class TestPhysicalProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        # near the surface half the time, where an upward heave can cross it
        initial_depth=st.one_of(st.floats(0.0, 0.05), st.floats(0.0, 1.0)),
        target_depth=st.floats(0.0, 1.0),
        volume=st.floats(0.0, 6e-5),
        frequency=st.floats(0.0, 2.5),
        amplitude=st.floats(0.0, 45.0),
        bias=st.floats(-30.0, 30.0),
        erection=st.floats(0.0, 1.0),
        duration=st.floats(0.05, 3.0),
        depth_hold=st.booleans(),
    )
    # at the surface with the syringe empty: the largest upward buoyancy
    @example(0.0, 0.0, 0.0, 1.0, 20.0, 0.0, 0.0, 1.0, True)
    def test_depth_never_goes_below_the_surface(
        self, initial_depth, target_depth, volume, frequency, amplitude, bias, erection,
        duration, depth_hold,
    ):
        env = fast_env(
            dt=0.002,
            depth_hold=depth_hold,
            target_depth=target_depth,
            buoyancy=BuoyancyState(volume, 0.0, 6e-5, 1.2e-5, 3e-5),
        )
        gait = GaitCommand(frequency, amplitude, bias, erection)
        records = run_condition(
            env, gait, duration, 0, initial_state=FishState(depth=initial_depth)
        )
        assert all(r.depth_m >= 0.0 for r in records)

    @settings(max_examples=12, deadline=None)
    @given(
        frequency=st.floats(0.5, 1.99),
        amplitude=st.floats(10.0, 30.0),
        erections=st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), min_size=2, max_size=2),
    )
    def test_yaw_p2p_does_not_grow_with_erection(self, frequency, amplitude, erections):
        # the yaw study's gait range and erection in quarter steps, at the
        # default config's 1 ms step and 100 Hz records, over the steady window
        # plus 8 gait cycles. It fails outside this range: at a 1 deg amplitude,
        # and between erections 1e-16 apart, by an ulp (CHANGES.md, FOUND)
        env = _environment(load_default_config())
        duration = max(5.0, 5.0 / frequency) + 8.0 / frequency

        def p2p(erection):
            gait = GaitCommand(frequency, amplitude, fin_erection_setpoint=erection)
            records = run_condition(env, gait, duration, 0)
            return experiments.condition_metrics(records, frequency).p2p_yaw

        low, high = sorted(erections)
        assert p2p(high) <= p2p(low)


class GoldenSection:
    """Independent 1-D minimizer used as an oracle for the calibrator."""

    @staticmethod
    def minimize(fun, lo, hi, iters=60):
        phi = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = lo, hi
        c, d = b - phi * (b - a), a + phi * (b - a)
        fc, fd = fun(c), fun(d)
        for _ in range(iters):
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - phi * (b - a)
                fc = fun(c)
            else:
                a, c, fc = c, d, fd
                d = a + phi * (b - a)
                fd = fun(d)
        return (a + b) / 2.0


class TestCalibration:
    TARGET = [
        CalibrationTarget(
            name="speed", observable="top_speed", frequency=2.5,
            amplitude=20.0, fin_state="folded", value=0.225, weight=1.0,
        )
    ]

    @staticmethod
    def env_from(thrust_coeff):
        """The fast environment with calibration's start value of thrust_coeff."""
        env = fast_env()
        return dataclasses.replace(
            env, params=dataclasses.replace(env.params, thrust_coeff=thrust_coeff)
        )

    def test_fixed_point_loss_is_tiny(self):
        # calibrating against the model's own output converges to ~zero loss
        env = fast_env()
        records = run_condition(env, GaitCommand(2.5, 20.0), 25.0, 0)
        from morphfin.experiments import _metrics_with_cot

        observed = _metrics_with_cot(env, records, 2.5).mean_speed
        target = [
            CalibrationTarget(
                name="speed", observable="top_speed", frequency=2.5,
                amplitude=20.0, fin_state="folded", value=observed,
            )
        ]
        result = calibrate(
            target, env,
            bounds={"thrust_coeff": (0.01, 1.0)},
            max_rounds=5,
        )
        assert result.loss_trace[-1] <= 1e-12

    def test_loss_trace_nonincreasing_and_bounds(self):
        result = calibrate(
            self.TARGET, self.env_from(0.08),
            bounds={"thrust_coeff": (0.05, 0.2)},
            max_rounds=8,
        )
        trace = result.loss_trace
        assert all(b <= a + 1e-15 for a, b in zip(trace, trace[1:]))
        assert 0.05 <= result.parameters["thrust_coeff"] <= 0.2

    def test_matches_golden_section_oracle(self):
        env = fast_env()
        from morphfin.experiments import evaluate_targets
        from dataclasses import replace

        def loss(k):
            e = replace(env, params=FishParams(thrust_coeff=k))
            v = evaluate_targets(e, self.TARGET)["speed"]
            return ((v - 0.225) / 0.225) ** 2

        oracle = GoldenSection.minimize(loss, 0.05, 0.3, iters=25)
        result = calibrate(
            self.TARGET, self.env_from(0.08),
            bounds={"thrust_coeff": (0.05, 0.3)},
            max_rounds=20,
            step_fraction=0.2,
        )
        assert result.parameters["thrust_coeff"] == pytest.approx(oracle, rel=0.01)

    def test_residuals_reported(self):
        result = calibrate(
            self.TARGET, self.env_from(0.12),
            bounds={"thrust_coeff": (0.05, 0.3)},
            max_rounds=3,
        )
        assert set(result.residuals) == {"speed"}
        assert abs(result.residuals["speed"]) < 0.5
