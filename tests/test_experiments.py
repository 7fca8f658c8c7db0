"""Tests for the experiment harness: sweeps, yaw study, depth steps, calibration."""

import dataclasses
import math
import struct
from array import array

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morphfin import cli, controllers, experiments, hydro
from morphfin.cli import _environment
from morphfin.config import RunConfig, load_default_config
from morphfin.control import BuoyancyState, GaitCommand, step_schedule
from morphfin.errors import ConfigError, DomainError, MorphfinError, SimulationFault
from morphfin.experiments import (
    DEFAULT_FREQUENCIES,
    YAW_AMPLITUDES,
    YAW_FREQUENCIES,
    CalibrationTarget,
    ExperimentSpec,
    RunEnvironment,
    calibrate,
    evaluate_targets,
    run_condition,
    run_depth_step,
    run_speed_sweep,
    run_yaw_study,
    speed_sweep_spec,
    yaw_study_spec,
)
from morphfin.hydro import FishParams, FishState
from morphfin.metrics import PowerModel, cot, transient
from morphfin.telemetry import HEADER, Telemetry


NOISE_STD = load_default_config().sim.noise_depth_std_m  # the std a noise-on config runs with


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

    def test_repeats_stay_at_most_1000(self):
        # a cell runs once, with seed + 1000*i, whatever its repeats; the
        # bound stays so that the same configs load as when each repeat drew
        # its own seed
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

    def test_a_run_that_starts_later_has_the_same_metrics(self):
        # the steady window starts max(5 s, 5 cycles) after the first record;
        # the gait's phase is rounded at other times, so the match is not exact
        env = fast_env()
        gait = GaitCommand(frequency=1.0, amplitude=20.0)
        base = experiments.condition_metrics(run_condition(env, gait, 25.0, 0), 1.0)
        records = run_condition(env, gait, 25.0, 0, initial_state=FishState(time=100.0))
        later = experiments.condition_metrics(records, 1.0)
        assert (later.mean_speed, later.mean_power, later.p2p_yaw) == pytest.approx(
            (base.mean_speed, base.mean_power, base.p2p_yaw), rel=1e-12
        )


def _packed(*values: float) -> bytes:
    """The bits of a float sequence, so that -0.0 != 0.0 and nan == nan."""
    return struct.pack(f"<{len(values)}d", *values)


def _telemetry_bits(records) -> bytes:
    return b"".join(_packed(*dataclasses.astuple(r)) for r in records)


def _counting_run_condition(monkeypatch) -> list[tuple[int, list]]:
    """Route the protocols' run_condition through a recorder of (seed, records)."""
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

    @pytest.mark.parametrize("noise", [0.0, NOISE_STD], ids=["noise_off", "noise_on"])
    def test_row_is_bit_equal_to_every_repeat_run(self, monkeypatch, noise):
        # the oracle simulates every repeat with its own seed
        env = fast_env(noise=noise, depth_hold=True)
        calls = _counting_run_condition(monkeypatch)
        rows = run_speed_sweep(env, self.SPEC).rows
        assert len(calls) == len(rows) == 2  # one simulation per cell
        for cell, row in enumerate(rows):
            base = self.SPEC.seed + 1000 * cell
            got = _packed(row.mean_speed, row.mean_power, row.cot, row.p2p_yaw)
            for rep in range(self.SPEC.repeats):
                gait = GaitCommand(frequency=row.frequency, amplitude=row.amplitude)
                records = run_condition(env, gait, self.SPEC.duration, base + rep)
                m = experiments.condition_metrics(records, row.frequency)
                value = cot(m.mean_power, env.params.mass, env.params.gravity, m.mean_speed)
                assert got == _packed(m.mean_speed, m.mean_power, value, m.p2p_yaw)
            stds = (row.speed_std, row.power_std, row.cot_std, row.p2p_std)
            assert _packed(*stds) == _packed(0.0, 0.0, 0.0, 0.0)
        if noise:
            assert rows == run_speed_sweep(fast_env(depth_hold=True), self.SPEC).rows

    @pytest.mark.parametrize("noise", [0.0, NOISE_STD], ids=["noise_off", "noise_on"])
    def test_runs_seeds_and_kept_records_per_cell(self, monkeypatch, noise):
        # each cell is simulated once, with or without noise, and its run is kept
        env = fast_env(noise=noise, depth_hold=True)
        calls = _counting_run_condition(monkeypatch)
        kept = []
        run_speed_sweep(env, self.SPEC, keep_records=kept)
        assert [seed for seed, _ in calls] == [3, 1003]
        assert [f for f, _, _, _ in kept] == [1.0, 2.0]
        assert kept[0][3] is calls[0][1] and kept[1][3] is calls[1][1]


_PLANAR_PARAMS = ("thrust_coeff", "tail_reaction_coeff", "yaw_damping_body", "yaw_damping_fin")
_PLANAR_COLUMNS = [c for c in HEADER.split(",") if c not in ("depth_m", "syringe_ml")]


def _planar_outcome(env, gait, duration, seed):
    """(the bits of a run's planar columns and metrics, or its fault's message; the records)."""
    try:
        records = run_condition(env, gait, duration, seed)
        m = experiments._metrics_with_cot(env, records, gait.frequency)
    except MorphfinError as exc:
        return f"{type(exc).__name__}: {exc}", None
    columns = b"".join(_packed(*records.column(c)) for c in _PLANAR_COLUMNS)
    return columns + _packed(*dataclasses.astuple(m)), records


class TestPlanarHeaveDecoupling:
    """Surge, sway, yaw, thrust and power read neither depth nor heave.

    The depth loop, the depth noise and the seed reach only heave, depth and
    the syringe, so speed, power, COT and yaw p2p do not depend on them. The
    sweep runs each cell once on this property.
    """

    @settings(max_examples=30, deadline=None)
    @given(
        frequency=st.floats(0.5, 2.5),
        amplitude=st.floats(1.0, 45.0),
        erection=st.floats(0.0, 1.0),
        planar=st.fixed_dictionaries(
            {n: st.floats(*experiments.DEFAULT_BOUNDS[n]) for n in _PLANAR_PARAMS}
        ),
        dt=st.sampled_from([0.01, 0.005, 0.001]),
        seed=st.integers(min_value=0, max_value=2**64),
    )
    # the default robot at 1.5 Hz and 20 deg; and one whose yaw diverges at
    # dt = 0.01, which must fault alike in all four runs
    @example(1.5, 20.0, 0.0, {n: getattr(FishParams(), n) for n in _PLANAR_PARAMS}, 0.01, 0)
    @example(
        2.0, 30.0, 0.5,
        {"thrust_coeff": 0.2, "tail_reaction_coeff": 0.5, "yaw_damping_body": 2.0,
         "yaw_damping_fin": 1.0},
        0.01, 0,
    )
    def test_planar_outcome_ignores_the_depth_loop_noise_and_seed(
        self, frequency, amplitude, erection, planar, dt, seed
    ):
        env = fast_env(dt=dt, record_every=round(0.01 / dt))
        env = dataclasses.replace(env, params=dataclasses.replace(env.params, **planar))
        gait = GaitCommand(frequency, amplitude, fin_erection_setpoint=erection)
        duration = transient(frequency) + 4.0 / frequency
        held = dataclasses.replace(env, depth_hold=True)
        noisy = dataclasses.replace(held, noise=NOISE_STD)
        runs = [(env, seed), (held, seed), (noisy, seed), (noisy, seed + 1)]
        outcomes = [_planar_outcome(e, gait, duration, s) for e, s in runs]
        assert len({bits for bits, _ in outcomes}) == 1
        a, b = outcomes[2][1], outcomes[3][1]
        if a is not None:  # the noise does reach the depth loop
            assert a.column("depth_m") != b.column("depth_m")
            assert a.column("syringe_ml") != b.column("syringe_ml")


_YAW_COLUMNS = ("yaw_deg", "yaw_rate_dps", "torque_nm", "power_w")


def _outcome(env, gait, duration, fields, columns=tuple(HEADER.split(","))):
    """(the bits of a metric-only run's `columns`, or None; its SimulationFault, or None)."""
    controller = controllers.SwimController(env, gait)
    try:
        records = experiments.simulate(
            env.params, controller, duration, env.dt, power_model=env.power,
            record_every=env.record_every, fields=fields,
        )
    except SimulationFault as exc:
        return None, exc
    return b"".join(_packed(*records.column(c)) for c in columns), None


def _fault(exc):
    return None if exc is None else (exc.time, str(exc))


# the yaw that diverges at dt = 0.01
_DIVERGING = {"thrust_coeff": 0.2, "tail_reaction_coeff": 0.5, "yaw_damping_body": 2.0,
              "yaw_damping_fin": 1.0}


class TestPlanarFieldsRun:
    """A run with no depth loop from rest integrates PLANAR_FIELDS alone, bit for bit.

    With no depth loop the buoyancy is 0.0, so from heave 0.0 the heave rate is
    -0.0 at every stage, whatever the finite heave coefficients and mass: heave
    stays 0.0, depth holds its start and the surface clamp never acts. So the
    planar run writes every column of the full run, and faults where it does.
    """

    @settings(max_examples=30, deadline=None)
    @given(
        frequency=st.floats(0.5, 2.5),
        amplitude=st.floats(1.0, 45.0),
        bias=st.floats(-30.0, 30.0),
        erection=st.floats(0.0, 1.0),
        hull=st.fixed_dictionaries({
            "mass": st.floats(0.5, 5.0),
            "frontal_drag_coeff": st.floats(0.05, 1.0),
            "heave_drag_coeff": st.floats(0.0, 1e300),
            "heave_added_mass": st.floats(0.0, 1e300),
        }),
        planar=st.fixed_dictionaries(
            {n: st.floats(*experiments.DEFAULT_BOUNDS[n]) for n in _PLANAR_PARAMS}
        ),
        dt=st.sampled_from([0.01, 0.005, 0.001]),
    )
    # the default robot at 1 Hz and 20 deg; and the diverging yaw
    @example(1.0, 20.0, 0.0, 0.0, {}, {}, 0.01)
    @example(2.0, 30.0, 0.0, 0.5, {}, _DIVERGING, 0.01)
    def test_a_planar_run_is_the_full_run(
        self, frequency, amplitude, bias, erection, hull, planar, dt
    ):
        env = fast_env(dt=dt, record_every=round(0.01 / dt))
        env = dataclasses.replace(env, params=dataclasses.replace(env.params, **hull, **planar))
        gait = GaitCommand(frequency, amplitude, bias, fin_erection_setpoint=erection)
        duration = transient(frequency) + 4.0 / frequency
        full = _outcome(env, gait, duration, hydro._STATE_FIELDS)
        bits, fault = _outcome(env, gait, duration, hydro.PLANAR_FIELDS)
        assert bits == full[0] and _fault(fault) == _fault(full[1])

    def test_a_diverging_yaw_faults_alike(self):
        env = fast_env(params=dataclasses.replace(FishParams(), **_DIVERGING))
        gait = GaitCommand(2.0, 30.0, fin_erection_setpoint=0.5)
        full, planar = (_outcome(env, gait, 12.0, f)[1]
                        for f in (hydro._STATE_FIELDS, hydro.PLANAR_FIELDS))
        assert full is not None and _fault(planar) == _fault(full)

    @pytest.mark.parametrize(
        "held, kwargs, planar",
        [
            (False, {}, True),
            (True, {}, False),
            (False, {"depth_schedule": step_schedule([(0.0, 0.2)])}, False),
            (False, {"initial_state": FishState()}, False),
        ],
        ids=["no_depth_loop", "depth_hold", "schedule", "given_start"],
    )
    def test_run_condition_runs_planar_fields_only_with_no_depth_loop_or_start(
        self, monkeypatch, held, kwargs, planar
    ):
        simulated = _counting(monkeypatch, experiments, "simulate")
        run_condition(fast_env(depth_hold=held), GaitCommand(), 1.0, 0, **kwargs)
        [(_, called)] = simulated
        assert called["fields"] == (hydro.PLANAR_FIELDS if planar else hydro._STATE_FIELDS)

    def test_evaluate_targets_runs_planar_fields_for_every_target_but_yaw(self, monkeypatch):
        targets = experiments.default_targets()
        simulated = _counting(monkeypatch, experiments, "simulate")
        evaluate_targets(fast_env(), targets)
        yaw = [t.observable == "p2p_yaw" for t in targets]
        assert [kw["fields"] for _, kw in simulated] == [
            hydro.YAW_FIELDS if y else hydro.PLANAR_FIELDS for y in yaw
        ]


class TestYawDecoupling:
    """Yaw, torque and power read no surge, sway, position, depth or heave.

    So a run that integrates YAW_FIELDS alone gives the full run's yaw,
    torque and power columns bit for bit, whatever the mass, the hull drag and
    the heave coefficients; calibration runs each p2p_yaw target on this
    property. That step calls no cos or sin, so a diverging yaw faults there
    at the next record check, which may be later than in the full run.
    """

    @settings(max_examples=30, deadline=None)
    @given(
        frequency=st.floats(0.5, 2.5),
        amplitude=st.floats(1.0, 45.0),
        erection=st.floats(0.0, 1.0),
        hull=st.fixed_dictionaries({
            "mass": st.floats(0.5, 5.0),
            "frontal_drag_coeff": st.floats(0.05, 1.0),
            "heave_drag_coeff": st.floats(0.0, 200.0),
            "heave_added_mass": st.floats(0.0, 3.0),
        }),
        planar=st.fixed_dictionaries(
            {n: st.floats(*experiments.DEFAULT_BOUNDS[n]) for n in _PLANAR_PARAMS}
        ),
        dt=st.sampled_from([0.01, 0.005, 0.001]),
    )
    # the default robot at 1 Hz and 20 deg; and the yaw that diverges at dt = 0.01
    @example(1.0, 20.0, 1.0, {}, {}, 0.01)
    @example(2.0, 30.0, 0.5, {}, _DIVERGING, 0.01)
    def test_yaw_only_run_keeps_the_yaw_columns(
        self, frequency, amplitude, erection, hull, planar, dt
    ):
        env = fast_env(dt=dt, record_every=round(0.01 / dt))
        env = dataclasses.replace(env, params=dataclasses.replace(env.params, **hull, **planar))
        gait = GaitCommand(frequency, amplitude, fin_erection_setpoint=erection)
        duration = transient(frequency) + 4.0 / frequency
        full = _outcome(env, gait, duration, hydro._STATE_FIELDS, _YAW_COLUMNS)
        yaw_only = _outcome(env, gait, duration, hydro.YAW_FIELDS, _YAW_COLUMNS)
        assert full[0] == yaw_only[0]
        assert (full[1] is None) == (yaw_only[1] is None)

    def test_a_diverging_yaw_faults_in_both_runs(self):
        env = fast_env(params=dataclasses.replace(FishParams(), **_DIVERGING))
        gait = GaitCommand(2.0, 30.0, fin_erection_setpoint=0.5)
        fields = (hydro._STATE_FIELDS, hydro.YAW_FIELDS)
        faults = [_outcome(env, gait, 12.0, f)[1] for f in fields]
        assert all(isinstance(fault, SimulationFault) for fault in faults)
        assert faults[0].time <= faults[1].time


def _counting(monkeypatch, module, name: str, result: bool = False) -> list:
    """Route module.name through a wrapper that records (args, kwargs[, result]) per call."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        value = original(*args, **kwargs)
        if result:  # kept alive with the entry
            calls[-1] += (value,)
        return value

    monkeypatch.setattr(module, name, counted)
    return calls


def _field_bits(rows) -> list[list[str]]:
    """Each row's fields, every float as its float.hex."""
    return [[v if isinstance(v, str) else v.hex() for v in dataclasses.astuple(r)] for r in rows]


def _noisy_held_env() -> RunEnvironment:
    return fast_env(depth_hold=True, noise=NOISE_STD)


class TestMetricOnlyRuns:
    """A run whose records nobody keeps runs no depth loop, and its metrics keep their bits."""

    def test_evaluate_targets_runs_no_depth_loop(self, monkeypatch):
        env, targets = _noisy_held_env(), experiments.default_targets()
        calls = _counting(monkeypatch, controllers, "depth_controller")
        simulated = _counting(monkeypatch, experiments, "simulate")
        values = evaluate_targets(env, targets, seed=5)
        assert calls == []
        assert simulated and all(args[1].depth_hold is False for args, _ in simulated)
        for t in targets:  # the oracle runs the noisy depth loop of env, on all eight fields
            yaw = t.observable == "p2p_yaw"
            duration = transient(t.frequency) + 8.0 / t.frequency if yaw else 25.0
            e = experiments._erection(t.fin_state)
            gait = GaitCommand(t.frequency, t.amplitude, fin_erection_setpoint=e)
            records = run_condition(env, gait, duration, 5)
            m = (experiments.condition_metrics(records, t.frequency) if yaw
                 else experiments._metrics_with_cot(env, records, t.frequency))
            want = getattr(m, experiments.OBSERVABLES[t.observable])
            assert float.hex(values[t.name]) == float.hex(want)
        assert calls != []

    @pytest.mark.parametrize(
        "protocol, spec",
        [
            (run_speed_sweep, ExperimentSpec(
                frequencies=[1.0, 2.0], amplitudes=[20.0], repeats=2, duration=12.0, seed=3,
            )),
            (run_yaw_study, ExperimentSpec(
                kind="yaw_study", frequencies=[1.0], amplitudes=[20.0], repeats=1, duration=12.0,
            )),
        ],
        ids=["speed_sweep", "yaw_study"],
    )
    def test_grid_runs_the_depth_loop_only_for_kept_records(self, monkeypatch, protocol, spec):
        env = _noisy_held_env()
        calls = _counting(monkeypatch, controllers, "depth_controller")
        bare = protocol(env, spec, keep_records=None)
        assert calls == []
        kept = []
        held = protocol(env, spec, keep_records=kept)
        assert len(calls) > 0 and len(kept) == 2 * len(spec.frequencies)
        rows = (lambda r: r.rows) if protocol is run_speed_sweep else (lambda r: r.table)
        assert _field_bits(rows(bare)) == _field_bits(rows(held))


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
        env = fast_env(noise=NOISE_STD, depth_hold=True)
        first = _telemetry_bits(run_condition(env, self.GAIT, 1.0, seed))
        assert first == _telemetry_bits(run_condition(env, self.GAIT, 1.0, seed))
        quiet = run_condition(fast_env(depth_hold=True), self.GAIT, 1.0, seed)
        assert first != _telemetry_bits(quiet)


class TestDepthStep:
    @pytest.mark.parametrize(
        "schedule, message",
        [([], "schedule must be nonempty"),
         ([(0.0, 0.2), (0.0, 0.4)], "schedule start times must differ")],
    )
    def test_bad_schedule_fails_before_the_run(self, monkeypatch, schedule, message):
        calls = _counting_run_condition(monkeypatch)
        with pytest.raises(DomainError, match=f"^{message}$"):
            run_depth_step(fast_env(), schedule, 12.0, initial_depth=0.0)
        assert calls == []

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


def _oracle_depth_reports(records, schedule):
    """The per-record window filter that run_depth_step's bisect windows replaced."""
    ordered = sorted(schedule)
    reports = []
    for i, (t_start, target) in enumerate(ordered):
        t_end = ordered[i + 1][0] if i + 1 < len(ordered) else records[-1].time_s
        seg = [r for r in records if t_start <= r.time_s <= t_end]
        if not seg:
            continue
        step_size = abs(target - seg[0].depth_m)
        band = 0.02 * (step_size if step_size > 0.0 else max(target, 1.0))
        settled = None
        for j in range(len(seg) - 1, -1, -1):
            if abs(seg[j].depth_m - target) > band:
                settled = seg[j + 1].time_s - t_start if j + 1 < len(seg) else None
                break
        else:
            settled = 0.0
        if step_size > 0.0:
            signed = [
                (r.depth_m - target) * (1.0 if target > seg[0].depth_m else -1.0)
                for r in seg
            ]
            overshoot = max(0.0, max(signed)) / step_size * 100.0
        else:
            overshoot = 0.0
        reports.append(experiments.DepthStepReport(t_start, target, settled, overshoot))
    return reports


def _report_bits(reports):
    return [tuple(v if v is None else v.hex() for v in dataclasses.astuple(r)) for r in reports]


def _depth_telemetry(times, depths):
    """Records at the given times and depths, every other value 0."""
    values = array("d")
    for t, d in zip(times, depths):
        values.extend([t, 0.0, 0.0, d] + [0.0] * 9)
    return Telemetry(values)


@st.composite
def _depth_runs(draw):
    """(records, schedule): increasing times and a schedule whose steps often start on a sample."""
    raw = draw(st.lists(st.floats(0.0, 30.0) | st.integers(0, 30).map(float), min_size=1))
    times = sorted(set(raw))
    depths = draw(st.lists(st.floats(0.0, 1.0), min_size=len(times), max_size=len(times)))
    start = st.sampled_from(times) | st.floats(-1.0, 35.0)
    # a target drawn from the depths gives a step of size zero
    target = st.sampled_from(depths) | st.floats(0.0, 1.0)
    # start times are distinct, as a step schedule requires
    schedule = draw(
        st.lists(st.tuples(start, target), min_size=1, max_size=4, unique_by=lambda s: s[0])
    )
    return _depth_telemetry(times, depths), schedule


class TestDepthStepWindows:
    @given(_depth_runs())
    @example((_depth_telemetry([0.0, 1.0, 2.0], [0.1, 0.3, 0.5]), [(0.0, 0.1), (1.0, 0.5)]))
    @settings(max_examples=200, deadline=None)
    def test_reports_match_the_per_record_filter(self, run):
        records, schedule = run
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(experiments, "run_condition", lambda *args, **kwargs: records)
            got, reports = run_depth_step(fast_env(), schedule, 1.0, initial_depth=0.0)
        assert got is records
        assert _report_bits(reports) == _report_bits(_oracle_depth_reports(records, schedule))


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

    @pytest.mark.parametrize(
        "frequency, amplitude, message",
        [
            (0.0, 20.0, "frequencies"),
            (-1.0, 20.0, "frequencies"),
            (math.inf, 20.0, "frequencies"),
            (math.nan, 20.0, "frequencies"),
            (1.0, 0.0, "amplitudes"),
            (1.0, 60.0, "amplitudes"),
            (1.0, -5.0, "amplitudes"),
            (1.0, math.nan, "amplitudes"),
        ],
    )
    def test_target_outside_the_gait_range_is_a_config_error(self, frequency, amplitude, message):
        # these once reached the simulation: 0 Hz as a ZeroDivisionError, the
        # others as an inf loss with no residuals and no error
        target = CalibrationTarget("p2p_bad", "p2p_yaw", frequency, amplitude, "folded", 1.0)
        with pytest.raises(ConfigError, match=f"^p2p_bad: {message} must be") as exc:
            calibrate([target], fast_env(), {"yaw_damping_fin": (0.0, 2.0)})
        assert exc.value.field == "p2p_bad"

    def test_target_at_the_amplitude_limit_is_valid(self):
        CalibrationTarget("p2p_max", "p2p_yaw", 1.0, 45.0, "erect", 1.0).validate()

    def test_residuals_reported(self):
        result = calibrate(
            self.TARGET, self.env_from(0.12),
            bounds={"thrust_coeff": (0.05, 0.3)},
            max_rounds=3,
        )
        assert set(result.residuals) == {"speed"}
        assert abs(result.residuals["speed"]) < 0.5

    def test_verbose_progress_goes_to_stderr(self, capsys):
        # diagnostics go to stderr; stdout carries only streamed data
        calibrate(
            self.TARGET, self.env_from(0.08),
            bounds={"thrust_coeff": (0.05, 0.3)},
            max_rounds=1,
            verbose=True,
        )
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("  thrust_coeff -> ") and " loss " in err
        # the first probe improves on the start: two loss evaluations, two runs
        assert err.splitlines()[0].endswith("  simulations 2  evaluations 2")

    def test_memo_simulates_each_distinct_run_once(self, monkeypatch):
        # the fin damping reaches no folded run, so every probe after the
        # first hits the memo; the start is no worse than any probe
        targets = [t for t in experiments.default_targets() if t.fin_state == "folded"]
        env = fast_env()
        calls = _counting(monkeypatch, experiments, "simulate")
        result = calibrate(targets, env, {"yaw_damping_fin": (0.0, 2.0)}, max_rounds=3)
        assert len(calls) == len(targets) == 5
        assert result.loss_trace == result.loss_trace[:1]
        fresh = evaluate_targets(
            dataclasses.replace(env, params=dataclasses.replace(env.params, **result.parameters)),
            targets,
        )
        residuals = {t.name: ((fresh[t.name] - t.value) / t.value).hex() for t in targets}
        assert {k: v.hex() for k, v in result.residuals.items()} == residuals

    def test_memo_leaves_the_fit_unchanged(self, monkeypatch):
        # the oracle simulates every target of every loss evaluation afresh
        targets = [t for t in experiments.default_targets() if t.name.startswith("p2p_20deg")]
        bounds = {n: experiments.DEFAULT_BOUNDS[n] for n in ("yaw_damping_body", "yaw_damping_fin")}
        env = fast_env()
        env = dataclasses.replace(
            env, params=dataclasses.replace(env.params, yaw_damping_body=0.6, yaw_damping_fin=0.1)
        )
        calls = _counting(monkeypatch, experiments, "simulate")
        fit = calibrate(targets, env, bounds, max_rounds=6)
        memoized = len(calls)
        fresh = experiments._evaluate
        monkeypatch.setattr(
            experiments, "_evaluate", lambda env, targets, memo: fresh(env, targets, {})
        )
        assert fit == calibrate(targets, env, bounds, max_rounds=6)
        assert len(fit.loss_trace) > 2 and memoized < len(calls) - memoized

    def test_memo_keeps_no_fault_and_a_hit_faults_again(self, monkeypatch):
        # an overflowing thrust faults on the first step; its key keeps None,
        # not the exception, whose traceback holds the run's records
        env = fast_env()
        env = dataclasses.replace(env, params=dataclasses.replace(env.params, thrust_coeff=1e308))
        targets, memo = experiments.default_targets()[:1], {}
        calls = _counting(monkeypatch, experiments, "simulate")
        with pytest.raises(SimulationFault):
            experiments._evaluate(env, targets, memo)
        with pytest.raises(MorphfinError, match="faulted earlier"):
            experiments._evaluate(env, targets, memo)
        assert len(calls) == 1 and list(memo.values()) == [None]

    def test_a_probe_of_efficiency_runs_each_yaw_target_once(self, monkeypatch):
        # yaw reads no PowerModel, so its key omits it: only the top-speed and
        # COT targets run again for each efficiency probed
        targets = experiments.default_targets()
        calls = _counting(monkeypatch, experiments, "simulate")
        bounds = {"efficiency": experiments.DEFAULT_BOUNDS["efficiency"]}
        calibrate(targets, fast_env(), bounds, max_rounds=2)
        yaw_runs = [c for c in calls if c[1].get("fields") == hydro.YAW_FIELDS]
        assert len(yaw_runs) == sum(t.observable == "p2p_yaw" for t in targets) == 6
        full_runs = len(calls) - len(yaw_runs)
        assert full_runs > 3 and full_runs % 3 == 0

    def test_no_yaw_only_run_reaches_the_cot(self, monkeypatch):
        # a yaw-only run does not move, and cot raises at speed 0
        simulated = _counting(monkeypatch, experiments, "simulate", result=True)
        with_cot = _counting(monkeypatch, experiments, "_metrics_with_cot")
        evaluate_targets(fast_env(), experiments.default_targets())
        yaw_runs = {id(c[2]) for c in simulated if c[1].get("fields") == hydro.YAW_FIELDS}
        assert len(yaw_runs) == 6 and len(with_cot) == 3
        assert not yaw_runs & {id(args[1]) for args, _ in with_cot}

    def test_a_calibration_in_which_every_trial_faults_raises(self):
        # every run of this fish faults, so every trial scores +inf
        env = fast_env()
        env = dataclasses.replace(env, params=dataclasses.replace(env.params, yaw_inertia=1e-9))
        with pytest.raises(MorphfinError, match="^calibration failed: no trial of 61 has"):
            calibrate(experiments.default_targets(), env, experiments.DEFAULT_BOUNDS,
                      step_fraction=0.05)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_cli_json_holds_no_nan_or_infinity(value):
    # RFC 8259 has neither, so an output that would hold one is an error
    with pytest.raises(MorphfinError, match="^output is not JSON: "):
        cli._json({"final_loss": value})
    assert cli._json({"final_loss": 0.5}) == b'{\n  "final_loss": 0.5\n}\n'
