import json
import math
from dataclasses import fields, is_dataclass, replace
from importlib import resources

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import morphfin.config
from morphfin.config import (
    RunConfig,
    SimSettings,
    config_from_dict,
    load_config,
    load_default_config,
)
from morphfin.errors import ConfigError


def test_default_config_loads_and_validates():
    config = load_default_config()
    config.validate()
    assert config.fish.mass == pytest.approx(2.305)
    assert config.fish.gravity == pytest.approx(9.81)
    assert config.fin.height_erect == pytest.approx(0.201)
    assert config.fin.height_folded == pytest.approx(0.128)


def _packaged_default() -> dict:
    return json.loads(resources.files("morphfin.configs").joinpath("default.json").read_text())


@pytest.mark.parametrize("section", [f.name for f in fields(RunConfig)])
def test_packaged_default_is_the_dataclass_default(section):
    # each default lives on its section dataclass; default.json is a copy of it
    assert getattr(load_default_config(), section) == getattr(RunConfig(), section)


@pytest.mark.parametrize("section", [f.name for f in fields(RunConfig)])
def test_packaged_default_sets_every_field(section):
    # a field default.json leaves out would fall back to the dataclass silently
    value = getattr(RunConfig(), section)
    if not is_dataclass(value):
        assert section in _packaged_default()
        return
    names = {f.name for f in fields(value)} - ({"seed"} if section == "experiment" else set())
    assert set(_packaged_default()[section]) == names


def test_empty_config_is_the_default():
    # every section a partial config leaves out falls back to the committed default
    assert config_from_dict({}) == load_default_config()


def test_partial_section_keeps_the_other_fields():
    config = config_from_dict({"pid": {"kp": 0.001}, "gait": {"frequency": 1.5}})
    default = load_default_config()
    assert config.pid == replace(default.pid, kp=0.001)
    assert config.gait == replace(default.gait, frequency=1.5)


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError) as exc:
        config_from_dict({"fsh": {"mass": 1.0}})
    assert "fsh" in str(exc.value)


def test_unknown_nested_key_rejected_with_path():
    with pytest.raises(ConfigError) as exc:
        config_from_dict({"fish": {"mass": 1.0, "bogus": 3}})
    message = str(exc.value)
    assert "fish" in message and "bogus" in message


def test_invariant_violation_reports_field_path():
    with pytest.raises(ConfigError) as exc:
        config_from_dict({"fish": {"mass": -1.0}})
    assert "fish.mass" in str(exc.value)


def test_type_mismatch_reports_field_path():
    with pytest.raises(ConfigError) as exc:
        config_from_dict({"gait": {"frequency": "fast"}})
    assert "gait.frequency" in str(exc.value)


def test_bad_depth_schedule_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"depth_schedule": [[0.0, -0.5]]})


def test_load_config_round_trip(tmp_path):
    data = {
        "gait": {"frequency": 1.5, "amplitude": 25.0},
        "sim": {"duration": 8.0, "dt": 0.002},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    config = load_config(path)
    assert config.gait.frequency == 1.5
    assert config.sim.dt == 0.002
    # untouched sections keep their defaults
    assert config.fish.mass == RunConfig().fish.mass


@pytest.mark.parametrize(
    "text",
    ["{not json", "[" * 100000 + "]" * 100000, '{"fish": ' + "[" * 100000 + "]" * 100000 + "}"],
    ids=["broken", "nested", "nested-in-fish"],
)
def test_invalid_json_is_config_error(tmp_path, text):
    # nesting deeper than the recursion limit is invalid JSON, not a RecursionError
    path = tmp_path / "broken.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match="invalid JSON: ") as exc:
        load_config(path)
    assert exc.value.field == str(path)


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"sim": {"duration": 6}, "sim": {"seed": 3}}', "'sim'"),
        ('{"fish": {"mass": 2.0, "mass": 2.0}}', "'mass'"),
        ('{"experiment": {"frequencies": [{"a": 1, "b": 2, "a": 3}]}}', "'a'"),
        ('{"' + "k" * 100000 + '": 1, "' + "k" * 100000 + '": 1}', "'kkkkkkkkkkkk...kkkkkkkkkkkkk'"),
    ],
    ids=["section", "setting", "in-an-array", "long"],
)
def test_a_repeated_key_is_config_error(tmp_path, text, key):
    # json.loads alone keeps a repeated key's last value: the first example loaded as a
    # 20 s run of seed 3, its duration of 6 s silently dropped
    path = tmp_path / "config.json"
    path.write_text(text)
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert str(exc.value) == f"duplicate key {key}"


def test_a_repeated_key_in_the_packaged_default_is_config_error(monkeypatch, tmp_path):
    (tmp_path / "default.json").write_text('{"gait": {"bias": 1.0}, "gait": {}}')
    monkeypatch.setattr(morphfin.config.resources, "files", lambda package: tmp_path)
    with pytest.raises(ConfigError, match="^duplicate key 'gait'$"):
        load_default_config()


def test_missing_file_is_os_error(tmp_path):
    with pytest.raises(OSError):
        load_config(tmp_path / "nope.json")


def test_record_every_arithmetic():
    sim = SimSettings(dt=0.001, record_hz=100.0)
    assert sim.record_every == 10
    assert SimSettings(dt=0.001, record_hz=1000.0).record_every == 1


def test_dt_bounds_enforced():
    with pytest.raises(ConfigError):
        config_from_dict({"sim": {"dt": 0.02}})


@pytest.mark.parametrize("field", ["record_hz", "control_hz"])
@pytest.mark.parametrize("hz", [300.0, 2000.0, 0.0, -50.0])
def test_rate_must_divide_step_rate(field, hz):
    # 300 Hz at dt = 1 ms is 3.33 steps per sample; 2000 Hz is half a step
    with pytest.raises(ConfigError) as exc:
        config_from_dict({"sim": {field: hz}})
    assert exc.value.field == f"sim.{field}"


@pytest.mark.parametrize("field", ["record_hz", "control_hz"])
def test_rate_dividing_step_rate_accepted(field):
    for dt, hz in ((0.001, 1000.0), (0.001, 250.0), (0.005, 40.0), (0.002, 100.0)):
        config_from_dict({"sim": {"dt": dt, field: hz}})


# One case per ConfigError the loader raises: (config, field, full message).
PINNED_ERRORS = [
    ([], None, "top-level config must be an object"),
    ({"fsh": {}}, "config", "config: unknown key(s): ['fsh']"),
    ({"fish": 3}, "fish", "fish: expected an object"),
    ({"fish": {"bogus": 1}}, "fish", "fish: unknown key(s): ['bogus']"),
    ({"gait": {"frequency": "fast"}}, "gait.frequency",
     "gait.frequency: expected a number, got 'fast'"),
    ({"fish": {"mass": True}}, "fish.mass", "fish.mass: expected a number, got True"),
    ({"sim": {"seed": 1.5}}, "sim.seed", "sim.seed: expected an integer, got 1.5"),
    ({"sim": {"noise_enabled": 1}}, "sim.noise_enabled",
     "sim.noise_enabled: expected a boolean, got 1"),
    ({"output_dir": 3}, "output_dir", "output_dir: expected a string, got 3"),
    ({"linkage": {"ground_pivot_a": [0.0]}}, "linkage.ground_pivot_a",
     "linkage.ground_pivot_a: expected a 2-element array"),
    ({"linkage": {"ground_pivot_a": [0.0, "x"]}}, "linkage.ground_pivot_a[1]",
     "linkage.ground_pivot_a[1]: expected a number, got 'x'"),
    ({"experiment": {"frequencies": 1.0}}, "experiment.frequencies",
     "experiment.frequencies: expected an array"),
    ({"depth_schedule": [1.0]}, "depth_schedule[0]", "depth_schedule[0]: expected an array"),
    ({"depth_schedule": [[0.0, "a"]]}, "depth_schedule[0][1]",
     "depth_schedule[0][1]: expected a number, got 'a'"),
    ({"fish": {"mass": -1.0}}, "fish.mass", "fish.mass: must be > 0"),
    ({"fish": {"yaw_damping_fin": -1.0}}, "fish.yaw_damping_fin",
     "fish.yaw_damping_fin: must be >= 0"),
    ({"fish": {"tail_length": -1.0}}, "fish.tail_length", "fish.tail_length: must be >= 0"),
    ({"power": {"efficiency": 0.0}}, "power.efficiency",
     "power.efficiency: efficiency must be in (0, 1]"),
    ({"power": {"idle_power": -1.0}}, "power.idle_power",
     "power.idle_power: idle_power must be >= 0"),
    ({"pid": {"output_limit": 0.0}}, "pid", "pid: limits must be > 0"),
    ({"pid": {"kp": -1.0}}, "pid", "pid: gains must be >= 0"),
    ({"buoyancy": {"syringe_volume": 1.0}}, "buoyancy.syringe_volume",
     "buoyancy.syringe_volume: syringe_volume must lie in [volume_min, volume_max]"),
    ({"buoyancy": {"neutral_volume": 1.0}}, "buoyancy.neutral_volume",
     "buoyancy.neutral_volume: neutral_volume must lie in [volume_min, volume_max]"),
    ({"buoyancy": {"max_rate": 0.0}}, "buoyancy.max_rate",
     "buoyancy.max_rate: max_rate must be > 0"),
    ({"linkage": {"crank_len": 0.0}}, "linkage.crank_len",
     "linkage.crank_len: link lengths must be > 0"),
    ({"linkage": {"ground_len": 0.07}}, "linkage.ground_pivot_b",
     "linkage.ground_pivot_b: distance between ground pivots must equal ground_len"),
    ({"linkage": {"drive_angle_erect": 0.5236}}, "linkage.drive_angle_erect",
     "linkage.drive_angle_erect: folded and erect drive angles must differ"),
    ({"linkage": {"max_drive_torque": 0.0}}, "linkage.max_drive_torque",
     "linkage.max_drive_torque: max_drive_torque must be > 0"),
    ({"fin": {"height_folded": 0.3}}, "fin.height_erect",
     "fin.height_erect: height_erect must exceed height_folded"),
    ({"fin": {"lateral_area_min": -1.0}}, "fin.lateral_area_max",
     "fin.lateral_area_max: lateral areas must satisfy max >= min >= 0"),
    ({"gait": {"frequency": -1.0}}, "gait.frequency", "gait.frequency: frequency must be >= 0"),
    ({"gait": {"amplitude": 50.0}}, "gait.amplitude",
     "gait.amplitude: amplitude must be in [0, 45] deg"),
    ({"gait": {"bias": 31.0}}, "gait.bias", "gait.bias: |bias| must be <= 30 deg"),
    ({"gait": {"fin_erection_setpoint": 2.0}}, "gait.fin_erection_setpoint",
     "gait.fin_erection_setpoint: fin erection setpoint must be in [0, 1]"),
    ({"experiment": {"kind": "bogus"}}, "experiment.kind",
     "experiment.kind: unknown kind 'bogus'"),
    ({"experiment": {"repeats": 0}}, "experiment.repeats",
     "experiment.repeats: repeats must be in [1, 1000]"),
    ({"experiment": {"frequencies": []}}, "experiment.frequencies",
     "experiment.frequencies: frequencies must be positive"),
    ({"experiment": {"frequencies": [1.0, -1.0]}}, "experiment.frequencies",
     "experiment.frequencies: frequencies must be positive"),
    ({"experiment": {"fin_states": ["half"]}}, "experiment.fin_states",
     "experiment.fin_states: fin states must be one of ('folded', 'erect')"),
    ({"experiment": {"amplitudes": [20.0, 50.0]}}, "experiment.amplitudes",
     "experiment.amplitudes: amplitudes must be in (0, 45] deg"),
    ({"experiment": {"duration": 5.0}}, "experiment.duration",
     "experiment.duration: duration must cover >= 10 cycles at 0.8 Hz"),
    ({"experiment": {"duration": math.inf}}, "experiment.duration",
     "experiment.duration: duration must be finite"),
    # finite, but more steps at sim.dt than a run may take: named in the experiment section
    ({"experiment": {"duration": 1e307}}, "experiment.duration",
     "experiment.duration: duration/dt must be <= 10000000 steps"),
    ({"sim": {"dt": 1e-5}, "experiment": {"duration": 1e304}}, "experiment.duration",
     "experiment.duration: duration/dt must be <= 10000000 steps"),
    ({"sim": {"dt": 0.02}}, "sim.dt", "sim.dt: dt must be in (0, 0.01] s"),
    ({"sim": {"duration": 0.0}}, "sim.duration", "sim.duration: duration must be > 0"),
    ({"sim": {"duration": math.inf}}, "sim.duration",
     "sim.duration: duration/dt must be <= 10000000 steps"),
    ({"sim": {"control_hz": 0.0}}, "sim.control_hz", "sim.control_hz: must be > 0"),
    ({"sim": {"record_hz": 300.0}}, "sim.record_hz",
     "sim.record_hz: 1/(record_hz*dt) must be a whole number of steps >= 1, got 3.33333"),
    ({"sim": {"initial_depth": -1.0}}, "sim.initial_depth",
     "sim.initial_depth: depths must be >= 0"),
    ({"sim": {"depth_resolution_m": -1.0}}, "sim.depth_resolution_m",
     "sim.depth_resolution_m: depth resolution must be >= 0"),
    ({"depth_schedule": [[0.0]]}, "depth_schedule[0]",
     "depth_schedule[0]: entries must be [time, target] pairs"),
    ({"depth_schedule": [[0.0, -0.5]]}, "depth_schedule[0]",
     "depth_schedule[0]: target must be >= 0"),
    # rejected at load, not at run time
    ({"depth_schedule": []}, "depth_schedule", "depth_schedule: schedule must be nonempty"),
    # two targets from one time: the loop tracked the last, the report settled the first
    ({"depth_schedule": [[0.0, 0.2], [0.0, 0.4]]}, "depth_schedule",
     "depth_schedule: schedule start times must differ"),
    # two cells would write one telemetry file, or one cell would run twice
    ({"experiment": {"frequencies": [1.0], "amplitudes": [20.2, 20.4], "duration": 12.0}},
     "experiment.amplitudes",
     "experiment.amplitudes: 20.2 and 20.4 share the cell name f1.00_a20_folded"),
    ({"experiment": {"frequencies": [1.0, 1.004], "duration": 12.0}}, "experiment.frequencies",
     "experiment.frequencies: 1.0 and 1.004 share the cell name f1.00_a20_folded"),
    ({"experiment": {"fin_states": ["erect", "erect"]}}, "experiment.fin_states",
     "experiment.fin_states: 'erect' and 'erect' share the cell name f0.80_a20_erect"),
    ({"sim": {"target_depth": math.nan}}, "sim.target_depth",
     "sim.target_depth: depths must be finite"),
    ({"sim": {"target_depth": math.inf}}, "sim.target_depth",
     "sim.target_depth: depths must be finite"),
    ({"sim": {"target_depth": -1.0}}, "sim.target_depth", "sim.target_depth: depths must be >= 0"),
    ({"sim": {"initial_depth": math.nan}}, "sim.initial_depth",
     "sim.initial_depth: depths must be finite"),
    ({"sim": {"initial_depth": math.inf}}, "sim.initial_depth",
     "sim.initial_depth: depths must be finite"),
    ({"sim": {"depth_resolution_m": math.nan}}, "sim.depth_resolution_m",
     "sim.depth_resolution_m: depth resolution must be finite"),
    ({"sim": {"depth_resolution_m": math.inf}}, "sim.depth_resolution_m",
     "sim.depth_resolution_m: depth resolution must be finite"),
    ({"sim": {"noise_enabled": True, "noise_depth_std_m": math.nan}}, "sim.noise_depth_std_m",
     "sim.noise_depth_std_m: noise stds must be finite"),
    ({"sim": {"noise_depth_std_m": -0.001}}, "sim.noise_depth_std_m",
     "sim.noise_depth_std_m: noise stds must be >= 0"),
    ({"sim": {"noise_depth_std_m": math.inf}}, "sim.noise_depth_std_m",
     "sim.noise_depth_std_m: noise stds must be finite"),
    # no controller reads a yaw measurement, so there is no yaw noise to set
    ({"sim": {"noise_yaw_std_deg": 0.1}}, "sim",
     "sim: unknown key(s): ['noise_yaw_std_deg']"),
    # a still tail has no COT or yaw improvement: rejected at load, not after the other cells
    ({"experiment": {"amplitudes": [0.0]}}, "experiment.amplitudes",
     "experiment.amplitudes: amplitudes must be in (0, 45] deg"),
]


@pytest.mark.parametrize("data, field, message", PINNED_ERRORS)
def test_config_error_message_and_field(data, field, message):
    with pytest.raises(ConfigError) as exc:
        config_from_dict(data)
    assert exc.value.field == field
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "data, field",
    [
        # the one run seed is sim.seed
        ({"experiment": {"seed": 0}}, "experiment.seed"),
        ({"experiment": {"seed": "x"}}, "experiment.seed"),
        # the CLI runs only these two kinds of grid
        ({"experiment": {"kind": "depth_step"}}, "experiment.kind"),
        ({"experiment": {"kind": "single_run"}}, "experiment.kind"),
        # a grid without cells
        ({"experiment": {"fin_states": []}}, "experiment.fin_states"),
        ({"experiment": {"amplitudes": []}}, "experiment.amplitudes"),
        ({"experiment": {"frequencies": [math.nan]}}, "experiment.frequencies"),
        ({"experiment": {"frequencies": [1.0, math.nan]}}, "experiment.frequencies"),
        ({"experiment": {"frequencies": [math.inf]}}, "experiment.frequencies"),
        # grid amplitudes outside (0, 45] deg, checked at load
        ({"experiment": {"amplitudes": [-1.0]}}, "experiment.amplitudes"),
        ({"experiment": {"amplitudes": [45.000001]}}, "experiment.amplitudes"),
        ({"experiment": {"amplitudes": [math.nan]}}, "experiment.amplitudes"),
        # durations with no finite step count
        ({"sim": {"duration": math.nan}}, "sim.duration"),
        ({"sim": {"duration": 1e307}}, "sim.duration"),  # finite, but duration/dt is not
        ({"experiment": {"duration": math.nan}}, "experiment.duration"),
        # hz*dt underflows to 0.0
        ({"sim": {"record_hz": 5e-324}}, "sim.record_hz"),
        ({"sim": {"control_hz": 5e-324}}, "sim.control_hz"),
        # an integer no double can hold
        ({"fish": {"mass": 10**400}}, "fish.mass"),
    ],
)
def test_rejected_settings_name_their_field(data, field):
    with pytest.raises(ConfigError) as exc:
        config_from_dict(data)
    assert exc.value.field == field


def test_experiment_seed_points_to_sim_seed():
    with pytest.raises(ConfigError, match="sim.seed"):
        config_from_dict({"experiment": {"seed": 3}})


def test_default_config_sets_no_experiment_seed():
    assert "seed" not in _packaged_default()["experiment"]


def test_undecodable_file_is_config_error(tmp_path):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe{")
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert exc.value.field == str(path)


# NaN, infinities, subnormals and doubles at the ends of the range, an
# integer no double holds, wrong types and empty containers
_ODD_VALUES = [
    math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308, -0.0,
    1e308, 10**400, 0, -1, True, None, "x", [], [math.nan], [[]], {},
]
_LEAVES = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
_VALUES = st.recursive(
    st.sampled_from(_ODD_VALUES) | _LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=2),
    max_leaves=6,
)


def _object_like(default):
    """Objects with up to two of the keys `default` has, each set to any value."""
    entries = []
    for f in fields(default):
        value = getattr(default, f.name)
        values = _object_like(value) | _VALUES if is_dataclass(value) else _VALUES
        entries.append(st.tuples(st.just(f.name), values))
    return st.lists(st.one_of(entries), max_size=2).map(dict)


# the longest error message: the config's own text is echoed cut short, so a
# message fits a few terminal lines however long the keys and values are
_MESSAGE_CAP = 300


def _loads_or_config_error(data) -> None:
    try:
        config_from_dict(data)
    except ConfigError as exc:
        assert len(str(exc)) <= _MESSAGE_CAP


@given(_object_like(RunConfig()) | _VALUES)
@example({"sim": {"record_hz": 5e-324}})
@example({"fish": {"mass": 10**400}})
@example({"fish": {"k" * 100000: 1.0}})
@example({"experiment": {"kind": "k" * 100000}})
@example({"sim": {"x" * 1000 + str(i): 0 for i in range(50)}})
@settings(max_examples=300)
def test_only_config_errors_escape_the_loader(data):
    _loads_or_config_error(data)


def test_each_setting_takes_odd_values_with_only_config_errors():
    config = RunConfig()
    for f in fields(config):
        section = getattr(config, f.name)
        names = [g.name for g in fields(section)] if is_dataclass(section) else [None]
        for name in names:
            for value in _ODD_VALUES:
                _loads_or_config_error({f.name: value if name is None else {name: value}})
