import json
from dataclasses import replace

import pytest

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


def test_invalid_json_is_config_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)


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
