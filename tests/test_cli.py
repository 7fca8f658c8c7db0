"""End-to-end tests of the command line interface."""

import json
import math

import pytest

from morphfin.cli import main
from morphfin.config import load_default_config


@pytest.fixture()
def fast_config(tmp_path):
    """A config with coarse steps and a short run so CLI tests stay quick."""
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {
                "sim": {"dt": 0.005, "duration": 15.0, "seed": 3},
                "experiment": {
                    "frequencies": [1.0, 1.5],
                    "amplitudes": [20.0],
                    "fin_states": ["folded", "erect"],
                    "repeats": 1,
                    "duration": 12.0,
                },
            }
        )
    )
    return path


class TestExitCodes:
    def test_no_arguments_is_an_error(self, capsys):
        assert main([]) == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["--config", str(tmp_path / "nope.json"), "run"])
        assert rc == 2

    def test_invalid_config_content(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"fish": {"mass": -1.0}}')
        rc = main(["--config", str(bad), "run", ])
        assert rc == 1

    def test_diverging_state_is_an_error(self, tmp_path, capsys):
        stiff = tmp_path / "stiff.json"
        stiff.write_text('{"fish": {"yaw_inertia": 1e-300}}')
        rc = main(["--config", str(stiff), "--out", str(tmp_path / "out"), "run"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: non-finite state")
        assert "Traceback" not in err

    @pytest.mark.parametrize("field", ["record_hz", "control_hz"])
    def test_rate_not_dividing_step_rate_is_an_error(self, tmp_path, capsys, field):
        config = tmp_path / "rate.json"
        config.write_text(json.dumps({"sim": {field: 300.0}}))
        rc = main(["--config", str(config), "--out", str(tmp_path / "out"), "run"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: sim.{field}:")
        assert "Traceback" not in err


class TestRun:
    def test_run_writes_telemetry_and_metrics(self, fast_config, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["--config", str(fast_config), "--out", str(out), "run"])
        assert rc == 0
        assert (out / "run.csv").exists()
        metrics = json.loads((out / "run_metrics.json").read_text())
        assert metrics["mean_speed_mps"] > 0.0
        assert math.isfinite(metrics["cot"])

    def test_stream_prints_rows(self, fast_config, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(
            ["--config", str(fast_config), "--out", str(out), "run", "--stream"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        data = [l for l in lines if "," in l]
        assert len(data) > 100
        assert all(len(l.split(",")) == 13 for l in data[:5])

    def test_determinism_byte_identical(self, fast_config, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["--config", str(fast_config), "--out", str(out_a), "run"]) == 0
        assert main(["--config", str(fast_config), "--out", str(out_b), "run"]) == 0
        assert (out_a / "run.csv").read_bytes() == (out_b / "run.csv").read_bytes()

    def test_seed_override_changes_nothing_without_noise(
        self, fast_config, tmp_path, capsys
    ):
        # noise is off in this config, so the seed has no effect on the physics
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["--config", str(fast_config), "--out", str(out_a), "run"])
        main(
            ["--config", str(fast_config), "--seed", "99", "--out", str(out_b), "run"]
        )
        assert (out_a / "run.csv").read_bytes() == (out_b / "run.csv").read_bytes()


class TestReplay:
    def test_replay_matches_live_metrics(self, fast_config, tmp_path, capsys):
        out = tmp_path / "out"
        main(["--config", str(fast_config), "--out", str(out), "run"])
        live = json.loads((out / "run_metrics.json").read_text())
        rc = main(
            [
                "--config",
                str(fast_config),
                "--out",
                str(out),
                "replay",
                str(out / "run.csv"),
            ]
        )
        assert rc == 0
        replayed = json.loads((out / "replay_metrics.json").read_text())
        for key in ("mean_speed_mps", "mean_power_w", "cot", "p2p_yaw_deg"):
            assert replayed[key] == pytest.approx(live[key], rel=1e-8)

    def test_replay_rejects_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,telemetry,file\n1,2,3,4\n")
        rc = main(["--out", str(tmp_path), "replay", str(bad)])
        assert rc == 1


class TestSweepAndStudy:
    def test_sweep_speed_writes_summary(self, fast_config, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["--config", str(fast_config), "--out", str(out), "sweep-speed"])
        assert rc == 0
        lines = (out / "speed_sweep.csv").read_text().strip().splitlines()
        assert lines[0].startswith("frequency_hz,")
        assert len(lines) == 1 + 2 * 2  # 2 frequencies x 2 fin states
        assert (out / "speed_vs_frequency.svg").exists()

    def test_seed_override_reaches_sweep(self, tmp_path, capsys):
        # with sensor noise on, a run's telemetry depends on its seed
        config = tmp_path / "noisy.json"
        config.write_text(
            json.dumps(
                {
                    "sim": {"dt": 0.005, "noise_enabled": True},
                    "experiment": {
                        "frequencies": [2.0],
                        "fin_states": ["folded"],
                        "repeats": 1,
                        "duration": 7.0,
                    },
                }
            )
        )
        runs = {}
        for seed in ("0", "7"):
            out = tmp_path / seed
            argv = ["--config", str(config), "--seed", seed, "--out", str(out)]
            assert main(argv + ["sweep-speed"]) == 0
            runs[seed] = (out / "run_f2.00_a20_folded.csv").read_bytes()
        assert runs["0"] != runs["7"]

    def test_yaw_study_outputs(self, fast_config, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["--config", str(fast_config), "--out", str(out), "yaw-study"])
        assert rc == 0
        # the yaw study always runs the canonical 2x3x2 grid
        telemetry = sorted(out.glob("yaw_f*_a*_*.csv"))
        assert len(telemetry) == 12
        table = (out / "yaw_study.csv").read_text().strip().splitlines()
        assert table[0].startswith("amplitude_deg,")
        assert len(table) == 1 + 6
        assert "<svg" in (out / "yaw_p2p.svg").read_text()

    def test_depth_step_outputs(self, fast_config, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["--config", str(fast_config), "--out", str(out), "depth-step"])
        assert rc == 0
        assert (out / "depth_step.csv").exists()
        report = json.loads((out / "depth_step_report.json").read_text())
        assert isinstance(report, list) and report
        assert {"start_time_s", "target_m", "settling_time_s", "overshoot_pct"} <= set(
            report[0]
        )
        assert (out / "depth_step.svg").exists()


class TestPlot:
    def test_plot_from_telemetry(self, fast_config, tmp_path, capsys):
        out = tmp_path / "out"
        main(["--config", str(fast_config), "--out", str(out), "run"])
        rc = main(
            [
                "--out",
                str(out),
                "plot",
                str(out / "run.csv"),
                "--x",
                "time_s",
                "--y",
                "yaw_deg",
                "--y",
                "surge_mps",
            ]
        )
        assert rc == 0
        svg = (out / "plot.svg").read_text()
        assert svg.count("<polyline") == 2


def test_default_config_is_packaged():
    cfg = load_default_config()
    cfg.validate()
    assert cfg.fish.mass == pytest.approx(2.305)
