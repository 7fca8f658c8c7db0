"""End-to-end tests of the command line interface."""

import contextlib
import functools
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_config import _VALUES, _object_like
from test_golden import SMALL_GRID

from morphfin import cli, telemetry
from morphfin import experiments as xp
from morphfin.cli import _environment, main
from morphfin.config import RunConfig, load_default_config
from morphfin.errors import DomainError
from morphfin.telemetry import _COLUMNS, write_telemetry


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

    @pytest.mark.parametrize("command", ["run", "depth-step"])
    def test_out_naming_a_file_is_an_io_error(self, fast_config, tmp_path, capsys, command):
        taken = tmp_path / "taken"
        taken.write_text("kept")
        rc = main(["--config", str(fast_config), "--out", str(taken), command])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("I/O error: ")
        assert "Traceback" not in err
        assert taken.read_text() == "kept"

    @pytest.mark.parametrize("command", ["replay", "plot"])
    def test_missing_telemetry_is_an_io_error(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        rc = main(["--out", str(out), command, str(tmp_path / "missing.csv")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("I/O error: ")
        assert "Traceback" not in err
        assert not out.exists()

    def test_invalid_config_content(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"fish": {"mass": -1.0}}')
        rc = main(["--config", str(bad), "run", ])
        assert rc == 1

    @pytest.mark.parametrize(
        "settings",
        [
            {"fish": {"yaw_inertia": 1e-300}},
            # MAX_DT bounds the step, not stability: this fish is within the
            # calibration's DEFAULT_BOUNDS and runs at dt 0.005
            {
                "sim": {"dt": 0.01},
                "gait": {"frequency": 2.0, "amplitude": 30.0},
                "fish": {"tail_reaction_coeff": 0.5, "yaw_damping_body": 2.0},
            },
        ],
    )
    def test_diverging_state_is_an_error(self, tmp_path, capsys, settings):
        stiff = tmp_path / "stiff.json"
        stiff.write_text(json.dumps(settings))
        rc = main(["--config", str(stiff), "--out", str(tmp_path / "out"), "run"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: non-finite state")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text, field",
        [
            # JSON's 1e400 loads as inf: this fish once ran and never yawed
            ('{"fish": {"yaw_inertia": 1e400}}', "fish.yaw_inertia"),
            # and this one once faulted in a depth its run no longer integrates
            ('{"fish": {"heave_drag_coeff": 1e400}, "sim": {"duration": 12, "depth_hold": false}}',
             "fish.heave_drag_coeff"),
        ],
        ids=["yaw_inertia", "heave_drag_coeff"],
    )
    def test_an_infinite_fish_coefficient_is_an_error(self, tmp_path, capsys, text, field):
        path = tmp_path / "inf.json"
        path.write_text(text)
        rc = main(["--config", str(path), "--out", str(tmp_path / "out"), "run"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == f"error: {field}: must be finite\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field", ["record_hz", "control_hz"])
    def test_rate_not_dividing_step_rate_is_an_error(self, tmp_path, capsys, field):
        config = tmp_path / "rate.json"
        config.write_text(json.dumps({"sim": {field: 300.0}}))
        rc = main(["--config", str(config), "--out", str(tmp_path / "out"), "run"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: sim.{field}:")
        assert "Traceback" not in err


    def test_subnormal_rate_is_an_error(self, tmp_path, capsys):
        # record_hz * dt underflows to 0.0
        config = tmp_path / "rate.json"
        config.write_text(json.dumps({"sim": {"record_hz": 5e-324}}))
        rc = main(["--config", str(config), "--out", str(tmp_path / "out"), "run"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: sim.record_hz:")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, data, field",
        [
            ("run", '{"sim": {"duration": 1e400}}', "sim.duration"),  # JSON reads inf
            ("depth-step", '{"sim": {"duration": 1e400}}', "sim.duration"),
            ("sweep-speed", '{"experiment": {"duration": 1e400}}', "experiment.duration"),
            # finite, but 1e301 to 1e303 steps: the step ceiling names the duration
            ("run", '{"sim": {"dt": 1e-300}}', "sim.duration"),
            ("run", '{"sim": {"duration": 1e300}}', "sim.duration"),
            ("depth-step", '{"sim": {"duration": 1e300}}', "sim.duration"),
            ("sweep-speed", '{"experiment": {"duration": 1e300}}', "experiment.duration"),
        ],
    )
    def test_unbounded_run_is_an_error(self, tmp_path, capsys, command, data, field):
        config = tmp_path / "forever.json"
        config.write_text(data)
        out = tmp_path / "out"
        rc = main(["--config", str(config), "--out", str(out), command])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {field}:")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "data",
        [
            {"gait": {"frequency": 1e200}},
            {"fish": {"thrust_freq_exponent": 1000.0}, "gait": {"frequency": 2.33}},
        ],
    )
    def test_thrust_beyond_the_double_range_is_an_error(self, tmp_path, capsys, data):
        config = tmp_path / "overflow.json"
        config.write_text(json.dumps(data))
        out = tmp_path / "out"
        rc = main(["--config", str(config), "--out", str(out), "run"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: non-finite state")
        assert "Traceback" not in err
        assert not out.exists()

    def test_subnormal_depth_resolution_runs_unquantized(self, tmp_path, capsys):
        # depth/5e-324 is no finite number of quanta: the depth is used as
        # measured, as with no quantization at all
        runs = {}
        for resolution in (5e-324, 0.0):
            config = tmp_path / f"{resolution}.json"
            config.write_text(json.dumps({"sim": {"depth_resolution_m": resolution}}))
            out = tmp_path / f"out-{resolution}"
            rc = main(["--config", str(config), "--out", str(out), "run"])
            assert rc == 0
            runs[resolution] = (out / "run.csv").read_bytes()
        assert "Traceback" not in capsys.readouterr().err
        assert runs[5e-324] == runs[0.0]

    def test_nan_noise_is_an_error(self, tmp_path, capsys):
        # a NaN depth reading would pin the syringe full and sink the fish
        config = tmp_path / "noise.json"
        config.write_text('{"sim": {"noise_enabled": true, "noise_depth_std_m": NaN}}')
        out = tmp_path / "out"
        rc = main(["--config", str(config), "--out", str(out), "run"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: sim.noise_depth_std_m:")
        assert "Traceback" not in err
        assert not out.exists()

    def test_all_transient_run_writes_nothing(self, tmp_path, capsys):
        config = tmp_path / "short.json"
        config.write_text('{"sim": {"duration": 3.0}}')
        out = tmp_path / "out"
        rc = main(["--config", str(config), "--out", str(out), "run"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: run of 3.0 s is entirely transient")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, data, column",
        [
            ("run", {"power": {"efficiency": 5e-324}}, "power_w"),
            ("run", {"power": {"idle_power": math.inf}}, "power_w"),
            ("run", {"buoyancy": {"syringe_volume": 1e303, "volume_max": 2e303,
                                  "neutral_volume": 1e303}}, "syringe_ml"),
            ("depth-step", {"power": {"idle_power": math.inf}}, "power_w"),
            ("sweep-speed", {"power": {"efficiency": 5e-324}}, "power_w"),
        ],
    )
    def test_non_finite_telemetry_writes_nothing(self, tmp_path, capsys, command, data, column):
        # the state stays finite, but a recorded column does not
        config = tmp_path / "extreme.json"
        grid = {"frequencies": [1.0], "repeats": 1, "duration": 12.0}
        config.write_text(json.dumps({**data, "sim": {"duration": 12.0}, "experiment": grid}))
        out = tmp_path / "out"
        rc = main(["--config", str(config), "--out", str(out), command])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == f"error: non-finite {column} in record 0\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "data",
        [b"\xff\xfe{", b"[" * 100000 + b"]" * 100000,
         b'{"fish": ' + b"[" * 100000 + b"]" * 100000 + b"}"],
        ids=["binary", "nested", "nested-in-fish"],
    )
    def test_undecodable_config_is_an_error(self, tmp_path, capsys, data):
        # nesting deeper than the recursion limit once escaped as a RecursionError
        config = tmp_path / "config.json"
        config.write_bytes(data)
        out = tmp_path / "out"
        rc = main(["--config", str(config), "--out", str(out), "run"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {config}: invalid JSON:")
        assert err.count("\n") == 1
        assert not out.exists()


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
        assert not out.exists()

    def test_stream_to_a_closed_reader_stops_quietly_with_exit_0(self, fast_config, tmp_path):
        # as `morphfin run --stream | head -c 0`: the reader is gone before the first row
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        args = [sys.executable, "-m", "morphfin.cli", "--config", str(fast_config), "run",
                "--stream"]
        proc = subprocess.Popen(
            args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": path},
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0
        assert err == b""  # no error line, and no "Exception ignored" at shutdown

    def test_determinism_byte_identical(self, fast_config, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["--config", str(fast_config), "--out", str(out_a), "run"]) == 0
        assert main(["--config", str(fast_config), "--out", str(out_b), "run"]) == 0
        assert (out_a / "run.csv").read_bytes() == (out_b / "run.csv").read_bytes()

    def test_output_dir_from_config(self, fast_config, tmp_path, capsys):
        config = json.loads(fast_config.read_text())
        config["output_dir"] = str(tmp_path / "configured")
        fast_config.write_text(json.dumps(config))
        assert main(["--config", str(fast_config), "run"]) == 0
        assert (tmp_path / "configured" / "run.csv").exists()
        # --out overrides the setting
        out = tmp_path / "out"
        assert main(["--config", str(fast_config), "--out", str(out), "run"]) == 0
        assert (out / "run.csv").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "config.json", "configured", "out"
        ]

    @pytest.mark.parametrize("sim", [{}, {"noise_enabled": True, "depth_hold": False}])
    def test_seed_override_changes_nothing_without_noise(
        self, fast_config, tmp_path, capsys, sim
    ):
        # the seed feeds only the depth sensor's noise: with the noise off, or
        # with no depth loop to read it, the seed has no effect on the physics
        config = json.loads(fast_config.read_text())
        noisy_sim = {**config["sim"], **sim}
        quiet, noisy = tmp_path / "quiet.json", tmp_path / "noisy.json"
        quiet.write_text(json.dumps({**config, "sim": {**noisy_sim, "noise_enabled": False}}))
        noisy.write_text(json.dumps({**config, "sim": noisy_sim}))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["--config", str(quiet), "--out", str(out_a), "run"]) == 0
        assert main(["--config", str(noisy), "--seed", "99", "--out", str(out_b), "run"]) == 0
        assert (out_a / "run.csv").read_bytes() == (out_b / "run.csv").read_bytes()


class TestReplay:
    # 1 kHz records make a CSV of many read blocks
    @pytest.mark.parametrize("sim", [{}, {"dt": 0.001, "record_hz": 1000.0}], ids=["100hz", "1khz"])
    def test_replay_matches_live_metrics(self, fast_config, tmp_path, capsys, sim):
        config = json.loads(fast_config.read_text())
        fast_config.write_text(json.dumps({**config, "sim": {**config["sim"], **sim}}))
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

    @pytest.mark.parametrize(
        "data, line",
        [
            (lambda: b"not,a,telemetry,file\n1,2,3,4\n", 1),
            # a time of "0.5x" at line 5000 of a 1 kHz run's CSV, many read blocks in
            (lambda: _with_bad_time(_telemetry(1000.0), 5000), 5000),
        ],
        ids=["header", "1khz-row"],
    )
    def test_replay_rejects_malformed_file(self, tmp_path, capsys, data, line):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(data())
        out = tmp_path / "out"
        rc = main(["--out", str(out), "replay", str(bad)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: line {line}: ")
        assert err.count("\n") == 1
        assert not out.exists()


@pytest.mark.parametrize("command", ["replay", "plot"])
def test_undecodable_telemetry_is_an_error(tmp_path, capsys, command):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"time_s,x_m\n\xff\n")
    out = tmp_path / "out"
    rc = main(["--out", str(out), command, str(bad)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == "error: line 2: non-ASCII byte 0xff\n"
    assert not out.exists()


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

    @pytest.mark.parametrize(
        "command, kind, telemetry",
        [
            ("sweep-speed", "speed_sweep", "run_f2.00_a20_folded.csv"),
            ("yaw-study", "yaw_study", "yaw_f2.00_a20_folded.csv"),
        ],
    )
    def test_config_seed_reaches_grid(self, tmp_path, capsys, command, kind, telemetry):
        # sim.seed is the one seed: set in the config, with no --seed, it
        # reaches every cell of the grid the config's experiment section gives
        runs = {}
        for seed in (0, 7):
            config = tmp_path / f"noisy{seed}.json"
            config.write_text(
                json.dumps(
                    {
                        "sim": {"dt": 0.005, "noise_enabled": True, "seed": seed},
                        "experiment": {
                            "kind": kind,
                            "frequencies": [2.0],
                            "repeats": 1,
                            "duration": 7.0,
                        },
                    }
                )
            )
            out = tmp_path / str(seed)
            assert main(["--config", str(config), "--out", str(out), command]) == 0
            runs[seed] = (out / telemetry).read_bytes()
        assert runs[0] != runs[7]

    @pytest.mark.parametrize("command", ["sweep-speed", "yaw-study"])
    @pytest.mark.parametrize(
        "experiment, field",
        [
            ({"seed": 7}, "experiment.seed"),
            ({"kind": "depth_step"}, "experiment.kind"),
            ({"kind": "single_run"}, "experiment.kind"),
            ({"fin_states": []}, "experiment.fin_states"),
            ({"amplitudes": []}, "experiment.amplitudes"),
            ({"amplitudes": [50.0]}, "experiment.amplitudes"),
            ({"kind": "yaw_study", "fin_states": ["folded"]}, "experiment.fin_states"),
            # finite, but duration/dt overflows
            ({"duration": 1e307}, "experiment.duration"),
            # a still tail has no COT and no yaw improvement: rejected before any cell runs
            ({"amplitudes": [20.0, 0.0]}, "experiment.amplitudes"),
            # two cells that name one telemetry file, and a cell given twice
            (
                {"frequencies": [1.0], "amplitudes": [20.2, 20.4], "fin_states": ["folded"],
                 "repeats": 1, "duration": 12.0},
                "experiment.amplitudes",
            ),
            ({"frequencies": [1.0, 1.0], "repeats": 1, "duration": 12.0}, "experiment.frequencies"),
        ],
    )
    def test_rejected_experiment_writes_nothing(
        self, tmp_path, capsys, command, experiment, field
    ):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"experiment": experiment}))
        out = tmp_path / "out"
        rc = main(["--config", str(config), "--out", str(out), command])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {field}:")
        assert "Traceback" not in err
        assert not out.exists()

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

    @pytest.mark.parametrize("axis", ["--x", "--y"])
    def test_unknown_column_is_an_error(self, fast_config, tmp_path, capsys, axis):
        out = tmp_path / "out"
        main(["--config", str(fast_config), "--out", str(out), "run"])
        capsys.readouterr()
        rc = main(["--out", str(out), "plot", str(out / "run.csv"), axis, "speed"])
        assert rc == 1
        assert "unknown telemetry column 'speed'" in capsys.readouterr().err
        assert not (out / "plot.svg").exists()

    def test_column_beyond_the_double_range_is_an_error(self, fast_config, tmp_path, capsys):
        # yaw_deg spans 3.4e308, more than any double
        main(["--config", str(fast_config), "--out", str(tmp_path / "run"), "run"])
        lines = (tmp_path / "run" / "run.csv").read_text().splitlines()
        columns = lines[0].split(",")
        yaw = columns.index("yaw_deg")
        for i, value in ((1, "1.7e308"), (2, "-1.7e308")):
            row = lines[i].split(",")
            row[yaw] = value
            lines[i] = ",".join(row)
        telemetry = tmp_path / "huge.csv"
        telemetry.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        capsys.readouterr()
        rc = main(["--out", str(out), "plot", str(telemetry)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == "error: the y axis spans more than the double range\n"
        assert not out.exists()


class TestOutputs:
    """Every file is built before the one writer makes the output directory."""

    @pytest.mark.parametrize(
        "command, data",
        [
            ("depth-step", {"sim": {"duration": 12.0}}),
            ("sweep-speed", {"experiment": SMALL_GRID}),
            ("yaw-study", {"experiment": {**SMALL_GRID, "kind": "yaw_study", "amplitudes": [20.0]}}),
            ("plot", {}),
        ],
    )
    def test_a_failing_chart_writes_nothing(
        self, tmp_path, capsys, monkeypatch, command, data
    ):
        def no_chart(*args):
            raise DomainError("no chart")

        monkeypatch.setattr(cli, "emit_plot", no_chart)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(data))
        out = tmp_path / "out"
        argv = ["--config", str(config), "--out", str(out), command]
        if command == "plot":
            telemetry = tmp_path / "run.csv"
            telemetry.write_bytes(_telemetry())
            argv.append(str(telemetry))
        rc = main(argv)
        assert rc == 1
        assert capsys.readouterr().err == "error: no chart\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, runs, first",
        [("run", 1, "run.csv"), ("depth-step", 1, "depth_step.csv"),
         ("sweep-speed", 2, "speed_sweep.csv")],
    )
    def test_each_kept_run_is_formatted_once(
        self, tmp_path, capsys, monkeypatch, command, runs, first
    ):
        calls, csv_rows = [], telemetry.csv_rows

        def counted(records):
            calls.append(records)
            return csv_rows(records)

        monkeypatch.setattr(telemetry, "csv_rows", counted)
        monkeypatch.setattr(cli, "csv_rows", counted)
        config = tmp_path / "config.json"
        grid = {"frequencies": [1.0], "repeats": 1, "duration": 12.0}
        config.write_text(json.dumps({"sim": {"dt": 0.005, "duration": 12.0}, "experiment": grid}))
        out = tmp_path / "out"
        assert main(["--config", str(config), "--out", str(out), command]) == 0
        assert len(calls) == runs
        assert len({id(records) for records in calls}) == runs
        assert capsys.readouterr().err == f"wrote {out / first}\n"


def test_calibrate_starts_from_the_config(tmp_path, capsys, monkeypatch):
    seen = {}

    def fake_calibrate(targets, env, bounds, **kwargs):
        seen["env"], seen["bounds"] = env, bounds
        return xp.CalibrationResult(parameters={}, loss_trace=[0.0], residuals={})

    monkeypatch.setattr(xp, "calibrate", fake_calibrate)
    assert main(["--out", str(tmp_path), "calibrate"]) == 0
    config = load_default_config()
    assert seen["env"].params == config.fish
    assert seen["env"].power == config.power
    assert seen["bounds"] is xp.DEFAULT_BOUNDS


def test_calibrate_rejects_a_start_outside_its_bounds(tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("calibration simulated a run")

    monkeypatch.setattr(xp, "run_condition", no_run)
    config = tmp_path / "strong.json"
    config.write_text('{"fish": {"thrust_coeff": 5.0}}')
    out = tmp_path / "out"
    rc = main(["--config", str(config), "--out", str(out), "calibrate"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == "error: thrust_coeff: initial thrust_coeff=5.0 outside [0.01, 1.0]\n"
    assert not out.exists()


_NO_FINITE_TRIAL = "error: calibration failed: no trial of 61 has a finite loss\n"


def test_calibrate_in_which_every_trial_faults_exits_1_and_writes_nothing(tmp_path, capsys):
    # every run of this fish faults: no trial has a finite loss to report
    config = tmp_path / "faulting.json"
    config.write_text('{"fish": {"yaw_inertia": 1e-9}}')
    out = tmp_path / "out"
    assert main(["--config", str(config), "--out", str(out), "calibrate"]) == 1
    err = capsys.readouterr().err
    assert err == _NO_FINITE_TRIAL
    assert not (out / "calibration.json").exists()
    assert not out.exists()


def test_default_config_is_packaged():
    cfg = load_default_config()
    cfg.validate()
    assert cfg.fish.mass == pytest.approx(2.305)


@functools.cache
def _telemetry(record_hz: float = RunConfig().sim.record_hz) -> bytes:
    """The CSV of an 8 s default run, whose steady window at 1 Hz holds 3 cycles."""
    config = replace(RunConfig(), sim=replace(RunConfig().sim, record_hz=record_hz))
    records = xp.run_condition(_environment(config), config.gait, 8.0, 0)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.csv"
        write_telemetry(records, path)
        return path.read_bytes()


def _with_bad_time(data: bytes, line: int) -> bytes:
    lines = data.split(b"\n")
    lines[line - 1] = b"0.5x," + lines[line - 1].partition(b",")[2]
    return b"\n".join(lines)


_GRID_KINDS = {"sweep-speed": "speed_sweep", "yaw-study": "yaw_study"}
# each grid subcommand's table, its telemetry files' prefix and its cells per table row
_GRID_FILES = {"sweep-speed": ("speed_sweep.csv", "run", 1), "yaw-study": ("yaw_study.csv", "yaw", 2)}


def _short_grid(draw, command):
    """A grid of the subcommand's kind: 1-2 cells of 6.5 s at >= 2 Hz, some amplitudes invalid."""
    if command == "yaw-study":
        fin_states = list(xp.FIN_STATES)
    else:
        fin_states = draw(st.sampled_from([["folded"], ["erect"], list(xp.FIN_STATES)]))
    return {
        "kind": _GRID_KINDS[command],
        "frequencies": draw(st.lists(st.floats(2.0, 2.5), min_size=1, max_size=3 - len(fin_states))),
        "amplitudes": [draw(st.floats(0.0, 50.0))],
        "fin_states": fin_states,
        "duration": 6.5,
    }


def _short_config(data, draw, command):
    """A fuzzed config whose run, if it loads, is at most 3 s and 3000 steps long.

    A grid subcommand instead runs a grid of 1-2 short cells at sim.dt 0.01.
    """
    if not isinstance(data, dict) or not isinstance(data.get("sim", {}), dict):
        return data
    sim = dict(data.get("sim", {}))
    duration = draw(st.floats(0.01, 3.0))
    dt = sim.get("dt")
    if isinstance(dt, float) and 0.0 < dt < 1e-3:
        duration = min(duration, 3000 * dt)
    data = {**data, "sim": {**sim, "duration": duration}}
    experiment = data.get("experiment", {})
    if command in _GRID_KINDS and isinstance(experiment, dict):
        data["experiment"] = {**experiment, **_short_grid(draw, command)}
        data["sim"]["dt"] = 0.01
    return data


def _damaged(data: bytes, draw) -> bytes:
    """The telemetry whole, cut at a byte, or with a few bytes overwritten."""
    kind = draw(st.sampled_from(["whole", "truncated", "corrupted"]))
    if kind == "whole":
        return data
    at = draw(st.integers(0, len(data) - 1))
    if kind == "truncated":
        return data[:at]
    patch = draw(st.binary(min_size=1, max_size=3))
    return data[:at] + patch + data[at + len(patch):]


def _optional(**keys):
    return st.fixed_dictionaries({}, optional=keys)


# values that once escaped as tracebacks: powers in the thrust law beyond the
# double range, and depths of no finite number of subnormal quanta; and infinite
# fish coefficients, which once ran or faulted as a simulation
_INFINITE = st.sampled_from([math.inf, -math.inf])
_EXTREMES = _optional(
    gait=_optional(frequency=st.floats(1.0, 1e300)),
    fish=_optional(
        thrust_freq_exponent=st.floats(0.0, 1e300), thrust_amp_exponent=st.floats(0.0, 1e300),
        yaw_inertia=_INFINITE, heave_drag_coeff=_INFINITE, heave_added_mass=_INFINITE,
    ),
    sim=_optional(depth_resolution_m=st.floats(0.0, 1e-309)),
)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_main_exits_cleanly_and_a_failure_writes_nothing(data):
    commands = ["run", "depth-step", "replay", "plot", "calibrate", *_GRID_KINDS]
    command = data.draw(st.sampled_from(commands))
    if command == "calibrate":
        # a fish this light in yaw faults in every trial, so calibrate ends in
        # well under a second; a fuller fish could run the whole ~35 s fit
        config = {"fish": {"yaw_inertia": data.draw(st.floats(1e-9, 1e-4))}}
    else:
        drawn = data.draw(_object_like(RunConfig()) | _VALUES | _EXTREMES)
        config = _short_config(drawn, data.draw, command)
    with tempfile.TemporaryDirectory() as tmp:
        config_path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        config_path.write_text(json.dumps(config))
        argv = ["--config", str(config_path), "--out", str(out), command]
        if command in ("replay", "plot"):
            telemetry = Path(tmp) / "run.csv"
            telemetry.write_bytes(_damaged(_telemetry(), data.draw))
            argv.append(str(telemetry))
        if command == "plot":
            column = st.sampled_from(_COLUMNS + ("speed",))
            argv += ["--x", data.draw(column), "--y", data.draw(column)]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv)
        assert rc in (0, 1, 2)
        assert "Traceback" not in stderr.getvalue()
        if rc == 1:
            assert not out.exists(), stderr.getvalue()
        if command == "calibrate":
            assert (rc, stderr.getvalue()) == (1, _NO_FINITE_TRIAL)
        if rc == 0 and command in _GRID_KINDS:
            # each table row keeps its cells' runs: a yaw row pairs a folded and an erect one
            table, prefix, cells = _GRID_FILES[command]
            rows = (out / table).read_text().count("\n") - 1
            assert len(list(out.glob(f"{prefix}_f*.csv"))) == cells * rows
