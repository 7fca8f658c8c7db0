"""Command-line interface tying the simulator, experiments, and outputs together.

Exit codes: 0 success, 1 domain/config error, 2 I/O error; a reader that
closes streamed stdout early ends the run quietly with 0. Diagnostics go to
stderr; all data goes to files (or stdout when streaming). Each subcommand
builds its files in memory and `main` hands them to `_write_outputs`, the one
place that makes the output directory and writes: an exit 1 writes nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import experiments as xp
from .config import RunConfig, load_config, load_default_config
from .errors import MorphfinError
from .metrics import steady_window
from .plotting import PlotStyle, Series, emit_plot
from .telemetry import _COLUMNS, csv_rows, encode_telemetry, read_telemetry


def _environment(config: RunConfig) -> xp.RunEnvironment:
    sim = config.sim
    return xp.RunEnvironment(
        params=config.fish,
        power=config.power,
        pid=config.pid,
        buoyancy=config.buoyancy,
        dt=sim.dt,
        record_every=sim.record_every,
        control_period=sim.control_period,
        depth_resolution=sim.depth_resolution_m,
        depth_hold=sim.depth_hold,
        target_depth=sim.target_depth,
        noise=sim.noise(),
    )


def _replay_metrics(records, frequency: float, mass: float, gravity: float) -> dict:
    window = steady_window(records[0].time_s, records[-1].time_s, frequency)
    m = xp.condition_metrics(records, frequency, mass=mass, gravity=gravity)
    return {
        "window_s": list(window),
        "mean_speed_mps": m.mean_speed,
        "mean_power_w": m.mean_power,
        "cot": m.cot,
        "p2p_yaw_deg": m.p2p_yaw,
    }


def _json(payload) -> bytes:
    try:
        return (json.dumps(payload, indent=2, allow_nan=False) + "\n").encode()
    except ValueError as exc:  # a NaN or an infinity, which JSON cannot hold
        raise MorphfinError(f"output is not JSON: {exc}") from exc


def _cmd_run(config: RunConfig, stream: bool) -> dict:
    env = _environment(config)
    records = xp.run_condition(env, config.gait, config.sim.duration, config.sim.seed)
    if stream:
        sys.stdout.writelines(csv_rows(records))
        return {}
    metrics = _replay_metrics(
        records, config.gait.frequency, config.fish.mass, config.fish.gravity
    )
    return {"run.csv": encode_telemetry(records), "run_metrics.json": _json(metrics)}


def _grid_spec(config: RunConfig, kind: str) -> xp.ExperimentSpec:
    """The config's experiment if it is a `kind` grid, else the canonical one, seeded by sim.seed."""
    if config.experiment.kind == kind:
        return replace(config.experiment, seed=config.sim.seed)
    canonical = xp.speed_sweep_spec if kind == "speed_sweep" else xp.yaw_study_spec
    return canonical(seed=config.sim.seed)


def _grid_files(table: str, csv: str, kept: list, prefix: str, series, style, chart: str) -> dict:
    """The grid's table, the telemetry of each cell's one run, and its chart.

    Each run leaves `kept` once its bytes exist, so no run is held twice.
    """
    files = {table: csv.encode()}
    while kept:
        freq, amp, fin_state, records = kept.pop(0)
        files[f"{prefix}_{xp.cell_name(freq, amp, fin_state)}.csv"] = encode_telemetry(records)
    files[chart] = emit_plot(series, style)
    return files


def _cmd_sweep_speed(config: RunConfig) -> dict:
    spec = _grid_spec(config, "speed_sweep")
    kept: list = []
    result = xp.run_speed_sweep(_environment(config), spec, keep_records=kept)
    series = []
    for fin_state in spec.fin_states:
        rows = [r for r in result.rows if r.fin_state == fin_state]
        series.append(
            Series(fin_state, [r.frequency for r in rows], [r.mean_speed for r in rows])
        )
    style = PlotStyle("Mean speed vs gait frequency", "frequency (Hz)", "speed (m/s)")
    return _grid_files(
        "speed_sweep.csv", result.to_csv(), kept, "run", series, style,
        "speed_vs_frequency.svg",
    )


def _cmd_yaw_study(config: RunConfig) -> dict:
    spec = _grid_spec(config, "yaw_study")
    kept: list = []
    report = xp.run_yaw_study(_environment(config), spec, keep_records=kept)
    index = list(range(len(report.table)))
    series = [
        Series("folded", index, [r.folded_p2p for r in report.table]),
        Series("erect", index, [r.erect_p2p for r in report.table]),
    ]
    style = PlotStyle("Peak-to-peak yaw per condition", "condition index", "yaw p2p (deg)")
    return _grid_files(
        "yaw_study.csv", report.table_csv(), kept, "yaw", series, style, "yaw_p2p.svg"
    )


def _cmd_depth_step(config: RunConfig) -> dict:
    records, reports = xp.run_depth_step(
        _environment(config), config.depth_schedule, config.sim.duration, config.sim.seed,
        initial_depth=config.sim.initial_depth,
    )
    payload = [
        {
            "start_time_s": r.start_time,
            "target_m": r.target,
            "settling_time_s": r.settling_time,
            "overshoot_pct": r.overshoot_pct,
        }
        for r in reports
    ]
    return {
        "depth_step.csv": encode_telemetry(records),
        "depth_step_report.json": _json(payload),
        "depth_step.svg": emit_plot(
            [Series("depth", records.column("time_s"), records.column("depth_m"))],
            PlotStyle(title="Depth step response", x_label="time (s)", y_label="depth (m)"),
        ),
    }


def _cmd_calibrate(config: RunConfig) -> dict:
    result = xp.calibrate(xp.default_targets(), _environment(config), xp.DEFAULT_BOUNDS,
                          step_fraction=0.05, verbose=True)
    summary = {
        "parameters": result.parameters,
        "residuals": result.residuals,
        "final_loss": result.loss_trace[-1],
    }
    trace = "".join(f"{i},{v:.9g}\n" for i, v in enumerate(result.loss_trace))
    return {
        "calibration.json": _json(summary),
        "loss_trace.csv": ("iteration,loss\n" + trace).encode(),
    }


def _cmd_replay(config: RunConfig, telemetry_path: str) -> dict:
    records = read_telemetry(telemetry_path)
    metrics = _replay_metrics(
        records, config.gait.frequency, config.fish.mass, config.fish.gravity
    )
    return {"replay_metrics.json": _json(metrics)}


def _cmd_plot(telemetry_path: str, x: str, ys: list[str]) -> dict:
    records = read_telemetry(telemetry_path)
    for col in [x, *ys]:
        if col not in _COLUMNS:
            raise MorphfinError(f"unknown telemetry column {col!r}")
    series = [Series(name=col, x=records.column(x), y=records.column(col)) for col in ys]
    return {"plot.svg": emit_plot(series, PlotStyle(x_label=x, y_label=", ".join(ys)))}


def _write_outputs(out: Path, files: dict) -> None:
    """Make `out` and write each file's bytes (or byte blocks) in order.

    The CLI's one writer: a subcommand hands it every file built, checked and
    formatted, so a subcommand that fails has made no directory and no file.
    """
    if not files:
        return
    out.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        with open(out / name, "wb") as stream:
            stream.writelines((data,) if isinstance(data, bytes) else data)
    print(f"wrote {out / next(iter(files))}", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morphfin",
        description="Free-swimming robotic tuna simulator with a morphing dorsal fin",
    )
    parser.add_argument("--config", help="path to a JSON run config")
    parser.add_argument("--seed", type=int, help="override the config's sim.seed")
    parser.add_argument("--out", help="output directory (default: config output_dir)")
    sub = parser.add_subparsers(dest="command")
    run = sub.add_parser("run", help="single simulation of the configured gait")
    run.add_argument("--stream", action="store_true", help="stream records to stdout")
    sub.add_parser("sweep-speed", help="speed/COT sweep over the frequency grid")
    sub.add_parser("yaw-study", help="yaw stability study, folded vs erect fin")
    sub.add_parser("depth-step", help="closed-loop depth schedule tracking")
    sub.add_parser("calibrate", help="fit surrogate coefficients to the anchors")
    replay = sub.add_parser("replay", help="recompute metrics from a telemetry file")
    replay.add_argument("telemetry", help="telemetry CSV path")
    plot = sub.add_parser("plot", help="render telemetry columns as an SVG chart")
    plot.add_argument("telemetry", help="telemetry CSV path")
    plot.add_argument("--x", default="time_s")
    plot.add_argument("--y", action="append", default=None, help="repeatable y column")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        config = load_config(args.config) if args.config else load_default_config()
        if args.seed is not None:
            config = replace(config, sim=replace(config.sim, seed=args.seed))
        out = Path(args.out if args.out is not None else config.output_dir)
        commands = {
            "run": lambda: _cmd_run(config, args.stream),
            "sweep-speed": lambda: _cmd_sweep_speed(config),
            "yaw-study": lambda: _cmd_yaw_study(config),
            "depth-step": lambda: _cmd_depth_step(config),
            "calibrate": lambda: _cmd_calibrate(config),
            "replay": lambda: _cmd_replay(config, args.telemetry),
            "plot": lambda: _cmd_plot(args.telemetry, args.x, args.y or ["yaw_deg"]),
        }
        _write_outputs(out, commands[args.command]())
        return 0
    except MorphfinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # a reader closed stdout early (`| head`): stop quietly; devnull takes the last flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
