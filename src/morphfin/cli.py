"""Command-line interface tying the simulator, experiments, and outputs together.

Exit codes: 0 success, 1 domain/config error, 2 I/O error. Diagnostics go to
stderr; all data goes to files (or stdout when streaming).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import experiments as xp
from .config import RunConfig, load_config, load_default_config
from .control import GaitCommand
from .errors import MorphfinError
from .metrics import cot, steady_window
from .plotting import PlotStyle, Series, emit_plot
from .telemetry import _COLUMNS, csv_rows, read_telemetry, write_telemetry


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
    m = xp.condition_metrics(records, frequency)
    return {
        "window_s": list(window),
        "mean_speed_mps": m.mean_speed,
        "mean_power_w": m.mean_power,
        "cot": cot(m.mean_power, mass, gravity, m.mean_speed),
        "p2p_yaw_deg": m.p2p_yaw,
    }


def _make_out(out: Path, *runs) -> None:
    """Make the output directory once every run's records pass write_telemetry's checks."""
    for records in runs:
        for _ in csv_rows(records):
            pass
    out.mkdir(parents=True, exist_ok=True)


def _cmd_run(config: RunConfig, out: Path, stream: bool) -> int:
    env = _environment(config)
    records = xp.run_condition(env, config.gait, config.sim.duration, config.sim.seed)
    if stream:
        sys.stdout.writelines(csv_rows(records))
        return 0
    # metrics first, so that a run with no steady window writes nothing
    metrics = _replay_metrics(
        records, config.gait.frequency, config.fish.mass, config.fish.gravity
    )
    _make_out(out, records)
    path = out / "run.csv"
    write_telemetry(records, path)
    (out / "run_metrics.json").write_text(json.dumps(metrics, indent=2) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


def _grid_spec(config: RunConfig, kind: str) -> xp.ExperimentSpec:
    """The config's experiment if it is a `kind` grid, else the canonical one, seeded by sim.seed."""
    if config.experiment.kind == kind:
        return replace(config.experiment, seed=config.sim.seed)
    canonical = xp.speed_sweep_spec if kind == "speed_sweep" else xp.yaw_study_spec
    return canonical(seed=config.sim.seed)


def _write_grid(
    out: Path, table: str, csv: str, kept: list, prefix: str, series, style, chart: str
) -> None:
    """The grid's table, the telemetry of each cell's one run, and its chart."""
    _make_out(out, *(records for *_, records in kept))
    (out / table).write_text(csv)
    for freq, amp, fin_state, records in kept:
        write_telemetry(records, out / f"{prefix}_{xp.cell_name(freq, amp, fin_state)}.csv")
    emit_plot(series, style, out / chart)
    print(f"wrote {out / table}", file=sys.stderr)


def _cmd_sweep_speed(config: RunConfig, out: Path) -> int:
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
    _write_grid(
        out, "speed_sweep.csv", result.to_csv(), kept, "run", series, style,
        "speed_vs_frequency.svg",
    )
    return 0


def _cmd_yaw_study(config: RunConfig, out: Path) -> int:
    spec = _grid_spec(config, "yaw_study")
    kept: list = []
    report = xp.run_yaw_study(_environment(config), spec, keep_records=kept)
    index = list(range(len(report.table)))
    series = [
        Series("folded", index, [r.folded_p2p for r in report.table]),
        Series("erect", index, [r.erect_p2p for r in report.table]),
    ]
    style = PlotStyle("Peak-to-peak yaw per condition", "condition index", "yaw p2p (deg)")
    _write_grid(
        out, "yaw_study.csv", report.table_csv(), kept, "yaw", series, style,
        "yaw_p2p.svg",
    )
    return 0


def _cmd_depth_step(config: RunConfig, out: Path) -> int:
    records, reports = xp.run_depth_step(
        _environment(config), config.depth_schedule, config.sim.duration, config.sim.seed,
        initial_depth=config.sim.initial_depth,
    )
    _make_out(out, records)
    write_telemetry(records, out / "depth_step.csv")
    payload = [
        {
            "start_time_s": r.start_time,
            "target_m": r.target,
            "settling_time_s": r.settling_time,
            "overshoot_pct": r.overshoot_pct,
        }
        for r in reports
    ]
    (out / "depth_step_report.json").write_text(json.dumps(payload, indent=2) + "\n")
    emit_plot(
        [Series("depth", records.column("time_s"), records.column("depth_m"))],
        PlotStyle(title="Depth step response", x_label="time (s)", y_label="depth (m)"),
        out / "depth_step.svg",
    )
    print(f"wrote {out / 'depth_step.csv'}", file=sys.stderr)
    return 0


def _cmd_calibrate(config: RunConfig, out: Path) -> int:
    result = xp.calibrate(
        xp.default_targets(),
        _environment(config),
        xp.DEFAULT_BOUNDS,
        step_fraction=0.05,
        verbose=True,
    )
    out.mkdir(parents=True, exist_ok=True)
    summary = {
        "parameters": result.parameters,
        "residuals": result.residuals,
        "final_loss": result.loss_trace[-1],
    }
    (out / "calibration.json").write_text(json.dumps(summary, indent=2) + "\n")
    (out / "loss_trace.csv").write_text(
        "iteration,loss\n"
        + "".join(f"{i},{v:.9g}\n" for i, v in enumerate(result.loss_trace))
    )
    print(f"wrote {out / 'calibration.json'}", file=sys.stderr)
    return 0


def _cmd_replay(config: RunConfig, telemetry_path: str, out: Path) -> int:
    records = read_telemetry(telemetry_path)
    metrics = _replay_metrics(
        records, config.gait.frequency, config.fish.mass, config.fish.gravity
    )
    out.mkdir(parents=True, exist_ok=True)
    (out / "replay_metrics.json").write_text(json.dumps(metrics, indent=2) + "\n")
    print(f"wrote {out / 'replay_metrics.json'}", file=sys.stderr)
    return 0


def _cmd_plot(telemetry_path: str, x: str, ys: list[str], out: Path) -> int:
    records = read_telemetry(telemetry_path)
    for col in [x, *ys]:
        if col not in _COLUMNS:
            raise MorphfinError(f"unknown telemetry column {col!r}")
    series = [Series(name=col, x=records.column(x), y=records.column(col)) for col in ys]
    dest = out / "plot.svg"
    emit_plot(series, PlotStyle(x_label=x, y_label=", ".join(ys)), dest)
    print(f"wrote {dest}", file=sys.stderr)
    return 0


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
        if args.command == "run":
            return _cmd_run(config, out, args.stream)
        if args.command == "sweep-speed":
            return _cmd_sweep_speed(config, out)
        if args.command == "yaw-study":
            return _cmd_yaw_study(config, out)
        if args.command == "depth-step":
            return _cmd_depth_step(config, out)
        if args.command == "calibrate":
            return _cmd_calibrate(config, out)
        if args.command == "replay":
            return _cmd_replay(config, args.telemetry, out)
        ys = args.y if args.y else ["yaw_deg"]  # argparse admits no other command
        return _cmd_plot(args.telemetry, args.x, ys, out)
    except MorphfinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
