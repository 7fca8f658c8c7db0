"""Experiment protocols and surrogate-coefficient calibration.

The speed/COT sweep and the yaw-stability study mirror the published
protocols (10 frequencies x 2 fin states x 5 repeats; 6 gait conditions x
2 fin states). Calibration fits surrogate coefficients to the published
anchors by derivative-free coordinate descent with shrinking steps.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import astuple, dataclass, field, replace
from statistics import fmean, pstdev
from typing import Sequence

from .control import (
    MAX_AMPLITUDE_DEG, BuoyancyState, DepthSchedule, GaitCommand, PidGains, step_schedule,
)
from .controllers import SwimController
from .errors import (
    ConfigError, DomainError, InsufficientDataError, MorphfinError, SimulationFault,
)
from .hydro import FishParams, FishState, NoiseConfig, simulate
from .metrics import (
    TRANSIENT_CYCLES, TRANSIENT_SECONDS, PowerModel, cot, improvement, steady_window,
)
from .telemetry import TelemetryRecord

FIN_STATES = ("folded", "erect")

DEFAULT_FREQUENCIES = [round(0.80 + 0.17 * i, 2) for i in range(10)]  # 0.80..2.33 Hz
YAW_FREQUENCIES = [0.5, 1.0]
YAW_AMPLITUDES = [10.0, 20.0, 30.0]


@dataclass(frozen=True)
class ExperimentSpec:
    """One protocol grid; `kind` is the protocol that runs it, speed_sweep or yaw_study."""

    kind: str = "speed_sweep"
    frequencies: list[float] = field(default_factory=lambda: list(DEFAULT_FREQUENCIES))
    amplitudes: list[float] = field(default_factory=lambda: [20.0])
    fin_states: list[str] = field(default_factory=lambda: list(FIN_STATES))
    repeats: int = 5
    duration: float = 25.0
    seed: int = 0  # not a config key: the CLI runs every spec with sim.seed

    def validate(self) -> None:
        if self.kind not in ("speed_sweep", "yaw_study"):
            raise ConfigError(f"unknown kind {self.kind!r}", "experiment.kind")
        if not 1 <= self.repeats <= 1000:  # the seed stride between sweep cells
            raise ConfigError("repeats must be in [1, 1000]", "experiment.repeats")
        if not self.frequencies or not all(f > 0.0 for f in self.frequencies):
            raise ConfigError("frequencies must be positive", "experiment.frequencies")
        if not self.amplitudes:
            raise ConfigError("need at least one amplitude", "experiment.amplitudes")
        if not all(0.0 <= a <= MAX_AMPLITUDE_DEG for a in self.amplitudes):
            raise ConfigError(
                f"amplitudes must be in [0, {MAX_AMPLITUDE_DEG:g}] deg", "experiment.amplitudes"
            )
        if not self.fin_states:
            raise ConfigError("need at least one fin state", "experiment.fin_states")
        if any(state not in FIN_STATES for state in self.fin_states):
            raise ConfigError(f"fin states must be one of {FIN_STATES}", "experiment.fin_states")
        if self.kind == "yaw_study" and set(self.fin_states) != set(FIN_STATES):
            raise ConfigError("a yaw study compares both fin states", "experiment.fin_states")
        if not math.isfinite(self.duration):
            raise ConfigError("duration must be finite", "experiment.duration")
        lowest = min(self.frequencies)
        if self.duration < 10.0 / lowest:
            raise ConfigError(
                f"duration must cover >= 10 cycles at {lowest} Hz",
                "experiment.duration",
            )


def speed_sweep_spec(seed: int = 0) -> ExperimentSpec:
    return ExperimentSpec(kind="speed_sweep", seed=seed)


def yaw_study_spec(seed: int = 0) -> ExperimentSpec:
    return ExperimentSpec(
        kind="yaw_study",
        frequencies=list(YAW_FREQUENCIES),
        amplitudes=list(YAW_AMPLITUDES),
        repeats=1,
        seed=seed,
    )


@dataclass(frozen=True)
class RunEnvironment:
    """Everything besides the gait needed to run one simulation."""

    params: FishParams
    power: PowerModel
    pid: PidGains | None
    buoyancy: BuoyancyState | None
    dt: float
    record_every: int
    control_period: float
    depth_resolution: float
    depth_hold: bool
    target_depth: float
    noise: NoiseConfig


def run_condition(
    env: RunEnvironment,
    gait: GaitCommand,
    duration: float,
    seed: int,
    *,
    initial_state: FishState | None = None,
    depth_schedule: DepthSchedule | None = None,
) -> list[TelemetryRecord]:
    """One seeded simulation of a single gait condition.

    The depth loop tracks `depth_schedule` when one is given; otherwise, with
    `env.depth_hold`, it holds `env.target_depth` from a start at that depth.
    Either needs `env.pid` and `env.buoyancy`.
    """
    if depth_schedule is None and env.depth_hold:
        depth_schedule = step_schedule([(0.0, env.target_depth)])
        if initial_state is None:
            initial_state = FishState(depth=env.target_depth)
    return simulate(
        env.params,
        SwimController(env, gait, depth_schedule),
        duration,
        env.dt,
        seed,
        initial_state=initial_state,
        power_model=env.power,
        record_every=env.record_every,
        noise=env.noise,
    )


@dataclass(frozen=True)
class ConditionMetrics:
    mean_speed: float
    mean_power: float
    cot: float
    p2p_yaw: float


def condition_metrics(
    records: Sequence[TelemetryRecord], frequency: float
) -> ConditionMetrics:
    """Steady-window metrics of one run; `cot` is NaN, as it needs the mass.

    The speed is the net planar displacement between the window's first and
    last records over their elapsed time, as timing a traverse of a known
    pool length does; the power is the window's mean; the yaw is its max
    minus min, over a window of at least 3 gait cycles.
    """
    t0, t1 = steady_window(records[-1].time_s - records[0].time_s, frequency)
    window = [r for r in records if t0 <= r.time_s <= t1]
    if len(window) < 2:
        raise InsufficientDataError("window contains fewer than 2 samples")
    first, last = window[0], window[-1]
    elapsed = last.time_s - first.time_s
    if elapsed <= 0.0:
        raise InsufficientDataError("window elapsed time is zero")
    speed = math.hypot(last.x_m - first.x_m, last.y_m - first.y_m) / elapsed
    power = sum([r.power_w for r in window]) / len(window)
    if frequency > 0.0 and (t1 - t0) < 3.0 / frequency:
        raise InsufficientDataError(
            f"window of {t1 - t0:.3f} s holds fewer than 3 cycles at {frequency} Hz"
        )
    yaws = [r.yaw_deg for r in window]
    return ConditionMetrics(speed, power, math.nan, max(yaws) - min(yaws))


def _metrics_with_cot(
    env: RunEnvironment, records: Sequence[TelemetryRecord], frequency: float
) -> ConditionMetrics:
    m = condition_metrics(records, frequency)
    value = cot(m.mean_power, env.params.mass, env.params.gravity, m.mean_speed)
    return replace(m, cot=value)


@dataclass(frozen=True)
class SweepRow:
    frequency: float
    amplitude: float
    fin_state: str
    mean_speed: float
    speed_std: float
    mean_power: float
    power_std: float
    cot: float
    cot_std: float
    p2p_yaw: float
    p2p_std: float


@dataclass(frozen=True)
class SweepResult:
    rows: list[SweepRow]

    CSV_HEADER = (
        "frequency_hz,amplitude_deg,fin_state,mean_speed_mps,speed_std,"
        "mean_power_w,power_std,cot,cot_std,p2p_yaw_deg,p2p_std"
    )

    def to_csv(self) -> str:
        return _csv_table(self.CSV_HEADER, self.rows)


def _csv_table(header: str, rows) -> str:
    """The header, then each dataclass row's fields in order, numbers to 9 significant digits."""
    lines = [header] + [
        ",".join(v if isinstance(v, str) else format(v, ".9g") for v in astuple(r)) for r in rows
    ]
    return "\n".join(lines) + "\n"


def _erection(fin_state: str) -> float:
    if fin_state not in FIN_STATES:
        raise DomainError(f"fin state must be one of {FIN_STATES}, got {fin_state!r}")
    return 1.0 if fin_state == "erect" else 0.0


def _aggregate(
    env: RunEnvironment,
    frequency: float,
    amplitude: float,
    fin_state: str,
    duration: float,
    repeats: int,
    base_seed: int,
    keep_records: list | None = None,
) -> SweepRow:
    """Mean and population std of each metric over `repeats` seeded runs of one cell.

    Repeat `rep` runs with seed `base_seed + rep`. Without sensor noise the
    seed is never read, so every repeat is the same trajectory: only repeat 0
    is simulated, its metrics stand for all `repeats`, and the stds are 0.
    """
    gait = GaitCommand(
        frequency=frequency,
        amplitude=amplitude,
        fin_erection_setpoint=_erection(fin_state),
    )
    runs = repeats if env.noise.enabled else 1
    speeds, powers, cots, p2ps = [], [], [], []
    for rep in range(repeats):
        if rep < runs:
            try:
                records = run_condition(env, gait, duration, base_seed + rep)
            except SimulationFault as exc:
                raise MorphfinError(
                    f"sweep aborted: condition (f={frequency} Hz, amp={amplitude} deg, "
                    f"{fin_state}) repeat {rep} faulted: {exc}"
                ) from exc
            if keep_records is not None and rep == 0:
                keep_records.append((frequency, amplitude, fin_state, records))
            m = _metrics_with_cot(env, records, frequency)
        speeds.append(m.mean_speed)
        powers.append(m.mean_power)
        cots.append(m.cot)
        p2ps.append(m.p2p_yaw)
    # SweepRow holds each metric's mean, then its std
    stats = [f(v) for v in (speeds, powers, cots, p2ps) for f in (fmean, pstdev)]
    return SweepRow(frequency, amplitude, fin_state, *stats)


def _sweep_rows(
    env: RunEnvironment, spec: ExperimentSpec, kind: str, keep_records: list | None
) -> list[SweepRow]:
    """One aggregated row per (fin state, amplitude, frequency) cell of the grid."""
    if spec.kind != kind:
        raise DomainError(f"spec kind must be {kind}, got {spec.kind!r}")
    spec.validate()
    cells = itertools.product(spec.fin_states, spec.amplitudes, spec.frequencies)
    return [
        _aggregate(
            env,
            frequency,
            amplitude,
            fin_state,
            spec.duration,
            spec.repeats,
            spec.seed + 1000 * run_index,
            keep_records,
        )
        for run_index, (fin_state, amplitude, frequency) in enumerate(cells)
    ]


def run_speed_sweep(
    env: RunEnvironment,
    spec: ExperimentSpec,
    keep_records: list | None = None,
) -> SweepResult:
    """Speed/power/COT over the frequency grid for each fin state."""
    return SweepResult(rows=_sweep_rows(env, spec, "speed_sweep", keep_records))


@dataclass(frozen=True)
class YawConditionRow:
    amplitude: float
    frequency: float
    folded_p2p: float
    erect_p2p: float
    improvement_pct: float


@dataclass(frozen=True)
class YawStudyReport:
    table: list[YawConditionRow]

    CSV_HEADER = "amplitude_deg,frequency_hz,folded_p2p_deg,erect_p2p_deg,improvement_pct"

    def table_csv(self) -> str:
        return _csv_table(self.CSV_HEADER, self.table)


def run_yaw_study(
    env: RunEnvironment,
    spec: ExperimentSpec,
    keep_records: list | None = None,
) -> YawStudyReport:
    """Peak-to-peak yaw per gait condition, folded vs erect fin."""
    rows = _sweep_rows(env, spec, "yaw_study", keep_records)
    table = []
    p2p = {(r.amplitude, r.frequency, r.fin_state): r.p2p_yaw for r in rows}
    for amplitude, frequency in itertools.product(spec.amplitudes, spec.frequencies):
        folded, erect = p2p[(amplitude, frequency, "folded")], p2p[(amplitude, frequency, "erect")]
        table.append(
            YawConditionRow(amplitude, frequency, folded, erect, improvement(folded, erect))
        )
    return YawStudyReport(table=table)


_STILL_GAIT = GaitCommand(frequency=0.0, amplitude=0.0)
_SETTLING_BAND = 0.02  # a step settles within this fraction of its size


@dataclass(frozen=True)
class DepthStepReport:
    start_time: float
    target: float
    settling_time: float | None  # s from step start; None if never settled
    overshoot_pct: float


def run_depth_step(
    env: RunEnvironment,
    schedule: list[tuple[float, float]],
    duration: float,
    seed: int = 0,
    *,
    initial_depth: float,
) -> tuple[list[TelemetryRecord], list[DepthStepReport]]:
    """Closed-loop depth tracking of a target schedule by a still fish, with per-step analysis."""
    if not schedule:
        raise DomainError("schedule must be nonempty")
    records = run_condition(
        env,
        _STILL_GAIT,
        duration,
        seed,
        initial_state=FishState(depth=initial_depth),
        depth_schedule=step_schedule(list(schedule)),
    )
    ordered = sorted(schedule)
    reports = []
    for i, (t_start, target) in enumerate(ordered):
        t_end = ordered[i + 1][0] if i + 1 < len(ordered) else records[-1].time_s
        seg = [r for r in records if t_start <= r.time_s <= t_end]
        if not seg:
            continue
        step_size = abs(target - seg[0].depth_m)
        band = _SETTLING_BAND * (step_size if step_size > 0.0 else max(target, 1.0))
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
        reports.append(DepthStepReport(t_start, target, settled, overshoot))
    return records, reports


# --- calibration ---------------------------------------------------------

OBSERVABLES = ("top_speed", "cot_at_fmax", "p2p_yaw")

# Parameters the default calibration is allowed to move, with bounds.
DEFAULT_BOUNDS: dict[str, tuple[float, float]] = {
    "thrust_coeff": (0.01, 1.0),
    "tail_reaction_coeff": (0.005, 0.5),
    "yaw_damping_body": (0.01, 2.0),
    "yaw_damping_fin": (0.0, 2.0),
    "efficiency": (0.05, 1.0),
}

_POWER_FIELDS = {"efficiency", "idle_power"}


@dataclass(frozen=True)
class CalibrationTarget:
    name: str
    observable: str  # top_speed | cot_at_fmax | p2p_yaw
    frequency: float
    amplitude: float
    fin_state: str
    value: float
    weight: float = 1.0

    def validate(self) -> None:
        if self.observable not in OBSERVABLES:
            raise ConfigError(f"unknown observable {self.observable!r}", self.name)
        if not (self.value > 0.0 and self.weight > 0.0):
            raise ConfigError("value and weight must be > 0", self.name)
        _erection(self.fin_state)


def default_targets() -> list[CalibrationTarget]:
    """The nine published anchors: top speed, two COT values, six yaw pairs."""
    targets = [
        CalibrationTarget("top_speed", "top_speed", 2.5, 20.0, "folded", 0.225, 4.0),
        CalibrationTarget("cot_folded_fmax", "cot_at_fmax", 2.33, 20.0, "folded", 1.42, 2.0),
        CalibrationTarget("cot_erect_fmax", "cot_at_fmax", 2.33, 20.0, "erect", 1.32, 2.0),
    ]
    # one yaw cell per condition, alternating fin states so both damping
    # coefficients are constrained; the flagship 20 deg / 1 Hz pair gets both
    # states and extra weight
    yaw_cells = [
        (10.0, 0.5, "folded", 7.65, 1.0),
        (10.0, 1.0, "erect", 6.99, 1.0),
        (20.0, 1.0, "folded", 18.47, 3.0),
        (20.0, 1.0, "erect", 14.01, 3.0),
        (30.0, 0.5, "erect", 23.32, 1.0),
        (30.0, 1.0, "folded", 26.47, 1.0),
    ]
    return targets + [
        CalibrationTarget(f"p2p_{int(amp)}deg_{freq}hz_{fin}", "p2p_yaw", freq, amp, fin, value, w)
        for amp, freq, fin, value, w in yaw_cells
    ]


@dataclass(frozen=True)
class CalibrationResult:
    parameters: dict[str, float]
    loss_trace: list[float]
    residuals: dict[str, float]  # relative residual per target


def _observable_duration(observable: str, frequency: float) -> float:
    if observable == "p2p_yaw":
        transient = max(TRANSIENT_SECONDS, TRANSIENT_CYCLES / frequency)
        return transient + 8.0 / frequency
    return 25.0


def evaluate_targets(
    env: RunEnvironment, targets: Sequence[CalibrationTarget], seed: int = 0
) -> dict[str, float]:
    """Simulated value of each target observable; one run per unique condition."""
    cache: dict[tuple, list[TelemetryRecord]] = {}
    out: dict[str, float] = {}
    for t in targets:
        duration = _observable_duration(t.observable, t.frequency)
        key = (t.frequency, t.amplitude, t.fin_state, duration)
        if key not in cache:
            gait = GaitCommand(
                frequency=t.frequency,
                amplitude=t.amplitude,
                fin_erection_setpoint=_erection(t.fin_state),
            )
            cache[key] = run_condition(env, gait, duration, seed)
        records = cache[key]
        m = _metrics_with_cot(env, records, t.frequency)
        if t.observable == "top_speed":
            out[t.name] = m.mean_speed
        elif t.observable == "cot_at_fmax":
            out[t.name] = m.cot
        else:
            out[t.name] = m.p2p_yaw
    return out


def calibrate(
    targets: Sequence[CalibrationTarget],
    env: RunEnvironment,
    bounds: dict[str, tuple[float, float]],
    *,
    seed: int = 0,
    max_rounds: int = 60,
    step_fraction: float = 0.2,
    tol: float = 1e-3,
    verbose: bool = False,
) -> CalibrationResult:
    """Minimize the weighted sum of squared relative residuals.

    The free parameters are the names in `bounds`, in its order; each starts
    from its value in `env.power` (efficiency, idle_power) or `env.params`.
    Derivative-free coordinate descent: probe each free parameter up and down
    by its current step, accept improvements, halve all steps after a sweep
    with no improvement. A trial point whose simulation faults scores +inf.
    """
    if not targets:
        raise DomainError("need at least one calibration target")
    for t in targets:
        t.validate()
    names = list(bounds)
    current = {n: getattr(env.power if n in _POWER_FIELDS else env.params, n) for n in names}
    for n in names:
        lo, hi = bounds[n]
        if not (lo <= current[n] <= hi):
            raise ConfigError(f"initial {n}={current[n]} outside [{lo}, {hi}]", n)

    def loss_of(values: dict[str, float]) -> tuple[float, dict[str, float]]:
        fish = {k: v for k, v in values.items() if k not in _POWER_FIELDS}
        power = {k: v for k, v in values.items() if k in _POWER_FIELDS}
        trial_env = replace(
            env, params=replace(env.params, **fish), power=replace(env.power, **power)
        )
        try:
            simulated = evaluate_targets(trial_env, targets, seed)
        except MorphfinError:
            return math.inf, {}
        residuals = {t.name: (simulated[t.name] - t.value) / t.value for t in targets}
        loss = sum(t.weight * residuals[t.name] ** 2 for t in targets)
        return loss, residuals

    best_loss, best_res = loss_of(current)
    trace = [best_loss]
    steps = {n: step_fraction * (bounds[n][1] - bounds[n][0]) for n in names}

    for _ in range(max_rounds):
        improved = False
        for n in names:
            lo, hi = bounds[n]
            for direction in (1.0, -1.0):
                candidate = dict(current)
                candidate[n] = min(max(current[n] + direction * steps[n], lo), hi)
                if candidate[n] == current[n]:
                    continue
                cand_loss, cand_res = loss_of(candidate)
                if cand_loss < best_loss:
                    current, best_loss, best_res = candidate, cand_loss, cand_res
                    trace.append(best_loss)
                    improved = True
                    if verbose:
                        print(f"  {n} -> {current[n]:.6g}  loss {best_loss:.6g}")
                    break
        if not improved:
            for n in names:
                steps[n] *= 0.5
            if all(steps[n] / (bounds[n][1] - bounds[n][0]) < tol for n in names):
                break
    return CalibrationResult(parameters=current, loss_trace=trace, residuals=best_res)
