"""Experiment protocols and surrogate-coefficient calibration.

The speed/COT sweep and the yaw-stability study mirror the published
protocols (10 frequencies x 2 fin states x 5 repeats; 6 gait conditions x
2 fin states). Calibration fits surrogate coefficients to the published
anchors by derivative-free coordinate descent with shrinking steps.
"""

from __future__ import annotations

import itertools
import math
import reprlib
import sys
from bisect import bisect_left, bisect_right
from dataclasses import astuple, dataclass, field, replace
from functools import reduce
from operator import add
from typing import Sequence

from .control import (
    MAX_AMPLITUDE_DEG, BuoyancyState, DepthSchedule, GaitCommand, PidGains, step_schedule,
)
from .controllers import SwimController
from .errors import (
    ConfigError, DomainError, InsufficientDataError, MorphfinError, SimulationFault,
)
from .hydro import _STATE_FIELDS, YAW_FIELDS, FishParams, FishState, simulate
from .metrics import PowerModel, cot, improvement, steady_window, transient
from .telemetry import Telemetry

FIN_STATES = ("folded", "erect")

DEFAULT_FREQUENCIES = [round(0.80 + 0.17 * i, 2) for i in range(10)]  # 0.80..2.33 Hz
YAW_FREQUENCIES = [0.5, 1.0]
YAW_AMPLITUDES = [10.0, 20.0, 30.0]


def _check_gaits(frequencies, amplitudes, frequency_field: str, amplitude_field: str) -> None:
    """The gait rule of sweeps and calibration targets, raised as a ConfigError."""
    if not frequencies or not all(f > 0.0 for f in frequencies):
        raise ConfigError("frequencies must be positive", frequency_field)
    if not all(map(math.isfinite, frequencies)):
        raise ConfigError("frequencies must be finite", frequency_field)
    # a still tail swims nowhere: its COT and yaw improvement are undefined
    if not amplitudes or not all(0.0 < a <= MAX_AMPLITUDE_DEG for a in amplitudes):
        raise ConfigError(f"amplitudes must be in (0, {MAX_AMPLITUDE_DEG:g}] deg", amplitude_field)


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
            raise ConfigError(f"unknown kind {reprlib.repr(self.kind)}", "experiment.kind")
        # a cell runs once whatever its repeats; this bound only keeps the set of
        # configs that load as it was when each repeat drew its own seed
        if not 1 <= self.repeats <= 1000:
            raise ConfigError("repeats must be in [1, 1000]", "experiment.repeats")
        _check_gaits(
            self.frequencies, self.amplitudes, "experiment.frequencies", "experiment.amplitudes"
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
        # each cell's telemetry file is named after it, so no two cells may share a name
        first = (self.frequencies[0], self.amplitudes[0], self.fin_states[0])
        for axis, key in enumerate(("frequencies", "amplitudes", "fin_states")):
            seen: dict[str, object] = {}
            for value in getattr(self, key):
                name = cell_name(*first[:axis], value, *first[axis + 1 :])
                if name in seen:
                    message = f"{seen[name]!r} and {value!r} share the cell name {name}"
                    raise ConfigError(message, f"experiment.{key}")
                seen[name] = value


def cell_name(frequency: float, amplitude: float, fin_state: str) -> str:
    """The name of a grid cell in its telemetry file's name."""
    return f"f{frequency:.2f}_a{amplitude:.0f}_{fin_state}"


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
    pid: PidGains
    buoyancy: BuoyancyState
    dt: float
    record_every: int
    control_period: float
    depth_resolution: float
    depth_hold: bool
    target_depth: float
    noise: float  # the depth sensor's noise std in m; 0.0 draws none


def run_condition(
    env: RunEnvironment,
    gait: GaitCommand,
    duration: float,
    seed: int,
    *,
    initial_state: FishState | None = None,
    depth_schedule: DepthSchedule | None = None,
    fields: tuple[str, ...] = _STATE_FIELDS,
) -> Telemetry:
    """One seeded simulation of a single gait condition, integrating the state `fields`.

    The depth loop tracks `depth_schedule` when one is given; otherwise, with
    `env.depth_hold`, it holds `env.target_depth`, by default from a start at that depth.
    That target is constant, so the controller's `open_loop` is its gait too, and simulate
    runs the gait's law alone after step 0 if step 0 leaves the loop at rest.
    """
    if constant := depth_schedule is None and env.depth_hold:
        depth_schedule = step_schedule([(0.0, env.target_depth)])
        initial_state = initial_state or FishState(depth=env.target_depth)
    controller = SwimController(env, gait, depth_schedule, seed)
    if constant:  # a fresh loop of a constant target: simulate may run the law after step 0
        controller.open_loop = gait
    return simulate(env.params, controller, duration, env.dt, initial_state=initial_state,
                    power_model=env.power, record_every=env.record_every, fields=fields)


@dataclass(frozen=True)
class ConditionMetrics:
    mean_speed: float
    mean_power: float
    cot: float
    p2p_yaw: float


def condition_metrics(
    records: Telemetry, frequency: float, *, mass: float | None = None, gravity: float | None = None
) -> ConditionMetrics:
    """Steady-window metrics of one run; `cot` is NaN unless `mass` and `gravity` are given.

    The speed is the net planar displacement between the window's first and
    last records over their elapsed time, as timing a traverse of a known
    pool length does; the power is the window's mean; the yaw is its max
    minus min, over a window of at least 3 gait cycles.
    """
    times = records.column("time_s")
    t0, t1 = steady_window(times[0], times[-1], frequency)
    # times never decrease, so this is the window t0 <= time_s <= t1
    a, b = bisect_left(times, t0), bisect_right(times, t1)
    if b - a < 2:
        raise InsufficientDataError("window contains fewer than 2 samples")
    first, last = records[a], records[b - 1]
    elapsed = last.time_s - first.time_s
    if elapsed <= 0.0:
        raise InsufficientDataError("window elapsed time is zero")
    speed = math.hypot(last.x_m - first.x_m, last.y_m - first.y_m) / elapsed
    # left to right, as sum() added floats up to Python 3.11 (it compensates from 3.12 on)
    power = reduce(add, records.column("power_w")[a:b], 0.0) / (b - a)
    if frequency > 0.0 and (t1 - t0) < 3.0 / frequency:
        raise InsufficientDataError(
            f"window of {t1 - t0:.3f} s holds fewer than 3 cycles at {frequency} Hz"
        )
    yaws = records.column("yaw_deg")[a:b]
    value = math.nan if mass is None or gravity is None else cot(power, mass, gravity, speed)
    return ConditionMetrics(speed, power, value, max(yaws) - min(yaws))


def _metrics_with_cot(env: RunEnvironment, records: Telemetry, frequency: float):
    return condition_metrics(records, frequency, mass=env.params.mass, gravity=env.params.gravity)


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


def _sweep_rows(
    env: RunEnvironment, spec: ExperimentSpec, kind: str, keep_records: list | None
) -> list[SweepRow]:
    """One row per (fin state, amplitude, frequency) cell of the grid, from one run of the cell.

    Cell `i` runs once, with seed `spec.seed + 1000*i`. The seed and the sensor
    noise reach only the depth loop, and no metric reads depth, so the one run
    stands for all `spec.repeats`, and each std is 0. `keep_records` only collects the runs.
    """
    if spec.kind != kind:
        raise DomainError(f"spec kind must be {kind}, got {spec.kind!r}")
    spec.validate()
    rows = []
    cells = itertools.product(spec.fin_states, spec.amplitudes, spec.frequencies)
    for i, (fin_state, amplitude, frequency) in enumerate(cells):
        gait = GaitCommand(frequency, amplitude, fin_erection_setpoint=_erection(fin_state))
        try:
            records = run_condition(env, gait, spec.duration, spec.seed + 1000 * i)
            m = _metrics_with_cot(env, records, frequency)
        except SimulationFault as exc:
            raise MorphfinError(
                f"sweep aborted: condition (f={frequency} Hz, amp={amplitude} deg, "
                f"{fin_state}) faulted: {exc}"
            ) from exc
        if keep_records is not None:
            keep_records.append((frequency, amplitude, fin_state, records))
        stats = [x for v in astuple(m) for x in (v, 0.0)]  # each metric, then its std
        rows.append(SweepRow(frequency, amplitude, fin_state, *stats))
    return rows


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
) -> tuple[Telemetry, list[DepthStepReport]]:
    """Closed-loop depth tracking of a target schedule by a still fish, with per-step analysis.

    From planar rest the still gait has no thrust or moment: the other fields stay +0.0."""
    records = run_condition(
        env, _STILL_GAIT, duration, seed, initial_state=FishState(depth=initial_depth),
        depth_schedule=step_schedule(list(schedule)), fields=("depth", "heave_vel"))
    ordered = sorted(schedule)
    times, depths = records.column("time_s"), records.column("depth_m")
    reports = []
    for i, (t_start, target) in enumerate(ordered):
        t_end = ordered[i + 1][0] if i + 1 < len(ordered) else times[-1]
        a = bisect_left(times, t_start)
        seg = depths[a : bisect_right(times, t_end)]
        if not seg:
            continue
        step_size = abs(target - seg[0])
        band = _SETTLING_BAND * (step_size if step_size > 0.0 else max(target, 1.0))
        for j in range(len(seg) - 1, -1, -1):
            if abs(seg[j] - target) > band:
                settled = times[a + j + 1] - t_start if j + 1 < len(seg) else None
                break
        else:
            settled = 0.0
        if step_size > 0.0:
            sign = 1.0 if target > seg[0] else -1.0
            signed = [(d - target) * sign for d in seg]
            overshoot = max(0.0, max(signed)) / step_size * 100.0
        else:
            overshoot = 0.0
        reports.append(DepthStepReport(t_start, target, settled, overshoot))
    return records, reports


# --- calibration ---------------------------------------------------------

# each calibration observable and the ConditionMetrics field it reads
OBSERVABLES = {"top_speed": "mean_speed", "cot_at_fmax": "cot", "p2p_yaw": "p2p_yaw"}

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
        _check_gaits([self.frequency], [self.amplitude], self.name, self.name)
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


def evaluate_targets(
    env: RunEnvironment, targets: Sequence[CalibrationTarget], seed: int = 0
) -> dict[str, float]:
    """Simulated value of each target observable, from one run of its condition per target.

    `seed` is accepted and reaches no code: no run has a depth loop (see _evaluate).
    """
    return _evaluate(env, targets, {})


def _evaluate(env, targets, memo: dict) -> dict[str, float]:
    """evaluate_targets, each run's metrics kept in `memo`, or None if the run faulted.

    No metric reads depth, so no run has a depth loop. Each run is a run_condition from rest,
    on YAW_FIELDS alone for a p2p_yaw target, as yaw reads no other state. A key holds what
    reaches the metric: the damping pair folded to the body + e*fin read at erection e (a nan
    fold, inf*0, never hits), and for a yaw run YAW_FIELDS in place of the unread PowerModel.
    """
    env = replace(env, depth_hold=False)
    p = env.params
    p.validate()  # a folded damping pair could hide a negative one
    out = {}
    for t in targets:
        e = _erection(t.fin_state)
        yaw = t.observable == "p2p_yaw"
        duration = transient(t.frequency) + 8.0 / t.frequency if yaw else 25.0
        fish = replace(p, yaw_damping_body=p.yaw_damping_body + e * p.yaw_damping_fin,
                       yaw_damping_fin=0.0)
        key = (fish, YAW_FIELDS if yaw else env.power, t.frequency, t.amplitude, e, duration,
               env.dt, env.record_every)
        if key not in memo:
            memo[key] = None  # stays None if the run faults
            gait = GaitCommand(t.frequency, t.amplitude, fin_erection_setpoint=e)
            records = run_condition(env, gait, duration, 0,
                                    fields=YAW_FIELDS if yaw else _STATE_FIELDS)
            memo[key] = (condition_metrics(records, t.frequency) if yaw  # no move, so no COT
                         else _metrics_with_cot(env, records, t.frequency))
        if memo[key] is None:
            raise MorphfinError(f"{t.name}: an equal run faulted earlier")
        out[t.name] = getattr(memo[key], OBSERVABLES[t.observable])
    return out


def calibrate(
    targets: Sequence[CalibrationTarget],
    env: RunEnvironment,
    bounds: dict[str, tuple[float, float]],
    *,
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
    with no improvement. A trial point whose simulation faults scores +inf,
    and a MorphfinError is raised if no trial scores a finite loss.
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

    memo: dict = {}  # one entry per simulation; see _evaluate

    def loss_of(values: dict[str, float]) -> tuple[float, dict[str, float]]:
        fish = {k: v for k, v in values.items() if k not in _POWER_FIELDS}
        power = {k: v for k, v in values.items() if k in _POWER_FIELDS}
        trial_env = replace(
            env, params=replace(env.params, **fish), power=replace(env.power, **power)
        )
        try:
            simulated = _evaluate(trial_env, targets, memo)
        except MorphfinError:
            return math.inf, {}
        residuals = {t.name: (simulated[t.name] - t.value) / t.value for t in targets}
        loss = reduce(add, (t.weight * residuals[t.name] ** 2 for t in targets), 0.0)
        return loss, residuals

    best_loss, best_res = loss_of(current)
    trace = [best_loss]
    evaluations = 1  # calls of loss_of
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
                evaluations += 1
                if cand_loss < best_loss:
                    current, best_loss, best_res = candidate, cand_loss, cand_res
                    trace.append(best_loss)
                    improved = True
                    if verbose:
                        print(f"  {n} -> {current[n]:.6g}  loss {best_loss:.6g}  simulations "
                              f"{len(memo)}  evaluations {evaluations}", file=sys.stderr)
                    break
        if not improved:
            for n in names:
                steps[n] *= 0.5
            if all(steps[n] / (bounds[n][1] - bounds[n][0]) < tol for n in names):
                break
    if not math.isfinite(best_loss):
        raise MorphfinError(f"calibration failed: no trial of {evaluations} has a finite loss")
    return CalibrationResult(parameters=current, loss_trace=trace, residuals=best_res)
