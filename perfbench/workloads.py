"""The four benchmark workloads: seeded inputs, the timed operation, output checks.

Every workload is a closed loop with one client: the runner asks for the next
input, times one call of `run`, then checks the output outside the timed
region. Inputs come only from the workload seed and the constants below,
which restate the paper's protocol grids so that a change to the program's
own constants cannot change what the benchmark asks for.

Output checks have three parts:

* invariants, on every seed: finite values, depth >= 0, record counts, and a
  telemetry round trip equal to the written records at 9 significant digits;
* a comparison with `reference.json`, written by `make_reference.py` at the
  seed commit, with a tolerance that float reassociation passes and any
  change to the model does not;
* a sha256 of the output bits, reported as information only.
"""

from __future__ import annotations

import array
import dataclasses
import hashlib
import json
import math
import os
import random
from pathlib import Path

DEFAULT_SEED = 0
RTOL = 1e-9
ATOL = 1e-12
REFERENCE_PATH = Path(__file__).with_name("reference.json")

DURATION_S = 25.0
SWEEP_FREQUENCIES_HZ = (0.8, 0.97, 1.14, 1.31, 1.48, 1.65, 1.82, 1.99, 2.16, 2.33)
YAW_FREQUENCIES_HZ = (0.5, 1.0)
AMPLITUDES_DEG = (10.0, 20.0, 30.0)
SWEEP_AMPLITUDE_DEG = 20.0
SWEEP_REPEATS = 5
FIN_STATES = ("folded", "erect")
ERECTION = {"folded": 0.0, "erect": 1.0}

GAIT_GRID = [
    (f, a, fin)
    for f in sorted(SWEEP_FREQUENCIES_HZ + YAW_FREQUENCIES_HZ)
    for a in AMPLITUDES_DEG
    for fin in FIN_STATES
]
SWEEP_GRID = [(f, fin) for f in SWEEP_FREQUENCIES_HZ for fin in FIN_STATES]

# Calibration parameters and the bounds the fit may move them in (the
# program's DEFAULT_BOUNDS); each operation scales every fitted value by a
# seeded factor in [1 - PERTURBATION, 1 + PERTURBATION], clipped to the bounds.
CALIBRATION_BOUNDS = {
    "thrust_coeff": (0.01, 1.0),
    "tail_reaction_coeff": (0.005, 0.5),
    "yaw_damping_body": (0.01, 2.0),
    "yaw_damping_fin": (0.0, 2.0),
    "efficiency": (0.05, 1.0),
}
POWER_FIELDS = ("efficiency",)
PERTURBATION = 0.1
# Calibration inputs are continuous, so the reference holds the first
# operations of the default seed only; later ones get the invariant checks.
CALIBRATION_REFERENCE_OPS = 16

_DEG = math.pi / 180.0


@dataclasses.dataclass(frozen=True)
class OpInput:
    key: str  # names the input in reference.json and in the report
    args: tuple  # what the timed call receives
    steps: int  # simulated RK4 steps the operation requests (duration / dt)


def gait_key(frequency: float, amplitude: float, fin_state: str) -> str:
    return f"{frequency:g}Hz/{amplitude:g}deg/{fin_state}"


def sim_steps(duration: float, dt: float) -> int:
    return round(duration / dt)


def expected_record_count(duration: float, dt: float, record_every: int) -> int:
    n_steps = math.ceil(duration / dt)
    return 1 + n_steps // record_every + (1 if n_steps % record_every else 0)


def bits_sha256(values) -> str:
    # an array holds the doubles without a Python object each, so checking
    # adds little to the run's peak RSS
    return hashlib.sha256(array.array("d", values)).hexdigest()


def record_values(records):
    for r in records:
        yield from r.__dict__.values()


def compare(expected, actual, path: str = "") -> list[str]:
    """Differences between a reference value and an output, within RTOL/ATOL."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(expected) != set(actual):
            return [f"{path}: keys differ from the reference"]
        return [p for k in expected for p in compare(expected[k], actual[k], f"{path}.{k}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(expected) != len(actual):
            return [f"{path}: length differs from the reference"]
        return [p for i, (e, a) in enumerate(zip(expected, actual)) for p in compare(e, a, f"{path}[{i}]")]
    if isinstance(expected, float):
        if not (isinstance(actual, float) and abs(actual - expected) <= ATOL + RTOL * abs(expected)):
            return [f"{path}: {actual!r} != reference {expected!r}"]
        return []
    if expected != actual:
        return [f"{path}: {actual!r} != reference {expected!r}"]
    return []


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


class Workload:
    """One operation type. Subclasses define inputs, the call and its checks."""

    name = ""

    def __init__(self, prog, env, seed: int, reference: dict, work_dir: Path):
        self.prog = prog
        self.env = env
        self.reference = reference
        self.work_dir = work_dir
        self.rng = random.Random(f"{self.name}:{seed}")

    def close(self) -> None:
        """Remove whatever the operations left in `work_dir`."""

    def inputs(self):
        """Endless input sequence of this seed; operation i takes the i-th."""
        raise NotImplementedError

    def reference_inputs(self):
        """The inputs `reference.json` holds an entry for."""
        raise NotImplementedError

    def run(self, args):
        raise NotImplementedError

    def summary(self, inp: OpInput, out) -> dict:
        """Scientific output compared with the reference."""
        raise NotImplementedError

    def invariants(self, inp: OpInput, out) -> list[str]:
        raise NotImplementedError

    def digest(self, inp: OpInput, out) -> str:
        raise NotImplementedError

    def condition_metrics(self, records, frequency: float) -> dict:
        m = self.prog.xp.condition_metrics(records, frequency)
        p = self.env.params
        return {
            "mean_speed": m.mean_speed,
            "mean_power": m.mean_power,
            "cot": self.prog.metrics.cot(m.mean_power, p.mass, p.gravity, m.mean_speed),
            "p2p_yaw": m.p2p_yaw,
        }

    def gait(self, frequency: float, amplitude: float, fin_state: str):
        return self.prog.control.GaitCommand(
            frequency=frequency, amplitude=amplitude, fin_erection_setpoint=ERECTION[fin_state]
        )

    def _cycle(self, grid):
        order = list(grid)
        self.rng.shuffle(order)
        while True:
            yield from order


def _nonfinite(values) -> bool:
    return not all(math.isfinite(v) for v in values)


class ClosedLoopRun(Workload):
    """One 25 s `run_condition` of a seed-drawn gait at the default config."""

    name = "closed_loop_run"

    def _input(self, f, amp, fin, run_seed):
        return OpInput(gait_key(f, amp, fin), (f, self.gait(f, amp, fin), run_seed), sim_steps(DURATION_S, self.env.dt))

    def inputs(self):
        for f, amp, fin in self._cycle(GAIT_GRID):
            yield self._input(f, amp, fin, self.rng.randrange(2**31))

    def reference_inputs(self):
        return [self._input(f, amp, fin, 0) for f, amp, fin in GAIT_GRID]

    def run(self, args):
        _, gait, run_seed = args
        return self.prog.xp.run_condition(self.env, gait, DURATION_S, run_seed)

    def summary(self, inp, records):
        return {
            "metrics": self.condition_metrics(records, inp.args[0]),
            "last_record": list(records[-1].__dict__.values()),
        }

    def invariants(self, inp, records):
        problems = []
        want = expected_record_count(DURATION_S, self.env.dt, self.env.record_every)
        if len(records) != want:
            problems.append(f"{len(records)} records, expected {want}")
        if _nonfinite(record_values(records)):
            problems.append("non-finite telemetry value")
        if any(r.depth_m < 0.0 for r in records):
            problems.append("negative depth")
        return problems

    def digest(self, inp, records):
        return bits_sha256(record_values(records))


class ProtocolSweep(Workload):
    """One speed-sweep cell: a seed-drawn frequency x fin state x 5 repeats."""

    name = "protocol_sweep"

    def _input(self, f, fin, spec_seed):
        spec = self.prog.xp.ExperimentSpec(
            kind="speed_sweep",
            frequencies=[f],
            amplitudes=[SWEEP_AMPLITUDE_DEG],
            fin_states=[fin],
            repeats=SWEEP_REPEATS,
            duration=DURATION_S,
            seed=spec_seed,
        )
        key = gait_key(f, SWEEP_AMPLITUDE_DEG, fin)
        return OpInput(key, (spec,), SWEEP_REPEATS * sim_steps(DURATION_S, self.env.dt))

    def inputs(self):
        for f, fin in self._cycle(SWEEP_GRID):
            yield self._input(f, fin, self.rng.randrange(2**31))

    def reference_inputs(self):
        return [self._input(f, fin, 0) for f, fin in SWEEP_GRID]

    def run(self, args):
        return self.prog.xp.run_speed_sweep(self.env, args[0])

    def summary(self, inp, result):
        return {"rows": [dataclasses.asdict(r) for r in result.rows]}

    def invariants(self, inp, result):
        spec = inp.args[0]
        if len(result.rows) != 1:
            return [f"{len(result.rows)} sweep rows, expected 1"]
        row = result.rows[0]
        problems = []
        if (row.frequency, row.amplitude, row.fin_state) != (
            spec.frequencies[0], spec.amplitudes[0], spec.fin_states[0]
        ):
            problems.append("sweep row is for another condition")
        numbers = [v for v in dataclasses.asdict(row).values() if isinstance(v, float)]
        if _nonfinite(numbers):
            problems.append("non-finite sweep value")
        if not (row.mean_speed > 0.0 and row.mean_power > 0.0 and row.p2p_yaw > 0.0):
            problems.append("sweep speed, power and yaw must be > 0")
        return problems

    def digest(self, inp, result):
        row = result.rows[0]
        return bits_sha256(v for v in dataclasses.asdict(row).values() if isinstance(v, float))


class CalibrationEval(Workload):
    """One `evaluate_targets` over `default_targets()` at perturbed parameters."""

    name = "calibration_eval"

    def __init__(self, *args):
        super().__init__(*args)
        self.targets = self.prog.xp.default_targets()

    def _input(self, rng):
        values = {}
        for name, (lo, hi) in CALIBRATION_BOUNDS.items():
            source = self.env.power if name in POWER_FIELDS else self.env.params
            scale = 1.0 + rng.uniform(-PERTURBATION, PERTURBATION)
            values[name] = min(max(getattr(source, name) * scale, lo), hi)
        fish = {k: v for k, v in values.items() if k not in POWER_FIELDS}
        power = {k: v for k, v in values.items() if k in POWER_FIELDS}
        env = dataclasses.replace(
            self.env,
            params=dataclasses.replace(self.env.params, **fish),
            power=dataclasses.replace(self.env.power, **power),
        )
        key = ",".join(f"{k}={v!r}" for k, v in values.items())
        return OpInput(key, (env, rng.randrange(2**31)), self._steps())

    def _steps(self):
        # evaluate_targets runs each distinct (gait, duration) once; a yaw
        # target runs max(5 s, 5 cycles) of transient plus 8 cycles, the rest 25 s
        conditions = set()
        for t in self.targets:
            if t.observable == "p2p_yaw":
                duration = max(5.0, 5.0 / t.frequency) + 8.0 / t.frequency
            else:
                duration = DURATION_S
            conditions.add((t.frequency, t.amplitude, t.fin_state, duration))
        return sum(sim_steps(c[3], self.env.dt) for c in conditions)

    def inputs(self):
        while True:
            yield self._input(self.rng)

    def reference_inputs(self):
        rng = random.Random(f"{self.name}:{DEFAULT_SEED}")
        return [self._input(rng) for _ in range(CALIBRATION_REFERENCE_OPS)]

    def run(self, args):
        env, run_seed = args
        return self.prog.xp.evaluate_targets(env, self.targets, run_seed)

    def summary(self, inp, values):
        return {"targets": dict(values)}

    def invariants(self, inp, values):
        problems = []
        if set(values) != {t.name for t in self.targets}:
            problems.append("target names differ from default_targets()")
        if _nonfinite(values.values()) or not all(v > 0.0 for v in values.values()):
            problems.append("target values must be finite and > 0")
        return problems

    def digest(self, inp, values):
        return bits_sha256(values[k] for k in sorted(values))


def synthesize_telemetry(record_type, frequency, amplitude, fin_state, dt=1e-3):
    """1 kHz telemetry of a straight swim at the given gait, built without the simulator.

    Surge rises to a speed quadratic in frequency x amplitude, yaw and the
    servo oscillate at the gait frequency (yaw less with the fin erect), and
    depth and syringe volume drift slowly about the depth-hold set point.
    """
    w = 2.0 * math.pi * frequency
    u_top = 0.036 * frequency * amplitude / 20.0 * (1.0 + frequency)
    yaw_amp = 0.5 * amplitude * (1.0 - 0.25 * ERECTION[fin_state]) / (1.0 + frequency)
    records = []
    x = y = 0.0
    for i in range(sim_steps(DURATION_S, dt) + 1):
        t = i * dt
        u = u_top * (1.0 - math.exp(-t / 2.0))
        yaw = yaw_amp * math.sin(w * t)
        servo_rate = amplitude * w * math.cos(w * t + 0.3) * _DEG
        torque = 0.0784 * servo_rate * servo_rate
        records.append(
            record_type(
                time_s=t,
                x_m=x,
                y_m=y,
                depth_m=0.2 + 0.002 * math.sin(0.7 * t),
                yaw_deg=yaw,
                yaw_rate_dps=yaw_amp * w * math.cos(w * t),
                surge_mps=u,
                sway_mps=0.05 * u * math.sin(w * t),
                servo_deg=amplitude * math.sin(w * t + 0.3),
                torque_nm=torque,
                power_w=torque * abs(servo_rate) / 0.74 + 0.5,
                erection=ERECTION[fin_state],
                syringe_ml=30.0 + 0.4 * math.sin(0.5 * t),
            )
        )
        x += u * math.cos(yaw * _DEG) * dt
        y += u * math.sin(yaw * _DEG) * dt
    return records


class TelemetryRoundtrip(Workload):
    """write_telemetry, read_telemetry, then condition_metrics + cot (the replay path)."""

    name = "telemetry_roundtrip"

    def __init__(self, *args):
        super().__init__(*args)
        self.path = self.work_dir / f"telemetry-{os.getpid()}.csv"
        self._rounded = ("", "")  # (input key, digest of its records at 9 significant digits)

    def _rounded_digest(self, inp) -> str:
        # every operation of a run writes the same records, so this is computed once
        if self._rounded[0] != inp.key:
            written = record_values(inp.args[1])
            self._rounded = (inp.key, bits_sha256(float(format(v, ".9g")) for v in written))
        return self._rounded[1]

    def close(self):
        self.path.unlink(missing_ok=True)

    def _input(self, f, amp, fin):
        records = synthesize_telemetry(self.prog.telemetry.TelemetryRecord, f, amp, fin)
        return OpInput(gait_key(f, amp, fin), (f, records), sim_steps(DURATION_S, 1e-3))

    def inputs(self):
        # one input per run, generated before timing starts
        inp = self._input(*self.rng.choice(GAIT_GRID))
        while True:
            yield inp

    def reference_inputs(self):
        for f, amp, fin in GAIT_GRID:
            yield self._input(f, amp, fin)

    def run(self, args):
        frequency, records = args
        nbytes = self.prog.telemetry.write_telemetry(records, self.path)
        back = self.prog.telemetry.read_telemetry(self.path)
        m = self.prog.xp.condition_metrics(back, frequency)
        p = self.env.params
        value = self.prog.metrics.cot(m.mean_power, p.mass, p.gravity, m.mean_speed)
        return nbytes, back, m, value

    def summary(self, inp, out):
        _, back, _, _ = out
        return {"metrics": self.condition_metrics(back, inp.args[0]), "records": len(back)}

    def invariants(self, inp, out):
        nbytes, back, m, value = out
        written = inp.args[1]
        problems = []
        if nbytes != self.path.stat().st_size:
            problems.append(f"write_telemetry returned {nbytes}, file has {self.path.stat().st_size} bytes")
        if len(back) != len(written):
            return problems + [f"read {len(back)} records, wrote {len(written)}"]
        if bits_sha256(record_values(back)) != self._rounded_digest(inp):
            problems.append("read records differ from the written ones at 9 significant digits")
        if _nonfinite(record_values(back)) or any(r.depth_m < 0.0 for r in back):
            problems.append("read records must be finite with depth >= 0")
        if _nonfinite([m.mean_speed, m.mean_power, m.p2p_yaw, value]):
            problems.append("non-finite replay metric")
        return problems

    def digest(self, inp, out):
        return hashlib.sha256(self.path.read_bytes()).hexdigest()


WORKLOADS = {
    w.name: w for w in (ClosedLoopRun, ProtocolSweep, CalibrationEval, TelemetryRoundtrip)
}
