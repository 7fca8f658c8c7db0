"""morphfin benchmark: one workload, one process, one closed-loop client.

Run from the repository root:

    python3 perfbench/run.py --workload closed_loop_run --seed 0 --seconds 20 --trace 0

The program is imported from `src/` of the checkout this file sits in. The
run first starts the host-speed helpers (hostspeed.py), then sets the program
up in this interpreter. It generates the workload's inputs from `--seed`,
then starts one operation after another until `--seconds` have passed,
timing each call and checking each output outside the timed region. Spread
over the same seconds it times `SETUPS` cold set-ups (import,
`load_default_config`, `RunEnvironment`), each in a fresh interpreter
(program.py).

The last line of standard output is the result object the benchmark contract
fixes: `correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`). The line before it
is a report with the run environment, sample counts, failures and the sha256
of every output. With `--trace 1` every even-numbered operation runs plain and
every odd-numbered one runs traced, so the tracing overhead is the traced
minus the plain median of one run; the spans go to `perfbench/_work/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed  # sibling modules; this file runs as a script
import program
import workloads
from program import SRC
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
NPROC = len(os.sched_getaffinity(0))  # before HostSpeed pins the run to one CPU

MIN_P75_TAIL = 10  # samples above p75 needed before p75 is reported
SETUPS = 9  # cold set-ups per run, each in a fresh interpreter


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "morphfin").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": NPROC,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def timing_summary(values: list[float]) -> dict:
    """Median, and p75 when at least MIN_P75_TAIL samples lie above it."""
    out = {"samples": len(values), "p50": statistics.median(values), "p75": None, "values": values}
    if len(values) >= 2:
        p75 = statistics.quantiles(values, n=4)[2]
        if sum(v > p75 for v in values) >= MIN_P75_TAIL:
            out["p75"] = p75
    return out


class Run:
    """What one run measured: raw intervals during the run, normalized times
    after it (see hostspeed.py); `host_*` keep the raw host seconds."""

    def __init__(self):
        self.ops: list[tuple[float, float, bool, int]] = []  # start, end, traced, requested steps
        self.setups: list[dict] = []  # cold set-ups, each timed in a fresh interpreter
        self.failures: list[dict] = []
        self.outputs: list[dict] = []
        self.attempted = 0

    def normalize(self, timeline: hostspeed.Timeline, tracer: Tracer | None) -> None:
        """Take the helpers' CPU time off every interval and rescale the rest."""
        self.plain, self.traced, self.steps_per_s, self.host_plain = [], [], [], []
        traced_ops = iter(tracer.ops if tracer else ())
        for start, end, traced, steps in self.ops:
            busy, scale = timeline.correct(start, end)
            elapsed = (end - start - busy) * scale
            if traced:
                scale_op(next(traced_ops), elapsed / (end - start))
                self.traced.append(elapsed)
            else:
                self.plain.append(elapsed)
                self.host_plain.append(end - start)
                self.steps_per_s.append(steps / elapsed)
        self.setup_s, self.config_s = [], []
        for setup in self.setups:
            busy, scale = timeline.correct(setup["start"], setup["end"])
            host = setup["end"] - setup["start"]
            self.setup_s.append((host - busy) * scale)
            self.config_s.append(setup["config_s"] * (host - busy) / host * scale)
        self.host_setup_s = [s["end"] - s["start"] for s in self.setups]


def scale_op(op: dict, factor: float) -> None:
    """Normalize one traced operation's times as its operation time was normalized."""
    op["op_s"] *= factor
    op["self_s"] = {name: t * factor for name, t in op["self_s"].items()}


def measure_setup(run: Run) -> None:
    """One cold set-up, timed inside a fresh interpreter."""
    proc = subprocess.run([sys.executable, str(HERE / "program.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    run.setups.append(json.loads(proc.stdout.splitlines()[-1]))


def measure(run: Run, workload, seconds: float, tracer: Tracer | None) -> None:
    """Closed loop: the next operation starts when the previous one has been checked.

    Between operations the run makes cold set-ups, spread over the run so
    that SETUPS are done by the deadline. An operation starts only if one
    more loop is expected to end by the deadline; there is always at least
    one operation, and with tracing one plain and one traced.
    """
    inputs = workload.inputs()
    inp = next(inputs)  # input generation before timing starts
    start_run = time.perf_counter()
    deadline = start_run + seconds
    while True:
        trace_this = tracer is not None and run.attempted % 2 == 1
        problems = []
        out = None
        start = time.perf_counter()
        if trace_this:
            tracer.begin(run.attempted)
        try:
            out = workload.run(inp.args)
        except Exception as exc:  # a raising operation is a failed one; keep measuring
            problems.append(f"raised {type(exc).__name__}: {exc}")
        finally:
            if trace_this:
                tracer.end()
            run.ops.append((start, time.perf_counter(), trace_this, inp.steps))
        if out is not None:
            problems += workload.invariants(inp, out)
            expected = workload.reference.get(inp.key)
            if expected is not None:
                problems += workloads.compare(expected, workload.summary(inp, out))
            run.outputs.append({"op": run.attempted, "input": inp.key, "sha256": workload.digest(inp, out),
                                "checked_against_reference": expected is not None})
        if problems:
            run.failures.append({"op": run.attempted, "input": inp.key, "problems": problems[:5]})
        del out
        run_share = (time.perf_counter() - start_run) / seconds if seconds > 0 else 0.0
        while len(run.setups) < min(SETUPS, SETUPS * run_share):
            measure_setup(run)
        run.attempted += 1
        now = time.perf_counter()
        if now + (now - start_run) / run.attempted > deadline and (tracer is None or run.attempted > 1):
            break
        inp = next(inputs)
    while len(run.setups) < SETUPS:
        measure_setup(run)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "morphfin" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'morphfin'}; run from a full checkout", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    with hostspeed.HostSpeed() as speed:  # started before the program is imported
        return run_workload(args, speed)


def run_workload(args, speed: hostspeed.HostSpeed) -> int:
    prog, env, _ = program.set_up()
    if not Path(prog.xp.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported morphfin from {prog.xp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    reference = workloads.load_reference()[args.workload]
    workload = workloads.WORKLOADS[args.workload](prog, env, args.seed, reference, WORK)
    tracer = Tracer(prog) if args.trace else None
    run = Run()
    try:
        measure(run, workload, args.seconds, tracer)
    finally:
        workload.close()
    timeline = speed.stop()
    run.normalize(timeline, tracer)

    timing = timing_summary(run.plain)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "op_s": timing,
        "setup_s": timing_summary(run.setup_s),
        "host": {
            "note": "raw host seconds, before normalizing to the reference kernel's nominal speed",
            "op_s_p50": statistics.median(run.host_plain) if run.host_plain else None,
            "setup_s": timing_summary(run.host_setup_s),
            "kernel_s": {"nominal": hostspeed.NOMINAL_S, **timing_summary([k for _, k in timeline.samples])},
        },
        "failed_frac": len(run.failures) / run.attempted,
        "failures": run.failures[:10],
        "outputs": run.outputs,
    }
    if args.trace:
        metrics = tracer.layer_metrics()
        metrics["config.load_s"] = {"value": statistics.median(run.config_s), "unit": "s"}
        report["traced_op_s"] = timing_summary(run.traced)
        overhead = report["traced_op_s"]["p50"] - timing["p50"]
        metrics["tracing.overhead_s"] = {"value": overhead, "unit": "s"}
        dump = WORK / f"spans-{args.workload}-seed{args.seed}.json"
        dump.write_text(json.dumps(tracer.dump()))
        report["spans_file"] = str(dump.relative_to(ROOT))
    else:
        metrics = {
            "sim_steps_per_s": {"value": statistics.median(run.steps_per_s), "unit": "1/s"},
            "op_s_p50": {"value": timing["p50"], "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            "setup_s": {"value": report["setup_s"]["p50"], "unit": "s"},
        }
    print(json.dumps(report))
    result = {"correct": not run.failures, "attempted": run.attempted, "failed": len(run.failures), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
