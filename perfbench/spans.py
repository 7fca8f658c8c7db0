"""Outside-in tracing: span wrappers around the program's public layer entry points.

`Tracer.begin` replaces module attributes of the loaded program with
wrappers for the duration of one operation; `Tracer.end` restores them.
Each wrapper records a span (name, start, end, parent, operation id) in
memory. When an operation ends its spans are reduced to per-name call
counts, total and self time (duration minus the time covered by child
spans), and dropped; the spans of the first traced operation are kept and
written out at the end of the run.
"""

from __future__ import annotations

import hashlib
import inspect
import statistics
import struct
from collections import defaultdict
from time import perf_counter

# (module attribute on the program namespace, attribute, span name). The
# layer is the part of the span name before the dot.
PATCHES = (
    ("xp", "run_condition", "experiments.run_condition"),
    ("xp", "run_speed_sweep", "experiments.run_speed_sweep"),
    ("xp", "evaluate_targets", "experiments.evaluate_targets"),
    ("xp", "simulate", "hydro.simulate"),
    ("controllers.SwimController", "command", "controllers.command"),
    ("controllers", "depth_controller", "control.depth_controller"),
    ("controllers", "apply_volume_rate", "control.apply_volume_rate"),
    ("xp", "condition_metrics", "metrics.condition_metrics"),
    ("xp", "cot", "metrics.cot"),
    ("metrics", "cot", "metrics.cot"),
    ("telemetry", "write_telemetry", "telemetry.write_telemetry"),
    ("telemetry", "read_telemetry", "telemetry.read_telemetry"),
)

LAYERS = ("hydro", "controllers", "control", "experiments", "metrics", "telemetry")

OP = "op"


def _target(prog, path: str):
    head, *rest = path.split(".")
    obj = getattr(prog, head)
    for part in rest:
        obj = getattr(obj, part)
    return obj


class Tracer:
    def __init__(self, prog):
        self.spans: list = []
        self.stack: list[int] = []
        self.op_id = -1
        self.sim_outputs: list = []
        self.first_op_spans: list = []
        self.ops: list[dict] = []
        self._saved: list = []
        self._simulate_signature = inspect.signature(prog.xp.simulate)
        self._wrappers = [
            (_target(prog, where), attr, self._wrap(name, getattr(_target(prog, where), attr)))
            for where, attr, name in PATCHES
        ]

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        on_simulate = self._on_simulate if name == "hydro.simulate" else None
        on_write = name == "telemetry.write_telemetry"
        on_read = name == "telemetry.read_telemetry"

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)
            if on_simulate is not None:
                on_simulate(args, kwargs, result)
            elif on_write:
                self.counts["telemetry.write_bytes"] += result
            elif on_read:
                self.counts["telemetry.read_records"] += len(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _on_simulate(self, args, kwargs, records):
        bound = self._simulate_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        self.counts["hydro.steps"] += round(bound.arguments["duration"] / bound.arguments["dt"])
        self.sim_outputs.append(records)

    def begin(self, op_id: int) -> None:
        """Install the wrappers and open the root span of one operation."""
        self.op_id = op_id
        self.counts = defaultdict(int)
        self.sim_outputs = []
        self.spans.clear()
        for owner, attr, wrapper in self._wrappers:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)
        self.spans.append(None)
        self.stack.append(0)
        self._op_start = perf_counter()

    def end(self) -> None:
        """Close the root span, restore the program, and reduce the spans."""
        end = perf_counter()
        self.stack.pop()
        self.spans[0] = (OP, self._op_start, end, -1, self.op_id)
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        if not self.first_op_spans:
            self.first_op_spans = list(self.spans)
        self.ops.append(self._reduce())

    def _reduce(self) -> dict:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
        distinct = {
            hashlib.sha256(
                struct.pack(f"<{13 * len(r)}d", *(v for rec in r for v in rec.__dict__.values()))
            ).digest()
            for r in self.sim_outputs
        }
        self.sim_outputs = []
        return {
            "op_s": self.spans[0][2] - self.spans[0][1],
            "calls": dict(calls),
            "self_s": dict(self_s),
            "counts": dict(self.counts),
            "distinct_runs": len(distinct),
        }

    def layer_metrics(self) -> dict[str, dict]:
        """Per-layer metrics over the traced operations: per-op medians and ratios of sums."""
        ops = self.ops

        def per_op(fn):
            return statistics.median(fn(op) for op in ops)

        def total(fn):
            return sum(fn(op) for op in ops)

        def calls(name):
            return lambda op: op["calls"].get(name, 0)

        def self_time(name):
            return lambda op: op["self_s"].get(name, 0.0)

        def layer_self(layer):
            return lambda op: sum(v for k, v in op["self_s"].items() if k.split(".")[0] == layer)

        def count(name):
            return lambda op: op["counts"].get(name, 0)

        def ratio(num, den, scale=1.0):
            d = total(den)
            return scale * total(num) / d if d else 0.0

        op_s = total(lambda op: op["op_s"])
        metrics = [
            ("hydro.simulate_calls", "count", per_op(calls("hydro.simulate"))),
            ("hydro.steps", "count", per_op(count("hydro.steps"))),
            ("hydro.self_s", "s", per_op(self_time("hydro.simulate"))),
            ("hydro.ns_per_step", "ns", ratio(self_time("hydro.simulate"), count("hydro.steps"), 1e9)),
            ("controllers.command_calls", "count", per_op(calls("controllers.command"))),
            ("controllers.command_s", "s", per_op(self_time("controllers.command"))),
            ("controllers.ns_per_call", "ns", ratio(self_time("controllers.command"), calls("controllers.command"), 1e9)),
            ("control.depth_controller_calls", "count", per_op(calls("control.depth_controller"))),
            ("control.apply_volume_rate_calls", "count", per_op(calls("control.apply_volume_rate"))),
            ("control.depth_controller_s", "s", per_op(self_time("control.depth_controller"))),
            ("experiments.self_s", "s", per_op(layer_self("experiments"))),
            ("experiments.simulate_calls_per_op", "count", per_op(calls("hydro.simulate"))),
            ("experiments.distinct_runs_per_op", "count", per_op(lambda op: op["distinct_runs"])),
            ("experiments.useful_run_ratio", "ratio", ratio(lambda op: op["distinct_runs"], calls("hydro.simulate"))),
            ("metrics.condition_metrics_calls", "count", per_op(calls("metrics.condition_metrics"))),
            ("metrics.condition_metrics_s", "s", per_op(self_time("metrics.condition_metrics"))),
            ("telemetry.write_s", "s", per_op(self_time("telemetry.write_telemetry"))),
            ("telemetry.write_bytes", "B", per_op(count("telemetry.write_bytes"))),
            ("telemetry.read_s", "s", per_op(self_time("telemetry.read_telemetry"))),
            ("telemetry.read_records", "count", per_op(count("telemetry.read_records"))),
            ("telemetry.read_records_per_s", "1/s",
             ratio(count("telemetry.read_records"), self_time("telemetry.read_telemetry"))),
        ]
        metrics += [(f"{layer}.share", "ratio", total(layer_self(layer)) / op_s) for layer in LAYERS]
        return {name: {"value": value, "unit": unit} for name, unit, value in metrics}

    def dump(self) -> dict:
        """What the run writes out: the first traced operation's spans and every op's reduction."""
        return {
            "span_fields": ["name", "start_s", "end_s", "parent", "op"],
            "first_op_spans": self.first_op_spans,
            "ops": self.ops,
        }
