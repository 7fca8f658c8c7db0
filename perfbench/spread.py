"""Run the benchmark over several seeds and report each metric's median and quartile spread.

Run from the repository root, one benchmark process at a time:

    python3 perfbench/spread.py --workload protocol_sweep --seeds 1-10 [--out FILE]

Every run measures for BENCHMARK.json's `run_seconds` with `--trace 0`. For
every end-to-end metric it prints the median of the runs, the first and
third quartiles (`statistics.quantiles(values, n=4)`), and the spread
(q3 - q1) / median, marked `ok` when it is below a third of the metric's
bound in BENCHMARK.json. `--out` writes every run's result and the summary
as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs, summary = {}, {}
    for workload in args.workload:
        runs[workload] = []
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            *_, report, result = (json.loads(line) for line in proc.stdout.splitlines())
            runs[workload].append({"seed": seed, **result, "op_s_samples": report["op_s"]["samples"],
                                   "environment": report["environment"]})
            print(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}", file=sys.stderr)
        names = runs[workload][0]["metrics"]
        summary[workload] = {}
        for name in names:
            s = summarize([r["metrics"][name]["value"] for r in runs[workload]])
            summary[workload][name] = s
            verdict = "ok" if s["spread"] < bounds[name] / 3 else f"WIDE (bound {bounds[name]})"
            print(f"{workload:20s} {name:36s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                  f"spread {s['spread']:.4f} {verdict}")
    if args.out:
        args.out.write_text(json.dumps({"seconds": spec["run_seconds"], "summary": summary, "runs": runs},
                                       indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
