"""Write reference.json: the program's outputs for every input the reference covers.

Run from the repository root at the commit whose outputs are the reference:

    python3 perfbench/make_reference.py

It rewrites the entries of every workload. Every output must pass the
workload's invariants first. The closed-loop, sweep and round-trip workloads
draw from finite grids and are covered on every seed; calibration inputs are
continuous, so only the first operations of the default seed are covered.
"""

from __future__ import annotations

import json
import sys

import program
import run
import workloads


def main() -> int:
    sys.path.insert(0, str(program.SRC))
    prog, env, _ = program.set_up()
    run.WORK.mkdir(exist_ok=True)
    reference = {}
    for name, workload_type in workloads.WORKLOADS.items():
        workload = workload_type(prog, env, workloads.DEFAULT_SEED, {}, run.WORK)
        entries = {}
        try:
            for inp in workload.reference_inputs():
                out = workload.run(inp.args)
                problems = workload.invariants(inp, out)
                if problems:
                    print(f"{name} {inp.key}: {problems}", file=sys.stderr)
                    return 1
                entries[inp.key] = workload.summary(inp, out)
                print(f"{name} {inp.key}", file=sys.stderr)
        finally:
            workload.close()
        reference[name] = entries
    reference["_meta"] = {
        "source": run.environment(workloads.DEFAULT_SEED),
        "rtol": workloads.RTOL,
        "atol": workloads.ATOL,
    }
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
