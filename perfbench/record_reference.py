"""Record reference.json: the checked outputs of the first ops of every
workload at the default seed, as the program computes them now.

    python3 perfbench/record_reference.py

The benchmark compares each run at the default seed with this file, so a
fast but wrong answer counts as a failed op.  Re-record it only in a change
whose purpose is to alter the program's outputs, and say so in that change.
"""
from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    run.pin_threads()
    problem = run.checkout_problem()
    if problem is not None:
        print(f"record_reference: {problem}", file=sys.stderr)
        return 2
    workloads = run.bootstrap()
    ops = {}
    for name, cls in workloads.WORKLOADS.items():
        workdir = run.WORK / f"reference-{name}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            wl = cls(run.ROOT, workdir, workloads.DEFAULT_SEED)
            wl.setup()
            rows = []
            for i in range(workloads.REFERENCE_OPS):
                inp = wl.input(i)
                problems, outputs = wl.check(i, inp, wl.run(inp, None))
                if problems:
                    print(f"record_reference: {name} op {i}: {problems}", file=sys.stderr)
                    return 1
                rows.append({key: value for key, (_, value) in outputs.items()})
            ops[name] = rows
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    doc = {"seed": workloads.DEFAULT_SEED, "ops": ops}
    (run.HERE / "reference.json").write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
