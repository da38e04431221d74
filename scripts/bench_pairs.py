#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and summarise.

    python scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W \\
        [--pairs 10] [--seconds 20] [--seed 0] [--trace 0|1]

Pair i runs `perfbench/run.py --workload W --seed SEED+i --seconds S
--trace T` in each checkout, from the checkout's root, one side after the
other: the parent first in even pairs, the change first in odd ones.  This
script times nothing itself; every number is read from the last line that
run.py prints.

Prints one JSON object:
- "runs": the last line of every run, with its side, pair and seed;
- "summary": per side, the median and the 25th and 75th percentiles
  (`numpy.percentile`, linear) of each metric of CHANGE_DIR/BENCHMARK.json,
  its "end_to_end" list under --trace 0 and its "per_layer" list under
  --trace 1, and the failed ops;
- "wins": per metric, the number of pairs in which the change is better, by
  the metric's "better".

A per-layer metric that some run reports as null is left out.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The result line of one perfbench run in the checkout at root."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench/run.py failed in {root} (exit {proc.returncode}):\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summarize(runs: list, metrics: list) -> dict:
    """Quartiles per side and the change's wins per pair.

    runs: {"side", "pair", "result"} records, one per side in every pair;
    metrics: BENCHMARK.json metric entries ({"name", "better", ...}).
    """
    value = {(r["side"], r["pair"], name): spec["value"]
             for r in runs for name, spec in r["result"]["metrics"].items()}
    pairs = sorted({r["pair"] for r in runs})
    summary = {side: {"failed_ops": sum(r["result"]["failed"] for r in runs
                                        if r["side"] == side)} for side in SIDES}
    wins = {}
    for m in metrics:
        name = m["name"]
        cells = [value.get((side, i, name)) for side in SIDES for i in pairs]
        if any(v is None for v in cells):
            continue
        for side in SIDES:
            xs = [value[side, i, name] for i in pairs]
            q25, median, q75 = np.percentile(xs, [25, 50, 75])
            summary[side][name] = {"median": float(median), "q25": float(q25),
                                   "q75": float(q75)}
        sign = 1.0 if m["better"] == "higher" else -1.0
        wins[name] = sum(sign * (value["change", i, name] - value["parent", i, name]) > 0
                         for i in pairs)
    return {"pairs": len(pairs), "summary": summary, "wins": wins}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = bench["per_layer" if args.trace else "end_to_end"]
    runs = []
    for i in range(args.pairs):
        seed = args.seed + i
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            root = args.parent if side == "parent" else args.change
            runs.append({"side": side, "pair": i, "seed": seed,
                         "result": run_once(root, args.workload, seed, args.seconds,
                                            args.trace)})
    doc = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
           "runs": runs, **summarize(runs, metrics)}
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
