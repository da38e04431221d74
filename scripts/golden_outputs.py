#!/usr/bin/env python3
"""Write every CLI subcommand's output on the three shipped scenarios, or
compare two such output directories.

    PYTHONPATH=src python scripts/golden_outputs.py OUT_DIR
    python scripts/golden_outputs.py --compare A B

The first form runs `validate`, `critical-ages`, `classify` (steps 1 and
0.25), `optimize` (both weightings, mandatory and voluntary), `paths` (a
working and a retired cohort), `sweep` (a 2 x 2 grid of `demo.rho` x
`market.gamma` up to the scenario's own values, for `theta_star` and for
`zeta_hat`, from spec files it writes into OUT_DIR), `verify --paths 512
--out` and, on the baby-boom scenario, `babyboom`, in-process through
`penmix.cli.main`.  It also writes copies of the US and baby-boom scenarios
with `policy.tau2 = 0.47` into OUT_DIR, where zeta_bar is interior, and runs
`critical-ages` and `classify --step 1` on them; copies of the US and CN
scenarios with `policy.t0 = 10`, where the entrant density at t0 is not n0,
and runs `optimize` under both weightings on them; and a copy of the US
scenario with `policy.tau2 = 0.8`, preference case_2 with its optimum at the
corner theta = m, k = 0, and runs all four on it.  Each run leaves
NAME.stdout, its `--out` artifact when it has one, and its exit code in
exit_codes.json.

The second form prints, per file and per column (CSV) or key (JSON), the
largest relative difference |x - y| / max(|x|, |y|) between the two
directories, the column-scaled difference max |x - y| / max |x| (which stays
small where a near-zero cell moves by round-off), and the number of
differing cells for text columns.  Files that are byte-identical print as
such.  It exits 1 when any file differs or is in one directory only.
"""
import argparse
import contextlib
import csv
import io
import json
import math
import sys
from pathlib import Path

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
FIXTURES = ("scenario_us", "scenario_cn", "scenario_us_babyboom")
#: (fixtures, policy field, value, runs): copies of fixtures with one policy
#: number changed, and the runs made on them
VARIANTS = (
    # an interior zeta_bar
    (("scenario_us", "scenario_us_babyboom"), "tau2", 0.47,
     [("critical-ages", ["critical-ages"], None),
      ("classify-1", ["classify", "--step", "1"], ".csv")]),
    # a re-selection time where the entrant density is not n0
    (("scenario_us", "scenario_cn"), "t0", 10.0,
     [(f"optimize-{weighting}", ["optimize", "--weighting", weighting], None)
      for weighting in ("population", "equal")]),
    # preference case_2 (zeta_hat only, all prefer savings to EET), whose
    # optimum is the PAYGO-only corner theta = m, k = 0
    (("scenario_us",), "tau2", 0.8,
     [("critical-ages", ["critical-ages"], None),
      ("classify-1", ["classify", "--step", "1"], ".csv")]
     + [(f"optimize-{weighting}", ["optimize", "--weighting", weighting], None)
        for weighting in ("population", "equal")]),
)


def _runs(name: str, out_dir: Path):
    """(run name, argv after the scenario path, --out suffix or None).

    Writes the sweep spec files the runs read into out_dir.
    """
    from penmix import load_scenario

    s = load_scenario(SCENARIOS / f"{name}.json")
    rates = ["--theta", repr(s.policy.theta0), "--k", repr(s.policy.k0)]
    runs = [("validate", ["validate"], None),
            ("critical-ages", ["critical-ages"], None),
            ("classify-1", ["classify", "--step", "1"], ".csv"),
            ("classify-0.25", ["classify", "--step", "0.25"], ".csv")]
    for weighting in ("population", "equal"):
        runs.append((f"optimize-{weighting}",
                     ["optimize", "--weighting", weighting], None))
        runs.append((f"optimize-{weighting}-voluntary",
                     ["optimize", "--weighting", weighting, "--voluntary"], None))
    for zeta in (30.0, 70.0):
        runs.append((f"paths-{zeta:g}", ["paths", "--zeta", repr(zeta)] + rates, ".csv"))
    for target in ("theta_star", "zeta_hat"):
        # a 2 x 2 grid ending at the scenario's own rho and gamma
        spec = out_dir / f"{name}.sweep-{target}.spec.json"
        spec.write_text(json.dumps({
            "param1": {"path": "demo.rho", "lo": s.demo.rho - 0.005,
                       "hi": s.demo.rho, "steps": 2},
            "param2": {"path": "market.gamma", "lo": s.market.gamma - 0.005,
                       "hi": s.market.gamma, "steps": 2},
            "target": target}, indent=2) + "\n", encoding="utf-8")
        runs.append((f"sweep-{target}", ["sweep", "--spec", str(spec)], ".csv"))
    if s.demo.babyboom is not None:
        runs.append(("babyboom", ["babyboom"], ".csv"))
    runs.append(("verify", ["verify", "--paths", "512"], ".json"))
    return runs


def write_goldens(out_dir: Path) -> int:
    from penmix import cli

    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = [(fixture, SCENARIOS / f"{fixture}.json", _runs(fixture, out_dir))
            for fixture in FIXTURES]
    for fixtures, field, value, runs in VARIANTS:
        for fixture in fixtures:
            doc = json.loads((SCENARIOS / f"{fixture}.json").read_text(encoding="utf-8"))
            doc["policy"][field] = value
            name = f"{fixture}.{field}-{value:g}"
            path = out_dir / f"{name}.json"
            path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
            jobs.append((name, path, runs))
    codes = {}
    for fixture, scenario, runs in jobs:
        for run, argv, suffix in runs:
            stem = f"{fixture}.{run}"
            args = [argv[0], str(scenario)] + argv[1:]
            if suffix is not None:
                args += ["--out", str(out_dir / f"{stem}{suffix}")]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                codes[stem] = cli.main(args)
            (out_dir / f"{stem}.stdout").write_text(buf.getvalue(), encoding="utf-8")
            print(f"{stem}: exit {codes[stem]}", file=sys.stderr)
    (out_dir / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")
    return 0


def _rel(x: float, y: float) -> float:
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    scale = max(abs(x), abs(y))
    return math.inf if scale == 0 or not math.isfinite(scale) else abs(x - y) / scale


def _scaled(nums) -> float:
    """max |x - y| / max |x| over a column's (x, y) cell pairs: 0 when no
    cell moves, inf when a moved cell is not finite or the column is all 0."""
    gaps = [abs(x - y) for x, y in nums if _rel(x, y)]
    if not gaps:
        return 0.0
    scale = max((abs(x) for x, _ in nums if math.isfinite(x)), default=0.0)
    gap = max(gaps)
    return gap / scale if scale > 0 and math.isfinite(gap) else math.inf


def _number(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def _columns(path: Path):
    """{column: list of cells} for CSV, {key path: [value]} for JSON, else
    one text column."""
    text = path.read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None
    if doc is not None:
        flat = {}

        def walk(prefix, node):
            if isinstance(node, dict):
                for key, val in node.items():
                    walk(f"{prefix}.{key}" if prefix else key, val)
            elif isinstance(node, list):
                for i, val in enumerate(node):
                    walk(f"{prefix}[{i}]", val)
            else:
                flat[prefix] = [node]

        walk("", doc)
        return flat
    if path.suffix == ".csv":
        rows = list(csv.reader(io.StringIO(text)))
        return {name: [row[j] for row in rows[1:]] for j, name in enumerate(rows[0])}
    return {"text": text.splitlines()}


def _column_diff(xs, ys) -> str:
    if len(xs) != len(ys):
        return f"length {len(xs)} vs {len(ys)}"
    nums = [(_number(x), _number(y)) for x, y in zip(xs, ys)]
    if all(x is not None and y is not None and not isinstance(a, bool)
           for (x, y), a in zip(nums, xs)):
        rel = max((_rel(x, y) for x, y in nums), default=0.0)
        return f"max rel {rel:.3g}, column-scaled {_scaled(nums):.3g}"
    differ = sum(x != y for x, y in zip(xs, ys))
    return f"{differ} of {len(xs)} cells differ"


def compare(a: Path, b: Path) -> int:
    names = sorted({p.name for p in a.iterdir()} | {p.name for p in b.iterdir()})
    code = 0
    for name in names:
        pa, pb = a / name, b / name
        if not pa.exists() or not pb.exists():
            print(f"{name}: only in {a if pa.exists() else b}")
            code = 1
            continue
        if pa.read_bytes() == pb.read_bytes():
            print(f"{name}: identical")
            continue
        code = 1
        ca, cb = _columns(pa), _columns(pb)
        print(f"{name}:")
        for col in list(ca) + [c for c in cb if c not in ca]:
            if col not in ca or col not in cb:
                print(f"  {col}: only in {a if col in ca else b}")
            else:
                print(f"  {col}: {_column_diff(ca[col], cb[col])}")
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out_dir", nargs="?", type=Path, help="directory to write")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                    help="compare two output directories instead")
    args = ap.parse_args(argv)
    if args.compare is not None:
        return compare(*args.compare)
    if args.out_dir is None:
        ap.error("OUT_DIR is required unless --compare is given")
    return write_goldens(args.out_dir)


if __name__ == "__main__":
    sys.exit(main())
