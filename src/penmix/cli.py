"""Command-line front door.

Subcommands: validate, critical-ages, classify, optimize, paths, sweep,
verify, babyboom.  Tabular results are CSV (17 significant digits, headers in
docs/formats.md); scalar results are single JSON objects with stable key
order.  Exit codes: 0 ok, 1 verify FAIL, 2 usage error, 3 infeasible/empty
region, 4 validation failure, 5 internal error.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import demography, government, lifecycle, montecarlo, preference
from .errors import (
    ConfigError,
    DegenerateDrift,
    DomainError,
    EmptyRegion,
    InsolventCohort,
    OrderingViolation,
    ParseError,
    PenmixError,
    SchemaError,
    UtilityExplosion,
)
from .scenario import Scenario, _number, load_scenario, validate, with_params

EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_INVALID = 4
EXIT_INTERNAL = 5

_VALIDATION_ERRORS = (ParseError, SchemaError, OrderingViolation,
                      DegenerateDrift, UtilityExplosion)
_INFEASIBLE_ERRORS = (EmptyRegion, InsolventCohort)

SWEEP_TARGETS = ("zeta_hat", "zeta_tilde", "theta_star", "k_star",
                 "theta_star_equal", "k_star_equal")


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _write_csv(out, header, rows) -> None:
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _emit_json(doc: dict, out=None) -> None:
    text = json.dumps(doc, indent=2)
    print(text)
    if out is not None:
        Path(out).write_text(text + "\n", encoding="utf-8")


def mortality_scale(s: Scenario, delta: float) -> Scenario:
    """Scenario with Makeham A, B scaled by delta (< 1 = lighter mortality)."""
    if delta <= 0:
        raise DomainError(f"mortality scale must be positive (got {delta})")
    return with_params(s, **{"demo.A": s.demo.A * delta,
                             "demo.B": s.demo.B * delta})


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def _cmd_validate(args) -> int:
    s = load_scenario(args.scenario)
    dc = validate(s)
    doc = {name: getattr(dc, name)
           for name in ("nu", "epsilon", "epsilon_tilde", "Lambda", "a_tau",
                        "L0", "M01", "M02", "M03")}
    doc["dependency_ratio"] = 1.0 / dc.Lambda
    _emit_json(doc, args.out)
    return 0


def _critical_ages_doc(s: Scenario) -> dict:
    report = preference.preference_map(s, step=5.0)
    return {
        "zeta_hat": report.zeta_hat,
        "zeta_tilde": report.zeta_tilde,
        "zeta_bar": report.zeta_bar,
        "lambda_fp": report.lambda_fp,
        "lambda_ep": report.lambda_ep,
        "eet_flag": report.eet_flag,
        "case_label": report.case_label,
    }


def _cmd_critical_ages(args) -> int:
    s = load_scenario(args.scenario)
    _emit_json(_critical_ages_doc(s), args.out)
    return 0


def _cmd_classify(args) -> int:
    s = load_scenario(args.scenario)
    report = preference.preference_map(s, step=args.step)
    rows = [(z, m1, m2, diff, order)
            for z, m1, m2, diff, order in report.orderings]
    _write_csv(args.out, ["zeta", "M1t", "M2t", "M1mM2", "ordering"], rows)
    if args.out is not None:
        _emit_json(report.to_dict())
    return 0


def _cmd_optimize(args) -> int:
    s = load_scenario(args.scenario)
    if args.voluntary:
        mix = government.optimize_voluntary(s, mode=args.weighting, step=args.step)
    else:
        mix = government.optimize_mix(s, mode=args.weighting, step=args.step)
    _emit_json(mix.to_dict(), args.out)
    return 0


def _cmd_paths(args) -> int:
    s = load_scenario(args.scenario)
    if not s.demo.a <= args.zeta <= s.demo.omega:
        raise DomainError(f"--zeta must lie in [{s.demo.a}, {s.demo.omega}]")
    z = s.demo.a + s.policy.t0 - args.zeta
    table = lifecycle.expected_paths(z, s, args.theta, args.k, grid=args.grid)
    rows = list(zip(table["t"], table["EX"], table["EY"], table["Epi"], table["EC"]))
    _write_csv(args.out, ["t", "EX", "EY", "Epi", "EC"], rows)
    return 0


def _cmd_verify(args) -> int:
    s = load_scenario(args.scenario)
    t0 = s.policy.t0
    cohorts = [t0, t0 - 10.0, t0 - 30.0]
    rep = montecarlo.verify_value_function(
        s, cohorts, n_paths=args.paths, dt=args.dt, seed=args.seed)
    for row in rep.rows:
        r = row.report
        print(f"z={row.z:+8.2f}  utility {'PASS' if row.utility_ok else 'FAIL'}"
              f"  terminal {'PASS' if row.terminal_ok else 'FAIL'}"
              f"  y0 {'-' if row.y0_ok is None else ('PASS' if row.y0_ok else 'FAIL')}"
              f"  paths {'PASS' if row.probes_ok else 'FAIL'}"
              f"  (clipped={r.clipped_paths})")
    print(f"perturbed-control gap: {rep.perturbed_gap_se:.2f} SE "
          f"{'PASS' if rep.perturbed_ok else 'FAIL'}")
    print(f"overall: {'PASS' if rep.passed else 'FAIL'}")
    if args.out is not None:
        Path(args.out).write_text(json.dumps(rep.to_dict(), indent=2) + "\n",
                                  encoding="utf-8")
    return 0 if rep.passed else 1


def _cmd_babyboom(args) -> int:
    if not (args.grid > 0 and math.isfinite(args.grid)):
        raise DomainError(f"grid step must be positive and finite (got {args.grid})")
    s = load_scenario(args.scenario)
    if s.demo.babyboom is None:
        raise SchemaError("scenario has no demography.babyboom block")
    bb = s.demo.babyboom
    fn = demography.support_ratio_fn(s.demo)
    lo = bb.t1 - 5.0
    hi = bb.t2 + (s.demo.omega - s.demo.a) + 5.0
    ts = np.arange(lo, hi + 1e-9, args.grid)
    rows = zip(ts.tolist(), demography.bb_entrants(ts, bb).tolist(), fn(ts).tolist())
    _write_csv(args.out, ["t", "n", "Lambda"], rows)
    doc = _critical_ages_doc(s)
    doc["one_over_lambda_pre_boom"] = 1.0 / fn(bb.t1 - 1e-9)
    doc["one_over_lambda_post_boom"] = 1.0 / fn(hi)
    if args.out is not None:
        _emit_json(doc)
    return 0


def _sweep_value(s: Scenario, target: str, step: float):
    if target == "zeta_hat":
        age = preference.critical_age_paygo_savings(s)
        if age is None:
            return math.nan, "no critical age: all ages prefer PAYGO to savings"
        return age, ""
    if target == "zeta_tilde":
        age = preference.critical_age_paygo_eet(s)
        if age is None:
            return math.nan, "no critical age: all ages prefer PAYGO to EET"
        return age, ""
    mode = "equal" if target.endswith("_equal") else "population"
    mix = government.optimize_mix(s, mode=mode, step=step)
    return (mix.theta_star, "") if target.startswith("theta") else (mix.k_star, "")


def _apply_param(s: Scenario, path: str, value: float) -> Scenario:
    if path == "mortality.delta":
        return mortality_scale(s, value)
    return with_params(s, **{path: value})


def _cmd_sweep(args) -> int:
    government._check_step(args.step)
    s = load_scenario(args.scenario)
    try:
        spec = json.loads(Path(args.spec).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{args.spec}: {exc}")
    if not isinstance(spec, dict):
        raise SchemaError("sweep spec must be a JSON object")
    for key in ("param1", "param2", "target"):
        if key not in spec:
            raise SchemaError(f"sweep spec missing '{key}'")
    if spec["target"] not in SWEEP_TARGETS:
        raise SchemaError(f"sweep target must be one of {SWEEP_TARGETS}")
    axes = []
    for key in ("param1", "param2"):
        p = spec[key]
        if not isinstance(p, dict):
            raise SchemaError(f"sweep spec {key} must be an object (got {p!r})")
        for f in ("path", "lo", "hi", "steps"):
            if f not in p:
                raise SchemaError(f"sweep spec {key} missing '{f}'")
        if not isinstance(p["path"], str):
            raise SchemaError(f"sweep {key}.path must be a string (got {p['path']!r})")
        steps = p["steps"]
        if isinstance(steps, bool) or not isinstance(steps, int) or steps < 2:
            raise SchemaError(f"sweep {key}.steps must be an integer >= 2 (got {steps!r})")
        axes.append((p["path"], np.linspace(_number(p["lo"], f"sweep {key}.lo"),
                                            _number(p["hi"], f"sweep {key}.hi"), steps)))
    (path1, vals1), (path2, vals2) = axes
    target = spec["target"]
    # a bad path is one schema error up front, not a nan in every cell
    _apply_param(_apply_param(s, path1, 1.0), path2, 1.0)

    rows = []
    for v1 in vals1:
        for v2 in vals2:
            try:
                sc = _apply_param(_apply_param(s, path1, float(v1)), path2, float(v2))
                value, reason = _sweep_value(sc, target, args.step)
            except PenmixError as exc:
                value, reason = math.nan, str(exc).replace(",", ";")
            rows.append((float(v1), float(v2), value, reason))
    _write_csv(args.out, [path1, path2, target, "reason"], rows)
    return 0


@functools.cache   # one parser per process: main looks the handlers up per call
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="penmix",
                                 description="pension-mix solver")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("scenario", help="scenario JSON file")
        p.add_argument("--out", default=None, help="output file")
        return p

    add("validate", help="check assumptions, print derived constants")
    add("critical-ages", help="critical ages and thresholds")

    p = add("classify", help="per-age preference orderings (CSV)")
    p.add_argument("--step", type=float, default=1.0, help="age grid step")

    p = add("optimize", help="optimal contribution rates")
    p.add_argument("--weighting", choices=government.WEIGHTINGS, required=True)
    p.add_argument("--voluntary", action="store_true",
                   help="voluntary EET participation")
    p.add_argument("--step", type=float, default=government.Z_STEP,
                   help="entry-time grid step")

    p = add("paths", help="expected optimal paths (CSV)")
    p.add_argument("--zeta", type=float, required=True, help="cohort age at t0")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--grid", type=float, default=0.25, help="time grid step")

    p = add("sweep", help="two-parameter sweep (CSV)")
    p.add_argument("--spec", required=True, help="sweep spec JSON file")
    p.add_argument("--step", type=float, default=government.Z_STEP,
                   help="entry-time grid step for optimizer targets")

    p = add("verify", help="Monte Carlo verification table")
    p.add_argument("--paths", type=int, default=20000)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=20240)

    p = add("babyboom", help="entrant flow and Lambda(t) (CSV)")
    p.add_argument("--grid", type=float, default=0.5, help="time grid step")
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return globals()["_cmd_" + args.command.replace("-", "_")](args)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except _INFEASIBLE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (DomainError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:   # a defect in penmix itself, not in the input
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
