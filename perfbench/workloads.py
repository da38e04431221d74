"""The benchmark workloads: seeded inputs, one op, and the checks on its outputs.

Every workload draws its inputs from ``numpy.random.default_rng([seed, op,
stream])``, so the same seed gives byte-identical scenario files and batches.
penmix only ever sees those generated files and values.  An op is timed by
the caller around ``run``; ``evaluate`` then checks the outputs, both with
seed-independent invariants and, at ``DEFAULT_SEED``, against the values in
``reference.json`` recorded from the program.
"""
from __future__ import annotations

import contextlib
import copy
import csv
import dataclasses
import io
import json
import math
from pathlib import Path

import numpy as np

import penmix
from penmix import cli, demography, government, montecarlo

DEFAULT_SEED = 0
#: ops per workload whose outputs are compared with reference.json
REFERENCE_OPS = 4
#: inputs generated during set-up; later ops generate theirs on demand
POOL = 8

#: output kind -> (absolute or relative, tolerance)
TOLERANCE = {
    "rate": ("abs", 1e-6),    # contribution rates and critical ages
    "value": ("rel", 1e-6),   # welfare values, support ratios
    "mc": ("rel", 1e-12),     # Monte Carlo statistics at a fixed seed
}

#: standard errors within which the Monte Carlo means must match the closed form
MC_SE_LIMIT = 5.0
#: feasible probes near each optimum that must not beat it
PROBES = 8
#: relative gap allowed between the Lambda(t) plateaus and the constant-mode
#: ratios.  The table starts exactly at t1, so the pre-boom plateau is exact;
#: it ends at the last 0.1-year node at or before t2 + omega - a, so when
#: t2 - t1 is not a multiple of 0.1 the post-boom plateau is read slightly
#: inside the boom's tail (about 2e-7 relative, see NOTES.md).
PLATEAU_TOL = {"pre": 1e-12, "post": 1e-6}


def _rng(seed: int, op: int, stream: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, op, stream])


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def run_cli(argv) -> tuple[int, str, str]:
    """``penmix.cli.main`` in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def compare(outputs: dict, expected: dict) -> list[str]:
    """Problems where ``outputs`` ({key: (kind, value)}) leave the reference."""
    problems = [f"{key}: missing from the outputs" for key in expected
                if key not in outputs]
    for key, (kind, value) in outputs.items():
        if key not in expected:
            problems.append(f"{key}: no reference value")
            continue
        ref = expected[key]
        if ref is None or value is None:
            if ref is not value:
                problems.append(f"{key}: {value!r} vs reference {ref!r}")
            continue
        how, tol = TOLERANCE[kind]
        err = abs(value - ref)
        if how == "rel":
            err /= max(abs(ref), 1e-300)
        if not err <= tol:
            problems.append(f"{key}: {value!r} vs reference {ref!r} ({how} err {err:.3g})")
    return problems


class Workload:
    """One workload; subclasses define inputs, the op and its checks."""

    name = ""

    def __init__(self, root: Path, workdir: Path, seed: int, reference=None):
        self.root = Path(root)
        self.workdir = Path(workdir)
        self.seed = seed
        self.reference = reference or []
        self.inputs: list = []
        #: Monte Carlo mesh steps per path (0 where no simulation runs)
        self.mesh_steps = 0
        #: accuracy figures gathered by the checks, printed with the report
        self.diagnostics: dict = {}

    def fixture(self, name: str) -> dict:
        return json.loads((self.root / "scenarios" / name).read_text(encoding="utf-8"))

    def setup(self) -> None:
        self.prepare()
        for i in range(POOL):
            self.input(i)

    def input(self, i: int):
        while len(self.inputs) <= i:
            self.inputs.append(self.make_input(len(self.inputs)))
        return self.inputs[i]

    def evaluate(self, i: int, inp, raw) -> list[str]:
        """All problems found in the outputs of op ``i``."""
        problems, outputs = self.check(i, inp, raw)
        if self.seed == DEFAULT_SEED and i < len(self.reference):
            problems += compare(outputs, self.reference[i])
        return problems

    def path_steps(self, raw) -> int:
        return 0

    # subclass hooks
    def prepare(self) -> None:
        pass

    def make_input(self, i: int):
        raise NotImplementedError

    def run(self, inp, tracer):
        raise NotImplementedError

    def check(self, i: int, inp, raw) -> tuple[list[str], dict]:
        raise NotImplementedError


# --------------------------------------------------------------------------
# shared checks
# --------------------------------------------------------------------------

def _check_mix(s, region, theta, k, value, mode, rng, tag) -> list[str]:
    """Cap, admissibility, and no feasible probe near the optimum beating it."""
    problems = []
    m = s.policy.m
    if not theta + k <= m + 1e-12:
        problems.append(f"{tag}: theta* + k* = {theta + k} exceeds m = {m}")
    if not region.contains(theta, k):
        problems.append(f"{tag}: ({theta}, {k}) outside the admissible region")
    angles = rng.uniform(0.0, 2.0 * math.pi, PROBES)
    radii = rng.uniform(2e-3, 1e-2, PROBES)
    for a, r in zip(angles, radii):
        pt, pk = theta + r * math.cos(a), k + r * math.sin(a)
        if min(pt, pk) < 0.0 or pt + pk > m or not region.contains(pt, pk):
            continue
        probe = government.objective(pt, pk, s, mode)
        if probe > value + 1e-9 * abs(value):
            problems.append(f"{tag}: probe ({pt}, {pk}) = {probe} beats the optimum {value}")
    return problems


def _check_voluntary(s, theta, k, tag) -> list[str]:
    bounds = government.voluntary_theta_bounds(s)
    problems = []
    if not bounds.lower - 1e-9 <= theta <= bounds.upper + 1e-9:
        problems.append(f"{tag}: voluntary theta* = {theta} outside "
                        f"[{bounds.lower}, {bounds.upper}]")
    if not theta + k <= s.policy.m + 1e-12:
        problems.append(f"{tag}: voluntary theta* + k = {theta + k} exceeds m")
    return problems


def _check_ages(s, doc, tag) -> list[str]:
    problems = []
    for key in ("zeta_hat", "zeta_tilde", "zeta_bar"):
        age = doc[key]
        if age is not None and not s.demo.a - 1e-9 <= age <= s.demo.tau + 1e-9:
            problems.append(f"{tag}: {key} = {age} outside [a, tau]")
    if not str(doc["case_label"]).startswith("case_"):
        problems.append(f"{tag}: bad case label {doc['case_label']!r}")
    return problems


def _cli_docs(results: dict, tag: str):
    """JSON documents of successful CLI calls, plus problems for the others."""
    docs, problems = {}, []
    for label, (code, out, err) in results.items():
        if code != 0:
            problems.append(f"{tag} {label}: exit {code}: {err.strip()}")
        else:
            docs[label] = json.loads(out)
    return docs, problems


# --------------------------------------------------------------------------
# sweep-cold
# --------------------------------------------------------------------------

class SweepCold(Workload):
    """Fresh perturbed US and CN scenarios through the CLI; every cache misses."""

    name = "sweep-cold"
    FIXTURES = (("us", "scenario_us.json"), ("cn", "scenario_cn.json"))

    def prepare(self) -> None:
        self.docs = {tag: self.fixture(fname) for tag, fname in self.FIXTURES}

    def make_input(self, i: int):
        rng = _rng(self.seed, i)
        paths = []
        for tag, _ in self.FIXTURES:
            doc = copy.deepcopy(self.docs[tag])
            doc["demography"]["rho"] += float(rng.uniform(-0.001, 0.001))
            doc["market"]["gamma"] += float(rng.uniform(-0.0005, 0.0005))
            scale = float(rng.uniform(0.9, 1.1))
            doc["demography"]["A"] *= scale
            doc["demography"]["B"] *= scale
            path = self.workdir / f"{self.name}-{i:04d}-{tag}.json"
            _write_json(path, doc)
            paths.append((tag, path))
        return paths

    def run(self, paths, tracer):
        out = []
        for tag, path in paths:
            with _span(tracer, "scenario.load"):
                s = penmix.load_scenario(path)
                penmix.validate(s)
            region = government.admissible_region(s)
            results = {
                "critical-ages": run_cli(["critical-ages", path]),
                "optimize": run_cli(["optimize", path, "--weighting", "population"]),
                "voluntary": run_cli(["optimize", path, "--weighting", "population",
                                      "--voluntary"]),
            }
            out.append((tag, s, region, results))
        return out

    def check(self, i, paths, raw):
        problems, outputs = [], {}
        rng = _rng(self.seed, i, 1)
        for tag, s, region, results in raw:
            docs, bad = _cli_docs(results, tag)
            problems += bad
            if bad:
                continue
            ages, mix, vol = docs["critical-ages"], docs["optimize"], docs["voluntary"]
            problems += _check_ages(s, ages, tag)
            problems += _check_mix(s, region, mix["theta_star"], mix["k_star"],
                                   mix["objective"], "population", rng, tag)
            problems += _check_voluntary(s, vol["theta_star"], vol["k_star"], tag)
            outputs.update({
                f"{tag}.zeta_hat": ("rate", ages["zeta_hat"]),
                f"{tag}.zeta_tilde": ("rate", ages["zeta_tilde"]),
                f"{tag}.theta_star": ("rate", mix["theta_star"]),
                f"{tag}.k_star": ("rate", mix["k_star"]),
                f"{tag}.objective": ("value", mix["objective"]),
                f"{tag}.voluntary_theta_star": ("rate", vol["theta_star"]),
                f"{tag}.voluntary_objective": ("value", vol["objective"]),
            })
        return problems, outputs


# --------------------------------------------------------------------------
# policy-warm
# --------------------------------------------------------------------------

class PolicyWarm(Workload):
    """Optimizer and objective queries on the US and CN fixtures, caches hot."""

    name = "policy-warm"
    FIXTURES = SweepCold.FIXTURES
    #: objective points per fixture per op
    BATCH = 128

    def prepare(self) -> None:
        self.scenarios = []
        for tag, fname in self.FIXTURES:
            path = self.workdir / f"{self.name}-{tag}.json"
            _write_json(path, self.fixture(fname))
            s = penmix.load_scenario(path)
            penmix.validate(s)
            region = government.admissible_region(s)   # builds the cohort grid
            self.scenarios.append((tag, s, region))

    def make_input(self, i: int):
        rng = _rng(self.seed, i)
        batches = []
        for tag, s, region in self.scenarios:
            m = s.policy.m
            planes = region.halfplanes
            points = np.empty((0, 2))
            for _ in range(100):
                cand = rng.uniform(0.0, m, (2 * self.BATCH, 2))
                slack = (planes[:, 0][None, :] + cand[:, :1] * planes[:, 1][None, :]
                         + cand[:, 1:] * planes[:, 2][None, :])
                keep = (slack >= 0.0).all(axis=1) & (cand.sum(axis=1) <= m)
                points = np.concatenate([points, cand[keep]])
                if len(points) >= self.BATCH:
                    break
            else:
                raise RuntimeError(f"{tag}: too few feasible (theta, k) points drawn")
            batches.append([(float(t), float(k)) for t, k in points[: self.BATCH]])
        return batches

    def run(self, batches, tracer):
        out = []
        for (tag, s, _), points in zip(self.scenarios, batches):
            mix_pop = government.optimize_mix(s, "population")
            mix_eq = government.optimize_mix(s, "equal")
            vol = government.optimize_voluntary(s, "population")
            values = [government.objective(t, k, s, "population") for t, k in points]
            out.append((tag, mix_pop, mix_eq, vol, values))
        return out

    def check(self, i, batches, raw):
        problems, outputs = [], {}
        rng = _rng(self.seed, i, 1)
        for (_, s, region), (tag, mix_pop, mix_eq, vol, values) in zip(self.scenarios, raw):
            for label, mix in (("population", mix_pop), ("equal", mix_eq)):
                if not mix.evaluations > 0:
                    problems.append(f"{tag} {label}: evaluations = {mix.evaluations}")
                problems += _check_mix(s, region, mix.theta_star, mix.k_star,
                                       mix.objective, label, rng, f"{tag} {label}")
            problems += _check_voluntary(s, vol.theta_star, vol.k_star, tag)
            if not vol.evaluations > 0:
                problems.append(f"{tag} voluntary: evaluations = {vol.evaluations}")
            top = mix_pop.objective + 1e-9 * abs(mix_pop.objective)
            beaten = [v for v in values if not (math.isfinite(v) and v <= top)]
            if beaten:
                problems.append(f"{tag}: {len(beaten)} batch points beat or miss the optimum")
            outputs.update({
                f"{tag}.theta_star": ("rate", mix_pop.theta_star),
                f"{tag}.k_star": ("rate", mix_pop.k_star),
                f"{tag}.objective": ("value", mix_pop.objective),
                f"{tag}.theta_star_equal": ("rate", mix_eq.theta_star),
                f"{tag}.k_star_equal": ("rate", mix_eq.k_star),
                f"{tag}.objective_equal": ("value", mix_eq.objective),
                f"{tag}.voluntary_theta_star": ("rate", vol.theta_star),
                f"{tag}.voluntary_objective": ("value", vol.objective),
                f"{tag}.batch_sum": ("value", math.fsum(values)),
            })
        return problems, outputs


# --------------------------------------------------------------------------
# babyboom
# --------------------------------------------------------------------------

def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class Babyboom(Workload):
    """Fresh perturbed baby-boom blocks: Lambda(t) table and preference scan."""

    name = "babyboom"
    #: every n-th Lambda(t) row compared with the reference
    LAMBDA_SAMPLE = 20

    def prepare(self) -> None:
        self.doc = self.fixture("scenario_us_babyboom.json")

    def make_input(self, i: int):
        rng = _rng(self.seed, i)
        doc = copy.deepcopy(self.doc)
        bb = doc["demography"]["babyboom"]
        length = (bb["t2"] - bb["t1"]) * float(rng.uniform(0.9, 1.1))
        bb["t1"] += float(rng.uniform(-3.0, 3.0))
        bb["t2"] = bb["t1"] + length
        bb["nm"] *= float(rng.uniform(0.9, 1.1))
        bb["kappa"] *= float(rng.uniform(0.9, 1.1))
        stem = self.workdir / f"{self.name}-{i:04d}"
        path = stem.with_suffix(".json")
        _write_json(path, doc)
        return path, Path(f"{stem}-lambda.csv"), Path(f"{stem}-classify.csv")

    def run(self, inp, tracer):
        path, lambda_csv, classify_csv = inp
        with _span(tracer, "scenario.load"):
            s = penmix.load_scenario(path)
            penmix.validate(s)
        results = {
            "babyboom": run_cli(["babyboom", path, "--out", lambda_csv]),
            "classify": run_cli(["classify", path, "--step", "5", "--out", classify_csv]),
        }
        return s, results

    def check(self, i, inp, raw):
        _, lambda_csv, classify_csv = inp
        s, results = raw
        docs, problems = _cli_docs(results, "babyboom")
        if problems:
            return problems, {}
        d, bb = s.demo, s.demo.babyboom
        summary, report = docs["babyboom"], docs["classify"]
        problems += _check_ages(s, summary, "babyboom")

        # the plateaus of Lambda(t) are the constant-mode ratios at rho1, rho2
        pre = demography.support_ratio(dataclasses.replace(d, babyboom=None, rho=bb.rho1))
        post = demography.support_ratio(dataclasses.replace(d, babyboom=None, rho=bb.rho2))
        header, rows = _read_csv(lambda_csv)
        if header != ["t", "n", "Lambda"]:
            problems.append(f"babyboom: CSV header {header}")
            return problems, {}
        table = [(float(t), float(lam)) for t, _, lam in rows]
        left = [lam for t, lam in table if t < bb.t1]
        right = [lam for t, lam in table if t > bb.t2 + d.omega - d.a]
        if not left or not right:
            problems.append("babyboom: no plateau rows in the Lambda(t) table")
        for label, values, ref in (("pre", left, pre), ("post", right, post)):
            worst = max((abs(v - ref) / ref for v in values), default=0.0)
            key = f"{label}_plateau_rel_err_max"
            self.diagnostics[key] = max(self.diagnostics.get(key, 0.0), worst)
            if not worst <= PLATEAU_TOL[label]:
                problems.append(f"babyboom: {label}-boom plateau off the constant "
                                f"ratio {ref} by {worst:.3g} relative")
        if not abs(summary["one_over_lambda_pre_boom"] * pre - 1.0) <= 1e-12:
            problems.append("babyboom: one_over_lambda_pre_boom disagrees with the plateau")

        # classify: one row per age step, the top vehicle consistent with scores
        header, rows = _read_csv(classify_csv)
        ages = np.arange(d.a, d.omega + 2.5, 5.0)
        if header != ["zeta", "M1t", "M2t", "M1mM2", "ordering"] or len(rows) != len(ages):
            problems.append(f"classify: {len(rows)} rows, header {header}")
        for zeta, m1, m2, _, ordering in rows:
            scores = sorted((("P", float(m1)), ("E", float(m2)), ("I", 0.0)),
                            key=lambda kv: -kv[1])
            if scores[0][1] - scores[1][1] > 1e-9 and ordering[0] != scores[0][0]:
                problems.append(f"classify: age {zeta} ordering {ordering} vs scores {scores}")
        for key in ("zeta_hat", "zeta_tilde"):
            if report[key] != summary[key]:
                problems.append(f"classify: {key} {report[key]} vs babyboom {summary[key]}")

        outputs = {
            "zeta_hat": ("rate", summary["zeta_hat"]),
            "zeta_tilde": ("rate", summary["zeta_tilde"]),
            "one_over_lambda_pre_boom": ("value", summary["one_over_lambda_pre_boom"]),
            "one_over_lambda_post_boom": ("value", summary["one_over_lambda_post_boom"]),
        }
        for t, lam in table[:: self.LAMBDA_SAMPLE]:
            outputs[f"lambda_at_{t:.1f}"] = ("value", lam)
        return problems, outputs


# --------------------------------------------------------------------------
# mc-oracle
# --------------------------------------------------------------------------

class McOracle(Workload):
    """Monte Carlo oracle on the US fixture for two cohorts of different classes."""

    name = "mc-oracle"
    #: entry times relative to t0: a new worker (delta1) and a retiree (delta2)
    COHORTS = (0.0, -40.0)
    #: paths per cohort: two blocks of 1024 antithetic pairs at this commit
    N_PATHS = 4096
    DT = 0.01

    def prepare(self) -> None:
        path = self.workdir / f"{self.name}-us.json"
        _write_json(path, self.fixture("scenario_us.json"))
        self.s = penmix.load_scenario(path)
        penmix.validate(self.s)
        t0 = self.s.policy.t0
        steps = {len(montecarlo._time_grid(t0 + dz, self.s, self.DT)) - 1
                 for dz in self.COHORTS}
        if len(steps) != 1:
            raise RuntimeError(f"cohort meshes differ in length: {sorted(steps)}")
        self.mesh_steps = steps.pop()

    def make_input(self, i: int):
        seeds = _rng(self.seed, i).integers(0, 2**63 - 1, size=len(self.COHORTS))
        return [int(x) for x in seeds]

    def run(self, seeds, tracer):
        s = self.s
        reports = []
        for dz, seed in zip(self.COHORTS, seeds):
            cfg = montecarlo.SimulationConfig(
                z=s.policy.t0 + dz, theta=s.policy.theta0, k=s.policy.k0,
                n_paths=self.N_PATHS, dt=self.DT, seed=seed, antithetic=True)
            reports.append(montecarlo.simulate_cohort(cfg, s))
        return reports

    def path_steps(self, raw) -> int:
        return sum(rep.n_paths for rep in raw) * self.mesh_steps

    def check(self, i, seeds, raw):
        problems, outputs = [], {}
        for dz, rep in zip(self.COHORTS, raw):
            tag = f"z{dz:+.0f}"
            gap_u = abs(rep.mean_utility - rep.closed_form_value)
            if not gap_u <= MC_SE_LIMIT * rep.se_utility:
                problems.append(f"{tag}: mean utility {rep.mean_utility} is "
                                f"{gap_u / rep.se_utility:.2f} SE from {rep.closed_form_value}")
            if not abs(rep.mean_terminal_wealth) <= MC_SE_LIMIT * rep.se_terminal_wealth:
                problems.append(f"{tag}: terminal wealth {rep.mean_terminal_wealth} "
                                f"(SE {rep.se_terminal_wealth}) is not 0")
            if rep.clipped_paths != 0:
                problems.append(f"{tag}: {rep.clipped_paths} clipped path-steps")
            if rep.n_paths != self.N_PATHS:
                problems.append(f"{tag}: {rep.n_paths} paths simulated")
            outputs[f"{tag}.mean_utility"] = ("mc", rep.mean_utility)
            outputs[f"{tag}.mean_terminal_wealth"] = ("mc", rep.mean_terminal_wealth)
        return problems, outputs


WORKLOADS = {cls.name: cls for cls in (SweepCold, PolicyWarm, Babyboom, McOracle)}
