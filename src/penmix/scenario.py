"""Model parameters, structural validation, and derived scalar constants.

All rates are continuous-compounding annual rates and the time unit is years.
Wealth is measured in multiples of the time-0 average salary (W0 normalizes
the currency unit).
"""
from __future__ import annotations

import json
import math
import numbers
import warnings
from dataclasses import MISSING, dataclass, fields, replace
from functools import lru_cache
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import (
    DegenerateDrift,
    DomainError,
    OrderingViolation,
    ParseError,
    SchemaError,
    UtilityExplosion,
)

#: Hard tolerance for the drift non-degeneracy hypotheses epsilon != 0 and
#: epsilon_tilde != epsilon.  No limiting formulas exist, so violation is fatal.
DRIFT_TOL = 1e-12


@dataclass(frozen=True)
class MarketParams:
    """Financial market, salary, and EET-fund dynamics."""

    r: float        # risk-free rate (1/year)
    mu: float       # risky-asset drift (1/year)
    sigma: float    # risky-asset volatility (1/sqrt-year)
    gamma: float    # average-salary drift (1/year)
    xi: float       # average-salary volatility (1/sqrt-year)
    alpha: float    # EET-fund drift (1/year)
    beta: float     # EET-fund volatility (1/sqrt-year)
    W0: float = 1.0  # initial average salary; normalizes the currency unit


@dataclass(frozen=True)
class BabyBoomParams:
    """One-off logistic shock to the entrant flow on (t1, t2]."""

    t1: float      # boom start (years)
    t2: float      # boom end (years)
    n1: float      # entrant density at t1 (persons/year)
    nm: float      # logistic carrying capacity (> n1)
    kappa: float   # logistic growth rate (1/year)
    rho1: float    # exponential growth rate before t1 (1/year)
    rho2: float    # exponential growth rate after t2 (1/year)


@dataclass(frozen=True)
class DemographyParams:
    """Entry/retirement/maximal ages, entrant flow, and Makeham mortality."""

    a: float       # entry age (years)
    tau: float     # retirement age (years)
    omega: float   # maximal survival age (years)
    rho: float     # entrant growth rate (1/year)
    A: float       # Makeham constant hazard
    B: float       # Makeham senescent scale
    c: float       # Makeham senescent base (> 1)
    n0: float = 10.0  # entrant density at time 0 (persons/year)
    babyboom: Optional[BabyBoomParams] = None


@dataclass(frozen=True)
class PolicyParams:
    """Contribution rates, tax rates, cap, and the re-selection time."""

    theta0: float  # initial PAYGO contribution rate
    k0: float      # initial EET contribution rate
    m: float       # cap on theta + k
    tau1: float    # marginal tax rate on salary while working
    tau2: float    # marginal tax rate on EET benefits in retirement
    t0: float = 0.0  # government re-selection time (years)


@dataclass(frozen=True)
class PreferenceParams:
    """CRRA exponents per cohort class and the retirement-utility weight."""

    lam: float     # weight on post-retirement utility (JSON key "lambda")
    delta0: float  # CRRA exponent, cohorts not yet employed at t0
    delta1: float  # CRRA exponent, working cohorts at t0
    delta2: float  # CRRA exponent, retired cohorts at t0


@dataclass(frozen=True)
class Scenario:
    """Full parameter bundle. Immutable; safe to share across threads."""

    market: MarketParams
    demo: DemographyParams
    policy: PolicyParams
    pref: PreferenceParams

    def __hash__(self) -> int:
        # every per-scenario cache hashes its key on each lookup; the records
        # are frozen, so the hash is taken once and kept beside the fields
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.market, self.demo, self.policy, self.pref))
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self):
        # a copy or a pickle carries the fields alone: hash(None), inside an
        # absent baby-boom block, differs between processes
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class DerivedConstants:
    """Scalar constants computed once per scenario.

    L0, M01, M02, M03 are the entrant-time coefficients (independent of the
    entry time); L0 is evaluated with the future-entrant exponent delta0.
    """

    nu: float             # market price of risk (mu - r) / sigma
    epsilon: float        # gamma - r - xi * nu
    epsilon_tilde: float  # alpha - r - beta * nu
    Lambda: float         # support ratio (workers per retiree mass) at rate
                          # rho: under a baby boom the settled post-boom value
    a_tau: float          # annuity factor at retirement (years)
    L0: float
    M01: float
    M02: float
    M03: float


# --------------------------------------------------------------------------
# structural checks shared by load_scenario (SchemaError) and validate
# --------------------------------------------------------------------------

def _structural_violations(s: Scenario) -> list[str]:
    v = []
    d, p, f = s.demo, s.policy, s.pref
    if not d.a < d.tau < d.omega:
        v.append(f"ages must satisfy a < tau < omega (got {d.a}, {d.tau}, {d.omega})")
    if d.c <= 1:
        v.append(f"Makeham base c must exceed 1 (got {d.c})")
    if d.A < 0 or d.B < 0:
        v.append("Makeham constants A, B must be nonnegative")
    if d.n0 <= 0:
        v.append("entrant density n0 must be positive")
    if d.babyboom is not None:
        bb = d.babyboom
        if not bb.t1 < bb.t2:
            v.append(f"babyboom interval requires t1 < t2 (got {bb.t1}, {bb.t2})")
        if not 0 < bb.n1 < bb.nm:
            v.append(f"babyboom requires 0 < n1 < nm (got {bb.n1}, {bb.nm})")
        if bb.kappa <= 0:
            v.append("babyboom logistic rate kappa must be positive")
        if d.rho != bb.rho2:
            v.append(f"under a baby boom rho is the settled rate and must equal "
                     f"babyboom rho2 (got {d.rho}, {bb.rho2})")
    for name, val in (("theta0", p.theta0), ("k0", p.k0)):
        if not 0 <= val <= 1:
            v.append(f"{name} must lie in [0, 1] (got {val})")
    if not 0 <= p.m <= 1:
        v.append(f"cap m must lie in [0, 1] (got {p.m})")
    if p.theta0 + p.k0 > p.m + 1e-15:
        v.append(f"theta0 + k0 = {p.theta0 + p.k0} exceeds the cap m = {p.m}")
    for name, val in (("tau1", p.tau1), ("tau2", p.tau2)):
        if not 0 <= val < 1:
            v.append(f"{name} must lie in [0, 1) (got {val})")
    for name, val in (("delta0", f.delta0), ("delta1", f.delta1), ("delta2", f.delta2)):
        if not (val < 1 and val != 0):
            v.append(f"{name} must be < 1 and nonzero (got {val})")
    return v


def delta_for_entry(z: float, s: Scenario) -> float:
    """CRRA exponent assigned to the cohort entering at z, by age at t0.

    A cohort keeps this exponent for all of its own computations.
    """
    zeta = s.demo.a + s.policy.t0 - z
    if zeta < s.demo.a:
        return s.pref.delta0
    if zeta < s.demo.tau:
        return s.pref.delta1
    return s.pref.delta2


def validate(s: Scenario) -> DerivedConstants:
    """Check every standing assumption and return the derived constants.

    Raises OrderingViolation / DegenerateDrift / UtilityExplosion on failure.
    Pure: identical scenarios give bit-identical results (cached).
    """
    return _validate_cached(s)


@lru_cache(maxsize=64)
def _validate_cached(s: Scenario) -> DerivedConstants:
    from . import demography, lifecycle

    mk, d, p, f = s.market, s.demo, s.policy, s.pref
    problems = _structural_violations(s)
    if problems:
        raise OrderingViolation("; ".join(problems))

    if not (mk.mu > mk.r > 0):
        raise OrderingViolation(f"need mu > r > 0 (got mu={mk.mu}, r={mk.r})")
    if mk.sigma <= 0 or mk.xi < 0 or mk.beta < 0:
        raise OrderingViolation("volatilities must be positive (sigma) / nonnegative")
    if mk.W0 <= 0:
        raise OrderingViolation("W0 must be positive")

    nu = (mk.mu - mk.r) / mk.sigma
    epsilon_tilde = mk.alpha - mk.r - mk.beta * nu
    # for beta > 0 this is the Sharpe ordering (alpha - r) / beta > nu; a
    # riskless EET fund (beta = 0) needs alpha > r
    if epsilon_tilde <= 0:
        raise OrderingViolation(
            "EET Sharpe ratio (alpha-r)/beta must exceed the risky Sharpe ratio: "
            f"epsilon_tilde = alpha - r - beta*nu = {epsilon_tilde:.6g} <= 0")

    epsilon = mk.gamma - mk.r - mk.xi * nu
    if abs(epsilon) < DRIFT_TOL:
        raise DegenerateDrift(f"epsilon = gamma - r - xi*nu = {epsilon} is degenerate")
    if abs(epsilon_tilde - epsilon) < DRIFT_TOL:
        raise DegenerateDrift(
            f"epsilon_tilde = {epsilon_tilde} coincides with epsilon = {epsilon}")

    margin = mk.r - d.rho - f.delta0 * (mk.gamma + 0.5 * (f.delta0 - 1) * mk.xi**2)
    if margin <= 0:
        raise UtilityExplosion(
            "finiteness condition fails: r - rho - delta0*[gamma + (delta0-1)*xi^2/2]"
            f" = {margin} <= 0")

    if p.tau1 <= p.tau2:
        warnings.warn(
            f"tau1 = {p.tau1} <= tau2 = {p.tau2}: the EET tax-saving effect is "
            "absent or reversed", stacklevel=3)

    Lambda = demography.support_ratio(d)
    a_tau = demography.annuity_factor(d, mk.r)
    L0 = lifecycle.entry_L(f.delta0, s)
    with np.errstate(over="ignore", invalid="ignore"):   # refused below
        M01, M02, M03, _ = (float(v) for v in lifecycle._coef_kernel(
            d.tau - d.a, d.omega - d.a, s, epsilon, epsilon_tilde, Lambda, a_tau))
    dc = DerivedConstants(nu=nu, epsilon=epsilon, epsilon_tilde=epsilon_tilde,
                          Lambda=Lambda, a_tau=a_tau, L0=L0,
                          M01=M01, M02=M02, M03=M03)
    overflowed = [f.name for f in fields(dc) if not math.isfinite(getattr(dc, f.name))]
    if overflowed:
        raise OrderingViolation(f"derived constants {', '.join(overflowed)} not finite: the "
                                "scenario is outside the floating-point range of the closed forms")
    return dc


# --------------------------------------------------------------------------
# JSON round trip
# --------------------------------------------------------------------------

#: the JSON names that differ from the attribute names
_JSON_NAMES = {"demo": "demography", "pref": "preference", "lam": "lambda"}
_ATTR_NAMES = {json_name: attr for attr, json_name in _JSON_NAMES.items()}
#: the record class of each nested block, by attribute
_RECORDS = {"market": MarketParams, "demo": DemographyParams, "policy": PolicyParams,
            "pref": PreferenceParams, "babyboom": BabyBoomParams}


def _number(value, name: str) -> float:
    """A JSON number as a float; SchemaError naming the field otherwise
    (true, false, NaN and Infinity are not numbers)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise SchemaError(f"field {name} must be a finite number (got {value!r})")
    return float(value)


#: the most nodes a user-given grid step may put on its span
MAX_GRID_NODES = 10**6


def check_step(step: float, span: float, what: str) -> None:
    """DomainError unless the grid step is positive and finite and puts at
    most MAX_GRID_NODES nodes on span (years), checked before any grid is
    built."""
    if not (step > 0 and math.isfinite(step)):
        raise DomainError(f"{what} must be positive and finite (got {step})")
    if span / step > MAX_GRID_NODES:
        raise DomainError(f"{what} too small: more than {MAX_GRID_NODES} nodes "
                          f"over {span:g} years (got {step})")


def _record_from_dict(cls, doc, where: str):
    """The record of class cls from its JSON object: a field without a
    default is required, a nested block is optional (null is absent)."""
    if not isinstance(doc, dict):
        raise SchemaError(f"section {where} must be an object (got {doc!r})")
    values = {}
    for f in fields(cls):
        key = _JSON_NAMES.get(f.name, f.name)
        if f.name in _RECORDS:
            if doc.get(key) is not None:
                values[f.name] = _record_from_dict(_RECORDS[f.name], doc[key],
                                                   f"{where}.{key}")
        elif key in doc:
            values[f.name] = _number(doc[key], f"{where}.{key}")
        elif f.default is MISSING:
            raise SchemaError(f"missing required field {where}.{key}")
    return cls(**values)


def scenario_from_dict(doc: dict) -> Scenario:
    sections = [_JSON_NAMES.get(f.name, f.name) for f in fields(Scenario)]
    for key in sections:
        if key not in doc:
            raise SchemaError(f"missing required section '{key}'")
    s = Scenario(*(_record_from_dict(_RECORDS[f.name], doc[key], key)
                   for f, key in zip(fields(Scenario), sections)))
    problems = _structural_violations(s)
    if problems:
        raise SchemaError("; ".join(problems))
    return s


def scenario_to_dict(s) -> dict:
    """The JSON object of a scenario, or of one of its records: fields in
    declared order, an absent block left out."""
    doc = {}
    for f in fields(s):
        value = getattr(s, f.name)
        if value is not None:
            doc[_JSON_NAMES.get(f.name, f.name)] = (
                scenario_to_dict(value) if f.name in _RECORDS else value)
    return doc


def _read_json(path):
    """The JSON document in a UTF-8 file; ParseError when the file is not
    UTF-8 or not JSON (an unreadable path raises its OSError)."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def load_scenario(path) -> Scenario:
    """Parse a scenario JSON file. Raises ParseError / SchemaError."""
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top level must be a JSON object")
    return scenario_from_dict(doc)


def save_scenario(s: Scenario, path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(s), indent=2) + "\n")


#: the two paths of the settled entrant rate of a baby-boom scenario
_SETTLED_RATE = (["demo", "rho"], ["demo", "babyboom", "rho2"])


def with_params(s: Scenario, **dotted) -> Scenario:
    """Return a copy with dotted-path overrides, e.g. with_params(s, **{"demo.rho": -0.01}).

    Every path names one number: `section.field`, or `demo.babyboom.field`
    inside the baby-boom block.  A name is the scenario file's or the
    attribute's: `preference.lambda` and `pref.lam` are one path.
    On a baby-boom scenario `demo.rho` and `demo.babyboom.rho2` are the one
    settled rate: setting either sets both.
    """
    for path, value in dotted.items():
        names = [_ATTR_NAMES.get(name, name) for name in path.split(".")]
        settled = names in _SETTLED_RATE and s.demo.babyboom is not None
        for target in _SETTLED_RATE if settled else (names,):
            s = _with_number(s, target, value, path)
    return s


def _with_number(record, names, value, path: str):
    """Copy of the record with the number that the field names lead to set
    to value."""
    name, rest = names[0], names[1:]
    if name not in {f.name for f in fields(record)}:
        raise SchemaError(f"unknown parameter path '{path}'")
    child = getattr(record, name)
    if isinstance(child, (int, float)):
        if rest:
            raise SchemaError(f"unknown parameter path '{path}'")
        return replace(record, **{name: value})
    if not rest:
        raise SchemaError(f"parameter path '{path}' is a block: a path names one number")
    if child is None:
        raise SchemaError(f"parameter path '{path}': the scenario has no "
                          f"{name} block")
    return replace(record, **{name: _with_number(child, rest, value, path)})
