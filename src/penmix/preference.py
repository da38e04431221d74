"""Age-dependent preference orderings among PAYGO, EET, and individual savings.

A cohort aged zeta at the re-selection time compares the three vehicles via
the signs of three coefficients: Mt1 (PAYGO vs savings), Mt2 (EET vs savings),
and Mt1 - Mt2 (PAYGO vs EET).  Each sign flips at most once on [a, tau), at
the critical ages zeta_hat, zeta_bar, zeta_tilde respectively.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import DomainError
from .lifecycle import _bb_m1, _coef_kernel
from .scenario import Scenario, check_step, validate

#: half-width of the indifference band: coefficient magnitudes below this are
#: reported as ties (exact zeros occur only at analytically constructed cases)
TIE_TOL = 1e-12

#: scan step (years) used to bracket roots when no closed form exists
BB_SCAN_STEP = 0.25


def tilde_coefficients(zeta: float, s: Scenario):
    """(Mt1, Mt2, Mt1 - Mt2) at age zeta.

    With a time-varying support ratio Mt1 (and hence the difference) is
    computed numerically from the Lambda(t) table; Mt2 never depends on the
    entrant flow.
    """
    d = s.demo
    if not d.a - 1e-12 <= zeta <= d.omega + 1e-12:
        raise DomainError(f"age {zeta} outside [a, omega]")
    return tuple(float(v) for v in _tilde_arrays(zeta, s))


def _tilde_arrays(zeta, s: Scenario):
    """(Mt1, Mt2, Mt1 - Mt2) at the ages zeta (any shape): the cohort's M1
    and M2 at t0, with M1 from the Lambda(t) table under a baby boom."""
    d, p = s.demo, s.policy
    dc = validate(s)
    zeta = np.asarray(zeta, dtype=float)
    mt1, mt2, _, _ = _coef_kernel(np.maximum(d.tau - zeta, 0.0), d.omega - zeta, s,
                                  dc.epsilon, dc.epsilon_tilde, dc.Lambda, dc.a_tau)
    if d.babyboom is not None:
        mt1 = _bb_m1(p.t0, d.a + p.t0 - zeta, s, dc.epsilon)
    return mt1, mt2, mt1 - mt2


def thresholds(s: Scenario):
    """(Lambda_FP, Lambda_EP): support-ratio levels below which the
    PAYGO-vs-savings and PAYGO-vs-EET critical ages exist."""
    d, p = s.demo, s.policy
    dc = validate(s)
    eps, epst, r, a_tau = dc.epsilon, dc.epsilon_tilde, s.market.r, dc.a_tau
    lam_fp = (1 - p.tau1) * (1 - math.exp(-eps * (d.tau - d.a))) \
        / (math.exp(eps * (d.omega - d.tau)) - 1.0)
    lam_ep = (eps * (1 - p.tau2) * (1 - math.exp(-r * (d.omega - d.tau)))
              * (math.exp((epst - eps) * (d.tau - d.a)) - 1.0)
              / (r * a_tau * (math.exp(eps * (d.omega - d.tau)) - 1.0) * (epst - eps)))
    return lam_fp, lam_ep


def _first_crossing(vals):
    """(first i with v[i] == 0 or a sign change v[i] v[i+1] < 0, number of
    zeros and sign changes); i is 0 when there is none."""
    zero = vals == 0.0
    change = vals[:-1] * vals[1:] < 0
    return (int(np.argmax(np.append(zero[:-1] | change, zero[-1]))),
            int(zero.sum() + change.sum()))


def _first_root(xs, vals):
    """Generator of (first root or None, crossing count) of a column with
    values vals on the bracket grid xs: it yields each round's ages and is
    sent their values.

    Each round cuts the first bracket with a zero or a sign change 32 ways by
    five levels of midpoints, the points bisection would visit, and keeps the
    first sub-bracket with a zero or a sign change, until the bracket is at
    most 1e-8 wide.  So with one sign change in the bracket the root is
    bisection's, bit for bit.
    """
    i, count = _first_crossing(vals)
    if count == 0 or vals[i] == 0.0:
        return (None if count == 0 else float(xs[i])), count
    a, b, fa, fb = xs[i], xs[i + 1], vals[i], vals[i + 1]
    halvings = math.ceil(math.log2((b - a) / 1e-8)) if b - a > 1e-8 else 0
    while halvings > 0:
        n = 2 ** min(halvings, 5)
        halvings -= 5
        grid = np.empty(n + 1)
        grid[0], grid[n] = a, b
        stride = n
        while stride > 1:   # midpoints of the previous level, coarse to fine
            grid[stride // 2::stride] = 0.5 * (grid[:-1:stride] + grid[stride::stride])
            stride //= 2
        vals = np.concatenate(([fa], (yield grid[1:-1]), [fb]))
        j, _ = _first_crossing(vals)
        if vals[j] == 0.0:
            return float(grid[j]), count
        a, b, fa, fb = grid[j], grid[j + 1], vals[j], vals[j + 1]
    return float(0.5 * (a + b)), count


def _first_roots(f, xs, vals, wanted):
    """[(first root or None, crossing count)] of each wanted column of
    vals = f(xs) on the bracket grid xs; (None, 0) for the others.

    f maps a 1-D array of ages to a sequence of columns.  The columns are
    refined together: each round is one call of f on the concatenated ages
    that every column's `_first_root` asks for.
    """
    out = [(None, 0)] * len(vals)
    gens = {c: _first_root(xs, vals[c]) for c in np.flatnonzero(wanted)}
    sent = dict.fromkeys(gens)   # None primes each generator
    while True:
        asks = {}
        for c, values in sent.items():
            try:
                asks[c] = gens[c].send(values)
            except StopIteration as stop:
                out[c] = stop.value
        if not asks:
            return out
        cols = f(np.concatenate(list(asks.values())))
        ends = np.cumsum([ages.size for ages in asks.values()])
        sent = {c: cols[c][end - ages.size:end] for (c, ages), end in zip(asks.items(), ends)}


def critical_age_paygo_savings(s: Scenario) -> Optional[float]:
    """Age above which PAYGO is preferred to individual savings; None when
    every age prefers PAYGO."""
    return _analyse(s)[0].zeta_hat


def critical_age_paygo_eet(s: Scenario) -> Optional[float]:
    """Age above which PAYGO is preferred to EET; None when every age prefers
    PAYGO."""
    return _analyse(s)[0].zeta_tilde


@dataclass(frozen=True)
class EetSavingsCase:
    """Outcome of the EET-vs-savings comparison."""

    zeta_bar: Optional[float]     # interior flip age, if any
    flag: str                     # "interior" | "all_prefer_eet" | "all_prefer_savings"
    m2_at_entry: float            # Mt2(a)
    dm2_at_retirement: float      # Mt2'(tau)


def critical_age_eet_savings(s: Scenario) -> EetSavingsCase:
    """EET-vs-savings case split (validate ensures epsilon_tilde > 0)."""
    return _analyse(s)[1]


def _ordering_string(mt1: float, mt2: float) -> str:
    """Total order over {P, E, I} from the vehicle scores (savings scores 0)."""
    scored = sorted((("P", mt1), ("E", mt2), ("I", 0.0)),
                    key=lambda kv: -kv[1])
    out = scored[0][0]
    for (_, prev), (name, val) in zip(scored, scored[1:]):
        out += "~" if abs(prev - val) <= TIE_TOL else ">"
        out += name
    return out


def _case_label(zh_exists: bool, zt_exists: bool, eet_flag: str) -> str:
    """Terminal outcome of the preference flowchart.

    Cases 1-3 cover the combinations where at least one of the PAYGO critical
    ages is absent (PAYGO tops the missing comparison at every age); cases 4-6
    split the both-ages-exist family by the EET-vs-savings regime (all prefer
    EET / interior flip / all prefer savings).
    """
    if not zh_exists and not zt_exists:
        return "case_1"
    if zh_exists and not zt_exists:
        return "case_2"
    if not zh_exists and zt_exists:
        return "case_3"
    return {"all_prefer_eet": "case_4",
            "interior": "case_5",
            "all_prefer_savings": "case_6"}[eet_flag]


@dataclass(frozen=True)
class Classification:
    zeta: float
    mt1: float
    mt2: float
    mt1_minus_mt2: float
    ordering: str
    case_label: str


def classify(zeta: float, s: Scenario) -> Classification:
    """Preference ordering of the cohort aged zeta, plus the scenario case."""
    mt1, mt2, _diff = tilde_coefficients(zeta, s)
    return Classification(
        zeta=zeta, mt1=mt1, mt2=mt2, mt1_minus_mt2=_diff,
        ordering=_ordering_string(mt1, mt2), case_label=_analyse(s)[0].case_label)


@dataclass(frozen=True)
class PreferenceReport:
    """Thresholds, critical ages, and per-age orderings for one scenario."""

    lambda_fp: float
    lambda_ep: float
    zeta_hat: Optional[float]
    zeta_tilde: Optional[float]
    zeta_bar: Optional[float]
    eet_flag: str
    case_label: str
    orderings: tuple = field(default=())      # rows (zeta, mt1, mt2, diff, ordering)
    diagnostics: tuple = field(default=())    # (name, crossing count) pairs

    def to_dict(self) -> dict:
        doc = asdict(replace(self, orderings=()))
        del doc["orderings"]
        doc["diagnostics"] = dict(self.diagnostics)
        return doc


@lru_cache(maxsize=64)
def _analyse(s: Scenario):
    """(PreferenceReport without orderings, EetSavingsCase) in one pass,
    cached per scenario.

    zeta_hat and zeta_tilde are closed forms unless a baby boom makes Mt1
    time-varying.  Every root that needs a scan shares one `_tilde_arrays`
    call on the bracket grid over [a, tau), whose first node is the entry
    age, and one joint refinement; with no scan only Mt2(a) is evaluated.
    """
    d, p = s.demo, s.policy
    dc = validate(s)
    lam_fp, lam_ep = thresholds(s)
    eps, epst, r, a_tau = dc.epsilon, dc.epsilon_tilde, s.market.r, dc.a_tau
    dm2 = (1 - p.tau1) - (1 - p.tau2) * (1 - math.exp(-r * (d.omega - d.tau))) / (r * a_tau)
    bb = d.babyboom is not None
    hi = d.tau - 1e-9
    xs = np.append(np.arange(d.a, hi, BB_SCAN_STEP), hi) if bb or dm2 > 0 else np.array([d.a])
    vals = _tilde_arrays(xs, s)
    m2a = float(vals[1][0])
    flag = "all_prefer_savings" if m2a < 0 else "interior" if dm2 > 0 else "all_prefer_eet"
    # a PAYGO lead at the entry age holds at every age: no critical age
    wanted = (bb and not vals[0][0] > 0, flag == "interior", bb and not vals[2][0] > 0)
    (zh, zh_n), (zbar, _), (zt, zt_n) = _first_roots(
        lambda ages: _tilde_arrays(ages, s), xs, vals, wanted)
    if not bb:
        grow = math.exp(eps * (d.omega - d.tau))
        zh_n, zt_n = int(dc.Lambda <= lam_fp), int(dc.Lambda <= lam_ep)
        zh = d.tau + (1.0 / eps) * math.log(
            1.0 + (dc.Lambda - dc.Lambda * grow) / (1 - p.tau1)) if zh_n else None
        zt = d.tau + (1.0 / (eps - epst)) * math.log(
            1.0 - dc.Lambda * (grow - 1.0) * r * (eps - epst) * a_tau
            / (eps * (1 - p.tau2) * (1 - math.exp(-r * (d.omega - d.tau))))) if zt_n else None
    if flag == "interior" and zbar is None:
        zbar = hi   # Mt2's one sign change lies within round-off of tau
    report = PreferenceReport(
        lambda_fp=lam_fp, lambda_ep=lam_ep, zeta_hat=zh, zeta_tilde=zt,
        zeta_bar=zbar, eet_flag=flag,
        case_label=_case_label(zh is not None, zt is not None, flag),
        diagnostics=(("zeta_hat_crossings", zh_n), ("zeta_tilde_crossings", zt_n)))
    return report, EetSavingsCase(zbar, flag, m2a, dm2)


def preference_map(s: Scenario, step: float = 1.0) -> PreferenceReport:
    """Full preference report with per-age orderings on a grid over [a, omega]."""
    d = s.demo
    check_step(step, d.omega - d.a, "age step")
    n = math.floor((d.omega - d.a) / step + 1e-9)
    ages = np.minimum(d.a + step * np.arange(n + 1), d.omega)
    columns = (v.tolist() for v in _tilde_arrays(ages, s))
    rows = tuple((zeta, mt1, mt2, diff, _ordering_string(mt1, mt2))
                 for zeta, mt1, mt2, diff in zip(ages.tolist(), *columns))
    return replace(_analyse(s)[0], orderings=rows)
