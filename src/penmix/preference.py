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

from .demography import support_ratio_fn
from .errors import DomainError
from .lifecycle import _bb_m1, _coef_kernel, _m2
from .scenario import Scenario, check_step, validate

#: half-width of the indifference band: coefficient magnitudes below this are
#: reported as ties (exact zeros occur only at analytically constructed cases)
TIE_TOL = 1e-12

#: scan step (years) used to bracket roots when no closed form exists
BB_SCAN_STEP = 0.25
#: a bracketed root is final after a Newton step of at most this (years):
#: Newton converges quadratically, so the step leaves round-off, and where
#: the slope is small (Mt2 near zeta_bar) a shorter step only chases it
ROOT_XTOL = 1e-10


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
    and M2 at t0.  Under a baby boom M1 is the Lambda(t) table's benefit leg
    less the contribution leg, and M2 `_coef_kernel`'s closed form alone."""
    d, p = s.demo, s.policy
    dc = validate(s)
    zeta = np.asarray(zeta, dtype=float)
    eps, q = dc.epsilon, np.maximum(d.tau - zeta, 0.0)
    if d.babyboom is None:
        mt1, mt2, _, _ = _coef_kernel(q, d.omega - zeta, s, eps, dc.epsilon_tilde,
                                      dc.Lambda, dc.a_tau)
    else:
        mt2, _ = _m2(q, np.exp(eps * q), s, eps, dc.epsilon_tilde, dc.a_tau)
        mt1 = _bb_m1(p.t0, d.a + p.t0 - zeta, s, eps)
    return mt1, mt2, mt1 - mt2


def _tilde_slopes(zeta, s: Scenario):
    """The zeta-derivatives of (Mt1, Mt2, Mt1 - Mt2) at working ages zeta < tau.

    The benefit leg of Mt1 runs over [t_ret, T], whose ends t0 + tau - zeta
    and t0 + omega - zeta both fall as zeta rises, so its slope is the
    leg's integrand at the two ends; the contribution leg and Mt2 are
    closed forms in q = tau - zeta.
    """
    d, p = s.demo, s.policy
    dc = validate(s)
    eps, epst = dc.epsilon, dc.epsilon_tilde
    zeta = np.asarray(zeta, dtype=float)
    q = d.tau - zeta
    eq = np.exp(eps * q)
    if d.babyboom is None:
        lam_end = lam_ret = dc.Lambda
    else:
        fn = support_ratio_fn(d)
        lam_end, lam_ret = fn(p.t0 + d.omega - zeta), fn(p.t0 + q)
    dm1 = -lam_end * np.exp(eps * (d.omega - zeta)) + (lam_ret + 1 - p.tau1) * eq
    _, ann = _m2(q, eq, s, eps, epst, dc.a_tau)
    dm2 = (1 - p.tau1) * eq - ann / (eps - epst) * (eps * eq - epst * np.exp(epst * q))
    return dm1, dm2, dm1 - dm2


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


def _bracketed_newton(f, lo, hi, f_lo, f_hi):
    """Roots x[c] of the columns c of f, each in its bracket [lo[c], hi[c]]
    where it changes sign (f_lo[c] f_hi[c] < 0).

    f maps the ages x, one per column, to (values, slopes) of each column
    at its own age.  Bracketed Newton (Press et al., *Numerical Recipes*,
    §9.4, `rtsafe`): start at the secant point; each value replaces the
    bracket end of its sign; take the Newton step when it lands inside the
    bracket and is at most half the step before, and bisect otherwise.  A
    column stops at an exact zero, after a Newton step of at most ROOT_XTOL
    or once its bracket is that narrow.
    """
    lo, hi, f_lo = (np.array(v, dtype=float) for v in (lo, hi, f_lo))
    x = lo - f_lo * (hi - lo) / (f_hi - f_lo)
    dx = hi - lo
    done = np.zeros(x.size, dtype=bool)
    while not done.all():
        v, dv = f(x)
        left = np.sign(v) == np.sign(f_lo)
        lo, f_lo = np.where(left, x, lo), np.where(left, v, f_lo)
        hi = np.where(left, hi, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = v / dv
        newton = x - step
        take = (newton >= lo) & (newton <= hi) & (np.abs(step) <= 0.5 * np.abs(dx))
        nxt = np.where(v == 0.0, x, np.where(take, newton, 0.5 * (lo + hi)))
        stop = (v == 0.0) | (take & (np.abs(step) <= ROOT_XTOL)) | (hi - lo <= ROOT_XTOL)
        dx, x = nxt - x, np.where(done, x, nxt)
        done |= stop
    return x


def _first_roots(f, xs, vals, wanted):
    """[(first root or None, crossing count)] of each wanted column of vals,
    the values on the bracket grid xs; (None, 0) for the others.

    A zero on the grid is the root itself; the first sign change of every
    other column is polished by one `_bracketed_newton` run on
    f(ages) -> (values, slopes), each column indexed [column][age].
    """
    out = [(None, 0)] * len(vals)
    polish = []
    for c in np.flatnonzero(wanted):
        i, count = _first_crossing(vals[c])
        out[c] = (None if count == 0 else float(xs[i])), count
        if count and vals[c][i] != 0.0:
            polish.append((c, i))
    if polish:
        cols, at = np.array(polish).T
        own = np.arange(cols.size)

        def column_at_own_age(ages):
            values, slopes = f(ages)
            return np.asarray(values)[cols, own], np.asarray(slopes)[cols, own]

        roots = _bracketed_newton(column_at_own_age, xs[at], xs[at + 1],
                                  [vals[c][i] for c, i in polish],
                                  [vals[c][i + 1] for c, i in polish])
        for c, root in zip(cols, roots):
            out[c] = float(root), out[c][1]
    return out


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
    age, and one `_bracketed_newton` run on the exact zeta-slopes
    (`_tilde_slopes`) polishes their first brackets together; with no scan
    only Mt2(a) is evaluated.
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
        lambda ages: (_tilde_arrays(ages, s), _tilde_slopes(ages, s)), xs, vals, wanted)
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
