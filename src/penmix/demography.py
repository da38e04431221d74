"""Survival probabilities, cohort-mass integrals, support ratio, annuity factor.

Mortality follows Makeham's law: force of mortality A + B*c^x, giving the
survival function s(x) = exp(-A(x-a) - (B/ln c)(c^x - c^a)) conditional on
being alive at the entry age a.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator

from .errors import DomainError
from .scenario import BabyBoomParams, DemographyParams

#: absolute quadrature tolerance for the demographic integrals
QUAD_ABS_TOL = 1e-10
#: grid step (years) of the cached Lambda(t) table
BB_GRID_STEP = 0.1
#: widest Gauss-Legendre panel (years) of the Lambda(t) mass integrals
BB_PANEL = 1.0
#: Lambda(t) table nodes integrated together (bounds the temporaries)
BB_CHUNK = 16

_GL_X, _GL_W = np.polynomial.legendre.leggauss(10)


def _gauss_legendre(lo, hi, f):
    """10-point Gauss-Legendre integral of f over each panel [lo_i, hi_i].

    f receives a (panels, 10) array of nodes.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return (f(mid[:, None] + half[:, None] * _GL_X) * _GL_W).sum(axis=1) * half


def _panels(lo, hi, width: float):
    """Cut every interval [lo_i, hi_i] into equal panels no wider than width.

    Returns (panel lo, panel hi, owning interval i), in interval order; an
    empty interval gets no panel and the last panel of each ends exactly at
    hi_i.
    """
    gaps = hi - lo
    n = np.ceil(gaps / width).astype(int)
    own = np.repeat(np.arange(gaps.size), n)
    j = np.arange(own.size) - np.repeat(np.cumsum(n) - n, n)
    last = j == n[own] - 1
    return (lo[own] + gaps[own] * (j / n[own]),
            np.where(last, hi[own], lo[own] + gaps[own] * ((j + 1) / n[own])), own)


def survival(x, demo: DemographyParams):
    """Probability that a participant alive at age a is still alive at age x."""
    x = np.asarray(x, dtype=float)
    if np.any(x < demo.a - 1e-12):
        raise DomainError(f"survival undefined below the entry age {demo.a}")
    lnc = math.log(demo.c)
    out = np.exp(-demo.A * (x - demo.a)
                 - (demo.B / lnc) * (np.exp(x * lnc) - demo.c**demo.a))
    return float(out) if out.ndim == 0 else out


def _mass_integrand(demo: DemographyParams):
    lnc = math.log(demo.c)
    ca = demo.c**demo.a
    rhoA = demo.rho + demo.A
    a = demo.a

    def f(u):
        return math.exp(-rhoA * (u - a) - (demo.B / lnc) * (math.exp(u * lnc) - ca))

    return f


def lambda_segment(lo: float, hi: float, demo: DemographyParams) -> float:
    """Entrant-discounted survivor mass integral over ages [lo, hi]."""
    if not (demo.a - 1e-12 <= lo <= hi <= demo.omega + 1e-12):
        raise DomainError(
            f"segment [{lo}, {hi}] must satisfy a <= lo <= hi <= omega")
    if hi - lo <= 0:
        return 0.0
    val, _ = quad(_mass_integrand(demo), lo, hi,
                  epsabs=QUAD_ABS_TOL, epsrel=1e-12, limit=200)
    return val


def support_ratio(demo: DemographyParams) -> float:
    """Workers per retiree mass; its inverse is the dependency ratio."""
    return (lambda_segment(demo.a, demo.tau, demo)
            / lambda_segment(demo.tau, demo.omega, demo))


def annuity_factor(demo: DemographyParams, r: float) -> float:
    """Expected present value at retirement of one unit of lifetime income.

    Integrates exp(-(r+A)t - (B/ln c) c^tau (c^t - 1)) over t in [0, inf),
    truncated where the integrand falls below 1e-16 (the senescent mortality
    term forces super-exponential decay).
    """
    if r <= 0:
        raise DomainError(f"annuity factor requires r > 0 (got {r})")
    lnc = math.log(demo.c)
    scale = (demo.B / lnc) * demo.c**demo.tau

    def exponent(t):
        return -(r + demo.A) * t - scale * math.expm1(t * lnc)

    upper = 1.0
    while exponent(upper) > math.log(1e-16):
        upper *= 2.0
        if upper > 1e9:  # B = 0: pure exponential, integral is 1/(r+A)
            break
    val, _ = quad(lambda t: math.exp(exponent(t)), 0.0, upper,
                  epsabs=QUAD_ABS_TOL, epsrel=1e-12, limit=200)
    if upper > 1e9:
        val += math.exp(exponent(upper)) / (r + demo.A)
    return val


# --------------------------------------------------------------------------
# baby-boom entrant flow and time-varying support ratio
# --------------------------------------------------------------------------

def bb_entrants(t, bb: BabyBoomParams):
    """Entrant density n(t): exponential / logistic / exponential, continuous."""
    t = np.asarray(t, dtype=float)
    n_t2 = bb.nm / (1.0 + (bb.nm / bb.n1 - 1.0) * math.exp(-bb.kappa * (bb.t2 - bb.t1)))
    pre = bb.n1 * np.exp(bb.rho1 * (t - bb.t1))
    mid = bb.nm / (1.0 + (bb.nm / bb.n1 - 1.0) * np.exp(-bb.kappa * np.clip(t - bb.t1, 0.0, None)))
    post = n_t2 * np.exp(bb.rho2 * (t - bb.t2))
    out = np.where(t <= bb.t1, pre, np.where(t <= bb.t2, mid, post))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class SupportRatioFn:
    """Support ratio as a function of time.

    In constant mode the value is t-independent. In babyboom mode the ratio is
    tabulated on a grid over [t_lo, t_hi] (step `grid_step`, the last step
    shortened to end at t_hi) with monotone-cubic interpolation between nodes
    and constant extension outside.
    """

    mode: str                    # "constant" | "babyboom"
    value: float                 # constant-mode value (babyboom: left-plateau value)
    t_lo: float = -math.inf
    t_hi: float = math.inf
    grid_step: float = 0.0
    _interp: Optional[PchipInterpolator] = None
    _right_value: float = 0.0

    @property
    def nodes(self) -> np.ndarray:
        """Table nodes, t_lo first and t_hi last (babyboom mode)."""
        return self._interp.x

    def __call__(self, t):
        if self.mode == "constant":
            t = np.asarray(t, dtype=float)
            out = np.full_like(t, self.value)
            return float(out) if out.ndim == 0 else out
        t = np.asarray(t, dtype=float)
        clipped = np.clip(t, self.t_lo, self.t_hi)
        out = np.where(t <= self.t_lo, self.value,
                       np.where(t >= self.t_hi, self._right_value, self._interp(clipped)))
        return float(out) if out.ndim == 0 else out


def _bb_masses(ts, demo: DemographyParams) -> np.ndarray:
    """Worker and retiree masses at times ts: the integrals of n(t - u + a) s(u)
    over ages [a, tau] and [tau, omega], shape (len(ts), 2).

    Each age range is split at the regime kinks u = t - t1 + a and
    u = t - t2 + a, inside which the integrand is smooth, and each piece is
    cut into Gauss-Legendre panels at most BB_PANEL wide.
    """
    bb, a = demo.babyboom, demo.a
    ts = np.asarray(ts, dtype=float)
    kinks = np.column_stack([ts - bb.t2 + a, ts - bb.t1 + a])
    # (node, age range, edge): each range's ends with the kinks clipped into it
    edges = np.stack([
        np.column_stack([np.full(ts.size, lo), np.clip(kinks, lo, hi), np.full(ts.size, hi)])
        for lo, hi in ((a, demo.tau), (demo.tau, demo.omega))], axis=1)
    plo, phi, own = _panels(edges[..., :-1].ravel(), edges[..., 1:].ravel(), BB_PANEL)
    t_of = ts[own // 6][:, None]
    vals = _gauss_legendre(plo, phi,
                           lambda u: bb_entrants(t_of - u + a, bb) * survival(u, demo))
    return np.bincount(own // 3, weights=vals, minlength=2 * ts.size).reshape(ts.size, 2)


@lru_cache(maxsize=16)
def support_ratio_fn(demo: DemographyParams) -> SupportRatioFn:
    """Build (and cache) the support-ratio function for this demography."""
    if demo.babyboom is None:
        return SupportRatioFn(mode="constant", value=support_ratio(demo))

    bb = demo.babyboom
    # Lambda(t) is constant outside [t1, t2 + omega - a]: before t1 every living
    # cohort entered in the rho1 regime, after t2 + omega - a in the rho2 regime.
    t_lo, t_hi = bb.t1, bb.t2 + demo.omega - demo.a
    # the last step is shortened so that the table ends exactly at t_hi
    ts = np.arange(t_lo, t_hi, BB_GRID_STEP)
    ts = np.append(ts[ts < t_hi - 1e-9], t_hi)
    mass = np.vstack([_bb_masses(ts[i:i + BB_CHUNK], demo)
                      for i in range(0, ts.size, BB_CHUNK)])
    table = mass[:, 0] / mass[:, 1]
    return SupportRatioFn(mode="babyboom", value=float(table[0]),
                          t_lo=float(ts[0]), t_hi=float(ts[-1]),
                          grid_step=BB_GRID_STEP,
                          _interp=PchipInterpolator(ts, table),
                          _right_value=float(table[-1]))


def bb_support_ratio(t, demo: DemographyParams):
    """Time-varying support ratio under the baby-boom entrant flow."""
    if demo.babyboom is None:
        raise DomainError("scenario has no babyboom parameters")
    return support_ratio_fn(demo)(t)
