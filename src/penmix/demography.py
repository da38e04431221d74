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
#: widest Gauss-Legendre panel (years) of the Lambda(t) cumulative mass tables
BB_PANEL = 1.0

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

def _bb_n_t2(bb: BabyBoomParams) -> float:
    """Entrant density at the end of the boom, where the rho2 regime starts."""
    return bb.nm / (1.0 + (bb.nm / bb.n1 - 1.0) * math.exp(-bb.kappa * (bb.t2 - bb.t1)))


def _bb_logistic(t, bb: BabyBoomParams):
    """Logistic entrant density of the boom regime t1 < t <= t2."""
    return bb.nm / (1.0 + (bb.nm / bb.n1 - 1.0) * np.exp(-bb.kappa * np.clip(t - bb.t1, 0.0, None)))


def bb_entrants(t, bb: BabyBoomParams):
    """Entrant density n(t): exponential / logistic / exponential, continuous."""
    t = np.asarray(t, dtype=float)
    pre = bb.n1 * np.exp(bb.rho1 * (t - bb.t1))
    post = _bb_n_t2(bb) * np.exp(bb.rho2 * (t - bb.t2))
    out = np.where(t <= bb.t1, pre, np.where(t <= bb.t2, _bb_logistic(t, bb), post))
    return float(out) if out.ndim == 0 else out


def entrants(t, demo: DemographyParams):
    """Entrant density n(t): n0 e^{rho t} with a constant flow, `bb_entrants`
    under a baby boom."""
    if demo.babyboom is not None:
        return bb_entrants(t, demo.babyboom)
    out = demo.n0 * np.exp(demo.rho * np.asarray(t, dtype=float))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class SupportRatioFn:
    """Support ratio as a function of time.

    In constant mode the value is t-independent. In babyboom mode the ratio is
    tabulated on a grid over [t_lo, t_hi] (step `BB_GRID_STEP`, the last step
    shortened to end at t_hi) with monotone-cubic interpolation between nodes
    and constant extension outside.
    """

    mode: str                    # "constant" | "babyboom"
    value: float                 # constant-mode value (babyboom: left-plateau value)
    t_lo: float = -math.inf
    t_hi: float = math.inf
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
        if t.ndim == 0:
            if t <= self.t_lo:
                return self.value
            return self._right_value if t >= self.t_hi else float(self._interp(t))
        clipped = np.clip(t, self.t_lo, self.t_hi)
        return np.where(t <= self.t_lo, self.value,
                        np.where(t >= self.t_hi, self._right_value, self._interp(clipped)))


def _bb_cumulative(demo: DemographyParams, rho: float, xs) -> np.ndarray:
    """F(x), the integral of e^{-rho (u - a)} s(u) over [a, x], at the ages
    xs in [a, omega] (any shape).

    One cumulative sum of Gauss-Legendre panels at most BB_PANEL wide (tau is
    an edge), plus one partial panel from the edge at or left of x up to x,
    once per distinct x: clipped kinks repeat the range ends, so there are
    at most (omega - a) / BB_GRID_STEP of them however long the table is.
    """
    a = demo.a

    def g(u):
        return np.exp(-rho * (u - a)) * survival(u, demo)

    lo, hi, _ = _panels(np.array([a, demo.tau]), np.array([demo.tau, demo.omega]), BB_PANEL)
    edges = np.append(lo, demo.omega)
    cum = np.append(0.0, np.cumsum(_gauss_legendre(lo, hi, g)))
    x, back = np.unique(xs, return_inverse=True)
    j = np.searchsorted(edges, x, side="right") - 1
    return (cum[j] + _gauss_legendre(edges[j], x, g))[back].reshape(np.shape(xs))


def _bb_logistic_masses(count: int, demo: DemographyParams) -> np.ndarray:
    """Integrals of n(t - u + a) s(u) over the ages [a, tau] and [tau, omega]
    (shape (count, 2)) restricted to the entrants of the logistic boom, at
    the lattice nodes t_i = t1 + BB_GRID_STEP * i, i < count.

    With v = t_i - u + a the entry time, cut [t1, t2] into cells of one
    step with 10 Gauss-Legendre nodes each: cell j of node i is age cell
    d = i - j, [a + (d - 1) h, a + d h], so the density is evaluated once per
    cell node, survival once per age-cell node, and the full cells of every
    node are one discrete convolution in d per Gauss-Legendre node.  What the
    full cells miss, the partial cell at t2 and the partial age cells at an
    off-lattice range edge, is at most two slivers per node and range,
    each under one step wide and ending exactly at the range edges.
    """
    bb, a, h = demo.babyboom, demo.a, BB_GRID_STEP
    i = np.arange(count)
    # a length within 1e-9 steps of a whole number is whole: the slivers
    # take up the round-off, with either sign
    J = math.floor((bb.t2 - bb.t1) / h + 1e-9)   # full entry-time cells
    mid = 0.5 * h * (1.0 + _GL_X)
    dens = _bb_logistic(bb.t1 + h * np.arange(J)[:, None] + mid, bb) * (0.5 * h * _GL_W)
    last = math.floor((demo.omega - a) / h + 1e-9)
    surv = survival(a + h * np.arange(1, last + 1)[:, None] - mid, demo)
    out = np.zeros((count, 2))
    slivers = []
    for r, (lo, hi) in enumerate(((a, demo.tau), (demo.tau, demo.omega))):
        # lattice ages e_lo h and e_hi h bound the full age cells of the range
        e_lo = math.ceil((lo - a) / h - 1e-9)
        e_hi = math.floor((hi - a) / h + 1e-9)
        if J > 0 and e_hi > e_lo:
            conv = sum(np.convolve(dens[:, k], surv[e_lo:e_hi, k]) for k in range(_GL_X.size))
            out[e_lo + 1:e_lo + 1 + conv.size, r] = conv[:max(count - e_lo - 1, 0)]
        # the range's part of the boom, [d_lo, d_hi], and of the full cells,
        # [c_lo, c_hi] (empty when c_lo >= c_hi)
        d_lo = np.maximum(lo, a + h * i - (bb.t2 - bb.t1))
        d_hi = np.maximum(np.minimum(hi, a + h * i), d_lo)
        c_lo = a + h * np.maximum(e_lo, i - J)
        c_hi = a + h * np.minimum(e_hi, i)
        cut = np.minimum(c_lo, d_hi)
        slivers.append(((d_lo, cut), (np.maximum(cut, c_hi), d_hi)))
    ends = np.array(slivers)   # (range, sliver, lo | hi, node)
    lo, hi = ends[:, :, 0], ends[:, :, 1]
    keep = lo != hi
    t_of = np.broadcast_to(bb.t1 + h * i, lo.shape)[keep][:, None]
    part = np.zeros(lo.shape)
    part[keep] = _gauss_legendre(lo[keep], hi[keep],
                                 lambda u: _bb_logistic(t_of - u + a, bb) * survival(u, demo))
    return out + part.sum(axis=1).T


def _bb_masses(ts, demo: DemographyParams) -> np.ndarray:
    """Worker and retiree masses at the table nodes ts: the integrals of
    n(t - u + a) s(u) over ages [a, tau] and [tau, omega], shape (len(ts), 2).
    All nodes but the last are the lattice t1 + BB_GRID_STEP * i; the last is
    t2 + omega - a, where no living cohort entered before t2.

    The entrant time t - u + a passes t2 and t1 at the regime kinks
    u = t - t2 + a and u = t - t1 + a.  Younger than the first kink the
    density is n(t2) e^{rho2 (t - t2)} e^{-rho2 (u - a)}, older than the
    second n1 e^{rho1 (t - t1)} e^{-rho1 (u - a)}, so those two pieces are a
    prefactor in t times a difference of one `_bb_cumulative` table per rate.
    The logistic piece between the kinks is `_bb_logistic_masses`.
    """
    bb, a = demo.babyboom, demo.a
    col = ts[:, None]
    lo, hi = np.array([a, demo.tau]), np.array([demo.tau, demo.omega])
    # the kinks clipped into each age range, shape (node, range)
    k2 = np.clip(col - bb.t2 + a, lo, hi)
    k1 = np.clip(col - bb.t1 + a, lo, hi)
    # row 0: F at the range ends; rows 1 on: F at the kinks of each node
    F2 = _bb_cumulative(demo, bb.rho2, np.vstack([lo, k2]))
    F1 = _bb_cumulative(demo, bb.rho1, np.vstack([hi, k1]))
    post = _bb_n_t2(bb) * np.exp(bb.rho2 * (col - bb.t2)) * (F2[1:] - F2[0])
    pre = bb.n1 * np.exp(bb.rho1 * (col - bb.t1)) * (F1[0] - F1[1:])
    mid = np.vstack([_bb_logistic_masses(ts.size - 1, demo), np.zeros(2)])
    return post + mid + pre


@lru_cache(maxsize=16)
def support_ratio_fn(demo: DemographyParams) -> SupportRatioFn:
    """Build (and cache) the support-ratio function for this demography."""
    if demo.babyboom is None:
        return SupportRatioFn(mode="constant", value=support_ratio(demo))

    bb = demo.babyboom
    # Lambda(t) is constant outside [t1, t2 + omega - a]: before t1 every living
    # cohort entered in the rho1 regime, after t2 + omega - a in the rho2 regime.
    t_lo, t_hi = bb.t1, bb.t2 + demo.omega - demo.a
    # nodes exactly on the lattice t1 + step * i (np.arange drifts), the last
    # step shortened so that the table ends exactly at t_hi
    ts = t_lo + BB_GRID_STEP * np.arange(math.ceil((t_hi - t_lo) / BB_GRID_STEP) + 1)
    ts = np.append(ts[ts < t_hi - 1e-9], t_hi)
    mass = _bb_masses(ts, demo)
    table = mass[:, 0] / mass[:, 1]
    return SupportRatioFn(mode="babyboom", value=float(table[0]),
                          t_lo=float(ts[0]), t_hi=float(ts[-1]),
                          _interp=PchipInterpolator(ts, table),
                          _right_value=float(table[-1]))


def bb_support_ratio(t, demo: DemographyParams):
    """Time-varying support ratio under the baby-boom entrant flow."""
    if demo.babyboom is None:
        raise DomainError("scenario has no babyboom parameters")
    return support_ratio_fn(demo)(t)
