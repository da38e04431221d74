"""Survival probabilities, cohort-mass integrals, support ratio, annuity factor.

Mortality follows Makeham's law: force of mortality A + B*c^x, giving the
survival function s(x) = exp(-A(x-a) - (B/ln c)(c^x - c^a)) conditional on
being alive at the entry age a.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._quadpack import quad
from .errors import DomainError, OrderingViolation
from .scenario import BabyBoomParams, DemographyParams

#: absolute quadrature tolerance for the demographic integrals
QUAD_ABS_TOL = 1e-10
#: grid step (years) of the cached Lambda(t) table
BB_GRID_STEP = 0.1
#: Gauss-Legendre points of every integral over one Lambda(t) table step, or
#: part of one: exact to degree 7, which on a 0.1-year step leaves round-off
BB_CELL_POINTS = 4

_GL_X, _GL_W = np.polynomial.legendre.leggauss(10)


@lru_cache(maxsize=1)
def _cell_rule():
    """The BB_CELL_POINTS-point Gauss-Legendre (nodes, weights) on [-1, 1],
    built on first use."""
    return np.polynomial.legendre.leggauss(BB_CELL_POINTS)


def _gauss_legendre(lo, hi, f, rule=(_GL_X, _GL_W)):
    """Gauss-Legendre integral of f over each panel [lo_i, hi_i] by the rule
    (nodes, weights) on [-1, 1], 10 points unless given.

    f receives a (panels, points) array of nodes.
    """
    x, w = rule
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return (f(mid[:, None] + half[:, None] * x) * w).sum(axis=1) * half


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
    """Workers per retiree mass; its inverse is the dependency ratio.

    OrderingViolation when the retiree mass is not a positive normal float:
    mortality so steep that it underflows leaves no ratio to take.
    """
    workers = lambda_segment(demo.a, demo.tau, demo)
    retirees = lambda_segment(demo.tau, demo.omega, demo)
    if not retirees >= sys.float_info.min:
        raise OrderingViolation(
            f"retiree mass over [tau, omega] = {retirees:g} underflows: the "
            f"Makeham mortality (c = {demo.c}) leaves no retirees")
    return workers / retirees


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
        # without a Makeham term (B = 0) its expm1 would overflow as upper
        # doubles past ~700 / ln c; x - 0.0 * finite is x, so the bits hold
        if scale == 0:
            return -(r + demo.A) * t
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


def _pchip_cells(x, y) -> np.ndarray:
    """Cubic coefficients, shape (4, cells), of the PCHIP interpolant of y
    on the nodes x: cell j is c0 s^3 + c1 s^2 + c2 s + c3 in s = t - x_j.

    The node slopes are Fritsch and Carlson's weighted harmonic mean of the
    neighbouring secants (0 where they differ in sign or one is 0), with
    Moler's one-sided three-point end slopes (*Numerical Computing with
    MATLAB*, 2004, §3.6), in scipy's `PchipInterpolator` order of
    operations, so the coefficients are those of scipy's `.c`.
    """
    h = x[1:] - x[:-1]
    m = (y[1:] - y[:-1]) / h
    if x.size == 2:
        d = np.array([m[0], m[0]])
    else:
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            inner = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))

        def end(h0, h1, m0, m1):
            e = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
            if np.sign(e) != np.sign(m0):
                return 0.0
            if np.sign(m0) != np.sign(m1) and abs(e) > 3.0 * abs(m0):
                return 3.0 * m0
            return e

        d = np.concatenate([[end(h[0], h[1], m[0], m[1])],
                            np.where(flat, 0.0, inner),
                            [end(h[-1], h[-2], m[-1], m[-2])]])
    t = (d[:-1] + d[1:] - 2 * m) / h
    return np.stack([t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]])


@dataclass(frozen=True, eq=False)
class SupportRatioFn:
    """The baby-boom support ratio Lambda(t), tabulated on the nodes
    nodes[0] + BB_GRID_STEP * i (the last step shortened to end at
    nodes[-1]), a PCHIP-slope cubic Hermite cell between nodes, and constant
    outside.
    """

    nodes: np.ndarray
    #: per node, the cubic (`_pchip_cells`) of the cell it starts, and at
    #: nodes[-1] the constant right plateau; row 3 is Lambda at the node
    _cells: np.ndarray

    def _cubic(self, j, x):
        """Cell j's cubic at x (elementwise), in scipy's PPoly order of
        operations, not Horner's."""
        c0, c1, c2, c3 = self._cells[:, j]
        s = x - self.nodes[j]
        ss = s * s
        return ((c3 + c2 * s) + c1 * ss) + c0 * (ss * s)

    def __call__(self, t):
        # the cell nodes[j] <= x < nodes[j + 1], as `leg` finds it; outside
        # the table x sits on a plateau value, at s = 0
        x = np.clip(np.asarray(t, dtype=float), self.nodes[0], self.nodes[-1])
        out = self._cubic(np.searchsorted(self.nodes, x, side="right") - 1, x)
        return float(out) if out.ndim == 0 else out

    def leg(self, x, t, eps: float):
        """The integral of Lambda(u) e^{eps (u - t)} du from the table start
        nodes[0] to x (x and t broadcast; x an array).

        Closed forms on the two constant plateaus, the cumulative table
        (`_leg_table`) up to the cell holding x, and the cell rule
        (`_cell_rule`) on the part of that cell left of x.
        """
        ts, cum = self.nodes, _leg_table(self, eps)
        t_lo, t_hi = ts[0], ts[-1]
        xin = np.clip(x, t_lo, t_hi).ravel()
        j = np.clip(np.searchsorted(ts, xin, side="right") - 1, 0, ts.size - 2)
        inside = cum[j] + _gauss_legendre(
            ts[j], xin, lambda u: self._cubic(j[:, None], u) * np.exp(eps * (u - t_lo)),
            _cell_rule())

        def exp_leg(y):   # integral of e^{eps (u - t_lo)} from t_lo to y
            return np.expm1(eps * (y - t_lo)) / eps

        leg = np.where(x < t_lo, self._cells[3, 0] * exp_leg(x),
                       np.where(x > t_hi,
                                cum[-1] + self._cells[3, -1] * (exp_leg(x) - exp_leg(t_hi)),
                                inside.reshape(x.shape)))
        return np.exp(eps * (t_lo - t)) * leg


@lru_cache(maxsize=16)
def _leg_table(fn: SupportRatioFn, eps: float) -> np.ndarray:
    """The integral of Lambda(u) e^{eps (u - nodes[0])} from the first node
    to each node: the cell rule (`_cell_rule`) once per cell, its points read
    on that cell.  The integrand is the cubic times an exponential, so the
    rule, exact to degree 7, leaves round-off."""
    ts = fn.nodes
    j = np.arange(ts.size - 1)[:, None]
    seg = _gauss_legendre(ts[:-1], ts[1:],
                          lambda u: fn._cubic(j, u) * np.exp(eps * (u - ts[0])), _cell_rule())
    return np.append(0.0, np.cumsum(seg))


def _bb_kink_masses(ks, rho: float, demo: DemographyParams) -> np.ndarray:
    """The integrals of e^{-rho (u - a)} s(u) over [ks[i - 1], ks[i]], i >= 1
    (shape (nodes - 1, ranges)), of the regime kinks ks clipped into each
    age range.

    A kink is a table node shifted by a constant, so down the nodes the
    kinks are monotone and at most one table step apart, whatever t2 - t1
    is: each step is one cell rule (`_cell_rule`), and a step of zero width
    (a kink clipped to a range end) is 0.
    """
    a = demo.a
    lo, hi = ks[:-1], ks[1:]
    keep = lo != hi
    out = np.zeros(lo.shape)
    out[keep] = _gauss_legendre(lo[keep], hi[keep],
                                lambda u: np.exp(-rho * (u - a)) * survival(u, demo),
                                _cell_rule())
    return out


def _bb_logistic_masses(count: int, demo: DemographyParams) -> np.ndarray:
    """Integrals of n(t - u + a) s(u) over the ages [a, tau] and [tau, omega]
    (shape (count, 2)) restricted to the entrants of the logistic boom, at
    the lattice nodes t_i = t1 + BB_GRID_STEP * i, i < count.

    With v = t_i - u + a the entry time, cut [t1, t2] into cells of one
    step with the cell rule's points (`_cell_rule`) each: cell j of node i
    is age cell d = i - j, [a + (d - 1) h, a + d h], so the density is
    evaluated once per cell point, survival once per age-cell point, and
    the full cells of every node are one discrete convolution in d per
    point.  What the full cells miss, the partial cell at t2 and the partial
    age cells at an off-lattice range edge, is at most two slivers per node
    and range, each under one step wide and ending exactly at the range
    edges.
    """
    bb, a, h = demo.babyboom, demo.a, BB_GRID_STEP
    x, w = rule = _cell_rule()
    i = np.arange(count)
    # a length within 1e-9 steps of a whole number is whole: the slivers
    # take up the round-off, with either sign
    J = math.floor((bb.t2 - bb.t1) / h + 1e-9)   # full entry-time cells
    mid = 0.5 * h * (1.0 + x)
    dens = _bb_logistic(bb.t1 + h * np.arange(J)[:, None] + mid, bb) * (0.5 * h * w)
    last = math.floor((demo.omega - a) / h + 1e-9)
    surv = survival(a + h * np.arange(1, last + 1)[:, None] - mid, demo)
    out = np.zeros((count, 2))
    slivers = []
    for r, (lo, hi) in enumerate(((a, demo.tau), (demo.tau, demo.omega))):
        # lattice ages e_lo h and e_hi h bound the full age cells of the range
        e_lo = math.ceil((lo - a) / h - 1e-9)
        e_hi = math.floor((hi - a) / h + 1e-9)
        if J > 0 and e_hi > e_lo:
            conv = sum(np.convolve(dens[:, k], surv[e_lo:e_hi, k]) for k in range(x.size))
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
                                 lambda u: _bb_logistic(t_of - u + a, bb) * survival(u, demo),
                                 rule)
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
    prefactor in t times the integral of e^{-rho (u - a)} s(u) from the
    range start to the first kink, or from the second kink to the range end.
    At the first node every first kink is the range start, and at the last
    every second kink the range end, so both integrals are cumulative sums
    of the steps between neighbouring kinks (`_bb_kink_masses`), from the
    first node and from the last.  The logistic piece between the kinks is
    `_bb_logistic_masses`.
    """
    bb, a = demo.babyboom, demo.a
    col = ts[:, None]
    lo, hi = np.array([a, demo.tau]), np.array([demo.tau, demo.omega])
    # the kinks clipped into each age range, shape (node, range)
    k2 = np.clip(col - bb.t2 + a, lo, hi)
    k1 = np.clip(col - bb.t1 + a, lo, hi)
    none = np.zeros((1, 2))
    young = np.vstack([none, np.cumsum(_bb_kink_masses(k2, bb.rho2, demo), axis=0)])
    old = np.vstack([np.cumsum(_bb_kink_masses(k1, bb.rho1, demo)[::-1], axis=0)[::-1], none])
    post = _bb_n_t2(bb) * np.exp(bb.rho2 * (col - bb.t2)) * young
    pre = bb.n1 * np.exp(bb.rho1 * (col - bb.t1)) * old
    mid = np.vstack([_bb_logistic_masses(ts.size - 1, demo), none])
    return post + mid + pre


@lru_cache(maxsize=16)
def support_ratio_fn(demo: DemographyParams) -> SupportRatioFn:
    """Build (and cache) the baby-boom Lambda(t) table for this demography;
    a constant entrant flow has the one ratio `support_ratio`."""
    if demo.babyboom is None:
        raise DomainError("scenario has no babyboom parameters")

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
    cells = np.append(_pchip_cells(ts, table), [[0.0], [0.0], [0.0], table[-1:]], axis=1)
    ts.flags.writeable = cells.flags.writeable = False
    return SupportRatioFn(nodes=ts, _cells=cells)


def bb_support_ratio(t, demo: DemographyParams):
    """Time-varying support ratio under the baby-boom entrant flow."""
    return support_ratio_fn(demo)(t)
