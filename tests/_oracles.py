"""Independent numeric oracles used by the test suite.

Everything here is computed without going through the code paths under test:
brute-force quadrature, finite differences, and direct formula evaluation.
"""
import dataclasses
import math

import numpy as np
from scipy.integrate import quad

from penmix import demography, lifecycle, validate
from penmix.scenario import Scenario


def trapezoid_annuity(demo, r: float, hi: float = 60.0, dt: float = 1e-4) -> float:
    """Brute-force trapezoid-rule annuity factor on [0, hi]."""
    t = np.arange(0.0, hi + dt / 2, dt)
    lnc = math.log(demo.c)
    vals = np.exp(-(r + demo.A) * t - (demo.B / lnc) * demo.c**demo.tau
                  * np.expm1(t * lnc))
    return float(np.trapezoid(vals, dx=dt))


def hjb_residual(t, x, w, y, z, theta, k, s: Scenario, delta, h=1e-2):
    """Residual of the dynamic-programming PDE at one interior state.

    State partials come from exact differentiation of the closed form at
    fixed t; the time derivative is a 4th-order central difference, so the
    check is honest about whether the coefficient functions solve their
    backward equations.  Returns (residual, V_t) for relative comparison.
    """
    mk = s.market
    dc = validate(s)
    d = s.demo
    working = (t - z) < d.tau - d.a

    def V(tt):
        c = lifecycle.coefficients(tt, z, s)
        G = x + (c.M1 * theta + c.M2 * k + c.M3) * w + c.N * y
        return (1.0 / delta) * lifecycle.coeff_L(tt, z, delta, s) * G**delta

    c = lifecycle.coefficients(t, z, s)
    M = c.M1 * theta + c.M2 * k + c.M3
    L = lifecycle.coeff_L(t, z, delta, s)
    G = x + M * w + c.N * y
    Vx = L * G ** (delta - 1)
    Vxx = (delta - 1) * L * G ** (delta - 2)
    Vxw = Vxx * M
    Vxy = Vxx * c.N
    Vw = Vx * M
    Vww = Vxx * M * M
    Vwy = Vxx * M * c.N
    Vy = Vx * c.N
    Vyy = Vxx * c.N * c.N
    Vt = (-V(t + 2 * h) + 8 * V(t + h) - 8 * V(t - h) + V(t - 2 * h)) / (12 * h)

    b = lifecycle.discount_weight(t, z, s)
    pi = (dc.nu * G / (mk.sigma * (1 - delta))
          - (mk.xi * w * M + mk.beta * y * c.N * working) / mk.sigma)
    C = (L / b) ** (1.0 / (delta - 1.0)) * G
    a_t = (1 - theta - k) * (1 - s.policy.tau1) if working else theta * dc.Lambda
    ann = 0.0 if working else (1 - s.policy.tau2) / dc.a_tau * y
    res = (Vt + 0.5 * mk.sigma**2 * pi**2 * Vxx + mk.sigma * mk.xi * pi * w * Vxw
           + mk.sigma * mk.beta * pi * y * working * Vxy
           + 0.5 * mk.xi**2 * w**2 * Vww
           + mk.xi * mk.beta * w * y * working * Vwy
           + 0.5 * mk.beta**2 * y**2 * working * Vyy
           + (mk.r * x + pi * (mk.mu - mk.r) + a_t * w + ann - C) * Vx
           + mk.gamma * w * Vw + (mk.alpha * y + k * w) * working * Vy
           + b * C**delta / delta)
    return res, Vt


def random_interior_states(s: Scenario, n: int, seed: int, z: float = None):
    """Interior (t, x, w, y) states with positive resource, clear of the
    retirement and terminal boundaries."""
    d = s.demo
    z = s.policy.t0 if z is None else z
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        t = z + rng.uniform(0.5, d.omega - d.a - 0.5)
        if abs((t - z) - (d.tau - d.a)) < 0.1:
            continue
        w = rng.uniform(0.5, 3.0)
        y = rng.uniform(0.0, 2.0)
        c = lifecycle.coefficients(t, z, s)
        base = (c.M1 * s.policy.theta0 + c.M2 * s.policy.k0 + c.M3) * w + c.N * y
        x = rng.uniform(-0.5 * base, 3.0)
        if x + base > 1e-6:
            out.append((t, x, w, y))
    return out


def quad_L(u0: float, delta: float, s: Scenario) -> float:
    """L at life-time u0 by adaptive quadrature split at retirement
    (relative tolerance 1e-13, no absolute floor)."""
    d = s.demo
    life, ret = d.omega - d.a, d.tau - d.a
    if u0 >= life:
        return 0.0
    cexp = lifecycle._growth_exponent(delta, s)
    p = 1.0 / (1.0 - delta)

    def g(u, lam):
        return ((math.exp(-s.market.r * u) * demography.survival(u + d.a, d) * lam) ** p
                * math.exp(cexp * (u - u0)))

    opts = dict(epsabs=0.0, epsrel=1e-13, limit=500)
    if u0 < ret:
        val = (quad(g, u0, ret, args=(1.0,), **opts)[0]
               + quad(g, ret, life, args=(s.pref.lam,), **opts)[0])
    else:
        val = quad(g, u0, life, args=(s.pref.lam,), **opts)[0]
    return val ** (1.0 - delta)


def quad_bb_m1(t: float, z: float, s: Scenario) -> float:
    """Baby-boom M1 at time t for the cohort entering at z: the benefit leg by
    adaptive quadrature split at every Lambda(t) table node, minus the closed
    contribution leg."""
    d, p = s.demo, s.policy
    eps = validate(s).epsilon
    fn = demography.support_ratio_fn(d)
    T, t_ret = z + d.omega - d.a, z + d.tau - d.a
    if t >= T:
        return 0.0
    lo = max(t, t_ret)
    edges = [lo, *(x for x in fn.nodes if lo < x < T), T]
    plus = sum(quad(lambda u: fn(u) * math.exp(eps * (u - t)), e0, e1,
                    epsabs=0.0, epsrel=1e-13, limit=200)[0]
               for e0, e1 in zip(edges, edges[1:]))
    minus = (1 - p.tau1) / eps * (math.exp(eps * (t_ret - t)) - 1.0) if t < t_ret else 0.0
    return plus - minus



def quad_bb_support_ratio(t: float, demo) -> float:
    """Baby-boom Lambda(t): worker over retiree mass, each the integral of
    n(t - u + a) s(u) by adaptive quadrature split at the regime kinks
    u = t - t1 + a and u = t - t2 + a (relative tolerance 1e-13).

    The entrant density and the survival function are written out here with
    scalar math; a kink within 1e-9 of a range end is not split at, so no
    sliver piece is handed to quad.
    """
    bb, a = demo.babyboom, demo.a
    lnc = math.log(demo.c)
    n_t2 = bb.nm / (1.0 + (bb.nm / bb.n1 - 1.0) * math.exp(-bb.kappa * (bb.t2 - bb.t1)))

    def f(u):
        v = t - u + a
        if v <= bb.t1:
            n = bb.n1 * math.exp(bb.rho1 * (v - bb.t1))
        elif v <= bb.t2:
            n = bb.nm / (1.0 + (bb.nm / bb.n1 - 1.0) * math.exp(-bb.kappa * (v - bb.t1)))
        else:
            n = n_t2 * math.exp(bb.rho2 * (v - bb.t2))
        return n * math.exp(-demo.A * (u - a) - demo.B / lnc * (math.exp(u * lnc)
                                                                  - math.exp(a * lnc)))

    def mass(lo, hi):
        kinks = sorted(v for v in (t - bb.t1 + a, t - bb.t2 + a)
                       if lo + 1e-9 < v < hi - 1e-9)
        edges = [lo, *kinks, hi]
        return sum(quad(f, e0, e1, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                   for e0, e1 in zip(edges, edges[1:]))

    return mass(a, demo.tau) / mass(demo.tau, demo.omega)


def voluntary_theta_ratios(g, m: float):
    """(theta_low, theta_high) of the voluntary-EET solvency rows, written as
    an explicit sign split and ratio scan over the grid columns: the sup of
    -c0 / c1 over rows with c1 > 0 and the inf over rows with c1 < 0, where
    a cohort's row is its resource under its best-response EET rate."""
    m2p = np.maximum(g.M2, 0.0)
    coef = (g.M1 - m2p) * g.w0
    numer = g.x0 + g.N * g.y0 + (m2p * m + g.M3) * g.w0
    m02p = max(g.M02, 0.0)
    fut_coef = g.rows[g.z.size:, 1] - m02p
    fut_num = np.full(fut_coef.size, m02p * m + g.M03)
    low, high = -math.inf, math.inf
    for c0, c1 in zip(np.append(numer, fut_num), np.append(coef, fut_coef)):
        if c1 > 1e-300:
            low = max(low, float(-c0 / c1))
        elif c1 < -1e-300:
            high = min(high, float(-c0 / c1))
    return low, high


def _simpson_nodes(lo: float, hi: float, step: float):
    """(node, weight) pairs of composite Simpson on [lo, hi] with an even
    number of intervals no wider than step."""
    n = max(2, math.ceil((hi - lo) / step))
    n += n % 2
    h = (hi - lo) / n
    return [(lo + i * h, h / 3.0 * (1 if i in (0, n) else 4 if i % 2 else 2))
            for i in range(n + 1)]


def welfare_per_node(s: Scenario, g, mode: str):
    """The government's welfare as an explicit per-node sum, returned as
    phi(theta, k): existing cohorts weight * L / delta * G^delta at the
    Simpson nodes (weight includes the entrant density under "population"),
    future-entrant Simpson nodes and the settled tail, each with its entry
    coefficient recomputed from the scenario. k=None gives every cohort and
    entrant its voluntary best response: the cap remainder m - theta where
    its EET multiplier is positive, nothing otherwise.

    The cohort columns (L, M1, M2, M3, N, x0, y0) are read from the grid g,
    which has its own oracle; -inf when a resource G <= 0.
    """
    d, p, mk, f = s.demo, s.policy, s.market, s.pref
    dc = validate(s)
    t0, bb = p.t0, d.babyboom
    w0 = mk.W0 * math.exp(mk.gamma * t0)

    def density(z):
        if bb is None:
            return d.n0 * math.exp(d.rho * z)
        return float(demography.bb_entrants(z, bb))

    # existing cohorts: (weight / delta * L, M1, M2, M3, N, x0, y0, delta)
    cohorts = []
    i = 0
    for lo, hi, delta in ((t0 - (d.omega - d.a), t0 - (d.tau - d.a), f.delta2),
                          (t0 - (d.tau - d.a), t0, f.delta1)):
        for z, w in _simpson_nodes(lo, hi, g.step):
            assert abs(z - g.z[i]) <= 1e-9
            if g.L[i] > 0.0:
                weight = w * density(z) if mode == "population" else w
                cohorts.append((weight / delta * g.L[i], g.M1[i], g.M2[i], g.M3[i],
                                g.N[i], g.x0[i], g.y0[i], delta))
            i += 1
    assert i == g.z.size

    # future entrants: (coefficient, entry-time M1) per node, then the tail
    growth = mk.gamma + 0.5 * (f.delta0 - 1) * mk.xi**2
    scale = 1.0 if mode == "population" else 1.0 / density(t0)
    entrants = []
    if bb is None:
        tail_start, rho_tail, tail_M01 = t0, d.rho, dc.M01
    else:
        tail_start, rho_tail = max(t0, bb.t2 + d.omega - d.tau), bb.rho2
        settled = dataclasses.replace(d, babyboom=None, rho=bb.rho2)
        tail_M01 = validate(dataclasses.replace(s, demo=settled)).M01
        if tail_start > t0:
            for z, w in _simpson_nodes(t0, tail_start, g.step):
                coef = (w * density(z) * math.exp(-mk.r * (z - t0))
                        * math.exp(f.delta0 * growth * (z - t0))
                        * dc.L0 * w0**f.delta0 / f.delta0)
                entrants.append((scale * coef, lifecycle.coefficients(z, z, s).M1))
    prefac = (density(tail_start) * dc.L0 * w0**f.delta0
              * math.exp((-mk.r + f.delta0 * growth) * (tail_start - t0))
              / (f.delta0 * (mk.r - rho_tail - f.delta0 * growth)))
    entrants.append((scale * prefac, tail_M01))

    def phi(theta: float, k=None) -> float:
        def rate(m2):
            if k is not None:
                return k
            return p.m - theta if m2 > 0.0 else 0.0

        terms = []
        for coef, M1, M2, M3, N, x0, y0, delta in cohorts:
            G = x0 + (M1 * theta + M2 * rate(M2) + M3) * w0 + N * y0
            if G <= 0.0:
                return -math.inf
            terms.append(coef * G**delta)
        k_entry = rate(dc.M02)
        for coef, M1 in entrants:
            G = M1 * theta + dc.M02 * k_entry + dc.M03
            if G <= 0.0:
                return -math.inf
            terms.append(coef * G**f.delta0)
        return math.fsum(terms)

    return phi
