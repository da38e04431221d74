"""Independent numeric oracles used by the test suite.

Everything here is computed without going through the code paths under test:
brute-force quadrature, finite differences, and direct formula evaluation.
"""
import dataclasses
import math

import numpy as np
from scipy.integrate import quad

from penmix import demography, government, lifecycle, montecarlo, validate
from penmix.preference import BB_SCAN_STEP
from penmix.scenario import Scenario, delta_for_entry


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


def expected_path_row(t: float, z: float, s: Scenario, theta: float, k: float,
                      switch_at_t0: bool = True):
    """(EX, EY, Epi, EC) at time t for the cohort entering at z, node by node
    with scalar math and L by quad_L.

    E[Y] accrues k0 until t0 and k afterwards (k throughout for a whole-life
    path) and freezes at retirement.  E[X*] is the expected resource carried
    by the martingale representation from entry, where G = M W, or, with
    switch_at_t0 and z <= t0, from the whole-life (theta0, k0) state at t0,
    minus M W + N E[Y]; the controls are applied to the expected states.
    """
    d, p, mk = s.demo, s.policy, s.market
    dc = validate(s)
    delta = delta_for_entry(z, s)
    grow = mk.r / (1 - delta) + (2 - delta) * dc.nu**2 / (2 * (1 - delta) ** 2)
    g = mk.gamma - mk.alpha
    switch = switch_at_t0 and z <= p.t0

    def salary(tt):
        return mk.W0 * math.exp(mk.gamma * tt)

    def accrued(lo, hi):
        return hi - lo if abs(g) < 1e-14 else (math.exp(g * hi) - math.exp(g * lo)) / g

    def eet(tt, k_before, k_after):
        te = min(tt, z + d.tau - d.a)
        if te <= z:
            return 0.0
        cut = min(max(p.t0, z), te)
        return mk.W0 * math.exp(mk.alpha * te) * (k_before * accrued(z, cut)
                                                  + k_after * accrued(cut, te))

    def wealth(tt, G_a, t_a, ey, th, kk):
        c = lifecycle.coefficients(tt, z, s)
        ratio = (quad_L(tt - z, delta, s) / quad_L(t_a - z, delta, s)) ** (1.0 / (1 - delta))
        EG = ratio * G_a * math.exp(grow * (tt - t_a))
        return EG - (c.M1 * th + c.M2 * kk + c.M3) * salary(tt) - c.N * ey

    def whole_life(tt, th, kk, ey):
        c = lifecycle.coefficients(z, z, s)
        return wealth(tt, (c.M1 * th + c.M2 * kk + c.M3) * salary(z), z, ey, th, kk)

    if switch:
        y0 = eet(p.t0, p.k0, p.k0)
        x0 = whole_life(p.t0, p.theta0, p.k0, y0)
        c0 = lifecycle.coefficients(p.t0, z, s)
        G0 = x0 + (c0.M1 * theta + c0.M2 * k + c0.M3) * salary(p.t0) + c0.N * y0
        EY = eet(t, p.k0, k)
        EX = wealth(t, G0, p.t0, EY, theta, k)
    else:
        EY = eet(t, k, k)
        EX = whole_life(t, theta, k, EY)

    c = lifecycle.coefficients(t, z, s)
    M = c.M1 * theta + c.M2 * k + c.M3
    EG = EX + M * salary(t) + c.N * EY
    working = (t - z) < d.tau - d.a
    Epi = (dc.nu * EG / (mk.sigma * (1 - delta))
           - (mk.xi * salary(t) * M + mk.beta * EY * c.N * working) / mk.sigma)
    u = t - z
    b = (math.exp(-mk.r * u) * demography.survival(u + d.a, d)
         * (1.0 if working else s.pref.lam))
    EC = (quad_L(u, delta, s) / b) ** (1.0 / (delta - 1.0)) * EG
    return EX, EY, Epi, EC


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


def scan_root_by_bisection(f, lo: float, hi: float, step: float = BB_SCAN_STEP,
                           xtol: float = 1e-8):
    """Bracket-scan then bisect; returns (first root or None, crossing count).

    f is elementwise: the bracket grid is one call on an array of ages, each
    bisection step one call on a single age.
    """
    xs = np.append(np.arange(lo, hi, step), hi).tolist()
    vals = np.asarray(f(np.array(xs)), dtype=float).tolist()
    roots = []
    for i in range(len(xs) - 1):
        va, vb = vals[i], vals[i + 1]
        if va == 0.0:
            roots.append(xs[i])
            continue
        if va * vb < 0:
            a_, b_ = xs[i], xs[i + 1]
            fa = va
            while b_ - a_ > xtol:
                mid = 0.5 * (a_ + b_)
                fm = float(f(mid))
                if fa * fm <= 0:
                    b_ = mid
                else:
                    a_, fa = mid, fm
            roots.append(0.5 * (a_ + b_))
    if vals[-1] == 0.0:
        roots.append(xs[-1])
    return (roots[0] if roots else None), len(roots)


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


def whole_span_time_grid(z: float, s: Scenario, dt: float):
    """The Monte Carlo mesh graded over the whole span from the last uniform
    node to the terminal age: uniform at dt, then 2 x span / min(dt, 0.01)
    quadratically graded steps (at least 4)."""
    life = s.demo.omega - s.demo.a
    tail = min(1.0, (s.demo.omega - s.demo.tau) / 2.0)
    n_uni = int(math.floor((life - tail) / dt + 1e-9))
    t_uni = z + dt * np.arange(n_uni + 1)
    T = z + life
    span = T - t_uni[-1]
    J = max(4, int(round(2.0 * span / min(dt, 0.01))))
    j = np.arange(1, J + 1)
    return np.concatenate([t_uni, T - span * ((J - j) / J) ** 2.0])


def _mc_block(cfg, s: Scenario, tb, rng, n_draw: int, probe_idx):
    """One Monte Carlo block on its own, with its whole (n_steps, n_draw)
    normal matrix drawn up front and a fresh array for every operation."""
    mk = s.market
    n_steps = len(tb.dts)
    Z_base = rng.standard_normal((n_steps, n_draw))
    npath = 2 * n_draw if cfg.antithetic else n_draw
    W = np.full(npath, tb.w_at_entry)
    Y = np.zeros(npath)
    X = np.zeros(npath)
    util = np.zeros(npath)
    y_t0 = Y.copy() if tb.i_t0 == 0 else None
    probe_x = {0: X.copy()} if 0 in probe_idx else {}
    clip = 0
    nu = validate(s).nu
    one_minus_d = 1.0 - tb.delta
    f_prev = None
    h_prev = 0.0
    for i in range(n_steps):
        h = tb.dts[i]
        sq = math.sqrt(h)
        Z = Z_base[i]
        if cfg.antithetic:
            Z = np.concatenate([Z, -Z])
        G_raw = X + tb.M[i] * W + tb.N[i] * Y
        clip += int(np.count_nonzero(G_raw <= 0.0))
        G = np.maximum(G_raw, 1e-12)
        pi = cfg.pi_scale * (nu * G / (mk.sigma * one_minus_d)
                             - (mk.xi * W * tb.M[i]
                                + mk.beta * Y * tb.N[i] * tb.working[i]) / mk.sigma)
        C = tb.cr_right[i] * G
        f_right = tb.b_right[i] * C**tb.delta / tb.delta
        if f_prev is not None:
            f_left = tb.b_left[i] * (tb.cr_left[i] * G) ** tb.delta / tb.delta
            util += 0.5 * h_prev * (f_prev + f_left)
        f_prev, h_prev = f_right, h

        growth_w = np.exp((mk.gamma - 0.5 * mk.xi**2) * h + mk.xi * sq * Z)
        W_new = W * growth_w
        if tb.working[i]:
            growth_y = np.exp((mk.alpha - 0.5 * mk.beta**2) * h + mk.beta * sq * Z)
            Y = Y * growth_y + cfg.k * h * 0.5 * (growth_y * W + W_new)
        X = (X + (mk.r * X + (mk.mu - mk.r) * pi + tb.a_t[i] * W
                  + (0.0 if tb.working[i] else tb.ann_rate) * Y - C) * h
             + mk.sigma * pi * sq * Z)
        W = W_new
        if tb.i_t0 is not None and i + 1 == tb.i_t0:
            y_t0 = Y.copy()
        if i + 1 in probe_idx:
            probe_x[i + 1] = X.copy()
    util += 0.5 * h_prev * f_prev
    return util, X, y_t0, probe_x, clip


def simulate_cohort_per_block(cfg, s: Scenario, probe_times=()):
    """`montecarlo.simulate_cohort` with the blocks simulated one after
    another, each from its own stream, and the antithetic halves of the
    blocks regrouped afterwards into [+Z of every block, -Z of every block]."""
    montecarlo._validate_config(cfg, s)
    tb = montecarlo._build_tables(cfg, s)
    V = lifecycle.value_function(cfg.z, 0.0, tb.w_at_entry, 0.0, cfg.z,
                                 cfg.theta, cfg.k, s, tb.delta)
    probe_idx = {int(np.argmin(np.abs(tb.t - pt))): float(pt) for pt in probe_times}
    n_units = cfg.n_paths // 2 if cfg.antithetic else cfg.n_paths
    util_parts, term_parts, y0_parts = [], [], []
    probe_parts = {i: [] for i in probe_idx}
    clip = done = block = 0
    while done < n_units:
        n_draw = min(montecarlo.BLOCK, n_units - done)
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=cfg.seed,
                                                    spawn_key=(block,))))
        util, X, y_t0, probe_x, c = _mc_block(cfg, s, tb, rng, n_draw, probe_idx)
        util_parts.append(util)
        term_parts.append(X)
        if y_t0 is not None:
            y0_parts.append(y_t0)
        for idx, arr in probe_x.items():
            probe_parts[idx].append(arr)
        clip += c
        done += n_draw
        block += 1

    def gather(parts):
        if not cfg.antithetic:
            return np.concatenate(parts)
        plus = np.concatenate([p[: p.size // 2] for p in parts])
        minus = np.concatenate([p[p.size // 2:] for p in parts])
        return np.concatenate([plus, minus])

    def stats(parts):
        return montecarlo._pair_stats(gather(parts), cfg.antithetic)

    mean_u, se_u = stats(util_parts)
    mean_x, se_x = stats(term_parts)
    mean_y, se_y = stats(y0_parts) if y0_parts else (None, None)
    probes = tuple((pt, *stats(probe_parts[idx]))
                   for idx, pt in sorted(probe_idx.items()))
    return montecarlo.SimulationReport(
        mean_utility=mean_u, se_utility=se_u, closed_form_value=V,
        mean_terminal_wealth=mean_x, se_terminal_wealth=se_x,
        mean_y_at_t0=mean_y, se_y_at_t0=se_y, clipped_paths=clip,
        n_paths=cfg.n_paths, dt=cfg.dt, seed=cfg.seed, probes=probes)


def line_interval(g, point, direction, lo: float, hi: float):
    """Feasible t in [lo, hi] on the line point + t direction in (theta, k)
    against every solvency row of the grid, or None if empty: the all-rows
    oracle for the optimizer's segments."""
    c0, c1, c2 = g.rows.T
    bounds = government._feasible_interval(c0 + c1 * point[0] + c2 * point[1],
                                           c1 * direction[0] + c2 * direction[1], lo, hi)
    return bounds if bounds is not None and bounds[0] <= bounds[1] else None


def coarse_grid_scalar(g, m: float, mode: str):
    """The grid-and-golden optimizer's 101 x 101 coarse grid on
    theta + k <= m, one `government._phi` call per cell: (best value,
    (theta, k), cells scored), the first strict maximum in row-major order."""
    rates = np.linspace(0.0, m, 101)
    best_val, best_pt, evals = -math.inf, None, 0
    for theta in rates:
        for k in rates:
            if theta + k > m + 1e-12:
                continue
            v = government._phi(g, theta, k, mode)
            evals += 1
            if v > best_val:
                best_val, best_pt = v, (float(theta), float(k))
    return best_val, best_pt, evals


def optimize_mix_no_edge_search(s: Scenario, mode: str, step: float):
    """The grid-and-golden optimizer without its box-edge search: the
    scalar coarse grid, a golden section on the cap face and the coordinate
    golden sections, which never land exactly on theta = 0 or k = 0."""
    g = government._grid(s, step)
    m = s.policy.m
    phi = government._phi
    best_val, best_pt, evals = coarse_grid_scalar(g, m, mode)
    face = line_interval(g, (0.0, m), (1.0, -1.0), 0.0, m)
    face_pt, face_val = None, -math.inf
    if face is not None:
        th, face_val, n = government._golden_max(
            lambda t: phi(g, t, m - t, mode), face[0], face[1], tol=1e-7)
        evals += n
        face_pt = (th, m - th)
    pt, val = best_pt, best_val
    for _ in range(12):
        theta, k = pt
        rng_t = line_interval(g, (0.0, k), (1.0, 0.0), 0.0, m - k)
        if rng_t is not None:
            theta, val, n = government._golden_max(
                lambda t: phi(g, t, k, mode), *rng_t, tol=1e-7)
            evals += n
        rng_k = line_interval(g, (theta, 0.0), (0.0, 1.0), 0.0, m - theta)
        new_k = k
        if rng_k is not None:
            new_k, val, n = government._golden_max(
                lambda kk: phi(g, theta, kk, mode), *rng_k, tol=1e-7)
            evals += n
        moved = abs(theta - pt[0]) + abs(new_k - pt[1])
        pt = (theta, new_k)
        if moved < 1e-6:
            break
    if face_pt is not None and face_val >= val:
        pt, val = face_pt, face_val
    return government.OptimalMix(
        theta_star=pt[0], k_star=pt[1], objective=val, weighting=mode,
        cap_binding=pt[0] + pt[1] >= m - 1e-6, grid_step=step,
        mode="mandatory", evaluations=evals)


def optimize_mix_grid_golden(s: Scenario, mode: str, step: float):
    """The grid-and-golden optimizer: `optimize_mix_no_edge_search`, then,
    for theta* or k* below 1e-6, a golden section along that edge with its
    ends evaluated, kept when at least as good."""
    old = optimize_mix_no_edge_search(s, mode, step)
    g = government._grid(s, step)
    m = s.policy.m
    pt, val, evals = (old.theta_star, old.k_star), old.objective, old.evaluations
    # the edges theta = 0 and k = 0 as points at(t), t in [0, m]
    for axis, at in ((0, lambda t: (0.0, t)), (1, lambda t: (t, 0.0))):
        if pt[axis] >= 1e-6:
            continue
        rng = line_interval(g, (0.0, 0.0), at(1.0), 0.0, m)
        if rng is None:
            continue
        t, v, n = government._golden_max(
            lambda t: government._phi(g, *at(t), mode), *rng, tol=1e-7, ends=True)
        evals += n
        if v >= val:
            pt, val = at(t), v
    return dataclasses.replace(old, theta_star=pt[0], k_star=pt[1], objective=val,
                               cap_binding=pt[0] + pt[1] >= m - 1e-6,
                               evaluations=evals)


def optimize_mix_nested_phi(s: Scenario, mode: str, step: float):
    """The nested golden search with a full `government._phi` per point:
    the outer section over the grid's `theta_range`, each of whose points is
    an inner section over that theta's `line_interval` k-segment."""
    g = government._grid(s, step)
    m = s.policy.m
    evals, k_at = 0, {}

    def psi(theta):
        nonlocal evals
        seg = line_interval(g, (theta, 0.0), (0.0, 1.0), 0.0, m - theta)
        if seg is None:
            return -math.inf
        k_at[theta], val, n = government._golden_max(
            lambda k: government._phi(g, theta, k, mode), *seg, ends=True)
        evals += n
        return val

    theta_star, val, _ = government._golden_max(psi, *g.theta_range, ends=True)
    k_star = k_at[theta_star]
    return government.OptimalMix(
        theta_star=theta_star, k_star=k_star, objective=val, weighting=mode,
        cap_binding=theta_star + k_star >= m - 1e-6, grid_step=step,
        mode="mandatory", evaluations=evals)


def _last_feasible(f, out: float, inside: float) -> float:
    """The point nearest `out` between `out` and `inside` where the concave
    f is >= 0, to the last float, given f(inside) >= 0."""
    if f(out) >= 0.0:
        return out
    while True:
        mid = 0.5 * (out + inside)
        if mid == out or mid == inside:
            return inside
        if f(mid) >= 0.0:
            inside = mid
        else:
            out = mid


def theta_range_by_search(g):
    """The grid's theta-range by search: the k-free `solvency` rows give
    an interval of theta, inside which the k-segment's length hi - lo is
    concave; one golden section finds its maximum, and a bisection finds
    the last float each end where it is still >= 0.  None when no theta
    is solvent."""
    c0, c1, c2 = g.rows[g.solvency].T
    free = c2 == 0.0
    box = government._feasible_interval(c0[free], c1[free], 0.0, g.m)
    if box is None or box[0] > box[1]:
        return None

    def length(theta):
        seg = government._feasible_interval(c0 + c1 * theta, c2, 0.0, g.m - theta)
        return -math.inf if seg is None else seg[1] - seg[0]

    top, longest, _ = government._golden_max(length, *box, ends=True)
    if longest < 0.0:
        return None
    return _last_feasible(length, box[0], top), _last_feasible(length, box[1], top)
