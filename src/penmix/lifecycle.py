"""Participant-side closed forms: coefficient functions, value function,
optimal feedback controls, initial-state estimation, and expected paths.

The value function has the form V = (1/delta) L(t) [x + M(t) w + N(t) y]^delta
with M(t) = M1(t) theta + M2(t) k + M3(t).  All coefficient functions vanish
at the terminal time t = z + omega - a and are continuous across the
retirement boundary t = z + tau - a.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from . import demography
from .demography import _gauss_legendre, _panels
from .errors import DomainError, InsolventCohort, UtilityExplosion
from .scenario import Scenario, check_step, delta_for_entry, validate


@dataclass(frozen=True)
class CohortCoefficients:
    """Closed-form multipliers at evaluation time t for the cohort entering at z."""

    t: float
    z: float
    M1: float   # PAYGO-rate multiplier on salary
    M2: float   # EET-rate multiplier on salary
    M3: float   # baseline salary multiplier
    N: float    # EET-balance multiplier


@dataclass(frozen=True)
class CohortState:
    """Government-side estimate of a cohort's state at the re-selection time."""

    z: float       # entry time
    zeta: float    # age at t0
    x0: float      # estimated private wealth
    y0: float      # estimated EET balance
    delta: float   # CRRA exponent assigned to the cohort


def _life_end(z: float, s: Scenario) -> float:
    return z + s.demo.omega - s.demo.a


def _discount(u, s: Scenario):
    """Utility discount b at life-time u = t - z (elementwise): interest
    discount, survival, and the retirement weight from u = tau - a onward
    (the boundary instant counts as retired)."""
    d = s.demo
    return (np.exp(-s.market.r * u) * demography.survival(u + d.a, d)
            * np.where(u >= d.tau - d.a, s.pref.lam, 1.0))


def discount_weight(u: float, z: float, s: Scenario) -> float:
    """Utility discount b(u; z) at calendar time u for the cohort entering at z."""
    age_time = u - z
    if not -1e-12 <= age_time <= s.demo.omega - s.demo.a + 1e-12:
        raise DomainError(f"u = {u} outside the life window of cohort z = {z}")
    return float(_discount(age_time, s))


# --------------------------------------------------------------------------
# L coefficient (utility scale)
# --------------------------------------------------------------------------

def _growth_exponent(delta: float, s: Scenario) -> float:
    mk = s.market
    return (delta / (1 - delta)) * (mk.r + (mk.mu - mk.r) ** 2 / (2 * mk.sigma**2 * (1 - delta)))


#: widest Gauss-Legendre panel (years) of the L kernel
L_PANEL = 1.0


def L_table(ages, delta: float, s: Scenario) -> np.ndarray:
    """L at every life-time u0 = t - z in `ages` for CRRA exponent delta.

    L(u0) = [e^{-c u0} I(u0)]^{1 - delta} with I(u0) the integral of
    b(u)^{1/(1-delta)} e^{c u} over [u0, omega - a], b the discount.  All
    the I(u0) come from one right-to-left cumulative sum of Gauss-Legendre
    panels whose edges are the requested ages, retirement (where lambda
    jumps) and the end of life, each panel at most L_PANEL wide.  Ages are
    clipped to [0, omega - a]; L is 0 at the end of life.
    """
    d = s.demo
    life, ret = d.omega - d.a, d.tau - d.a
    u0 = np.clip(np.asarray(ages, dtype=float), 0.0, life)
    knots = np.unique(np.append(u0, (ret, life)))
    knots = knots[knots >= u0.min()]
    lo, hi, _ = _panels(knots[:-1], knots[1:], L_PANEL)
    edges = np.append(lo, life)

    cexp = _growth_exponent(delta, s)
    p = 1.0 / (1.0 - delta)
    seg = _gauss_legendre(lo, hi, lambda u: _discount(u, s) ** p * np.exp(cexp * u))
    inner = np.append(np.cumsum(seg[::-1])[::-1], 0.0)
    L = (np.exp(-cexp * u0) * inner[np.searchsorted(edges, u0)]) ** (1.0 - delta)
    return np.where(u0 >= life - 1e-14, 0.0, L)


@lru_cache(maxsize=16)
def _L_of_age(u0: float, delta: float, s: Scenario) -> float:
    """L at life-time u0 = t - z in [0, omega - a]; independent of z otherwise.

    Each entry holds its scenario, so the cache is bounded like the other
    per-scenario caches; its scalar callers make a few lookups per scenario.

    Arguments and result are coerced to Python floats: numpy scalars hash
    equal to floats, so one cache entry serves both and must not leak
    numpy types into scalar code paths.
    """
    return float(L_table(float(u0), float(delta), s))


def coeff_L(t: float, z: float, delta: float, s: Scenario) -> float:
    """Utility-scale coefficient L(t; z) for a cohort with CRRA exponent delta."""
    if not z - 1e-12 <= t <= _life_end(z, s) + 1e-12:
        raise DomainError(f"t = {t} outside [z, z + omega - a] for z = {z}")
    return _L_of_age(min(max(t - z, 0.0), s.demo.omega - s.demo.a), delta, s)


def entry_L(delta: float, s: Scenario) -> float:
    """L at the entry time (same for every cohort)."""
    return _L_of_age(0.0, delta, s)


# --------------------------------------------------------------------------
# M1, M2, M3, N
# --------------------------------------------------------------------------

def _coef_kernel(q, life, s: Scenario, eps: float, epst: float, Lam: float,
                 a_tau: float):
    """The closed-form (M1, M2, M3, N), elementwise.

    q is the time to retirement (positive while working, <= 0 once retired)
    and `life` the remaining lifetime; eps, epst, Lam and a_tau are
    epsilon, epsilon_tilde, the constant support ratio and the annuity
    factor at retirement.
    """
    d, p = s.demo, s.policy
    r = s.market.r
    q, life = np.asarray(q, dtype=float), np.asarray(life, dtype=float)
    ret = q <= 0
    qp = np.maximum(q, 0.0)

    eq = np.exp(eps * qp)
    M1 = np.where(
        ret,
        (Lam / eps) * (np.exp(eps * life) - 1.0),
        (1.0 / eps) * ((1 - p.tau1)
                       + (Lam * math.exp(eps * (d.omega - d.tau)) - Lam - (1 - p.tau1)) * eq))
    ann = (1 - p.tau2) / (r * a_tau) * (1 - math.exp(-r * (d.omega - d.tau)))
    M2 = np.where(ret, 0.0,
                  ann / (eps - epst) * (eq - np.exp(epst * qp))
                  - (1 - p.tau1) / eps * (eq - 1.0))
    M3 = np.where(ret, 0.0, (1 - p.tau1) / eps * (eq - 1.0))
    N = np.where(ret,
                 (1 - p.tau2) / (r * a_tau) * (1.0 - np.exp(-r * life)),
                 ann * np.exp(epst * qp))
    return M1, M2, M3, N


def _coef_arrays(t, z, s: Scenario):
    """Vectorized (M1, M2, M3, N) over evaluation times t and entry times z
    (broadcast against each other); M1 follows Lambda(t) under a baby boom."""
    dc = validate(s)
    d = s.demo
    t, z = np.asarray(t, dtype=float), np.asarray(z, dtype=float)
    q = z - t + d.tau - d.a
    life = np.maximum(z - t + d.omega - d.a, 0.0)
    M1, M2, M3, N = _coef_kernel(q, life, s, dc.epsilon, dc.epsilon_tilde,
                                 dc.Lambda, dc.a_tau)
    if d.babyboom is not None:
        M1 = _bb_m1(t, z, s, dc.epsilon)
    return M1, M2, M3, N


def _bb_m1(t, z, s: Scenario, eps: float):
    """Time-varying-support-ratio M1 at times t for entry times z (broadcast):
    the benefit leg of the Lambda(t) table (`SupportRatioFn.leg`) minus the
    closed contribution leg."""
    d, p = s.demo, s.policy
    t, z = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(z, dtype=float))
    T = _life_end(z, s)
    t_ret = z + d.tau - d.a
    lo = np.minimum(np.maximum(t, t_ret), T)
    top, bottom = demography.support_ratio_fn(d).leg(np.stack([T, lo]), t, eps)
    plus = top - bottom
    minus = np.where(t < t_ret, (1 - p.tau1) / eps * np.expm1(eps * (t_ret - t)), 0.0)
    return np.where(t >= T - 1e-14, 0.0, plus - minus)


def coefficients(t: float, z: float, s: Scenario) -> CohortCoefficients:
    """Salary and EET-balance multipliers (M1, M2, M3, N) at time t."""
    if not z - 1e-12 <= t <= _life_end(z, s) + 1e-12:
        raise DomainError(f"t = {t} outside [z, z + omega - a] for z = {z}")
    M1, M2, M3, N = (float(v) for v in _coef_arrays(t, z, s))
    return CohortCoefficients(t=t, z=z, M1=M1, M2=M2, M3=M3, N=N)


# --------------------------------------------------------------------------
# value function and controls
# --------------------------------------------------------------------------

def total_resource(x: float, w: float, y: float, coefs: CohortCoefficients,
                   theta: float, k: float) -> float:
    """Equivalent disposable wealth G = x + (M1 theta + M2 k + M3) w + N y."""
    return x + (coefs.M1 * theta + coefs.M2 * k + coefs.M3) * w + coefs.N * y


def annuity_income(y_at_retirement: float, s: Scenario) -> float:
    """Annual after-tax life-annuity income bought by the EET balance at
    retirement: Y(retirement) (1 - tau2) / a_tau."""
    dc = validate(s)
    return y_at_retirement * (1 - s.policy.tau2) / dc.a_tau


def value_function(t: float, x: float, w: float, y: float, z: float,
                   theta: float, k: float, s: Scenario, delta: float) -> float:
    """Maximal expected remaining lifetime utility from state (x, w, y) at t."""
    if w <= 0:
        raise DomainError(f"average salary must be positive (got {w})")
    coefs = coefficients(t, z, s)
    G = total_resource(x, w, y, coefs, theta, k)
    if G <= 0:
        raise InsolventCohort(
            f"total resource G = {G} <= 0 at t = {t} for cohort z = {z}")
    return (1.0 / delta) * coeff_L(t, z, delta, s) * G**delta


def _controls(t, z, x, w, y, theta, k, coefs, L, delta: float, s: Scenario):
    """Optimal (pi_star, C_star), elementwise, at times t for the cohort
    entering at z in state (x, w, y); `coefs` holds (M1, M2, M3, N) and `L`
    the L coefficient at t."""
    dc = validate(s)
    mk = s.market
    M1, M2, M3, N = coefs
    M = M1 * theta + M2 * k + M3
    G = x + M * w + N * y
    working = (t - z) < s.demo.tau - s.demo.a
    pi = (dc.nu * G / (mk.sigma * (1 - delta))
          - (mk.xi * w * M + mk.beta * y * N * working) / mk.sigma)
    C = (L / _discount(t - z, s)) ** (1.0 / (delta - 1.0)) * G
    return pi, C


def optimal_controls(t: float, x: float, w: float, y: float, z: float,
                     theta: float, k: float, s: Scenario, delta: float):
    """Optimal risky allocation and consumption rate (pi_star, C_star) at t."""
    coefs = coefficients(t, z, s)
    G = total_resource(x, w, y, coefs, theta, k)
    if G <= 0:
        raise InsolventCohort(
            f"total resource G = {G} <= 0 at t = {t} for cohort z = {z}")
    L = coeff_L(t, z, delta, s)
    if L <= 0:
        raise DomainError("controls undefined at the terminal age (L = 0)")
    pi, C = _controls(t, z, x, w, y, theta, k,
                      (coefs.M1, coefs.M2, coefs.M3, coefs.N), L, delta, s)
    return float(pi), float(C)


# --------------------------------------------------------------------------
# state estimation and expected optimal paths
# --------------------------------------------------------------------------

def _salary_accum(lo, hi, s: Scenario):
    """integral of e^{(gamma - alpha) u} du over [lo, hi] (elementwise)."""
    g = s.market.gamma - s.market.alpha
    if abs(g) < 1e-14:
        return hi - lo
    return (np.exp(g * hi) - np.exp(g * lo)) / g


def _eet_balance(t, z, k, s: Scenario, k_initial=None):
    """E[Y(t)], elementwise, for the cohorts entering at z.

    Contributions accrue at rate `k_initial` until t0 and `k` afterwards (at
    `k` throughout when k_initial is None); the balance freezes at retirement.
    """
    d, mk = s.demo, s.market
    t, z = np.asarray(t, dtype=float), np.asarray(z, dtype=float)
    te = np.minimum(t, z + d.tau - d.a)
    cut = te if k_initial is None else np.clip(s.policy.t0, z, te)
    k_initial = k if k_initial is None else k_initial
    y = (k_initial * mk.W0 * np.exp(mk.alpha * te) * _salary_accum(z, cut, s)
         + k * mk.W0 * np.exp(mk.alpha * te) * _salary_accum(cut, te, s))
    return np.where(te > z, y, 0.0)


def expected_eet_balance(t: float, z: float, s: Scenario, k: float) -> float:
    """E[Y(t)] for a cohort entering at z that contributes at rate k since
    entry; the balance freezes at retirement."""
    return float(_eet_balance(t, z, k, s))


def _expected_states(t, z, delta, theta, k, coefs, L, s: Scenario, switch=None):
    """(E[X*(t)], E[Y(t)]), elementwise, for the cohorts entering at z, with
    CRRA exponents `delta`, (M1, M2, M3, N) = `coefs` and `L` at t.

    The rates (theta, k) held since entry or, with switch = (coefs, L) at
    t0, (theta0, k0) until t0 and (theta, k) afterwards.  The expected
    resource E[X + M W + N Y] follows the martingale representation of the
    optimal wealth from an anchor t_a (the entry, where it is M W, or t0):
    it grows by (L(t) / L(t_a))^(1/(1 - delta)) e^(g (t - t_a)) with
    g = r / (1 - delta) + (2 - delta) nu^2 / (2 (1 - delta)^2); `g_a` is
    its value per unit of salary at t_a.
    """
    p, mk = s.policy, s.market
    dc = validate(s)
    z, delta = np.asarray(z, dtype=float), np.asarray(delta, dtype=float)
    if switch is None:
        y = _eet_balance(t, z, k, s)
        e1, e2, e3, _ = _coef_arrays(z, z, s)
        classes, which = np.unique(delta, return_inverse=True)
        L_a = np.array([entry_L(dl, s) for dl in classes])[which].reshape(delta.shape)
        t_a, g_a = z, e1 * theta + e2 * k + e3
    else:
        coefs_t0, L_a = switch
        x0, y0 = _expected_states(p.t0, z, delta, p.theta0, p.k0, coefs_t0, L_a, s)
        c1, c2, c3, cn = coefs_t0
        y = _eet_balance(t, z, k, s, k_initial=p.k0)
        t_a = p.t0
        g_a = (x0 + cn * y0) / (mk.W0 * math.exp(mk.gamma * t_a)) + (c1 * theta + c2 * k + c3)
    M1, M2, M3, N = coefs
    w = mk.W0 * np.exp(mk.gamma * t)
    drift = np.exp((-mk.gamma + mk.r / (1 - delta)
                    + (2 - delta) * dc.nu**2 / (2 * (1 - delta) ** 2)) * (t - t_a))
    x = (-(M1 * theta + M2 * k + M3) * w - N * y
         + (L / L_a) ** (1.0 / (1 - delta)) * g_a * w * drift)
    return x, y


def estimate_initial_states(z: float, s: Scenario,
                            delta: Optional[float] = None) -> CohortState:
    """Expectation-based estimate of (x0, y0) at t0 for the cohort entering at z.

    Assumes the initial rates (theta0, k0) prevailed over the cohort's whole
    past.  `delta` overrides the class exponent (used by quadrature callers
    at the class boundary).
    """
    d, p = s.demo, s.policy
    t0 = p.t0
    if not t0 - (d.omega - d.a) - 1e-9 <= z <= t0 + 1e-9:
        raise DomainError(f"cohort z = {z} is not alive-and-entered at t0 = {t0}")
    if delta is None:
        delta = delta_for_entry(z, s)
    x0, y0 = _expected_states(t0, z, delta, p.theta0, p.k0, _coef_arrays(t0, z, s),
                              coeff_L(t0, z, delta, s), s)
    return CohortState(z=float(z), zeta=float(d.a + t0 - z), x0=float(x0),
                       y0=float(y0), delta=float(delta))


def expected_wealth(t: float, z: float, s: Scenario, theta: float, k: float,
                    switch_at_t0: bool = True) -> float:
    """E[X*(t)] at t in [z, z + omega - a] for the cohort entering at z under
    rates (theta, k).

    With switch_at_t0 (and z <= t0) the cohort ran (theta0, k0) until t0 and
    (theta, k) afterwards, starting from the estimated (x0, y0); otherwise the
    rates (theta, k) apply for the whole life.
    """
    p = s.policy
    delta = delta_for_entry(z, s)
    L = coeff_L(t, z, delta, s)
    if L <= 0.0:
        return 0.0
    switch = None
    if switch_at_t0 and z <= p.t0:
        switch = (_coef_arrays(p.t0, z, s), coeff_L(p.t0, z, delta, s))
    return float(_expected_states(t, z, delta, theta, k, _coef_arrays(t, z, s), L,
                                  s, switch)[0])


def expected_paths(z: float, s: Scenario, theta_star: float, k_star: float,
                   grid: float):
    """Expected optimal states and controls on a time grid.

    Returns a dict of equal-length arrays t, EX, EY, Epi, EC covering
    [max(z, t0), z + omega - a].  Controls are obtained by applying their
    linearity in (X, W, Y) to the expected states; at the terminal instant
    they are evaluated just inside the boundary.  A cohort entered by t0
    switches from (theta0, k0) to the given rates at the first node.
    """
    p, mk = s.policy, s.market
    delta = delta_for_entry(z, s)
    start = max(z, p.t0)
    T = _life_end(z, s)
    check_step(grid, T - start, "grid step")
    n = int(math.ceil((T - start) / grid - 1e-9))
    ts = np.minimum(start + grid * np.arange(n + 1), T)
    if ts[-1] < T - 1e-12:
        ts = np.append(ts, T)
    # evaluate just inside the terminal boundary: the consumption rate
    # diverges while the resource vanishes, and only the product has a limit
    t_eff = np.minimum(ts, T - 1e-8)
    coefs = _coef_arrays(t_eff, z, s)
    L = L_table(t_eff - z, delta, s)
    switch = (tuple(c[0] for c in coefs), L[0]) if z <= p.t0 else None
    # a survival that underflows along the path gives inf or nan, refused below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        EX, EY = _expected_states(t_eff, z, delta, theta_star, k_star, coefs, L, s, switch)
        EW = mk.W0 * np.exp(mk.gamma * t_eff)
        Epi, EC = _controls(t_eff, z, EX, EW, EY, theta_star, k_star, coefs, L, delta, s)
    finite = np.isfinite([EX, EY, Epi, EC]).all(axis=0)
    if not finite.all():
        raise UtilityExplosion(
            f"expected path not finite from t = {ts[~finite][0]:g}: the survival "
            "or the utility scale leaves the float range")
    return {"t": ts, "EX": EX, "EY": EY, "Epi": Epi, "EC": EC}
