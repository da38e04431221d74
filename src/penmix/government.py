"""Government layer: welfare objectives, admissible region, optimal mix, and
the voluntary-EET variant.

The objective aggregates existing cohorts' value functions over entry times
z in [t0 - omega + a, t0] plus a future-entrant term; contribution rates enter
every cohort's utility only through the affine resource
G(z) = x0(z) + (M1 theta + M2 k + M3) w0 + N y0(z), so one precomputed node
table makes each objective evaluation a vectorized array expression.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from . import demography, lifecycle
from .errors import DomainError, EmptyRegion, InsolventCohort
from .scenario import Scenario, validate

#: default composite-Simpson step (years) on the entry-time grid
Z_STEP = 0.05

WEIGHTINGS = ("population", "equal")

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _simpson(lo: float, hi: float, step: float):
    """Composite-Simpson nodes and weights on [lo, hi]."""
    n = max(2, int(math.ceil((hi - lo) / step)))
    if n % 2:
        n += 1
    x = np.linspace(lo, hi, n + 1)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= (hi - lo) / n / 3.0
    return x, w


@dataclass(frozen=True)
class CohortGrid:
    """Precomputed per-cohort node table plus future-entrant aggregation.

    The future-entrant integral is a closed form from `tail_start` on (where
    the entry coefficients are constant) plus, with a baby boom, Simpson nodes
    over [t0, tail_start] where the entry-time PAYGO coefficient still varies.
    """

    z: np.ndarray
    weight: np.ndarray        # Simpson weights
    density: np.ndarray       # entrant density n(z)
    delta: np.ndarray
    L: np.ndarray             # L(t0; z) with the cohort's delta
    M1: np.ndarray
    M2: np.ndarray
    M3: np.ndarray
    N: np.ndarray
    x0: np.ndarray
    y0: np.ndarray
    base: np.ndarray          # x0 + M3 w0 + N y0
    m1w: np.ndarray           # M1 w0
    m2w: np.ndarray           # M2 w0
    w0: float
    step: float
    # future entrants
    fut_M1: np.ndarray        # entry-time PAYGO coefficient per future node
    fut_coef_pop: np.ndarray  # node coefficient incl. weight/density/L0/delta0
    fut_coef_eq: np.ndarray
    tail_M01: float
    tail_prefac_pop: float
    tail_prefac_eq: float
    M02: float
    M03: float
    delta0: float
    # solvency half-planes c0 + c1 theta + c2 k >= 0: the existing cohorts
    # (base, m1w, m2w), then every future entrant (M03, M1, M02)
    rows: np.ndarray


@lru_cache(maxsize=8)
def _grid(s: Scenario, step: float) -> CohortGrid:
    d, p, mk, f = s.demo, s.policy, s.market, s.pref
    dc = validate(s)
    t0 = p.t0
    w0 = mk.W0 * math.exp(mk.gamma * t0)

    # split at the worker/retiree class boundary: delta and the integrand's
    # smoothness change at z = t0 - tau + a
    z_ret, w_ret = _simpson(t0 - (d.omega - d.a), t0 - (d.tau - d.a), step)
    z_wrk, w_wrk = _simpson(t0 - (d.tau - d.a), t0, step)
    zs = np.concatenate([z_ret, z_wrk])
    wts = np.concatenate([w_ret, w_wrk])

    if d.babyboom is None:
        density = d.n0 * np.exp(d.rho * zs)
    else:
        density = demography.bb_entrants(zs, d.babyboom)

    # per-piece class exponents: the shared boundary node takes each piece's
    # interior limit, which is the point of splitting the integral there
    deltas = np.concatenate([np.full(len(z_ret), f.delta2),
                             np.full(len(z_wrk), f.delta1)])
    coefs = lifecycle._coef_arrays(t0, zs, s)
    M1, M2, M3, N = coefs
    L = np.concatenate([lifecycle.L_table(t0 - z_ret, f.delta2, s),
                        lifecycle.L_table(t0 - z_wrk, f.delta1, s)])
    x0, y0 = lifecycle._state_arrays(zs, deltas, coefs, L, s)
    base = x0 + M3 * w0 + N * y0

    L0, M02, M03 = dc.L0, dc.M02, dc.M03
    growth = mk.gamma + 0.5 * (f.delta0 - 1) * mk.xi**2

    if d.babyboom is None:
        tail_start = t0
        rho_tail = d.rho
        n_tail = d.n0 * math.exp(d.rho * tail_start)
        eq_scale = d.n0
        tail_M01 = dc.M01
        fut_z = np.empty(0)
        fut_w = np.empty(0)
    else:
        bb = d.babyboom
        # entrants from tail_start on spend their whole benefit window in the
        # settled post-boom regime
        tail_start = max(t0, bb.t2 + d.omega - d.tau)
        rho_tail = bb.rho2
        n_tail = float(demography.bb_entrants(tail_start, bb))
        eq_scale = float(demography.bb_entrants(t0, bb))
        settled = dataclasses.replace(d, babyboom=None, rho=bb.rho2)
        tail_M01 = float(lifecycle._coef_kernel(
            d.tau - d.a, d.omega - d.a, s, dc.epsilon, dc.epsilon_tilde,
            demography.support_ratio(settled), dc.a_tau)[0])
        if tail_start > t0:
            fut_z, fut_w = _simpson(t0, tail_start, step)
        else:
            fut_z = np.empty(0)
            fut_w = np.empty(0)

    denom_tail = mk.r - rho_tail - f.delta0 * growth
    if denom_tail <= 0:
        from .errors import UtilityExplosion
        raise UtilityExplosion(
            "future-entrant utility diverges at the settled entrant growth "
            f"rate {rho_tail}: margin = {denom_tail} <= 0")
    tail_prefac = (n_tail * L0 * w0**f.delta0
                   * math.exp((-mk.r + f.delta0 * growth) * (tail_start - t0))
                   / (f.delta0 * denom_tail))
    if fut_z.size:
        fut_M1 = lifecycle._bb_m1(fut_z, fut_z, s, dc.epsilon)
        fut_density = demography.bb_entrants(fut_z, d.babyboom)
        fut_coef = (fut_w * fut_density * np.exp(-mk.r * (fut_z - t0))
                    * np.exp(f.delta0 * growth * (fut_z - t0))
                    * L0 * w0**f.delta0 / f.delta0)
    else:
        fut_M1 = np.empty(0)
        fut_coef = np.empty(0)

    m1w, m2w = M1 * w0, M2 * w0
    entry_M1 = np.append(fut_M1, tail_M01)
    rows = np.concatenate([
        np.column_stack([base, m1w, m2w]),
        np.column_stack([np.full(entry_M1.size, M03), entry_M1,
                         np.full(entry_M1.size, M02)])])
    rows.setflags(write=False)   # shared by every caller of the cached grid
    return CohortGrid(
        z=zs, weight=wts, density=density, delta=deltas, L=L,
        M1=M1, M2=M2, M3=M3, N=N, x0=x0, y0=y0,
        base=base, m1w=m1w, m2w=m2w, w0=w0, step=step,
        fut_M1=fut_M1, fut_coef_pop=fut_coef, fut_coef_eq=fut_coef / eq_scale,
        tail_M01=tail_M01, tail_prefac_pop=tail_prefac,
        tail_prefac_eq=tail_prefac / eq_scale,
        M02=M02, M03=M03, delta0=f.delta0, rows=rows)


def _phi_nodes(g: CohortGrid, mode: str, G: np.ndarray) -> float:
    """Existing-cohort Simpson sum; -inf when some cohort is insolvent."""
    live = g.L > 0.0
    if np.any(G[live] <= 0.0):
        return -math.inf
    weight = g.weight * (g.density if mode == "population" else 1.0)
    vals = np.zeros_like(G)
    vals[live] = (weight[live] / g.delta[live] * g.L[live]
                  * G[live] ** g.delta[live])
    return float(vals.sum())


def _phi_future(g: CohortGrid, mode: str, theta: float, k_tail: float,
                k_nodes) -> float:
    """Future-entrant welfare; -inf when some entrant would be insolvent."""
    g_tail = g.tail_M01 * theta + g.M02 * k_tail + g.M03
    if g_tail <= 0.0:
        return -math.inf
    prefac = g.tail_prefac_pop if mode == "population" else g.tail_prefac_eq
    val = prefac * g_tail**g.delta0
    if g.fut_M1.size:
        Gf = g.fut_M1 * theta + g.M02 * k_nodes + g.M03
        if np.any(Gf <= 0.0):
            return -math.inf
        coef = g.fut_coef_pop if mode == "population" else g.fut_coef_eq
        val += float((coef * Gf**g.delta0).sum())
    return val


def _phi(g: CohortGrid, theta: float, k: float, mode: str) -> float:
    G = g.base + g.m1w * theta + g.m2w * k
    existing = _phi_nodes(g, mode, G)
    if not math.isfinite(existing):
        return -math.inf
    future = _phi_future(g, mode, theta, k, k)
    if not math.isfinite(future):
        return -math.inf
    return existing + future


def _check_mode(mode: str) -> None:
    if mode not in WEIGHTINGS:
        raise DomainError(f"weighting must be one of {WEIGHTINGS} (got {mode!r})")


def objective(theta: float, k: float, s: Scenario, mode: str = "population",
              step: float = Z_STEP) -> float:
    """Aggregate welfare phi(theta, k) under the given cohort weighting."""
    _check_mode(mode)
    validate(s)
    if theta + k > s.policy.m + 1e-12 or min(theta, k) < -1e-12:
        raise InsolventCohort(
            f"(theta, k) = ({theta}, {k}) violates the cap theta + k <= {s.policy.m}")
    g = _grid(s, step)
    G = g.base + g.m1w * theta + g.m2w * k
    bad = (g.L > 0.0) & (G <= 0.0)
    if np.any(bad):
        raise InsolventCohort(
            f"cohort z = {g.z[bad][0]:.3f} has nonpositive resource G at "
            f"(theta, k) = ({theta}, {k})")
    val = _phi(g, theta, k, mode)
    if not math.isfinite(val):
        raise InsolventCohort(
            f"future entrants have nonpositive resource at (theta, k) = ({theta}, {k})")
    return val


def objective_per_cohort(theta: float, k_of_z: Callable[[float], float],
                         s: Scenario, mode: str = "population",
                         step: float = Z_STEP, future_k: Optional[float] = None) -> float:
    """Welfare when each cohort z runs its own EET rate k_of_z(z).

    future_k is the rate applied to every future entrant (defaults to
    k_of_z(t0)).
    """
    _check_mode(mode)
    g = _grid(s, step)
    ks = np.array([k_of_z(float(z)) for z in g.z])
    G = g.base + g.m1w * theta + g.m2w * ks
    existing = _phi_nodes(g, mode, G)
    kf = k_of_z(s.policy.t0) if future_k is None else future_k
    future = _phi_future(g, mode, theta, kf, kf)
    if not math.isfinite(existing) or not math.isfinite(future):
        raise InsolventCohort(
            f"nonpositive resource under per-cohort rates at theta = {theta}")
    return existing + future


# --------------------------------------------------------------------------
# admissible region
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AdmissibleRegion:
    """Intersection of per-cohort solvency half-planes with the rate box.

    Half-plane rows (c0, c1, c2) encode c0 + c1 theta + c2 k >= 0.
    """

    halfplanes: np.ndarray
    m: float
    step: float

    def contains(self, theta: float, k: float, tol: float = 1e-12) -> bool:
        if theta < -tol or k < -tol or theta + k > self.m + tol:
            return False
        if theta > 1 + tol or k > 1 + tol:
            return False
        vals = (self.halfplanes[:, 0] + self.halfplanes[:, 1] * theta
                + self.halfplanes[:, 2] * k)
        return bool(np.all(vals >= -tol))


def admissible_region(s: Scenario, step: float = Z_STEP) -> AdmissibleRegion:
    """Solvency constraints G(z) >= 0 on the entry-time grid, plus the box."""
    if step <= 0:
        raise DomainError(f"z-grid step must be positive (got {step})")
    g = _grid(s, step)
    region = AdmissibleRegion(halfplanes=g.rows[:g.z.size], m=s.policy.m, step=step)
    for theta in np.linspace(0.0, s.policy.m, 26):
        for k in np.linspace(0.0, s.policy.m, 26):
            if theta + k <= s.policy.m and region.contains(theta, k, tol=0.0):
                return region
    raise EmptyRegion("no feasible (theta, k) found on the probe grid")


# --------------------------------------------------------------------------
# optimizer
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class OptimalMix:
    """Optimizer output for one weighting mode."""

    theta_star: float
    k_star: float
    objective: float
    weighting: str
    cap_binding: bool
    grid_step: float
    mode: str = "mandatory"       # "mandatory" | "voluntary"
    evaluations: int = 0

    def to_dict(self) -> dict:
        return {
            "theta_star": self.theta_star, "k_star": self.k_star,
            "objective": self.objective, "weighting": self.weighting,
            "cap_binding": self.cap_binding, "grid_step": self.grid_step,
            "mode": self.mode,
        }


def _golden_max(f, lo: float, hi: float, tol: float = 1e-7):
    """Golden-section maximizer for a unimodal f on [lo, hi]."""
    evals = 0
    c = hi - _GOLDEN * (hi - lo)
    d_ = lo + _GOLDEN * (hi - lo)
    fc, fd = f(c), f(d_)
    evals += 2
    while hi - lo > tol:
        if fc > fd:
            hi, d_, fd = d_, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d_, fd
            d_ = lo + _GOLDEN * (hi - lo)
            fd = f(d_)
        evals += 1
    x = 0.5 * (lo + hi)
    return x, f(x), evals + 1


def _feasible_interval(c0: np.ndarray, c1: np.ndarray,
                       lo: float = -math.inf, hi: float = math.inf):
    """Bounds (lo', hi') of {x in [lo, hi] : c0 + c1 x >= 0 rowwise}, empty
    when lo' > hi'; None when a row with c1 = 0 fails."""
    pos = c1 > 1e-300
    neg = c1 < -1e-300
    fixed = ~pos & ~neg
    if np.any(c0[fixed] < -1e-12):
        return None
    if np.any(pos):
        lo = max(lo, float((-c0[pos] / c1[pos]).max()))
    if np.any(neg):
        hi = min(hi, float((-c0[neg] / c1[neg]).min()))
    return lo, hi


def _line_interval(g: CohortGrid, point, direction, lo: float, hi: float):
    """Feasible t in [lo, hi] on the line point + t direction in (theta, k)
    against every solvency row of the grid, or None if empty."""
    c0, c1, c2 = g.rows.T
    bounds = _feasible_interval(c0 + c1 * point[0] + c2 * point[1],
                                c1 * direction[0] + c2 * direction[1], lo, hi)
    return bounds if bounds is not None and bounds[0] <= bounds[1] else None


def optimize_mix(s: Scenario, mode: str = "population",
                 step: float = Z_STEP) -> OptimalMix:
    """Global maximizer of the welfare objective over the admissible region.

    Concavity makes a coarse-grid pass plus golden-section refinement (along
    the cap face and per coordinate) sufficient for 1e-4 accuracy.
    """
    _check_mode(mode)
    validate(s)
    m = s.policy.m
    g = _grid(s, step)
    evals = 0

    rates = np.linspace(0.0, m, 101)
    best_val, best_pt = -math.inf, None
    for theta in rates:
        for k in rates:
            if theta + k > m + 1e-12:
                continue
            v = _phi(g, theta, k, mode)
            evals += 1
            if v > best_val:
                best_val, best_pt = v, (float(theta), float(k))
    if best_pt is None or not math.isfinite(best_val):
        raise EmptyRegion("no feasible (theta, k) on the coarse grid")

    # 1-D search along the binding face theta + k = m
    face = _line_interval(g, (0.0, m), (1.0, -1.0), 0.0, m)
    face_pt, face_val = None, -math.inf
    if face is not None:
        th, face_val, n = _golden_max(lambda t: _phi(g, t, m - t, mode),
                                      face[0], face[1], tol=1e-7)
        evals += n
        face_pt = (th, m - th)

    # interior refinement: coordinate golden-section from the grid best
    pt, val = best_pt, best_val
    for _ in range(12):
        theta, k = pt
        rng_t = _line_interval(g, (0.0, k), (1.0, 0.0), 0.0, m - k)
        if rng_t is not None:
            theta, val, n = _golden_max(lambda t: _phi(g, t, k, mode), *rng_t, tol=1e-7)
            evals += n
        rng_k = _line_interval(g, (theta, 0.0), (0.0, 1.0), 0.0, m - theta)
        new_k = k
        if rng_k is not None:
            new_k, val, n = _golden_max(lambda kk: _phi(g, theta, kk, mode), *rng_k, tol=1e-7)
            evals += n
        moved = abs(theta - pt[0]) + abs(new_k - pt[1])
        pt = (theta, new_k)
        if moved < 1e-6:
            break

    if face_pt is not None and face_val >= val:
        pt, val = face_pt, face_val
    theta_star, k_star = pt
    return OptimalMix(theta_star=theta_star, k_star=k_star, objective=val,
                      weighting=mode, cap_binding=theta_star + k_star >= m - 1e-6,
                      grid_step=step, mode="mandatory", evaluations=evals)


# --------------------------------------------------------------------------
# voluntary EET participation
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class VoluntaryChoice:
    """A cohort's optimal EET rate for a given theta: a point or an interval."""

    kind: str          # "point" | "interval"
    value: float       # canonical representative
    lo: float
    hi: float


def voluntary_k_star(theta: float, z: float, s: Scenario) -> VoluntaryChoice:
    """Optimal voluntary EET rate of cohort z given the PAYGO rate theta.

    Retirees are indifferent (their balance is frozen): the whole interval
    [0, m - theta] is optimal and 0 is reported as representative.  Other
    cohorts go to the cap (positive EET multiplier), to zero (negative), or
    are indifferent (zero multiplier; the cap is reported).
    """
    d, p = s.demo, s.policy
    if not -1e-12 <= theta <= p.m + 1e-12:
        raise DomainError(f"theta = {theta} outside [0, m]")
    hi = max(p.m - theta, 0.0)
    if z <= p.t0 - (d.tau - d.a):
        return VoluntaryChoice("interval", 0.0, 0.0, hi)
    if z >= p.t0:
        m2 = validate(s).M02
    else:
        m2 = lifecycle.coefficients(p.t0, z, s).M2
    if m2 > 1e-12:
        return VoluntaryChoice("point", hi, hi, hi)
    if m2 < -1e-12:
        return VoluntaryChoice("point", 0.0, 0.0, 0.0)
    return VoluntaryChoice("interval", hi, 0.0, hi)


@dataclass(frozen=True)
class ThetaBounds:
    """Admissible PAYGO-rate interval in the voluntary equilibrium."""

    lower: float               # 0 v theta_low
    upper: float               # m ^ theta_high
    theta_low: float           # sup of the binding lower-bound ratios
    theta_high: float          # inf of the binding upper-bound ratios (may be inf)
    A1: tuple                  # age intervals where the theta coefficient is positive
    A2: tuple                  # age intervals where it is negative
    grid_step: float


def _a1_a2_intervals(s: Scenario):
    """Age-interval form of the sets A1 / A2 from the preference case flags."""
    from . import preference

    d = s.demo
    dc = validate(s)
    lam_fp, lam_ep = preference.thresholds(s)
    m2a, dm2 = preference.m2_boundary_diagnostics(s)
    zh = preference.critical_age_paygo_savings(s)
    zt = preference.critical_age_paygo_eet(s)
    a1 = [(d.tau, d.omega)]
    if m2a < 0 and (dc.Lambda > lam_fp or dc.Lambda > lam_ep):
        a1.append((d.a, d.tau))
        a2 = []
    elif (m2a < 0 and dc.Lambda <= lam_fp) or (
            m2a >= 0 and dm2 > 0 and dc.Lambda <= lam_fp
            and zh is not None and zt is not None and zh > zt):
        a1.append((zh, d.tau))
        a2 = [(d.a, zh)]
    elif zt is not None:
        a1.append((zt, d.tau))
        a2 = [(d.a, zt)]
    else:
        a1.append((d.a, d.tau))
        a2 = []
    return tuple(a1), tuple(a2)


def voluntary_theta_bounds(s: Scenario, step: float = Z_STEP) -> ThetaBounds:
    """Bounds on theta keeping every cohort solvent under voluntary EET.

    Node membership in A1 / A2 is decided by the sign of the per-cohort theta
    coefficient M1 - M2^+; the interval case analysis is reported alongside.
    """
    g = _grid(s, step)
    m = s.policy.m
    # each cohort's best response makes G affine in theta alone; the
    # entry-time rows also bind every future cohort
    m2p = np.maximum(g.M2, 0.0)
    m02p = max(g.M02, 0.0)
    entry_M1 = g.rows[g.z.size:, 1]
    bounds = _feasible_interval(
        np.concatenate([g.x0 + g.N * g.y0 + (m2p * m + g.M3) * g.w0,
                        np.full(entry_M1.size, m02p * m + g.M03)]),
        np.concatenate([(g.M1 - m2p) * g.w0, entry_M1 - m02p]))
    if bounds is None:
        raise EmptyRegion("a theta-independent cohort constraint is violated")
    theta_low, theta_high = bounds
    a1, a2 = _a1_a2_intervals(s)
    lower, upper = max(0.0, theta_low), min(m, theta_high)
    if lower > upper + 1e-12:
        raise EmptyRegion(
            f"voluntary admissible theta interval is empty: [{lower}, {upper}]")
    return ThetaBounds(lower=lower, upper=upper, theta_low=theta_low,
                       theta_high=theta_high, A1=a1, A2=a2, grid_step=step)


def _voluntary_phi(g: CohortGrid, theta: float, m: float, mode: str) -> float:
    m2p = np.maximum(g.M2, 0.0)
    G = g.base + (g.M1 - m2p) * g.w0 * theta + m2p * g.w0 * m
    existing = _phi_nodes(g, mode, G)
    if not math.isfinite(existing):
        return -math.inf
    # entrants share the sign of the entry-time EET coefficient, hence one
    # best response: the cap remainder when it helps, nothing when it hurts
    k_fut = (m - theta) if g.M02 >= -1e-12 else 0.0
    future = _phi_future(g, mode, theta, k_fut, k_fut)
    if not math.isfinite(future):
        return -math.inf
    return existing + future


def voluntary_objective(theta: float, s: Scenario, mode: str = "population",
                        step: float = Z_STEP) -> float:
    """Welfare when every cohort best-responds with its own EET rate."""
    _check_mode(mode)
    bounds = voluntary_theta_bounds(s, step)
    if not bounds.lower - 1e-12 <= theta <= bounds.upper + 1e-12:
        raise InsolventCohort(
            f"theta = {theta} outside the voluntary admissible interval "
            f"[{bounds.lower}, {bounds.upper}]")
    val = _voluntary_phi(_grid(s, step), theta, s.policy.m, mode)
    if not math.isfinite(val):
        raise InsolventCohort(f"insolvent cohort at theta = {theta}")
    return val


def optimize_voluntary(s: Scenario, mode: str = "population",
                       step: float = Z_STEP) -> OptimalMix:
    """Optimal PAYGO rate when EET participation is voluntary."""
    _check_mode(mode)
    bounds = voluntary_theta_bounds(s, step)
    g = _grid(s, step)
    theta, val, evals = _golden_max(
        lambda t: _voluntary_phi(g, t, s.policy.m, mode),
        bounds.lower, bounds.upper, tol=1e-7)
    k_rep = voluntary_k_star(theta, s.policy.t0, s).value
    return OptimalMix(theta_star=theta, k_star=k_rep, objective=val,
                      weighting=mode,
                      cap_binding=theta + k_rep >= s.policy.m - 1e-6,
                      grid_step=step, mode="voluntary", evaluations=evals)
