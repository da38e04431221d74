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

from . import demography, lifecycle, preference
from .errors import DomainError, EmptyRegion, InsolventCohort
from .scenario import Scenario, validate

#: default composite-Simpson step (years) on the entry-time grid
Z_STEP = 0.05

WEIGHTINGS = ("population", "equal")

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
#: an optimum closer than this to theta = 0 or k = 0 is searched for on
#: that edge, whose ends a golden section never evaluates
EDGE_TOL = 1e-6


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
    Every existing cohort, future-entrant node and the settled tail is one row
    of `rows`; the welfare is sum w G^power over the rows with L > 0.
    """

    z: np.ndarray
    delta: np.ndarray
    L: np.ndarray             # L(t0; z) with the cohort's delta
    M1: np.ndarray
    M2: np.ndarray
    M3: np.ndarray
    N: np.ndarray
    x0: np.ndarray
    y0: np.ndarray
    w0: float
    step: float
    M02: float
    M03: float
    # solvency half-planes c0 + c1 theta + c2 k >= 0: the existing cohorts
    # (x0 + M3 w0 + N y0, M1 w0, M2 w0), then every future entrant (M03, M1, M02)
    rows: np.ndarray
    # the same rows' resource d0 + d1 theta when each cohort and entrant
    # best-responds with voluntary EET: the cap remainder m - theta where its
    # EET multiplier is positive, nothing otherwise (M2^+ = max(M2, 0))
    vol_rows: np.ndarray
    live: np.ndarray          # rows in the welfare sum (L > 0)
    power: np.ndarray         # delta per live row
    weights: dict             # weighting -> w per live row


def _check_step(step: float) -> None:
    if not (step > 0 and math.isfinite(step)):
        raise DomainError(f"z-grid step must be positive and finite (got {step})")


@lru_cache(maxsize=8)
def _grid(s: Scenario, step: float) -> CohortGrid:
    _check_step(step)
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
    x0, y0 = lifecycle._expected_states(t0, zs, deltas, p.theta0, p.k0, coefs, L, s)

    L0, M02, M03 = dc.L0, dc.M02, dc.M03
    growth = mk.gamma + 0.5 * (f.delta0 - 1) * mk.xi**2

    if d.babyboom is None:
        tail_start = t0
        rho_tail = d.rho
        n_tail = d.n0 * math.exp(d.rho * tail_start)
        eq_scale = d.n0
        tail_M01 = dc.M01
        fut_z = np.empty(0)
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
        fut_z = np.empty(0)
        if tail_start > t0:
            fut_z, fut_w = _simpson(t0, tail_start, step)

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
        fut_coef = (fut_w * demography.bb_entrants(fut_z, d.babyboom)
                    * np.exp(-mk.r * (fut_z - t0))
                    * np.exp(f.delta0 * growth * (fut_z - t0))
                    * L0 * w0**f.delta0 / f.delta0)
    else:
        fut_M1 = np.empty(0)
        fut_coef = np.empty(0)

    entry_M1 = np.append(fut_M1, tail_M01)
    n_entry = entry_M1.size
    rows = np.concatenate([
        np.column_stack([x0 + M3 * w0 + N * y0, M1 * w0, M2 * w0]),
        np.column_stack([np.full(n_entry, M03), entry_M1, np.full(n_entry, M02)])])
    m2p, m02p = np.maximum(M2, 0.0), max(M02, 0.0)
    vol_rows = np.concatenate([
        np.column_stack([x0 + N * y0 + (m2p * p.m + M3) * w0, (M1 - m2p) * w0]),
        np.column_stack([np.full(n_entry, m02p * p.m + M03), entry_M1 - m02p])])
    # welfare weights: Simpson weight x density (population) x L / delta per
    # cohort; the entrant nodes and the tail carry theirs in fut_coef and
    # tail_prefac, divided by the entrant density at t0 when equally weighted
    live = np.append(L > 0.0, np.ones(n_entry, dtype=bool))
    entry_w = np.append(fut_coef, tail_prefac)
    weights = {"population": np.append(wts * density / deltas * L, entry_w)[live],
               "equal": np.append(wts / deltas * L, entry_w / eq_scale)[live]}
    power = np.append(deltas, np.full(n_entry, f.delta0))[live]
    for arr in (rows, vol_rows, live, power, *weights.values()):
        arr.setflags(write=False)   # shared by every caller of the cached grid
    return CohortGrid(
        z=zs, delta=deltas, L=L, M1=M1, M2=M2, M3=M3, N=N, x0=x0, y0=y0,
        w0=w0, step=step, M02=M02, M03=M03, rows=rows, vol_rows=vol_rows,
        live=live, power=power, weights=weights)


def _welfare(g: CohortGrid, G: np.ndarray, mode: str) -> float:
    """sum w G^power over the live rows of resources G (one per row of
    g.rows); -inf when one of them is insolvent."""
    G = G[g.live]
    if np.any(G <= 0.0):
        return -math.inf
    return float((g.weights[mode] * G ** g.power).sum())


def _resources(g: CohortGrid, theta: float, k) -> np.ndarray:
    """G = c0 + c1 theta + c2 k on every row; k is one rate or one per row."""
    c0, c1, c2 = g.rows.T
    return c0 + c1 * theta + c2 * k


def _phi(g: CohortGrid, theta: float, k: float, mode: str) -> float:
    return _welfare(g, _resources(g, theta, k), mode)


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
    G = _resources(g, theta, k)
    bad = np.flatnonzero(g.live & (G <= 0.0))
    if bad.size:
        who = (f"cohort z = {g.z[bad[0]]:.3f} has" if bad[0] < g.z.size
               else "future entrants have")
        raise InsolventCohort(
            f"{who} nonpositive resource G at (theta, k) = ({theta}, {k})")
    return _welfare(g, G, mode)


def objective_per_cohort(theta: float, k_of_z: Callable[[float], float],
                         s: Scenario, mode: str = "population",
                         step: float = Z_STEP, future_k: Optional[float] = None) -> float:
    """Welfare when each cohort z runs its own EET rate k_of_z(z).

    future_k is the rate applied to every future entrant (defaults to
    k_of_z(t0)).
    """
    _check_mode(mode)
    g = _grid(s, step)
    kf = k_of_z(s.policy.t0) if future_k is None else future_k
    ks = np.array([k_of_z(float(z)) for z in g.z]
                  + [kf] * (len(g.rows) - g.z.size))
    val = _welfare(g, _resources(g, theta, ks), mode)
    if not math.isfinite(val):
        raise InsolventCohort(
            f"nonpositive resource under per-cohort rates at theta = {theta}")
    return val


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
    g = _grid(s, step)
    m = s.policy.m
    region = AdmissibleRegion(halfplanes=g.rows[:g.z.size], m=m, step=step)
    h0, h1, h2 = region.halfplanes.T
    # a 26 x 26 probe grid, one theta at a time: `contains` with tol = 0 at
    # every probe k with theta + k <= m (m <= 1, so the box holds them all)
    probes = np.linspace(0.0, m, 26)
    for theta in probes:
        ks = probes[theta + probes <= m]
        vals = (h0 + h1 * theta)[:, None] + np.multiply.outer(h2, ks)
        if np.any(np.all(vals >= 0.0, axis=0)):
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


def _golden_max(f, lo: float, hi: float, tol: float = 1e-7, ends: bool = False):
    """Golden-section maximizer for a unimodal f on [lo, hi].

    The search never evaluates the ends of [lo, hi]; with `ends`, each end
    that the final bracket still touches is evaluated too and returned when
    it is at least as good as the bracket's midpoint.
    """
    a, b = lo, hi
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
    fx = f(x)
    evals += 1
    if ends:
        for end, touched in ((a, lo == a), (b, hi == b)):
            if touched:
                f_end = f(end)
                evals += 1
                if f_end >= fx:
                    x, fx = end, f_end
    return x, fx, evals


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


def _coarse_grid(g: CohortGrid, m: float, mode: str):
    """Best cell of the 101 x 101 rate grid on theta + k <= m.

    Returns (value, (theta, k), cells scored): the first strict maximum in
    row-major order, (-inf, None, n) when no cell is solvent.  Each theta-row
    is one array pass over a (k, live row) buffer of terms w G^power, summed
    per k in the same row order as `_phi`, so every cell keeps its bits.
    Rows with c2 == 0 (a frozen EET balance) do not depend on k: their terms
    are computed once per theta.
    """
    rates = np.linspace(0.0, m, 101)
    c0, c1, c2 = (np.ascontiguousarray(col) for col in g.rows[g.live].T)
    w, p = g.weights[mode], g.power
    # table-order runs of k-free (c2 == 0) and k-dependent rows; each
    # k-dependent run gets a contiguous (k, row) scratch for its G
    free = c2 == 0.0
    cuts = [0, *(np.flatnonzero(free[1:] != free[:-1]) + 1), free.size]
    runs = [(slice(a, b), None if free[a] else np.empty((rates.size, b - a)))
            for a, b in zip(cuts, cuts[1:])]
    terms = np.empty((rates.size, free.size))
    best_val, best_pt, evals = -math.inf, None, 0
    for theta in rates:
        nk = int(np.count_nonzero(theta + rates <= m + 1e-12))
        evals += nk
        base = c0 + c1 * theta
        if any(np.any(base[cols] <= 0.0) for cols, G in runs if G is None):
            continue
        bad = np.zeros(nk, dtype=bool)
        for cols, G in runs:
            if G is not None:
                np.multiply.outer(rates[:nk], c2[cols], out=G[:nk])
                G[:nk] += base[cols]
                bad |= (G[:nk] <= 0.0).any(axis=1)
        # each G is monotone in k, so the solvent cells are one k-range
        ok = np.flatnonzero(~bad)
        if not ok.size:
            continue
        lo, hi = ok[0], ok[-1] + 1
        for cols, G in runs:
            if G is None:
                terms[lo:hi, cols] = w[cols] * base[cols] ** p[cols]
            else:
                np.power(G[lo:hi], p[cols], out=G[lo:hi])
                np.multiply(G[lo:hi], w[cols], out=terms[lo:hi, cols])
        vals = terms[lo:hi].sum(axis=1)
        j = int(np.argmax(vals))
        if vals[j] > best_val:
            best_val, best_pt = float(vals[j]), (float(theta), float(rates[lo + j]))
    return best_val, best_pt, evals


def optimize_mix(s: Scenario, mode: str = "population",
                 step: float = Z_STEP) -> OptimalMix:
    """Global maximizer of the welfare objective over the admissible region.

    Concavity makes a coarse-grid pass plus golden-section refinement (along
    the cap face and per coordinate) sufficient for 1e-4 accuracy.  The
    101 x 101 grid is scored one theta-row per array pass (`_coarse_grid`);
    `evaluations` counts each of its cells and each golden-section point.
    An optimum within EDGE_TOL of theta = 0 or k = 0 is searched for again
    on that edge, ends included, so an active edge returns exactly 0 and an
    active corner exactly (m, 0) or (0, m).
    """
    _check_mode(mode)
    validate(s)
    m = s.policy.m
    g = _grid(s, step)

    best_val, best_pt, evals = _coarse_grid(g, m, mode)
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

    # the edges theta = 0 and k = 0 as points at(t), t in [0, m]
    for axis, at in ((0, lambda t: (0.0, t)), (1, lambda t: (t, 0.0))):
        if pt[axis] >= EDGE_TOL:
            continue
        rng = _line_interval(g, (0.0, 0.0), at(1.0), 0.0, m)
        if rng is None:
            continue
        t, v, n = _golden_max(lambda t: _phi(g, *at(t), mode), *rng,
                              tol=1e-7, ends=True)
        evals += n
        if v >= val:
            pt, val = at(t), v
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
    d = s.demo
    dc = validate(s)
    report, eet = preference._analyse(s)
    lam_fp, lam_ep = report.lambda_fp, report.lambda_ep
    zh, zt = report.zeta_hat, report.zeta_tilde
    m2a, dm2 = eet.m2_at_entry, eet.dm2_at_retirement
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
    bounds = _feasible_interval(*g.vol_rows.T)
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


def _voluntary_phi(g: CohortGrid, theta: float, mode: str) -> float:
    d0, d1 = g.vol_rows.T
    return _welfare(g, d0 + d1 * theta, mode)


def voluntary_objective(theta: float, s: Scenario, mode: str = "population",
                        step: float = Z_STEP) -> float:
    """Welfare when every cohort best-responds with its own EET rate."""
    _check_mode(mode)
    bounds = voluntary_theta_bounds(s, step)
    if not bounds.lower - 1e-12 <= theta <= bounds.upper + 1e-12:
        raise InsolventCohort(
            f"theta = {theta} outside the voluntary admissible interval "
            f"[{bounds.lower}, {bounds.upper}]")
    val = _voluntary_phi(_grid(s, step), theta, mode)
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
        lambda t: _voluntary_phi(g, t, mode),
        bounds.lower, bounds.upper, tol=1e-7, ends=True)
    k_rep = voluntary_k_star(theta, s.policy.t0, s).value
    return OptimalMix(theta_star=theta, k_star=k_rep, objective=val,
                      weighting=mode,
                      cap_binding=theta + k_rep >= s.policy.m - 1e-6,
                      grid_step=step, mode="voluntary", evaluations=evals)
