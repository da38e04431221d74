"""Government layer: welfare objectives, admissible region, optimal mix, and
the voluntary-EET variant.

The objective aggregates existing cohorts' value functions over entry times
z in [t0 - omega + a, t0] plus a future-entrant term; contribution rates enter
every cohort's utility only through the affine resource
G(z) = x0(z) + (M1 theta + M2 k + M3) w0 + N y0(z), so one precomputed node
table makes each objective evaluation a vectorized array expression.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np

from . import demography, lifecycle, preference
from .errors import DomainError, EmptyRegion, InsolventCohort, UtilityExplosion
from .scenario import Scenario, check_rates, check_step, validate

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
    Every existing cohort, future-entrant node and the settled tail is one row
    of `rows`; the welfare is sum w G^power over the rows with L > 0.
    """

    z: np.ndarray             # entry time of each existing cohort's row
    m: float                  # the cap on theta + k
    # solvency half-planes c0 + c1 theta + c2 k >= 0: the existing cohorts
    # (x0 + M3 w0 + N y0, M1 w0, M2 w0), then every future entrant (M03, M1, M02)
    rows: np.ndarray
    live: np.ndarray          # rows in the welfare sum (L > 0)
    power: np.ndarray         # delta per live row
    weights: dict             # weighting -> w per live row

    @cached_property
    def vol_rows(self) -> np.ndarray:
        """The rows' resource d0 + d1 theta when each cohort and entrant
        best-responds with voluntary EET: k = m - theta where its EET
        multiplier c2 is positive, k = 0 otherwise, so (d0, d1) =
        (c0 + c2^+ m, c1 - c2^+)."""
        c0, c1, c2 = self.rows.T
        c2p = np.maximum(c2, 0.0)
        vol = np.column_stack([c0 + c2p * self.m, c1 - c2p])
        vol.setflags(write=False)   # shared like the rows it comes from
        return vol

    @cached_property
    def solvency(self) -> np.ndarray:
        """Indices of the rows that can bind: those not positive, by a
        round-off margin, at all three corners (0, 0), (m, 0) and (0, m) of
        the rate triangle.  An affine row takes its minimum over a polytope
        at a vertex (Boyd and Vandenberghe, Convex Optimization, 2004), so
        every other row exceeds the margin on the whole triangle.  The
        margin covers the rounding of c0 + c1 theta, m - theta, c2 k and
        -c0 / c1, so such a row never sets an end of `_feasible_interval`'s
        answer for a theta in [0, m], and its computed resource
        c2 k + (c0 + c1 theta) is positive at every (theta, k) of the
        triangle: a per-point solvency test there reads only these rows
        (`_scorer`'s `bind`).  `objective` keeps its full scan: it accepts
        points up to 1e-12 outside the triangle and names the first
        insolvent cohort."""
        c0, c1, c2 = self.rows.T
        m = self.m
        corner = np.minimum(c0, np.minimum(c0 + c1 * m, c0 + c2 * m))
        margin = 1e-12 + 8.0 * np.finfo(float).eps * (
            np.abs(c0) + (np.abs(c1) + np.abs(c2)) * m)
        return np.flatnonzero(corner <= margin)

    @cached_property
    def columns(self) -> tuple:
        """(live, solvency, bind, vol): the live rows' c0, c1 and c2 and the
        `solvency` rows' c0, c1 and c2, each a contiguous row of a (3, n)
        array, the live slots of the `solvency` rows, and the live rows'
        voluntary d0 and d1 (`vol_rows`) as a (2, n) array, so that a
        welfare query gathers nothing from `rows` per call."""
        slot = np.cumsum(self.live) - 1
        cols = (self.rows[self.live].T.copy(), self.rows[self.solvency].T.copy(),
                slot[self.solvency[self.live[self.solvency]]],
                self.vol_rows[self.live].T.copy())
        for arr in cols:
            arr.setflags(write=False)   # shared like the rows they come from
        return cols

    @cached_property
    def theta_range(self) -> Optional[tuple]:
        """(theta_lo, theta_hi): the thetas in [0, m] whose k-segment in
        [0, m - theta] is solvent against every row, or None if none is.

        The solvent polygon's shadow on theta, by Fourier-Motzkin
        elimination of k (Schrijver, Theory of Linear and Integer
        Programming, 1986, sec. 12.2).  The cached `solvency` columns
        (`columns[1]`) are stacked with the box rows k >= 0 and
        theta + k <= m.  Each row with c2 > 0 bounds k below and each with
        c2 < 0 above; |c2_down| row_up + c2_up row_down has no k term, and
        those pairs with the k-free rows bound theta.  An end set by a pair
        with a solvency row is one division, so it may lie a few ulps
        outside the polygon; a solvency row binds there (G = 0), so phi is
        -inf at that end either way.
        """
        m = self.m
        c0, c1, c2 = np.hstack([self.columns[1], ((0.0, m), (0.0, -1.0), (1.0, -1.0))])
        up, down = c2 > 0.0, c2 < 0.0
        free = ~up & ~down
        a2, b2 = c2[up, None], -c2[down]
        span = _feasible_interval(
            np.concatenate([c0[free], (b2 * c0[up, None] + a2 * c0[down]).ravel()]),
            np.concatenate([c1[free], (b2 * c1[up, None] + a2 * c1[down]).ravel()]),
            0.0, m)
        if span is None or span[0] > span[1]:
            return None
        return span

    @cached_property
    def vol_bounds(self) -> Optional[tuple]:
        """`_feasible_interval` of `vol_rows`: the thetas at which every row
        stays solvent under voluntary EET, before the clip to [0, m]; None
        when a theta-free row fails.  The voluntary rows' `theta_range`."""
        return _feasible_interval(*self.vol_rows.T)

    @cached_property
    def k_cut(self) -> int:
        """The live slot where the k-dependent tail of the welfare sum
        starts: the first whose row has c2 != 0, or the last live slot when
        none has, so the tail is never empty.  Every slot before it is
        k-free (c2 = 0, such as the retirees, whose EET balance is frozen);
        the tail may hold k-free rows too."""
        c2 = self.columns[0][2]
        dep = np.flatnonzero(c2 != 0.0)
        return int(dep[0]) if dep.size else c2.size - 1


def _z_span(s: Scenario) -> tuple:
    """(first, tail_start): the entry time of the oldest cohort alive at t0,
    and the first entry time from which the future entrants spend their
    whole benefit window in the settled regime (t0 without a baby boom)."""
    d, t0 = s.demo, s.policy.t0
    tail_start = t0 if d.babyboom is None else max(t0, d.babyboom.t2 + d.omega - d.tau)
    return t0 - (d.omega - d.a), tail_start


@lru_cache(maxsize=8)
def _grid(s: Scenario, step: float) -> CohortGrid:
    first, tail_start = _z_span(s)
    check_step(step, tail_start - first, "z-grid step")
    d, p, mk, f = s.demo, s.policy, s.market, s.pref
    dc = validate(s)
    t0 = p.t0
    w0 = mk.W0 * math.exp(mk.gamma * t0)

    # split at the worker/retiree class boundary: delta and the integrand's
    # smoothness change at z = t0 - tau + a
    z_ret, w_ret = _simpson(first, t0 - (d.tau - d.a), step)
    z_wrk, w_wrk = _simpson(t0 - (d.tau - d.a), t0, step)
    zs = np.concatenate([z_ret, z_wrk])
    wts = np.concatenate([w_ret, w_wrk])

    # per-piece class exponents: the shared boundary node takes each piece's
    # interior limit, which is the point of splitting the integral there
    deltas = np.concatenate([np.full(len(z_ret), f.delta2),
                             np.full(len(z_wrk), f.delta1)])
    coefs = lifecycle._coef_arrays(t0, zs, s)
    M1, M2, M3, N = coefs
    L = np.concatenate([lifecycle.L_table(t0 - z_ret, f.delta2, s),
                        lifecycle.L_table(t0 - z_wrk, f.delta1, s)])
    x0, y0 = lifecycle._expected_states(t0, zs, deltas, p.theta0, p.k0, coefs, L, s)

    growth = mk.gamma + 0.5 * (f.delta0 - 1) * mk.xi**2

    # entrants from tail_start on spend their whole benefit window in the
    # settled regime, where validate's rho (its margin checked there) and M01
    # hold: a closed form.  Before it, under a baby boom, Simpson nodes.
    fut_z, fut_w = _simpson(t0, tail_start, step) if tail_start > t0 else (np.empty(0),) * 2
    fut_M1 = lifecycle._bb_m1(fut_z, fut_z, s, dc.epsilon) if fut_z.size else fut_z
    fut_coef = (fut_w * demography.entrants(fut_z, d)
                * np.exp(-mk.r * (fut_z - t0))
                * np.exp(f.delta0 * growth * (fut_z - t0))
                * dc.L0 * w0**f.delta0 / f.delta0)
    tail_prefac = (demography.entrants(tail_start, d) * dc.L0 * w0**f.delta0
                   * math.exp((-mk.r + f.delta0 * growth) * (tail_start - t0))
                   / (f.delta0 * (mk.r - d.rho - f.delta0 * growth)))

    entry_M1 = np.append(fut_M1, dc.M01)
    n_entry = entry_M1.size
    rows = np.concatenate([
        np.column_stack([x0 + M3 * w0 + N * y0, M1 * w0, M2 * w0]),
        np.column_stack([np.full(n_entry, dc.M03), entry_M1, np.full(n_entry, dc.M02)])])
    # welfare weights: Simpson weight x density (population) x L / delta per
    # cohort; the entrant nodes and the tail carry theirs in fut_coef and
    # tail_prefac, divided by the entrant density at t0 when equally weighted
    live = np.append(L > 0.0, np.ones(n_entry, dtype=bool))
    entry_w = np.append(fut_coef, tail_prefac)
    weights = {"population": np.append(wts * demography.entrants(zs, d) / deltas * L,
                                       entry_w)[live],
               "equal": np.append(wts / deltas * L,
                                  entry_w / demography.entrants(t0, d))[live]}
    power = np.append(deltas, np.full(n_entry, f.delta0))[live]
    for arr in (rows, live, power, *weights.values()):
        arr.setflags(write=False)   # shared by every caller of the cached grid
    return CohortGrid(z=zs, m=p.m, rows=rows, live=live, power=power, weights=weights)


def _scorer(base: np.ndarray, slope: np.ndarray, w: np.ndarray, power: np.ndarray,
            cut: int = 0, bind: Optional[np.ndarray] = None):
    """x -> sum w G^power with G = base + slope x, -inf when a G <= 0: bit
    for bit `_phi`.

    The rows before `cut` have slope 0: their terms go into a buffer once,
    and each call rewrites the rest of it in place and sums the whole buffer
    in table order, the sum `_phi` takes.  A tail row of slope 0 keeps
    its base bits, since slope x = 0.

    The head is tested for G <= 0 once.  Each call tests the whole tail, or
    with `bind` (the live slots of a grid's `solvency` rows, for base
    c0 + c1 theta and slope c2 at a theta in [0, m]) only the tail's slots
    among them.  That is exact for x in [0, m - theta]: every other row
    clears its round-off margin at the triangle's corners, so its computed
    c2 x + (c0 + c1 theta) is positive there (`CohortGrid.solvency`).  A
    caller that passes `bind` scores only such x; `objective`, which
    accepts points up to 1e-12 outside the triangle and names the first
    insolvent cohort, keeps the full scan.
    """
    head = base[:cut]
    if (head <= 0.0).any():
        return lambda x: -math.inf
    terms = np.empty(w.size)
    np.power(head, power[:cut], out=terms[:cut])
    terms[:cut] *= w[:cut]
    tail, base, slope, w, power = terms[cut:], base[cut:], slope[cut:], w[cut:], power[cut:]
    if bind is not None:
        bind = bind[bind >= cut] - cut

    def phi(x):
        np.multiply(slope, x, out=tail)
        np.add(tail, base, out=tail)
        if (tail.min() <= 0.0 if bind is None
                else bind.size and tail[bind].min() <= 0.0):
            return -math.inf
        np.power(tail, power, out=tail)
        np.multiply(tail, w, out=tail)
        return float(terms.sum())

    return phi


def _phi(g: CohortGrid, theta: float, k, mode: str) -> float:
    """phi(theta, k) = sum w G^power over the live rows' resources G, in
    table order, from the grid's cached live-row `columns`; -inf when a
    G <= 0.  k is one rate or one per live row."""
    c0, c1, c2 = g.columns[0]
    G = c0 + c1 * theta + c2 * k
    if (G <= 0.0).any():
        return -math.inf
    return float((g.weights[mode] * G ** g.power).sum())


def _check_mode(mode: str) -> None:
    if mode not in WEIGHTINGS:
        raise DomainError(f"weighting must be one of {WEIGHTINGS} (got {mode!r})")


def objective(theta: float, k: float, s: Scenario, mode: str = "population",
              step: float = Z_STEP) -> float:
    """Aggregate welfare phi(theta, k) under the given cohort weighting;
    InsolventCohort outside the rate box or naming the first live row whose
    resource G <= 0."""
    _check_mode(mode)
    validate(s)
    check_rates(theta, k, s.policy.m, InsolventCohort)
    g = _grid(s, step)
    val = _phi(g, theta, k, mode)
    if val == -math.inf:
        c0, c1, c2 = g.columns[0]
        bad = np.flatnonzero(c0 + c1 * theta + c2 * k <= 0.0)
        if bad.size:   # else every G > 0 and the sum itself is -inf
            row = np.flatnonzero(g.live)[bad[0]]
            who = (f"cohort z = {g.z[row]:.3f} has" if row < g.z.size
                   else "future entrants have")
            raise InsolventCohort(
                f"{who} nonpositive resource G at (theta, k) = ({theta}, {k})")
    return val


def objective_per_cohort(theta: float, k_of_z: Callable[[float], float],
                         s: Scenario, mode: str = "population",
                         step: float = Z_STEP, future_k: Optional[float] = None) -> float:
    """Welfare when each cohort z runs its own EET rate k_of_z(z).

    future_k is the rate applied to every future entrant (defaults to
    k_of_z(t0)); theta with every rate must lie in the rate box.
    """
    _check_mode(mode)
    g = _grid(s, step)
    kf = k_of_z(s.policy.t0) if future_k is None else future_k
    ks = np.array([k_of_z(float(z)) for z in g.z]
                  + [kf] * (len(g.rows) - g.z.size))
    for k in (ks.min(), ks.max()):   # a NaN rate is both
        check_rates(theta, k, s.policy.m, InsolventCohort)
    val = _phi(g, theta, ks[g.live], mode)
    if not math.isfinite(val):
        raise InsolventCohort(
            f"nonpositive resource under per-cohort rates at theta = {theta}")
    return val


# --------------------------------------------------------------------------
# admissible region
# --------------------------------------------------------------------------

_EMPTY = ("no (theta, k) with theta, k >= 0 and theta + k <= m keeps every "
          "cohort solvent")


@dataclass(frozen=True)
class AdmissibleRegion:
    """Intersection of the solvency half-planes of every cohort and future
    entrant with the rate box.

    Half-plane rows (c0, c1, c2) encode c0 + c1 theta + c2 k >= 0.
    """

    halfplanes: np.ndarray
    m: float

    def contains(self, theta: float, k: float, tol: float = 1e-12) -> bool:
        if theta < -tol or k < -tol or theta + k > self.m + tol:   # m <= 1
            return False
        vals = (self.halfplanes[:, 0] + self.halfplanes[:, 1] * theta
                + self.halfplanes[:, 2] * k)
        return bool(np.all(vals >= -tol))


def admissible_region(s: Scenario, step: float = Z_STEP) -> AdmissibleRegion:
    """Solvency constraints G(z) >= 0 on the entry-time grid, plus the box.

    Raises EmptyRegion when no (theta, k) of the box keeps every row of the
    grid, future entrants included, solvent: exactly when the grid's
    `theta_range` is empty.
    """
    g = _grid(s, step)
    if g.theta_range is None:
        raise EmptyRegion(_EMPTY)
    return AdmissibleRegion(halfplanes=g.rows, m=s.policy.m)


# --------------------------------------------------------------------------
# optimizer
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class OptimalMix:
    """Optimizer output for one weighting mode; `evaluations` counts the
    welfare evaluations of the search."""

    theta_star: float
    k_star: float
    objective: float
    weighting: str
    cap_binding: bool
    grid_step: float
    mode: str = "mandatory"       # "mandatory" | "voluntary"
    evaluations: int = 0

    def to_dict(self) -> dict:
        doc = asdict(self)
        del doc["evaluations"]
        return doc


def _golden_max(f, lo: float, hi: float, tol: float = 1e-7, ends: bool = False):
    """Golden-section maximizer for a unimodal f on [lo, hi].

    The search never evaluates the ends of [lo, hi]; with `ends`, each end
    that the final bracket still touches is evaluated too and returned when
    it is at least as good as the bracket's midpoint.
    """
    a, b = lo, hi
    c = hi - _GOLDEN * (hi - lo)
    d_ = lo + _GOLDEN * (hi - lo)
    fc, fd = f(c), f(d_)
    evals = 2
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


def _check_not_underflowed(s: Scenario, val: float) -> None:
    """Refuse an optimum whose welfare is not strictly negative although
    every delta is: each term w G^delta is then negative, so a 0.0 means
    every term underflowed and the search compared zeros."""
    f = s.pref
    if max(f.delta0, f.delta1, f.delta2) < 0.0 and not val < 0.0:
        raise UtilityExplosion(
            f"welfare underflows to {val} at the optimum; with every delta < 0 "
            "it is strictly negative, so the optimum is not resolved")


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


def _k_section(g: CohortGrid, theta: float, mode: str):
    """(segment, phi): theta's solvent k-segment in [0, m - theta], None
    when empty, and k -> phi(theta, k), bit for bit `_phi` for a theta in
    [0, m] and a k in [0, m - theta].

    Both read the grid's cached `columns`: the segment the `solvency` rows
    only; phi is the `_scorer` of the live rows' base c0 + c1 theta, formed
    once, and slope c2, whose k-free head ends at `k_cut`, testing the
    tail's binding slots only.
    """
    (c0, c1, c2), (s0, s1, s2), bind, _ = g.columns
    seg = _feasible_interval(s0 + s1 * theta, s2, 0.0, g.m - theta)
    if seg is not None and seg[0] > seg[1]:
        seg = None
    return seg, _scorer(c0 + c1 * theta, c2, g.weights[mode], g.power, g.k_cut, bind)


def optimize_mix(s: Scenario, mode: str = "population",
                 step: float = Z_STEP) -> OptimalMix:
    """Global maximizer of the welfare objective over the admissible region.

    phi is concave, so psi(theta) = max_k phi(theta, k) is concave too: one
    golden section over the grid's `theta_range`, each of whose points is a
    golden section over that theta's solvent k-segment, finds the optimum
    to its 1e-7 brackets.  Both evaluate the ends their final bracket still
    touches, so an optimum on the cap face, on theta = 0 or k = 0, or at a
    corner lies exactly there.  An end of `theta_range` whose segment
    rounds to empty scores -inf; no optimum lies there, as phi is -inf
    where a solvency row binds.  Each theta forms its rows' part c0 + c1
    theta and the k-free head's welfare terms once (`_k_section`); its inner
    section rewrites only the tail in place, with the bits of `_phi`.
    `evaluations` counts the inner sections' points, the same number as
    when every point was a full `_phi`.
    """
    _check_mode(mode)
    validate(s)
    m = s.policy.m
    g = _grid(s, step)
    if g.theta_range is None:
        raise EmptyRegion(_EMPTY)
    evals, k_at = 0, {}

    def psi(theta):
        nonlocal evals
        seg, phi = _k_section(g, theta, mode)
        if seg is None:   # round-off can empty a zero-width segment
            return -math.inf
        k_at[theta], val, n = _golden_max(phi, *seg, ends=True)
        evals += n
        return val

    theta_star, val, _ = _golden_max(psi, *g.theta_range, ends=True)
    if not math.isfinite(val):
        raise EmptyRegion("every admissible (theta, k) leaves a cohort with "
                          "resource G = 0")
    _check_not_underflowed(s, val)
    k_star = k_at[theta_star]
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
    """Age-interval form of the sets A1 / A2: the retirees and the working
    ages above one critical age, below which M1 - M2^+ < 0.

    The case is read from the critical ages, with or without a baby boom;
    with a constant flow zeta_hat is None exactly when Lambda > Lambda_FP,
    and zeta_tilde exactly when Lambda > Lambda_EP.  With Mt2(a) < 0,
    M2^+ = 0 at every working age, so the sign is M1's.
    """
    d = s.demo
    report, eet = preference._analyse(s)
    zh, zt = report.zeta_hat, report.zeta_tilde
    if eet.m2_at_entry < 0 or (eet.dm2_at_retirement > 0 and zh is not None
                               and zt is not None and zh > zt):
        cut = zh
    else:
        cut = zt
    if cut is None:
        return ((d.tau, d.omega), (d.a, d.tau)), ()
    return ((d.tau, d.omega), (cut, d.tau)), ((d.a, cut),)


def voluntary_theta_bounds(s: Scenario, step: float = Z_STEP) -> ThetaBounds:
    """Bounds on theta keeping every cohort solvent under voluntary EET.

    Node membership in A1 / A2 is decided by the sign of the per-cohort theta
    coefficient M1 - M2^+; the interval case analysis is reported alongside.
    """
    m = s.policy.m
    # each cohort's best response makes G affine in theta alone; the
    # entry-time rows also bind every future cohort
    bounds = _grid(s, step).vol_bounds
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


def _voluntary_phi(g: CohortGrid, mode: str):
    """theta -> welfare under voluntary EET: the `_scorer` of the live
    rows' d0 + d1 theta, read from the grid's cached `columns`."""
    d0, d1 = g.columns[3]
    return _scorer(d0, d1, g.weights[mode], g.power)


def voluntary_objective(theta: float, s: Scenario, mode: str = "population",
                        step: float = Z_STEP) -> float:
    """Welfare when every cohort best-responds with its own EET rate."""
    _check_mode(mode)
    bounds = voluntary_theta_bounds(s, step)
    if not bounds.lower - 1e-12 <= theta <= bounds.upper + 1e-12:
        raise InsolventCohort(
            f"theta = {theta} outside the voluntary admissible interval "
            f"[{bounds.lower}, {bounds.upper}]")
    val = _voluntary_phi(_grid(s, step), mode)(theta)
    if not math.isfinite(val):
        raise InsolventCohort(f"insolvent cohort at theta = {theta}")
    return val


def optimize_voluntary(s: Scenario, mode: str = "population",
                       step: float = Z_STEP) -> OptimalMix:
    """Optimal PAYGO rate when EET participation is voluntary."""
    _check_mode(mode)
    bounds = voluntary_theta_bounds(s, step)
    g = _grid(s, step)
    theta, val, evals = _golden_max(_voluntary_phi(g, mode), bounds.lower,
                                    bounds.upper, tol=1e-7, ends=True)
    _check_not_underflowed(s, val)
    k_rep = voluntary_k_star(theta, s.policy.t0, s).value
    return OptimalMix(theta_star=theta, k_star=k_rep, objective=val,
                      weighting=mode,
                      cap_binding=theta + k_rep >= s.policy.m - 1e-6,
                      grid_step=step, mode="voluntary", evaluations=evals)
