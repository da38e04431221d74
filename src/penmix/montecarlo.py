"""Independent Euler-Maruyama oracle for the closed-form solution.

Simulates the salary / EET-balance / wealth system under the closed-form
feedback controls, all three states driven by one shared Brownian motion per
path, and compares pathwise-accumulated utility, terminal wealth, and state
expectations against the closed forms.

The time mesh is uniform at `dt` except inside the final year of life, where
it is graded quadratically toward the terminal age: the consumption rate
C*/G ~ 1/(T - t) has an integrable singularity there, and on a uniform mesh
its truncation residue (not Monte Carlo noise) would dominate the terminal
wealth statistic.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import demography, lifecycle
from .errors import ConfigError, DomainError
from .scenario import Scenario, check_step, delta_for_entry, validate

#: pairs (or single paths) simulated per reproducible stream block
BLOCK = 1024

#: length (years), exponent, and finest base step of the terminal
#: boundary-layer mesh grading
TAIL_YEARS = 1.0
TAIL_GRADE = 2.0
TAIL_BASE_DT = 0.01


@dataclass(frozen=True)
class SimulationConfig:
    """One cohort-level simulation run."""

    z: float                    # cohort entry time
    theta: float                # PAYGO rate held fixed for the whole life
    k: float                    # EET rate held fixed for the whole life
    n_paths: int = 20000
    dt: float = 0.01
    seed: int = 20240
    antithetic: bool = True
    pi_scale: float = 1.0       # deliberate control perturbation (1 = optimal)


@dataclass(frozen=True)
class SimulationReport:
    """Monte Carlo statistics vs the closed-form value."""

    mean_utility: float
    se_utility: float
    closed_form_value: float
    mean_terminal_wealth: float
    se_terminal_wealth: float
    mean_y_at_t0: Optional[float]
    se_y_at_t0: Optional[float]
    clipped_paths: int          # steps on which G <= 0 had to be clamped
    n_paths: int
    dt: float
    seed: int
    probes: tuple = field(default=())   # (t, mean_X, se_X) rows


def _time_grid(z: float, s: Scenario, dt: float):
    """Uniform mesh at dt, one step shorter than dt where dt does not divide
    the span, and a graded tail over the last TAIL_YEARS."""
    life = s.demo.omega - s.demo.a
    tail = min(TAIL_YEARS, (s.demo.omega - s.demo.tau) / 2.0)
    n_uni = int(math.floor((life - tail) / dt + 1e-9))
    t_uni = z + dt * np.arange(n_uni + 1)
    T = z + life
    if T - tail - t_uni[-1] > 1e-9 * dt:
        t_uni = np.append(t_uni, T - tail)
    tail_start = t_uni[-1]
    layer_dt = min(dt, TAIL_BASE_DT)
    J = max(4, int(round(TAIL_GRADE * (T - tail_start) / layer_dt)))
    j = np.arange(1, J + 1)
    t_tail = T - (T - tail_start) * ((J - j) / J) ** TAIL_GRADE
    return np.concatenate([t_uni, t_tail])


@dataclass(frozen=True)
class _CohortTables:
    """Deterministic per-node inputs of the simulation."""

    t: np.ndarray
    dts: np.ndarray
    b_right: np.ndarray
    b_left: np.ndarray
    L: np.ndarray
    M: np.ndarray
    N: np.ndarray
    a_t: np.ndarray
    working: np.ndarray
    cr_right: np.ndarray
    cr_left: np.ndarray
    i_t0: Optional[int]
    w_at_entry: float
    delta: float
    ann_rate: float


def _build_tables(cfg: SimulationConfig, s: Scenario) -> _CohortTables:
    d, p, mk = s.demo, s.policy, s.market
    delta = delta_for_entry(cfg.z, s)
    dc = validate(s)
    tg = _time_grid(cfg.z, s, cfg.dt)
    dts = np.diff(tg)
    u = tg - cfg.z
    ret_u = d.tau - d.a
    s_x = demography.survival(u + d.a, d)
    disc = np.exp(-mk.r * u) * s_x
    b_right = disc * np.where(u >= ret_u - 1e-12, s.pref.lam, 1.0)
    b_left = disc * np.where(u > ret_u + 1e-12, s.pref.lam, 1.0)

    # L on the mesh: accumulate the inner integral right-to-left with
    # per-interval 10-point Gauss-Legendre (exact enough at any node spacing)
    cexp = lifecycle._growth_exponent(delta, s)
    pw = 1.0 / (1.0 - delta)

    def integrand(tt):
        uu = tt - cfg.z
        bb = (np.exp(-mk.r * uu) * demography.survival(uu + d.a, d)
              * np.where(uu >= ret_u - 1e-12, s.pref.lam, 1.0))
        return bb**pw * np.exp(cexp * uu)

    seg = demography._gauss_legendre(tg[:-1], tg[1:], integrand)
    inner = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])
    L = (np.exp(-cexp * u) * inner) ** (1.0 - delta)

    M1, M2, M3, N = lifecycle._coef_arrays(tg, cfg.z, s)
    M = M1 * cfg.theta + M2 * cfg.k + M3
    working = u < ret_u - 1e-12
    # retirees draw theta times the support ratio at each mesh time: Lambda(t)
    # under a baby boom, the validated constant ratio otherwise
    lam = dc.Lambda if d.babyboom is None else demography.support_ratio_fn(d)(tg)
    a_t = np.where(working, (1 - cfg.theta - cfg.k) * (1 - p.tau1), cfg.theta * lam)
    with np.errstate(divide="ignore"):
        cr_right = np.where(L > 0, (L / b_right) ** (1.0 / (delta - 1.0)), np.inf)
        cr_left = np.where(L > 0, (L / b_left) ** (1.0 / (delta - 1.0)), np.inf)

    i_t0 = None
    if cfg.z < p.t0 <= tg[-1]:
        i_t0 = int(np.argmin(np.abs(tg - p.t0)))
    return _CohortTables(
        t=tg, dts=dts, b_right=b_right, b_left=b_left, L=L, M=M, N=N,
        a_t=a_t, working=working, cr_right=cr_right, cr_left=cr_left,
        i_t0=i_t0, w_at_entry=mk.W0 * math.exp(mk.gamma * cfg.z), delta=delta,
        ann_rate=(1 - p.tau2) / dc.a_tau)


def _validate_config(cfg: SimulationConfig, s: Scenario) -> None:
    try:   # the whole life, omega - a, is on the mesh
        check_step(cfg.dt, s.demo.omega - s.demo.a, "dt")
    except DomainError as exc:
        raise ConfigError(str(exc)) from None
    if cfg.seed < 0:
        raise ConfigError(f"seed must be non-negative (got {cfg.seed})")
    if cfg.n_paths < 2:
        raise ConfigError(f"n_paths must be at least 2 (got {cfg.n_paths})")
    if cfg.antithetic and cfg.n_paths % 2:
        raise ConfigError("antithetic mode needs an even n_paths")
    steps_to_ret = (s.demo.tau - s.demo.a) / cfg.dt
    if abs(steps_to_ret - round(steps_to_ret)) > 1e-9:
        raise ConfigError(
            f"dt = {cfg.dt} must divide the working span tau - a = "
            f"{s.demo.tau - s.demo.a}")


def _simulate_block(cfg: SimulationConfig, s: Scenario, tb: _CohortTables,
                    n_units: int, probe_idx):
    """Simulate every block of the cohort in one step loop.

    Block b holds base paths [b * BLOCK, (b + 1) * BLOCK) and draws its
    normals one row per step from its own Philox stream, keyed by (seed, b);
    the stream is sequential, so the rows are those of the block's whole
    (n_steps, n_draw) normal matrix.  Paths are laid out as [+Z of every
    block, then -Z of every block] under antithetic sampling.  Every update
    writes into buffers allocated once, with the operands of the Euler step
    in a fixed order, so no path depends on the layout.  Each step does only
    its life phase's arithmetic: workers carry the EET hedge and grow Y,
    retirees add the annuity Y ann_rate, formed once because Y is frozen from
    retirement on.

    Returns per-path utility, terminal X, Y(t0) (None without t0), probe X
    keyed by node, and the number of clamped G values.
    """
    mk = s.market
    npath = 2 * n_units if cfg.antithetic else n_units
    Z = np.empty(npath)
    Z_plus, Z_minus = Z[:n_units], Z[n_units:]
    draws = [(np.random.Generator(np.random.Philox(np.random.SeedSequence(
                 entropy=cfg.seed, spawn_key=(block,)))),
              Z_plus[lo:lo + BLOCK])
             for block, lo in enumerate(range(0, n_units, BLOCK))]
    W = np.full(npath, tb.w_at_entry)
    Y, X, util = np.zeros(npath), np.zeros(npath), np.zeros(npath)
    W_new, G, pi, C, f_prev, f_right, f_left, g_w, g_y, tmp, tmp2 = (
        np.empty(npath) for _ in range(11))
    low = np.empty(npath, dtype=bool)

    nu = validate(s).nu
    delta = tb.delta
    pi_denom = mk.sigma * (1.0 - delta)
    drift_w = mk.gamma - 0.5 * mk.xi**2
    drift_y = mk.alpha - 0.5 * mk.beta**2
    excess = mk.mu - mk.r
    dts, M, N, a_t = (tb.dts.tolist(), tb.M.tolist(), tb.N.tolist(),
                      tb.a_t.tolist())
    b_right, b_left = tb.b_right.tolist(), tb.b_left.tolist()
    cr_right, cr_left = tb.cr_right.tolist(), tb.cr_left.tolist()
    working = tb.working.tolist()

    y_t0 = Y.copy() if tb.i_t0 == 0 else None
    probe_x = {0: X.copy()} if 0 in probe_idx else {}
    clip = 0
    h_prev = 0.0
    ann = None      # Y ann_rate, from the first retired step on
    for i, h in enumerate(dts):
        sq = math.sqrt(h)
        for rng, row in draws:
            rng.standard_normal(out=row)
        if cfg.antithetic:
            np.negative(Z_plus, out=Z_minus)

        # G = X + M W + N Y, clamped at 1e-12
        np.multiply(W, M[i], out=G)
        np.add(X, G, out=G)
        np.multiply(Y, N[i], out=tmp)
        np.add(G, tmp, out=G)
        if not G.min() >= 1e-12:    # also when a G is NaN
            clip += int(np.count_nonzero(np.less_equal(G, 0.0, out=low)))
            np.maximum(G, 1e-12, out=G)

        # pi = pi_scale (nu G / (sigma (1 - delta))
        #                - (xi W M + beta Y N working) / sigma)
        np.multiply(G, nu, out=pi)
        np.divide(pi, pi_denom, out=pi)
        np.multiply(W, mk.xi, out=tmp)
        np.multiply(tmp, M[i], out=tmp)
        if working[i]:
            np.multiply(Y, mk.beta, out=tmp2)
            np.multiply(tmp2, N[i], out=tmp2)
            np.add(tmp, tmp2, out=tmp)
        np.divide(tmp, mk.sigma, out=tmp)
        np.subtract(pi, tmp, out=pi)
        if cfg.pi_scale != 1.0:
            np.multiply(pi, cfg.pi_scale, out=pi)

        # utility: trapezoid between the right value at node i - 1 and the
        # left limit at node i, which differs only at the retirement node
        np.multiply(G, cr_right[i], out=C)
        np.power(C, delta, out=f_right)
        np.multiply(f_right, b_right[i], out=f_right)
        np.divide(f_right, delta, out=f_right)
        if i:
            if b_left[i] == b_right[i] and cr_left[i] == cr_right[i]:
                left = f_right
            else:
                left = f_left
                np.multiply(G, cr_left[i], out=left)
                np.power(left, delta, out=left)
                np.multiply(left, b_left[i], out=left)
                np.divide(left, delta, out=left)
            np.add(f_prev, left, out=tmp)
            np.multiply(tmp, 0.5 * h_prev, out=tmp)
            np.add(util, tmp, out=util)
        f_prev, f_right, h_prev = f_right, f_prev, h

        np.multiply(Z, mk.xi * sq, out=g_w)
        np.add(g_w, drift_w * h, out=g_w)
        np.exp(g_w, out=g_w)
        np.multiply(W, g_w, out=W_new)
        if working[i]:
            # Y <- Y g_y + k h / 2 (g_y W + W_new)
            np.multiply(Z, mk.beta * sq, out=g_y)
            np.add(g_y, drift_y * h, out=g_y)
            np.exp(g_y, out=g_y)
            np.multiply(g_y, W, out=tmp)
            np.add(tmp, W_new, out=tmp)
            np.multiply(tmp, cfg.k * h * 0.5, out=tmp)
            np.multiply(Y, g_y, out=Y)
            np.add(Y, tmp, out=Y)

        # X <- X + (r X + (mu - r) pi + a W + ann Y - C) h + sigma pi sqrt(h) Z
        np.multiply(X, mk.r, out=tmp)
        np.multiply(pi, excess, out=tmp2)
        np.add(tmp, tmp2, out=tmp)
        np.multiply(W, a_t[i], out=tmp2)
        np.add(tmp, tmp2, out=tmp)
        if not working[i]:
            if ann is None:
                ann = np.multiply(Y, tb.ann_rate)
            np.add(tmp, ann, out=tmp)
        np.subtract(tmp, C, out=tmp)
        np.multiply(tmp, h, out=tmp)
        np.add(X, tmp, out=X)
        np.multiply(pi, mk.sigma, out=tmp)
        np.multiply(tmp, sq, out=tmp)
        np.multiply(tmp, Z, out=tmp)
        np.add(X, tmp, out=X)
        W, W_new = W_new, W

        if i + 1 == tb.i_t0:
            y_t0 = Y.copy()
        if i + 1 in probe_idx:
            probe_x[i + 1] = X.copy()
    # final sliver: half-trapezoid with the terminal value dropped; the graded
    # mesh makes its width (hence the omission) negligible
    np.multiply(f_prev, 0.5 * h_prev, out=tmp)
    np.add(util, tmp, out=util)
    return util, X, y_t0, probe_x, clip


def _pair_stats(values: np.ndarray, antithetic: bool):
    if antithetic:
        n = values.size // 2
        values = 0.5 * (values[:n] + values[n:])
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(values.size))
    return mean, se


def simulate_cohort(cfg: SimulationConfig, s: Scenario,
                    probe_times: Sequence[float] = ()) -> SimulationReport:
    """Run the cohort simulation and compare against the closed-form value.

    Deterministic given (cfg, scenario): paths are drawn in fixed-size blocks
    from counter-based streams keyed by (seed, block index).  The blocks share
    one step loop and each block's normals are drawn row by row from its own
    stream, so the result equals that of simulating the blocks one after
    another, and is independent of scheduling.
    """
    _validate_config(cfg, s)
    validate(s)
    tb = _build_tables(cfg, s)
    V = lifecycle.value_function(cfg.z, 0.0, tb.w_at_entry, 0.0, cfg.z,
                                 cfg.theta, cfg.k, s, tb.delta)

    probe_idx = {int(np.argmin(np.abs(tb.t - pt))): float(pt) for pt in probe_times}
    n_units = cfg.n_paths // 2 if cfg.antithetic else cfg.n_paths
    util, X, y_t0, probe_x, clip = _simulate_block(cfg, s, tb, n_units,
                                                   probe_idx)
    mean_u, se_u = _pair_stats(util, cfg.antithetic)
    mean_x, se_x = _pair_stats(X, cfg.antithetic)
    mean_y = se_y = None
    if y_t0 is not None:
        mean_y, se_y = _pair_stats(y_t0, cfg.antithetic)
    probes = tuple((pt, *_pair_stats(probe_x[idx], cfg.antithetic))
                   for idx, pt in sorted(probe_idx.items()))
    return SimulationReport(
        mean_utility=mean_u, se_utility=se_u, closed_form_value=V,
        mean_terminal_wealth=mean_x, se_terminal_wealth=se_x,
        mean_y_at_t0=mean_y, se_y_at_t0=se_y, clipped_paths=clip,
        n_paths=cfg.n_paths, dt=cfg.dt, seed=cfg.seed, probes=probes)


# --------------------------------------------------------------------------
# verification harness
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CohortCheck:
    z: float
    utility_ok: bool
    terminal_ok: bool
    y0_ok: Optional[bool]
    probes_ok: bool
    passed: bool
    report: SimulationReport    # last: the JSON key order


@dataclass(frozen=True)
class VerificationReport:
    rows: tuple
    perturbed_gap_se: float     # (V - mean utility) / se under the scaled control
    perturbed_ok: bool
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


def _probe_times(z: float, s: Scenario):
    life = s.demo.omega - s.demo.a
    return [z + q * life for q in (0.15, 0.35, 0.5, 0.65, 0.85)]


def verify_value_function(s: Scenario, cohorts: Sequence[float],
                          n_paths: int = 20000, dt: float = 0.01,
                          seed: int = 20240) -> VerificationReport:
    """PASS/FAIL comparison of simulation against every closed form, at the
    scenario's rates (theta0, k0) held for life, with antithetic pairs.

    For each cohort: expected utility vs the value function, terminal wealth
    vs 0, E[Y(t0)] vs the expectation estimate, and E[X*(t)] at five interior
    times vs the martingale formula, all at 3 standard errors.  One extra run
    scales the risky allocation by 1.5 and must be worse by more than 3
    standard errors (the closed form is a maximum).
    """
    p = s.policy
    theta, k = p.theta0, p.k0
    rows = []
    for z in cohorts:
        cfg = SimulationConfig(z=z, theta=theta, k=k, n_paths=n_paths, dt=dt,
                               seed=seed)
        probes = _probe_times(z, s)
        rep = simulate_cohort(cfg, s, probe_times=probes)
        u_ok = abs(rep.mean_utility - rep.closed_form_value) <= 3 * rep.se_utility
        x_ok = abs(rep.mean_terminal_wealth) <= 3 * rep.se_terminal_wealth
        y_ok = None
        if rep.mean_y_at_t0 is not None:
            y_closed = lifecycle.expected_eet_balance(p.t0, z, s, k)
            y_ok = abs(rep.mean_y_at_t0 - y_closed) <= 3 * max(rep.se_y_at_t0, 1e-300)
        pts = np.array([pt for pt, _, _ in rep.probes])
        delta = delta_for_entry(z, s)
        x_closed, _ = lifecycle._expected_states(
            pts, z, delta, theta, k, lifecycle._coef_arrays(pts, z, s),
            lifecycle.L_table(pts - z, delta, s), s)
        p_ok = not any(abs(mx - xc) > 3 * sx
                       for (_, mx, sx), xc in zip(rep.probes, x_closed))
        ok = u_ok and x_ok and p_ok and (y_ok is not False)
        rows.append(CohortCheck(z=z, report=rep, utility_ok=u_ok,
                                terminal_ok=x_ok, y0_ok=y_ok, probes_ok=p_ok,
                                passed=ok))

    cfg_bad = SimulationConfig(z=cohorts[0], theta=theta, k=k, n_paths=n_paths,
                               dt=dt, seed=seed, pi_scale=1.5)
    rep_bad = simulate_cohort(cfg_bad, s)
    gap_se = (rep_bad.closed_form_value - rep_bad.mean_utility) / rep_bad.se_utility
    perturbed_ok = gap_se > 3.0
    return VerificationReport(rows=tuple(rows), perturbed_gap_se=float(gap_se),
                              perturbed_ok=perturbed_ok,
                              passed=all(r.passed for r in rows) and perturbed_ok)
