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
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import demography, lifecycle
from .errors import ConfigError
from .scenario import Scenario, delta_for_entry, validate

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

    def to_dict(self) -> dict:
        return {
            "mean_utility": self.mean_utility,
            "se_utility": self.se_utility,
            "closed_form_value": self.closed_form_value,
            "mean_terminal_wealth": self.mean_terminal_wealth,
            "se_terminal_wealth": self.se_terminal_wealth,
            "mean_y_at_t0": self.mean_y_at_t0,
            "se_y_at_t0": self.se_y_at_t0,
            "clipped_paths": self.clipped_paths,
            "n_paths": self.n_paths, "dt": self.dt, "seed": self.seed,
            "probes": [list(p) for p in self.probes],
        }


def _time_grid(z: float, s: Scenario, dt: float):
    """Uniform mesh at dt with a graded tail over the last TAIL_YEARS."""
    life = s.demo.omega - s.demo.a
    tail = min(TAIL_YEARS, (s.demo.omega - s.demo.tau) / 2.0)
    n_uni = int(round((life - tail) / dt))
    t_uni = z + dt * np.arange(n_uni + 1)
    T = z + life
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
    gl_x, gl_w = np.polynomial.legendre.leggauss(10)

    def integrand(tt):
        uu = tt - cfg.z
        bb = (np.exp(-mk.r * uu) * demography.survival(uu + d.a, d)
              * np.where(uu >= ret_u - 1e-12, s.pref.lam, 1.0))
        return bb**pw * np.exp(cexp * uu)

    mid = 0.5 * (tg[:-1] + tg[1:])
    half = 0.5 * dts
    seg = (integrand(mid[:, None] + half[:, None] * gl_x[None, :])
           * gl_w[None, :]).sum(axis=1) * half
    inner = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])
    L = (np.exp(-cexp * u) * inner) ** (1.0 - delta)

    M1, M2, M3, N = lifecycle._coef_arrays(tg, cfg.z, s)
    M = M1 * cfg.theta + M2 * cfg.k + M3
    working = u < ret_u - 1e-12
    # retirees draw theta times the support ratio at each mesh time: Lambda(t)
    # under a baby boom, the constant ratio otherwise
    a_t = np.where(working, (1 - cfg.theta - cfg.k) * (1 - p.tau1),
                   cfg.theta * demography.support_ratio_fn(d)(tg))
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
    if cfg.dt <= 0:
        raise ConfigError(f"dt must be positive (got {cfg.dt})")
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
                    rng: np.random.Generator, n_draw: int, probe_idx):
    """Simulate one block; returns per-path utility, terminal X, Y(t0), probe X."""
    mk = s.market
    n_steps = len(tb.dts)
    Z_base = rng.standard_normal((n_steps, n_draw))
    if cfg.antithetic:
        npath = 2 * n_draw
    else:
        npath = n_draw
    W = np.full(npath, tb.w_at_entry)
    Y = np.zeros(npath)
    X = np.zeros(npath)
    util = np.zeros(npath)
    y_t0 = None
    probe_x = {}
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
    # final sliver: half-trapezoid with the terminal value dropped; the graded
    # mesh makes its width (hence the omission) negligible
    util += 0.5 * h_prev * f_prev
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
    from counter-based streams keyed by (seed, block index), so the result is
    independent of scheduling.
    """
    _validate_config(cfg, s)
    validate(s)
    tb = _build_tables(cfg, s)
    delta = tb.delta
    V = lifecycle.value_function(cfg.z, 0.0, tb.w_at_entry, 0.0, cfg.z,
                                 cfg.theta, cfg.k, s, delta)

    probe_idx = {int(np.argmin(np.abs(tb.t - pt))): float(pt) for pt in probe_times}
    n_units = cfg.n_paths // 2 if cfg.antithetic else cfg.n_paths
    util_parts, term_parts, y0_parts = [], [], []
    probe_parts: dict[int, list] = {i: [] for i in probe_idx}
    clip = 0
    done = 0
    block = 0
    while done < n_units:
        n_draw = min(BLOCK, n_units - done)
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=cfg.seed,
                                                    spawn_key=(block,))))
        util, X, y_t0, probe_x, c = _simulate_block(cfg, s, tb, rng, n_draw,
                                                    probe_idx)
        util_parts.append(util)
        term_parts.append(X)
        if y_t0 is not None:
            y0_parts.append(y_t0)
        for idx, arr in probe_x.items():
            probe_parts[idx].append(arr)
        clip += c
        done += n_draw
        block += 1

    # antithetic halves live in the two halves of every block: regroup so the
    # first half of the concatenated array holds all +Z paths
    def gather(parts):
        if not cfg.antithetic:
            return np.concatenate(parts)
        plus = np.concatenate([p[: p.size // 2] for p in parts])
        minus = np.concatenate([p[p.size // 2:] for p in parts])
        return np.concatenate([plus, minus])

    mean_u, se_u = _pair_stats(gather(util_parts), cfg.antithetic)
    mean_x, se_x = _pair_stats(gather(term_parts), cfg.antithetic)
    mean_y = se_y = None
    if y0_parts:
        mean_y, se_y = _pair_stats(gather(y0_parts), cfg.antithetic)
    probes = []
    for idx, pt in sorted(probe_idx.items()):
        mp, sp = _pair_stats(gather(probe_parts[idx]), cfg.antithetic)
        probes.append((pt, mp, sp))
    return SimulationReport(
        mean_utility=mean_u, se_utility=se_u, closed_form_value=V,
        mean_terminal_wealth=mean_x, se_terminal_wealth=se_x,
        mean_y_at_t0=mean_y, se_y_at_t0=se_y, clipped_paths=clip,
        n_paths=cfg.n_paths, dt=cfg.dt, seed=cfg.seed, probes=tuple(probes))


# --------------------------------------------------------------------------
# verification harness
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CohortCheck:
    z: float
    report: SimulationReport
    utility_ok: bool
    terminal_ok: bool
    y0_ok: Optional[bool]
    probes_ok: bool
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    rows: tuple
    perturbed_gap_se: float     # (V - mean utility) / se under the scaled control
    perturbed_ok: bool
    passed: bool

    def to_dict(self) -> dict:
        return {
            "rows": [{
                "z": r.z, "utility_ok": r.utility_ok,
                "terminal_ok": r.terminal_ok, "y0_ok": r.y0_ok,
                "probes_ok": r.probes_ok, "passed": r.passed,
                "report": r.report.to_dict(),
            } for r in self.rows],
            "perturbed_gap_se": self.perturbed_gap_se,
            "perturbed_ok": self.perturbed_ok,
            "passed": self.passed,
        }


def _probe_times(z: float, s: Scenario):
    life = s.demo.omega - s.demo.a
    return [z + q * life for q in (0.15, 0.35, 0.5, 0.65, 0.85)]


def verify_value_function(s: Scenario, cohorts: Sequence[float],
                          n_paths: int = 20000, dt: float = 0.01,
                          seed: int = 20240, antithetic: bool = True,
                          theta: Optional[float] = None,
                          k: Optional[float] = None) -> VerificationReport:
    """PASS/FAIL comparison of simulation against every closed form.

    For each cohort: expected utility vs the value function, terminal wealth
    vs 0, E[Y(t0)] vs the expectation estimate, and E[X*(t)] at five interior
    times vs the martingale formula, all at 3 standard errors.  One extra run
    scales the risky allocation by 1.5 and must be worse by more than 3
    standard errors (the closed form is a maximum).
    """
    p = s.policy
    theta = p.theta0 if theta is None else theta
    k = p.k0 if k is None else k
    rows = []
    for z in cohorts:
        cfg = SimulationConfig(z=z, theta=theta, k=k, n_paths=n_paths, dt=dt,
                               seed=seed, antithetic=antithetic)
        probes = _probe_times(z, s)
        rep = simulate_cohort(cfg, s, probe_times=probes)
        u_ok = abs(rep.mean_utility - rep.closed_form_value) <= 3 * rep.se_utility
        x_ok = abs(rep.mean_terminal_wealth) <= 3 * rep.se_terminal_wealth
        y_ok = None
        if rep.mean_y_at_t0 is not None:
            y_closed = lifecycle.expected_eet_balance(p.t0, z, s, k)
            y_ok = abs(rep.mean_y_at_t0 - y_closed) <= 3 * max(rep.se_y_at_t0, 1e-300)
        p_ok = True
        for pt, mx, sx in rep.probes:
            x_closed = lifecycle.expected_wealth(pt, z, s, theta, k,
                                                 switch_at_t0=False)
            if abs(mx - x_closed) > 3 * sx:
                p_ok = False
        ok = u_ok and x_ok and p_ok and (y_ok is not False)
        rows.append(CohortCheck(z=z, report=rep, utility_ok=u_ok,
                                terminal_ok=x_ok, y0_ok=y_ok, probes_ok=p_ok,
                                passed=ok))

    cfg_bad = SimulationConfig(z=cohorts[0], theta=theta, k=k, n_paths=n_paths,
                               dt=dt, seed=seed, antithetic=antithetic,
                               pi_scale=1.5)
    rep_bad = simulate_cohort(cfg_bad, s)
    gap_se = (rep_bad.closed_form_value - rep_bad.mean_utility) / rep_bad.se_utility
    perturbed_ok = gap_se > 3.0
    return VerificationReport(rows=tuple(rows), perturbed_gap_se=float(gap_se),
                              perturbed_ok=perturbed_ok,
                              passed=all(r.passed for r in rows) and perturbed_ok)
