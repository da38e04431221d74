import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from penmix import DomainError, InsolventCohort, lifecycle, validate, with_params

from _oracles import (expected_path_row, hjb_residual, quad_bb_m1, quad_L,
                      random_interior_states)
from test_scenario import OUTSIDE_RATE_BOX

# 50-digit evaluation of e^{-r*40} * s(70) * lambda at the US parameters
B_WEIGHT_US_40 = 0.6204629894631967


def test_discount_weight_at_entry(us):
    assert lifecycle.discount_weight(0.0, 0.0, us) == pytest.approx(1.0, abs=1e-15)


def test_discount_weight_jump_ratio(us):
    t_ret = us.demo.tau - us.demo.a
    for gap in (1e-6, 1e-9):
        left = lifecycle.discount_weight(t_ret - gap, 0.0, us)
        right = lifecycle.discount_weight(t_ret + gap, 0.0, us)
        assert right / left == pytest.approx(us.pref.lam, rel=1e-6)


def test_discount_weight_highprecision_value(us):
    assert lifecycle.discount_weight(40.0, 0.0, us) == pytest.approx(
        B_WEIGHT_US_40, rel=1e-13)


def test_discount_weight_domain(us):
    with pytest.raises(DomainError):
        lifecycle.discount_weight(71.0, 0.0, us)


def test_L_terminal_and_positivity(us):
    T = us.demo.omega - us.demo.a
    assert lifecycle.coeff_L(T, 0.0, -2.9, us) == 0.0
    for t in (0.0, 20.0, 35.0, 69.0):
        assert lifecycle.coeff_L(t, 0.0, -2.9, us) > 0.0


def test_entry_L_matches_derived_constant(us):
    dc = validate(us)
    assert lifecycle.coeff_L(5.0, 5.0, us.pref.delta0, us) == pytest.approx(
        dc.L0, rel=1e-10)


@pytest.mark.parametrize("fixture", ["us", "cn"])
def test_entry_constants_are_the_kernel_at_entry(fixture, request):
    s = request.getfixturevalue(fixture)
    dc = validate(s)
    for z in (s.policy.t0, s.policy.t0 - 12.5, 3.0):
        c = lifecycle.coefficients(z, z, s)
        assert (dc.M01, dc.M02, dc.M03) == (c.M1, c.M2, c.M3)


def test_coefficients_vanish_at_terminal(us):
    c = lifecycle.coefficients(70.0, 0.0, us)
    assert c.M1 == c.M2 == c.M3 == c.N == 0.0


def test_retiree_branch_zeros(us):
    c = lifecycle.coefficients(50.0, 0.0, us)   # age 80
    assert c.M2 == 0.0 and c.M3 == 0.0
    assert c.M1 > 0.0 and c.N > 0.0


def test_branch_continuity_at_retirement(us):
    # both branch formulas, written out independently, agree at the boundary
    dc = validate(us)
    d, p, mk = us.demo, us.policy, us.market
    eps, epst = dc.epsilon, dc.epsilon_tilde
    Lam, a_tau, r = dc.Lambda, dc.a_tau, mk.r
    span = d.omega - d.tau
    retiree = {
        "M1": Lam / eps * (math.exp(eps * span) - 1.0),
        "M2": 0.0,
        "M3": 0.0,
        "N": (1 - p.tau2) / (r * a_tau) * (1 - math.exp(-r * span)),
    }
    worker = {   # working-side formulas evaluated at zero time-to-retirement
        "M1": (1 / eps) * ((1 - p.tau1)
                           + (Lam * math.exp(eps * span) - Lam - (1 - p.tau1))),
        "M2": ((1 - p.tau2) * (1 - math.exp(-r * span)) / (r * a_tau * (eps - epst))
               * (1.0 - 1.0) - (1 - p.tau1) / eps * 0.0),
        "M3": (1 - p.tau1) / eps * 0.0,
        "N": (1 - p.tau2) / (r * a_tau) * (1 - math.exp(-r * span)),
    }
    for name in ("M1", "M2", "M3", "N"):
        assert abs(worker[name] - retiree[name]) < 1e-10
    # and the package value at the boundary agrees with both
    c = lifecycle.coefficients(d.tau - d.a, 0.0, us)
    for name in ("M1", "M2", "M3", "N"):
        assert abs(getattr(c, name) - retiree[name]) < 1e-10


def test_coefficients_continuous_near_retirement(us):
    t_ret = us.demo.tau - us.demo.a
    left = lifecycle.coefficients(t_ret - 1e-9, 0.0, us)
    right = lifecycle.coefficients(t_ret + 1e-9, 0.0, us)
    for name in ("M1", "M2", "M3", "N"):
        assert abs(getattr(left, name) - getattr(right, name)) < 1e-7


def test_bb_coefficients_reduce_to_constant(us, us_bb):
    # freeze the entrant flow at the constant-mode law: numeric M1 must match
    from penmix.scenario import BabyBoomParams
    d = us.demo
    bb = BabyBoomParams(t1=-30.0, t2=-30.0 + 1e-6,
                        n1=d.n0 * math.exp(d.rho * -30.0), nm=1e6,
                        kappa=0.05, rho1=d.rho, rho2=d.rho)
    degen = dataclasses.replace(us, demo=dataclasses.replace(d, babyboom=bb))
    for t in (0.0, 20.0, 40.0):
        numeric = lifecycle.coefficients(t, 0.0, degen).M1
        closed = lifecycle.coefficients(t, 0.0, us).M1
        assert numeric == pytest.approx(closed, abs=1e-6)


@settings(max_examples=25, deadline=None)
@given(c=st.floats(0.1, 10.0), t=st.floats(1.0, 69.0), w=st.floats(0.2, 4.0),
       y=st.floats(0.0, 3.0))
def test_value_function_homogeneity(us, c, t, w, y):
    coefs = lifecycle.coefficients(t, 0.0, us)
    base = (coefs.M1 * 0.08 + coefs.M2 * 0.12 + coefs.M3) * w + coefs.N * y
    x = 0.3 - 0.25 * base
    if x + base <= 1e-9:
        return
    v1 = lifecycle.value_function(t, x, w, y, 0.0, 0.08, 0.12, us, -2.9)
    v2 = lifecycle.value_function(t, c * x, c * w, c * y, 0.0, 0.08, 0.12, us, -2.9)
    assert v2 == pytest.approx(c ** (-2.9) * v1, rel=1e-11)


def test_value_gradient_sign_matches_m1(us):
    delta = -2.9
    for t, z in ((10.0, 0.0), (40.0, 0.0), (10.0, -20.0)):
        c = lifecycle.coefficients(t, z, us)
        h = 1e-6
        v_hi = lifecycle.value_function(t, 1.0, 1.0, 0.5, z, 0.08 + h, 0.12, us, delta)
        v_lo = lifecycle.value_function(t, 1.0, 1.0, 0.5, z, 0.08 - h, 0.12, us, delta)
        fd = (v_hi - v_lo) / (2 * h)
        L = lifecycle.coeff_L(t, z, delta, us)
        G = lifecycle.total_resource(1.0, 1.0, 0.5, c, 0.08, 0.12)
        analytic = L * G ** (delta - 1) * c.M1 * 1.0
        assert fd == pytest.approx(analytic, rel=1e-5)
        assert math.copysign(1, fd) == math.copysign(1, c.M1) or c.M1 == 0


def test_annuity_income_formula(us):
    dc = validate(us)
    y = 20.47
    assert lifecycle.annuity_income(y, us) == pytest.approx(
        y * (1 - us.policy.tau2) / dc.a_tau, rel=1e-15)
    assert lifecycle.annuity_income(0.0, us) == 0.0


def test_insolvent_cohort_raises(us):
    c = lifecycle.coefficients(10.0, 0.0, us)
    base = (c.M1 * 0.08 + c.M2 * 0.12 + c.M3) * 1.0
    with pytest.raises(InsolventCohort):
        lifecycle.value_function(10.0, -base - 1.0, 1.0, 0.0, 0.0, 0.08, 0.12, us, -2.9)


@pytest.mark.parametrize("t", [-1e-9, 70.0 + 1e-9, math.nan])
def test_coefficients_and_L_refuse_a_time_outside_the_life(us, t):
    # cohort z = 0 lives over [0, omega - a] = [0, 70]
    assert us.demo.omega - us.demo.a == 70.0
    with pytest.raises(DomainError, match="outside \\[z, z \\+ omega - a\\]"):
        lifecycle.coefficients(t, 0.0, us)
    with pytest.raises(DomainError, match="outside \\[z, z \\+ omega - a\\]"):
        lifecycle.coeff_L(t, 0.0, -2.9, us)


@pytest.mark.parametrize("w", [0.0, -1.0])
def test_value_function_refuses_a_nonpositive_salary(us, w):
    with pytest.raises(DomainError, match="average salary must be positive"):
        lifecycle.value_function(10.0, 0.5, w, 0.0, 0.0, 0.08, 0.12, us, -2.9)


def test_controls_refuse_an_insolvent_state_and_the_terminal_age(us):
    c = lifecycle.coefficients(10.0, 0.0, us)
    base = c.M1 * 0.08 + c.M2 * 0.12 + c.M3
    with pytest.raises(InsolventCohort, match="total resource G"):
        lifecycle.optimal_controls(10.0, -base - 1.0, 1.0, 0.0, 0.0, 0.08, 0.12, us, -2.9)
    # at the terminal age every multiplier and L vanish: G = x > 0, L = 0
    T = us.demo.omega - us.demo.a
    with pytest.raises(DomainError, match="terminal age"):
        lifecycle.optimal_controls(T, 0.1, 1.0, 0.5, 0.0, 0.08, 0.12, us, -2.9)


@pytest.mark.parametrize("switch_at_t0", [True, False])
def test_expected_wealth_is_zero_at_the_terminal_age(us, cn, us_bb, switch_at_t0):
    # the closed form itself gives 0.0 there, where L and every multiplier vanish
    for s in (us, cn, us_bb):
        life, t0 = s.demo.omega - s.demo.a, s.policy.t0
        for z in (t0 - life + 0.5, t0 - 60.0, t0 - 10.0, t0, t0 + 5.0):
            assert lifecycle.expected_wealth(z + life, z, s, 0.08, 0.12, switch_at_t0) == 0.0


def test_controls_scale_with_state(us):
    pi1, c1 = lifecycle.optimal_controls(20.0, 0.5, 1.0, 0.8, 0.0, 0.08, 0.12, us, -2.9)
    pi2, c2 = lifecycle.optimal_controls(20.0, 1.0, 2.0, 1.6, 0.0, 0.08, 0.12, us, -2.9)
    assert pi2 == pytest.approx(2 * pi1, rel=1e-12)
    assert c2 == pytest.approx(2 * c1, rel=1e-12)


def test_consumption_near_terminal_vs_quadrature_oracle(us):
    # at T - 1e-6 the rate (L/b)^{1/(delta-1)} is huge but must match the
    # same formula fed with an independently quadratured L
    delta = -2.9
    T = us.demo.omega - us.demo.a
    t = T - 1e-6
    state = (0.1, 1.0, 0.5)
    _, c_pkg = lifecycle.optimal_controls(t, *state, 0.0, 0.08, 0.12, us, delta)
    # dense-trapezoid L over the remaining sliver
    ss = np.linspace(t, T, 2001)
    cexp = lifecycle._growth_exponent(delta, us)
    p = 1.0 / (1.0 - delta)
    vals = np.array([lifecycle.discount_weight(u, 0.0, us) ** p
                     * math.exp(cexp * (u - t)) for u in ss])
    L_oracle = np.trapezoid(vals, ss) ** (1.0 - delta)
    b = lifecycle.discount_weight(t, 0.0, us)
    coefs = lifecycle.coefficients(t, 0.0, us)
    G = lifecycle.total_resource(*state, coefs, 0.08, 0.12)
    c_oracle = (L_oracle / b) ** (1.0 / (delta - 1.0)) * G
    assert c_pkg > 0.0 and math.isfinite(c_pkg)
    assert c_pkg == pytest.approx(c_oracle, rel=1e-6)


def test_consumption_finite_along_expected_path(us):
    # along the optimal trajectory the resource vanishes with L, so expected
    # consumption has a finite positive terminal limit
    table = lifecycle.expected_paths(0.0, us, 0.08, 0.12, grid=0.5)
    assert 0.0 < table["EC"][-1] < 10.0
    assert np.all(table["EC"] > 0.0)


def test_hjb_residual_sample(us):
    worst = 0.0
    for (t, x, w, y) in random_interior_states(us, 20, seed=7):
        res, vt = hjb_residual(t, x, w, y, us.policy.t0, 0.08, 0.12, us, -2.9)
        worst = max(worst, abs(res) / abs(vt))
    assert worst < 1e-8


def test_initial_state_of_new_entrant_is_zero(us):
    st_ = lifecycle.estimate_initial_states(us.policy.t0, us)
    assert st_.x0 == pytest.approx(0.0, abs=1e-12)
    assert st_.y0 == 0.0
    assert st_.zeta == us.demo.a
    assert st_.delta == us.pref.delta1


def test_retiree_y0_frozen_at_retirement(us):
    z = -40.0   # retired at t = -5
    y0_a = lifecycle.estimate_initial_states(z, us).y0
    shifted = with_params(us, **{"policy.t0": 2.0})
    y0_b = lifecycle.estimate_initial_states(z, shifted).y0
    assert y0_a == pytest.approx(y0_b, rel=1e-14)
    assert y0_a > 0.0


def test_initial_state_domain(us):
    with pytest.raises(DomainError):
        lifecycle.estimate_initial_states(us.policy.t0 - 71.0, us)
    with pytest.raises(DomainError):
        lifecycle.estimate_initial_states(us.policy.t0 + 1.0, us)


def test_expected_path_boundary_conditions(us):
    table = lifecycle.expected_paths(0.0, us, 0.1169, 0.1331, grid=0.5)
    assert table["EX"][0] == pytest.approx(0.0, abs=1e-9)
    assert abs(table["EX"][-1]) < 1e-6
    assert table["EY"][0] == 0.0


def test_expected_path_shape_for_new_entrant(us):
    # debt-financed consumption: wealth dips, turns around retirement, and is
    # repaid by the terminal age
    table = lifecycle.expected_paths(0.0, us, 0.1169, 0.1331, grid=0.25)
    t_ret = us.demo.tau - us.demo.a
    i_min = int(np.argmin(table["EX"]))
    assert table["EX"][i_min] < -1.0
    assert abs(table["t"][i_min] - t_ret) < 2.0
    after = table["EX"][table["t"] >= t_ret + 1.0]
    assert np.all(np.diff(after) > -1e-9)


def test_consumption_jump_ratio_at_retirement(us):
    delta = -2.9
    t_ret = us.demo.tau - us.demo.a
    state = (0.5, 1.2, 0.9)
    _, c_left = lifecycle.optimal_controls(t_ret - 1e-8, *state, 0.0,
                                           0.08, 0.12, us, delta)
    _, c_right = lifecycle.optimal_controls(t_ret + 1e-8, *state, 0.0,
                                            0.08, 0.12, us, delta)
    assert c_right / c_left == pytest.approx(
        us.pref.lam ** (1.0 / (1.0 - delta)), rel=1e-6)


def test_expected_path_for_mid_career_cohort_starts_at_estimate(us):
    z = -10.0
    st_ = lifecycle.estimate_initial_states(z, us)
    table = lifecycle.expected_paths(z, us, 0.1169, 0.1331, grid=1.0)
    assert table["t"][0] == us.policy.t0
    assert table["EX"][0] == pytest.approx(st_.x0, rel=1e-10)
    assert table["EY"][0] == pytest.approx(st_.y0, rel=1e-10)


def test_L_table_against_quad_oracle(us):
    rng = np.random.default_rng(11)
    for i in range(50):
        s = with_params(us, **{"demo.A": us.demo.A * rng.uniform(0.3, 3.0),
                               "demo.B": us.demo.B * rng.uniform(0.3, 3.0),
                               "demo.c": rng.uniform(1.07, 1.15)})
        delta = rng.uniform(-5.0, -0.1) if i % 2 else rng.uniform(0.05, 0.8)
        life = s.demo.omega - s.demo.a
        ages = [0.0, s.demo.tau - s.demo.a, rng.uniform(0.0, life), life - 1e-6, life]
        expect = np.array([quad_L(u, delta, s) for u in ages])
        one_node = np.array([float(lifecycle.L_table(u, delta, s)) for u in ages])
        together = lifecycle.L_table(ages, delta, s)
        for got in (one_node, together):
            assert got[-1] == 0.0
            np.testing.assert_allclose(got[:-1], expect[:-1], rtol=1e-12, atol=0.0)


def test_bb_m1_leg_against_split_quad(us_bb):
    eps = validate(us_bb).epsilon
    life = us_bb.demo.omega - us_bb.demo.a
    rng = np.random.default_rng(4)
    for z in (-95.0, -30.0, 10.0, *rng.uniform(-120.0, 60.0, 3)):
        for t in (z, z + 20.0, z + rng.uniform(0.0, life), z + life - 1e-3):
            m1 = float(lifecycle._bb_m1(t, z, us_bb, eps))
            assert abs(m1 - quad_bb_m1(t, z, us_bb)) <= 1e-10 * max(1.0, abs(m1))
    # array arguments broadcast and agree with scalar calls
    zs = np.array([-60.0, -20.0, 0.0])
    np.testing.assert_allclose(
        lifecycle._bb_m1(0.0, zs, us_bb, eps),
        [float(lifecycle._bb_m1(0.0, z, us_bb, eps)) for z in zs], rtol=1e-14)


@pytest.mark.parametrize("fixture", ["us", "cn", "us_bb"])
def test_expected_paths_against_per_node_oracle(request, fixture):
    s = request.getfixturevalue(fixture)
    t0, theta, k = s.policy.t0, 0.1169, 0.1331
    for z in (t0, t0 - 10.0, t0 - 40.0, t0 + 5.0):
        table = lifecycle.expected_paths(z, s, theta, k, grid=1.0)
        T = z + s.demo.omega - s.demo.a
        rows = np.array([expected_path_row(min(t, T - 1e-8), z, s, theta, k)
                         for t in table["t"]])
        for j, col in enumerate(("EX", "EY", "Epi", "EC")):
            scale = np.max(np.abs(rows[:, j]))
            np.testing.assert_allclose(table[col], rows[:, j], rtol=0.0,
                                       atol=1e-12 * scale, err_msg=f"{col} z={z}")
    # whole-life expected wealth of a future entrant and of an existing cohort
    for z in (t0 + 5.0, t0 - 10.0):
        life = s.demo.omega - s.demo.a
        for t in (z + 0.3 * life, z + 0.6 * life, z + life - 1e-3):
            got = lifecycle.expected_wealth(t, z, s, theta, k, switch_at_t0=False)
            want = expected_path_row(t, z, s, theta, k, switch_at_t0=False)[0]
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("grid", [0.0, -1.0, math.nan, math.inf])
def test_expected_paths_grid_must_be_positive_and_finite(us, grid):
    with pytest.raises(DomainError, match="positive and finite"):
        lifecycle.expected_paths(0.0, us, 0.08, 0.12, grid=grid)


@pytest.mark.parametrize("fixture", ["us", "cn", "us_bb"])
def test_expected_wealth_at_t0_is_the_estimated_initial_wealth(fixture, request):
    # with the default switch at t0 the cohort ran (theta0, k0) until t0, so
    # its expected wealth there is the estimated x0 whatever rates follow
    s = request.getfixturevalue(fixture)
    t0 = s.policy.t0
    rates = np.random.default_rng(59).uniform(0.0, s.policy.m / 2, size=(4, 2))
    for z in (t0 - 69.5, t0 - 60.0, t0 - 34.0, t0 - 30.0, t0 - 5.0, t0 - 1.0, t0):
        x0 = lifecycle.estimate_initial_states(z, s).x0
        for theta, k in [(0.0, 0.0), (0.0, s.policy.m), (s.policy.m, 0.0), *rates]:
            got = lifecycle.expected_wealth(t0, z, s, theta, k)
            assert got == pytest.approx(x0, rel=1e-12, abs=0.0), (z, theta, k)


def test_salary_accum_at_gamma_equal_alpha_is_the_limit(us):
    # the integral of e^{g u} over [lo, hi] is (hi - lo) + g (hi^2 - lo^2) / 2
    # + O(g^2): the g = 0 branch agrees with g = +-1e-7 to first order
    lo, hi = np.array([0.0, 30.0, -40.0]), np.array([35.0, 65.0, 10.0])
    at = lifecycle._salary_accum(lo, hi, with_params(us, **{"market.gamma": us.market.alpha}))
    assert at.tolist() == (hi - lo).tolist()
    for h in (1e-7, -1e-7):
        s = with_params(us, **{"market.gamma": us.market.alpha + h})
        g = s.market.gamma - s.market.alpha
        slope = (lifecycle._salary_accum(lo, hi, s) - at) / g
        np.testing.assert_allclose(slope, (hi**2 - lo**2) / 2, rtol=1e-3)


@pytest.mark.parametrize("theta, k", OUTSIDE_RATE_BOX)
def test_rates_outside_the_box_are_refused(us, theta, k):
    # the value function, the controls and the expected wealth take the
    # rate box of the expected paths, not a number or a NaN off it
    calls = (lambda: lifecycle.value_function(10.0, 0.5, 1.0, 0.0, 0.0, theta, k, us, -2.9),
             lambda: lifecycle.optimal_controls(10.0, 0.5, 1.0, 0.0, 0.0, theta, k, us, -2.9),
             lambda: lifecycle.expected_wealth(10.0, 0.0, us, theta, k),
             lambda: lifecycle.expected_paths(0.0, us, theta, k, grid=1.0))
    for call in calls:
        with pytest.raises(DomainError, match="outside the rate box"):
            call()


@pytest.mark.parametrize("k", [math.nan, math.inf, -0.01, 0.3])
def test_eet_balance_refuses_a_rate_outside_the_box(us, k):
    with pytest.raises(DomainError, match="outside the rate box"):
        lifecycle.expected_eet_balance(10.0, 0.0, us, k)


def test_life_window_is_one_rule(us):
    # every scalar entry point accepts the ends of the window [z, z + omega - a]
    # and refuses a time 1e-10 past either end (the slack is 1e-12)
    t0, life = us.policy.t0, us.demo.omega - us.demo.a
    z = t0 - 10.0
    calls = (lambda t: lifecycle.coefficients(t, z, us),
             lambda t: lifecycle.coeff_L(t, z, -2.9, us),
             lambda t: lifecycle.discount_weight(t, z, us))
    for call in calls:
        for t in (z, z + life):
            call(t)
        for t in (z - 1e-10, z + life + 1e-10):
            with pytest.raises(DomainError, match="outside \\[z, z \\+ omega - a\\]"):
                call(t)
    # the initial states are taken at t0, so it is the entry time that moves
    for zz in (t0, t0 - life):
        lifecycle.estimate_initial_states(zz, us)
    for zz in (t0 + 1e-10, t0 - life - 1e-10):
        with pytest.raises(DomainError, match="outside \\[z, z \\+ omega - a\\]"):
            lifecycle.estimate_initial_states(zz, us)
