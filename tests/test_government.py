import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from penmix import (
    DomainError,
    EmptyRegion,
    InsolventCohort,
    PenmixError,
    demography,
    government,
    lifecycle,
    preference,
    validate,
    with_params,
)
from penmix.scenario import scenario_from_dict, scenario_to_dict

from _oracles import (
    line_interval,
    optimize_mix_grid_golden,
    optimize_mix_nested_phi,
    optimize_mix_no_edge_search,
    theta_range_by_search,
    voluntary_theta_ratios,
    voluntary_welfare_from_value_function,
    welfare_from_value_function,
)

STEP = 0.05


def test_cap_violation_rejected(us):
    with pytest.raises(InsolventCohort):
        government.objective(0.2, 0.2, us)


@pytest.mark.parametrize("theta, k", [(math.nan, 0.1), (0.1, math.nan),
                                      (math.inf, 0.0), (0.0, math.inf)])
def test_rate_outside_the_box_rejected(us, theta, k):
    # every comparison with NaN is false: a NaN rate fails the box test
    # rather than slipping through to a NaN welfare
    with pytest.raises(InsolventCohort, match="outside the rate box"):
        government.objective(theta, k, us, step=STEP)


@pytest.mark.parametrize("theta", [math.nan, math.inf])
def test_voluntary_rate_outside_the_interval_rejected(us, theta):
    with pytest.raises(InsolventCohort, match="outside the voluntary admissible interval"):
        government.voluntary_objective(theta, us, step=STEP)


def test_invalid_weighting_rejected(us):
    with pytest.raises(DomainError):
        government.objective(0.1, 0.1, us, mode="median")


def test_optimum_beats_status_quo(us):
    better = government.objective(0.1169, 0.1331, us, mode="population")
    status = government.objective(0.08, 0.12, us, mode="population")
    assert better > status


def test_objective_concave_on_random_segments(us):
    rng = np.random.default_rng(5)
    region = government.admissible_region(us, step=STEP)
    pts = []
    while len(pts) < 8:
        theta, k = rng.uniform(0.0, us.policy.m, size=2)
        if theta + k <= us.policy.m and region.contains(theta, k):
            pts.append((theta, k))
    for i in range(0, 8, 2):
        p, q = np.array(pts[i]), np.array(pts[i + 1])
        for lam in (0.25, 0.5, 0.75):
            mid = lam * p + (1 - lam) * q
            phi_mid = government.objective(*mid, us, mode="population")
            chord = (lam * government.objective(*p, us, mode="population")
                     + (1 - lam) * government.objective(*q, us, mode="population"))
            assert phi_mid >= chord - 1e-12 * abs(chord)


def test_region_contains_status_quo(us, cn):
    for s in (us, cn):
        region = government.admissible_region(s, step=STEP)
        assert region.contains(s.policy.theta0, s.policy.k0)


def test_region_entry_constraint_row(us):
    # the newest cohort (z = t0) contributes the pure entry-coefficient
    # half-plane at its wage w0; the settled entrant tail, the last row, is
    # the same half-plane per unit wage
    dc = validate(us)
    region = government.admissible_region(us, step=STEP)
    g = government._grid(us, STEP)
    assert g.z[-1] == us.policy.t0
    row = region.halfplanes[g.z.size - 1]
    w0 = us.market.W0 * math.exp(us.market.gamma * us.policy.t0)
    assert row[0] == pytest.approx(dc.M03 * w0, abs=1e-9)
    assert row[1] == pytest.approx(dc.M01 * w0, abs=1e-9)
    assert row[2] == pytest.approx(dc.M02 * w0, abs=1e-9)
    assert tuple(region.halfplanes[-1]) == (dc.M03, dc.M01, dc.M02)


def test_zero_cap_degenerates_region(us):
    s0 = with_params(us, **{"policy.m": 0.0, "policy.theta0": 0.0,
                            "policy.k0": 0.0})
    region = government.admissible_region(s0, step=0.5)
    assert region.contains(0.0, 0.0)
    assert not region.contains(0.01, 0.0)
    assert not region.contains(0.0, 0.01)


def test_us_optimal_mix_population(us):
    mix = government.optimize_mix(us, mode="population", step=STEP)
    assert mix.theta_star == pytest.approx(0.1169, abs=0.005)
    assert mix.k_star == pytest.approx(0.1331, abs=0.005)
    assert mix.cap_binding


def test_no_feasible_coordinate_improvement(us):
    mix = government.optimize_mix(us, mode="population", step=STEP)
    base = mix.objective
    region = government.admissible_region(us, step=STEP)
    for d_theta, d_k in ((1e-3, 0.0), (-1e-3, 0.0), (0.0, 1e-3), (0.0, -1e-3)):
        theta, k = mix.theta_star + d_theta, mix.k_star + d_k
        if not region.contains(theta, k) or theta + k > us.policy.m or min(theta, k) < 0:
            continue
        assert government.objective(theta, k, us, mode="population") <= base + 1e-12 * abs(base)


def test_grid_refinement_stability(us):
    coarse = government.optimize_mix(us, mode="population", step=0.1)
    fine = government.optimize_mix(us, mode="population", step=0.05)
    assert abs(coarse.theta_star - fine.theta_star) < 2e-4
    assert abs(coarse.k_star - fine.k_star) < 2e-4


def test_population_scale_invariance(us):
    scaled = with_params(us, **{"demo.n0": 7.0 * us.demo.n0})
    for theta, k in ((0.10, 0.10), (0.1169, 0.1331), (0.05, 0.18)):
        assert government.objective(theta, k, scaled, mode="population") == pytest.approx(
            7.0 * government.objective(theta, k, us, mode="population"), rel=1e-12)
    mix_a = government.optimize_mix(us, mode="population", step=0.1)
    mix_b = government.optimize_mix(scaled, mode="population", step=0.1)
    assert mix_b.theta_star == pytest.approx(mix_a.theta_star, abs=1e-5)
    assert mix_b.k_star == pytest.approx(mix_a.k_star, abs=1e-5)


# --------------------------------------------------------------------------
# voluntary participation
# --------------------------------------------------------------------------

def test_voluntary_k_retiree_interval(us):
    choice = government.voluntary_k_star(0.1, us.policy.t0 - 40.0, us)
    assert choice.kind == "interval"
    assert (choice.lo, choice.hi) == (0.0, pytest.approx(0.15))
    assert choice.value == 0.0


def test_voluntary_k_worker_goes_to_cap(us):
    for z in (us.policy.t0, us.policy.t0 - 20.0, us.policy.t0 + 3.0):
        choice = government.voluntary_k_star(0.1, z, us)
        assert choice.kind == "point"
        assert choice.value == pytest.approx(us.policy.m - 0.1)


def test_voluntary_k_zero_when_eet_unattractive(us):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        harsh = with_params(us, **{"policy.tau2": 0.9})
        choice = government.voluntary_k_star(0.1, us.policy.t0 - 10.0, harsh)
    assert choice.kind == "point" and choice.value == 0.0


@pytest.mark.parametrize("theta", [-1e-9, 0.25 + 1e-9, math.nan])
def test_voluntary_k_star_refuses_theta_outside_0_m(us, theta):
    assert us.policy.m == 0.25
    for z in (us.policy.t0 - 40.0, us.policy.t0 - 10.0, us.policy.t0 + 1.0):
        with pytest.raises(DomainError, match="outside \\[0, m\\]"):
            government.voluntary_k_star(theta, z, us)


def test_voluntary_substitution_identity(us):
    # equilibrium objective == plain objective fed the per-cohort best response
    bounds = government.voluntary_theta_bounds(us, step=STEP)
    rng = np.random.default_rng(11)
    thetas = rng.uniform(bounds.lower, bounds.upper, size=20)
    for theta in thetas:
        by_formula = government.voluntary_objective(theta, us, mode="population",
                                                    step=STEP)
        k_of = lambda z: government.voluntary_k_star(theta, z, us).value
        future = government.voluntary_k_star(theta, us.policy.t0 + 1.0, us).value
        direct = government.objective_per_cohort(theta, k_of, us,
                                                 mode="population", step=STEP,
                                                 future_k=future)
        assert by_formula == pytest.approx(direct, rel=1e-10)


def test_voluntary_objective_invariant_to_retiree_choice(us):
    # retirees may pick anything in [0, m - theta] without moving the objective
    theta = 0.1
    ref = government.voluntary_objective(theta, us, mode="population", step=STEP)
    for retiree_k in (0.0, 0.07, 0.15):
        def k_of(z):
            if z <= us.policy.t0 - (us.demo.tau - us.demo.a):
                return retiree_k
            return government.voluntary_k_star(theta, z, us).value
        val = government.objective_per_cohort(theta, k_of, us, mode="population",
                                              step=STEP,
                                              future_k=us.policy.m - theta)
        assert val == pytest.approx(ref, rel=1e-12)


def test_voluntary_bounds_and_sets(us):
    bounds = government.voluntary_theta_bounds(us, step=STEP)
    assert 0.0 <= bounds.lower < bounds.upper <= us.policy.m
    # retirement ages always sit in A1
    assert any(lo <= us.demo.tau and hi >= us.demo.omega for lo, hi in bounds.A1)
    # A1 and A2 never overlap
    for lo1, hi1 in bounds.A1:
        for lo2, hi2 in bounds.A2:
            assert hi2 <= lo1 + 1e-9 or lo2 >= hi1 - 1e-9


def test_voluntary_bounds_interval_matches_node_signs(us, cn):
    for s in (us, cn):
        bounds = government.voluntary_theta_bounds(s, step=STEP)
        g = government._grid(s, STEP)
        zeta = s.demo.a + s.policy.t0 - g.z
        coef = g.vol_rows[:g.z.size, 1]   # (M1 - M2^+) w0
        in_a1 = np.zeros(len(zeta), dtype=bool)
        for lo, hi in bounds.A1:
            in_a1 |= (zeta > lo + 1e-9) & (zeta < hi - 1e-9)
        in_a2 = np.zeros(len(zeta), dtype=bool)
        for lo, hi in bounds.A2:
            in_a2 |= (zeta > lo + 1e-9) & (zeta < hi - 1e-9)
        assert np.all(coef[in_a1] > 0.0)
        assert np.all(coef[in_a2] < 0.0)


def test_high_support_ratio_gives_unbounded_upper(us):
    from penmix import preference
    rich = with_params(us, **{"demo.rho": 0.03})
    lam_fp, lam_ep = preference.thresholds(rich)
    assert validate(rich).Lambda > max(lam_fp, lam_ep)
    bounds = government.voluntary_theta_bounds(rich, step=0.2)
    assert bounds.theta_high == math.inf
    assert bounds.upper == rich.policy.m
    assert bounds.A2 == ()


def test_voluntary_theta_outside_interval_rejected(cn):
    bounds = government.voluntary_theta_bounds(cn, step=STEP)
    assert bounds.lower > 0.0
    with pytest.raises(InsolventCohort):
        government.voluntary_objective(bounds.lower - 0.01, cn, mode="population",
                                       step=STEP)


def test_voluntary_matches_mandatory_at_baseline(us):
    vol = government.optimize_voluntary(us, mode="population", step=STEP)
    man = government.optimize_mix(us, mode="population", step=STEP)
    assert vol.theta_star == pytest.approx(man.theta_star, abs=0.005)
    assert vol.mode == "voluntary"


@pytest.mark.parametrize("fixture", ["us", "cn"])
def test_grid_columns_match_scalar_kernels(fixture, request):
    # every live cohort row from the public per-cohort functions at its
    # node: (x0 + M3 w0 + N y0, M1 w0, M2 w0), and the weights L / delta
    # times a Simpson weight, times n(z) under population weighting
    s = request.getfixturevalue(fixture)
    g = government._grid(s, STEP)
    t0 = s.policy.t0
    w0 = s.market.W0 * math.exp(s.market.gamma * t0)
    cohort = np.flatnonzero(g.live[:g.z.size])
    z, delta = g.z[cohort], g.power[:cohort.size]
    rows, L = [], []
    for zi, dz in zip(z.tolist(), delta.tolist()):
        c = lifecycle.coefficients(t0, zi, s)
        st_ = lifecycle.estimate_initial_states(zi, s, delta=dz)
        rows.append((st_.x0 + c.M3 * w0 + c.N * st_.y0, c.M1 * w0, c.M2 * w0))
        L.append(lifecycle.coeff_L(t0, zi, dz, s))
    for column, scalar in zip(g.rows[cohort].T, np.array(rows).T):
        np.testing.assert_allclose(column, scalar, rtol=1e-12,
                                   atol=1e-12 * np.abs(scalar).max())
    equal = g.weights["equal"][:cohort.size]
    np.testing.assert_allclose(g.weights["population"][:cohort.size],
                               equal * demography.entrants(z, s.demo), rtol=1e-12)
    # the one row out of the sum is the node at age omega (L = 0), whose
    # Simpson weight h / 3 completes the weights to the span omega - a
    assert list(np.flatnonzero(~g.live)) == [0]
    simpson = equal * delta / np.array(L)
    assert (simpson > 0.0).all()
    assert simpson.sum() + (g.z[1] - g.z[0]) / 3.0 == pytest.approx(
        s.demo.omega - s.demo.a, rel=1e-12)


@pytest.mark.parametrize("mode, theta, k", [("population", 0.0922, 0.1578),
                                            ("equal", 0.1174, 0.1326)])
def test_babyboom_optimal_mix(us_bb, mode, theta, k):
    mix = government.optimize_mix(us_bb, mode=mode)
    assert mix.theta_star == pytest.approx(theta, abs=1e-3)
    assert mix.k_star == pytest.approx(k, abs=1e-3)
    assert mix.cap_binding and mix.evaluations > 0
    assert government.admissible_region(us_bb).contains(mix.theta_star, mix.k_star)
    vol = government.optimize_voluntary(us_bb, mode=mode)
    assert vol.theta_star == pytest.approx(mix.theta_star, abs=1e-6)
    assert vol.evaluations > 0


@settings(max_examples=20, deadline=None)
@given(t1=st.floats(-60.0, 10.0), length=st.floats(1.0, 40.0),
       nm=st.floats(20.0, 300.0), kappa=st.floats(0.01, 0.3),
       rho1=st.floats(-0.02, 0.01), rho2=st.floats(-0.02, 0.01),
       t0=st.floats(-10.0, 10.0))
def test_babyboom_fuzz_result_or_typed_error(us_bb, t1, length, nm, kappa, rho1, rho2, t0):
    doc = scenario_to_dict(us_bb)
    doc["demography"]["babyboom"].update(t1=t1, t2=t1 + length, nm=nm, kappa=kappa,
                                         rho1=rho1, rho2=rho2)
    doc["demography"]["rho"] = rho2
    doc["policy"]["t0"] = t0
    try:
        s = scenario_from_dict(doc)
        report = preference.preference_map(s, step=5.0)
        mix = government.optimize_mix(s)
    except PenmixError:
        return
    for age in (report.zeta_hat, report.zeta_tilde):
        assert age is None or s.demo.a <= age <= s.demo.tau
    assert mix.theta_star + mix.k_star <= s.policy.m + 1e-12
    assert government.admissible_region(s).contains(mix.theta_star, mix.k_star)
    assert mix.evaluations > 0


def _box_segment(point, direction, m):
    """t-range on which point + t direction stays in theta, k >= 0, theta + k <= m."""
    lo, hi = -math.inf, math.inf
    for c0, c1 in ((point[0], direction[0]), (point[1], direction[1]),
                   (m - point[0] - point[1], -direction[0] - direction[1])):
        if c1 > 0:
            lo = max(lo, -c0 / c1)
        elif c1 < 0:
            hi = min(hi, -c0 / c1)
    return lo, hi


@pytest.mark.parametrize("fixture", ["us", "cn", "us_bb"])
def test_line_interval_ends_against_halfplane_table(fixture, request):
    # random face, theta-fixed, k-fixed and oblique lines through the rate
    # box; each also on a segment 10 wider on both sides, where the solvency
    # rows bind on every fixture
    s = request.getfixturevalue(fixture)
    g = government._grid(s, STEP)
    m = s.policy.m
    rng = np.random.default_rng(17)
    lines = [((0.0, m), (1.0, -1.0))]
    for _ in range(10):
        theta, k = rng.uniform(0.0, m, size=2)
        if theta + k > m:
            theta, k = m - theta, m - k
        angle = rng.uniform(0.0, 2.0 * math.pi)
        lines += [((theta, 0.0), (0.0, 1.0)), ((0.0, k), (1.0, 0.0)),
                  ((theta, k), (math.cos(angle), math.sin(angle)))]

    def worst_row(point, direction, t):
        theta, k = point[0] + t * direction[0], point[1] + t * direction[1]
        return float((g.rows[:, 0] + g.rows[:, 1] * theta + g.rows[:, 2] * k).min())

    interior_ends = 0
    for point, direction in lines:
        for widen in (0.0, 10.0):
            lo, hi = _box_segment(point, direction, m)
            lo, hi = lo - widen, hi + widen
            found = line_interval(g, point, direction, lo, hi)
            if found is None:
                ts = np.linspace(lo, hi, 101)
                assert all(worst_row(point, direction, t) < 0.0 for t in ts)
                continue
            assert lo <= found[0] <= found[1] <= hi
            for end, box_end, outward in ((found[0], lo, -1.0), (found[1], hi, 1.0)):
                assert worst_row(point, direction, end) >= -1e-12
                if end != box_end:
                    interior_ends += 1
                    assert worst_row(point, direction, end + outward * 1e-9) < 0.0
    assert interior_ends > 0


@pytest.mark.parametrize("fixture", ["us", "cn", "us_bb"])
def test_voluntary_bounds_match_ratio_scan(fixture, request):
    s = request.getfixturevalue(fixture)
    bounds = government.voluntary_theta_bounds(s, step=STEP)
    low, high = voluntary_theta_ratios(government._grid(s, STEP))
    assert (bounds.theta_low, bounds.theta_high) == (low, high)
    assert (bounds.lower, bounds.upper) == (max(0.0, low), min(s.policy.m, high))


#: relative tolerance of the grid's welfare against the value-function
#: oracle: the Simpson error of the grid, measured at most 5.1e-14 on US,
#: 4.0e-12 on CN at (0.12, 0.10) and 3.6e-12 under the baby boom, where the
#: oracle's own panels are good to about 5e-12 (the Lambda(t) table is C1)
WELFARE_RTOL = {"us": 1e-13, "cn": 1e-11, "us_bb": 1e-11}


@pytest.mark.parametrize("fixture", ["us", "cn", "us_bb"])
@pytest.mark.parametrize("mode", government.WEIGHTINGS)
def test_welfare_matches_value_function_oracle(fixture, mode, request):
    # objective and voluntary_objective against the welfare integrated from
    # the per-cohort value function; away from t0 = 0 the entrant density at
    # t0 is not n0
    rtol = WELFARE_RTOL[fixture]
    for t0 in (0.0, 10.0, -20.0):
        s = with_params(request.getfixturevalue(fixture), **{"policy.t0": t0})
        bounds = government.voluntary_theta_bounds(s, step=STEP)
        span = bounds.upper - bounds.lower
        for theta, k in ((0.12, 0.10), (0.15, 0.08), (0.18, 0.05)):
            got = government.objective(theta, k, s, mode, step=STEP)
            want = welfare_from_value_function(s, theta, k, mode)
            assert got == pytest.approx(want, rel=rtol, abs=0.0), (t0, theta, k)
        for theta in (bounds.lower + 0.5 * span, bounds.lower + 0.6 * span,
                      bounds.upper - 0.01):
            got = government.voluntary_objective(theta, s, mode, step=STEP)
            want = voluntary_welfare_from_value_function(s, theta, mode)
            assert got == pytest.approx(want, rel=rtol, abs=0.0), (t0, theta)


def test_welfare_oracle_and_objective_agree_on_insolvency(cn):
    # below CN's theta-range the oldest retirees are insolvent at every k
    assert welfare_from_value_function(cn, 0.03, 0.1, "population") == -math.inf
    with pytest.raises(InsolventCohort):
        government.objective(0.03, 0.1, cn, step=STEP)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("fixture, tau2", [("us", None), ("cn", None), ("us_bb", None),
                                          ("us", 0.6)])
def test_vol_rows_are_the_rows_at_the_voluntary_rate(fixture, tau2, request):
    # each row of vol_rows is its row of rows at the cohort's (or entrant's)
    # public voluntary_k_star rate; tau2 = 0.6 gives rows with M2 < 0, whose
    # cohorts choose k = 0
    s = request.getfixturevalue(fixture)
    if tau2 is not None:
        s = with_params(s, **{"policy.tau2": tau2})
    g = government._grid(s, STEP)
    assert (g.rows[:, 2] < 0.0).any() == (tau2 is not None)
    t0 = s.policy.t0
    z = np.append(g.z, np.full(len(g.rows) - g.z.size, t0))
    for theta in (0.0, 0.1, 0.2, s.policy.m):
        k = np.array([government.voluntary_k_star(theta, zi, s).value for zi in z.tolist()])
        c0, c1, c2 = g.rows.T
        want = c0 + c1 * theta + c2 * k
        d0, d1 = g.vol_rows.T
        np.testing.assert_allclose(d0 + d1 * theta, want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())


def _assert_matches_oracle(mix, old):
    # the same optimum within the golden brackets, and no worse
    assert abs(mix.theta_star - old.theta_star) <= 1e-7
    assert abs(mix.k_star - old.k_star) <= 1e-7
    assert mix.objective >= old.objective - 1e-13 * abs(old.objective)
    assert mix.cap_binding == old.cap_binding
    assert 0 < mix.evaluations < old.evaluations


@pytest.mark.parametrize("fixture", ["us", "cn", "us_bb"])
@pytest.mark.parametrize("mode", government.WEIGHTINGS)
def test_optimizer_matches_grid_golden_oracle(fixture, mode, request):
    s = request.getfixturevalue(fixture)
    _assert_matches_oracle(government.optimize_mix(s, mode, STEP),
                           optimize_mix_grid_golden(s, mode, STEP))


@pytest.mark.parametrize("fixture", ["us", "cn", "us_bb"])
@pytest.mark.parametrize("mode", government.WEIGHTINGS)
@pytest.mark.parametrize("step", [STEP, 0.25])
def test_optimizer_equals_nested_phi_oracle(fixture, mode, step, request):
    # every OptimalMix field bit for bit, the evaluation count included
    s = request.getfixturevalue(fixture)
    assert government.optimize_mix(s, mode, step) == optimize_mix_nested_phi(s, mode, step)


def _k_segment(g, theta):
    return line_interval(g, (theta, 0.0), (0.0, 1.0), 0.0, g.m - theta)


@pytest.mark.parametrize("fixture", ["us", "cn", "us_bb"])
def test_theta_range_ends_are_the_last_solvent_thetas(fixture, request):
    # the k-segment is non-empty at both ends and empty just outside each
    # end that is not a box end
    s = request.getfixturevalue(fixture)
    g = government._grid(s, STEP)
    lo, hi = g.theta_range
    assert 0.0 <= lo < hi <= s.policy.m
    assert _k_segment(g, lo) is not None and _k_segment(g, hi) is not None
    if lo > 0.0:
        assert _k_segment(g, lo - 1e-9) is None
    if hi < s.policy.m:
        assert _k_segment(g, hi + 1e-9) is None
    if fixture == "cn":
        # CN's retirees make every k insolvent just below theta ~ 0.0576
        assert lo == pytest.approx(0.0576, abs=1e-4)
        ks = np.linspace(0.0, s.policy.m - lo, 101)
        for mode in government.WEIGHTINGS:
            assert all(government._phi(g, lo - 1e-9, k, mode) == -math.inf for k in ks)
            assert math.isfinite(government._phi(g, lo + 1e-9, 0.1, mode))
    else:
        assert lo == 0.0


def _cut_in_k(g):
    """g with two live worker rows rewritten to G = c (k - 0.05) and
    G = c (0.2 - k)."""
    rows = g.rows.copy()
    up, down = np.flatnonzero(g.live & (rows[:, 2] > 0))[:2]
    c_up, c_down = rows[up, 2], rows[down, 2]
    rows[up] = (-0.05 * c_up, 0.0, c_up)
    rows[down] = (0.2 * c_down, 0.0, -c_down)
    return dataclasses.replace(g, rows=rows)


@pytest.mark.parametrize("mode", government.WEIGHTINGS)
def test_theta_range_and_optimizer_on_rows_cut_in_k(us, monkeypatch, mode):
    # two worker rows rewritten to G = c (k - 0.05) and G = c (0.2 - k):
    # each theta is solvent for k in (0.05, 0.2) only, and not at all once
    # m - theta < 0.05
    m = us.policy.m
    cut = _cut_in_k(government._grid(us, STEP))
    assert government._phi(cut, 0.1, 0.05, mode) == -math.inf
    assert math.isfinite(government._phi(cut, 0.1, 0.0525, mode))
    assert government._phi(cut, 0.0, 0.2, mode) == -math.inf
    assert government._phi(cut, 0.2025, 0.0475, mode) == -math.inf
    lo, hi = cut.theta_range
    assert lo == 0.0 and hi == pytest.approx(m - 0.05, abs=1e-15)
    assert _k_segment(cut, hi) is not None
    assert _k_segment(cut, np.nextafter(hi, 1.0)) is None
    monkeypatch.setattr(government, "_grid", lambda s, step: cut)
    mix = government.optimize_mix(us, mode, STEP)
    assert 0.05 < mix.k_star < 0.2
    _assert_matches_oracle(mix, optimize_mix_grid_golden(us, mode, STEP))
    assert mix == optimize_mix_nested_phi(us, mode, STEP)


@pytest.mark.parametrize("fixture", ["us", "cn", "us_bb"])
@pytest.mark.parametrize("step", [STEP, 0.25])
def test_theta_range_equals_the_search_on_fixtures(fixture, step, request):
    g = government._grid(request.getfixturevalue(fixture), step)
    assert _segment_bits(g.theta_range) == _segment_bits(theta_range_by_search(g))


def _halfplane_grids(g, n, seed):
    """n copies of g, each with one to five live rows rewritten to random
    half-planes through points of the rate triangle."""
    rng = np.random.default_rng(seed)
    live, m = np.flatnonzero(g.live), g.m
    for _ in range(n):
        rows = g.rows.copy()
        for i in rng.choice(live, size=rng.integers(1, 6), replace=False):
            theta, k = rng.uniform(0.0, m, size=2)
            if theta + k > m:
                theta, k = m - theta, m - k
            angle = rng.uniform(0.0, 2.0 * math.pi)
            c1, c2 = math.cos(angle), math.sin(angle)
            rows[i] = (-(c1 * theta + c2 * k), c1, c2)
        yield dataclasses.replace(g, rows=rows)


def test_theta_range_matches_the_search_on_random_halfplanes(us):
    # the elimination and the search agree on emptiness, and their ends to
    # round-off: the search's are the last solvent floats, the elimination's
    # are one division each
    empty = 0
    for g in _halfplane_grids(government._grid(us, STEP), 200, seed=43):
        exact, searched = g.theta_range, theta_range_by_search(g)
        assert (exact is None) == (searched is None)
        if exact is None:
            empty += 1
        else:
            assert exact == pytest.approx(searched, rel=0.0, abs=1e-12)
    assert 30 < empty < 170


@pytest.mark.parametrize("mode", government.WEIGHTINGS)
def test_optimizer_on_random_halfplanes_matches_the_searched_range(us, monkeypatch,
                                                                   mode):
    # an eliminated end may lie a few ulps outside the polygon, where psi is
    # -inf; the optimum is the one the search's last solvent floats give
    differ = outside = 0
    for g in _halfplane_grids(government._grid(us, STEP), 200, seed=43):
        exact, searched = g.theta_range, theta_range_by_search(g)
        if exact is None or exact == searched:
            continue
        differ += 1
        outside += sum(government._k_section(g, end, mode)[0] is None for end in exact)
        oracle = dataclasses.replace(g)
        oracle.__dict__["theta_range"] = searched
        mixes = []
        for grid in (g, oracle):
            monkeypatch.setattr(government, "_grid", lambda s, step, grid=grid: grid)
            try:
                mixes.append(government.optimize_mix(us, mode, STEP))
            except EmptyRegion:
                mixes.append(None)
        mix, want = mixes
        if want is None:
            assert mix is None
            continue
        assert mix.theta_star == pytest.approx(want.theta_star, rel=0.0, abs=1e-12)
        assert mix.k_star == pytest.approx(want.k_star, rel=0.0, abs=1e-12)
        assert mix.objective == pytest.approx(want.objective, rel=1e-12)
    assert differ >= 30 and outside >= 10


def _perturbed_scenarios(us, cn, n, seed):
    """US/CN scenarios, alternating, with demo.rho moved by up to 0.004 and
    the two tax rates redrawn; draws without a cohort grid are skipped."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        s0 = (us, cn)[i % 2]
        params = {"demo.rho": s0.demo.rho + rng.uniform(-0.004, 0.004),
                  "policy.tau1": rng.uniform(0.1, 0.3),
                  "policy.tau2": rng.uniform(0.1, 0.48)}
        try:
            s = with_params(s0, **params)
            government._grid(s, 0.25)
        except PenmixError:
            continue
        yield s


def test_optimizer_matches_grid_golden_oracle_on_perturbed_scenarios(us, cn):
    # the draws hold cap-face optima, k = 0 edges and (m, 0) corners; the
    # nested search with a full _phi per point gives the same bits
    step = 0.25
    checked, k_edges, corners = 0, 0, 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for s in _perturbed_scenarios(us, cn, 22, seed=6):
            checked += 1
            for mode in government.WEIGHTINGS:
                mix = government.optimize_mix(s, mode, step)
                _assert_matches_oracle(mix, optimize_mix_grid_golden(s, mode, step))
                assert mix == optimize_mix_nested_phi(s, mode, step)
                k_edges += mix.k_star == 0.0
                corners += (mix.theta_star, mix.k_star) == (s.policy.m, 0.0)
    assert checked >= 20 and k_edges > corners > 0


def test_optimizer_equals_nested_phi_oracle_on_perturbed_scenarios(us, cn):
    # every OptimalMix field bit for bit at the default step, both weightings
    checked = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for s in _perturbed_scenarios(us, cn, 16, seed=8):
            checked += 1
            for mode in government.WEIGHTINGS:
                assert (government.optimize_mix(s, mode, STEP)
                        == optimize_mix_nested_phi(s, mode, STEP))
    assert checked >= 14


def _same_bits(x, y):
    return x.hex() == y.hex()


def _welfare_or_neg_inf(g, G, mode):
    # the welfare of the live rows' resources G, -inf when one is insolvent
    if (G <= 0.0).any():
        return -math.inf
    return float((g.weights[mode] * G ** g.power).sum())


def _assert_k_section_is_phi(g, mode, points):
    # segment and scorer of each theta against line_interval and _phi
    for theta, ks in points:
        seg, phi = government._k_section(g, theta, mode)
        assert seg == _k_segment(g, theta)
        for k in ks:
            assert _same_bits(phi(k), government._phi(g, theta, k, mode))


def _box_points(rng, m, n):
    """n seeded (theta, [k, ...]) with theta + k <= m, five k per theta."""
    for theta in rng.uniform(0.0, m, size=n):
        yield theta, rng.uniform(0.0, m - theta, size=5)


@pytest.mark.parametrize("fixture", ["us", "cn", "us_bb"])
@pytest.mark.parametrize("mode", government.WEIGHTINGS)
def test_k_section_equals_phi(fixture, mode, request):
    s = request.getfixturevalue(fixture)
    g = government._grid(s, STEP)
    m = s.policy.m
    points = list(_box_points(np.random.default_rng(29), m, 40))
    lo, hi = g.theta_range
    points += [(lo, [0.0, m - lo]), (hi, [0.0, m - hi])]
    if fixture == "cn":
        # a k-free row is insolvent just below theta_range: every k is -inf
        below = lo - 1e-9
        points.append((below, np.linspace(0.0, m - below, 11)))
        seg, phi = government._k_section(g, below, mode)
        assert seg is None and phi(0.1) == -math.inf
    _assert_k_section_is_phi(g, mode, points)
    finite = sum(math.isfinite(government._phi(g, t, k, mode)) for t, ks in points for k in ks)
    assert finite > 100


@pytest.mark.parametrize("mode", government.WEIGHTINGS)
def test_k_section_equals_phi_on_sliver_grid(us, mode):
    # k-dependent rows among the retirees: the k-free rows are no prefix
    g = _with_retiree_rows(government._grid(us, STEP), SLIVER)
    assert g.k_cut < np.flatnonzero(g.rows[g.live, 2] == 0.0)[-1]
    rng = np.random.default_rng(31)
    points = list(_box_points(rng, us.policy.m, 20))
    points += [(theta, rng.uniform(0.1205, 0.1215, size=5))
               for theta in rng.uniform(0.103, 0.104, size=10)]
    _assert_k_section_is_phi(g, mode, points)
    assert math.isfinite(government._k_section(g, 0.1035, mode)[1](0.121))


@pytest.mark.parametrize("mode", government.WEIGHTINGS)
def test_k_section_and_optimizer_on_a_grid_without_k(us, monkeypatch, mode):
    # c2 = 0 on every row: the tail is the last live slot alone
    g = government._grid(us, STEP)
    rows = g.rows.copy()
    rows[:, 2] = 0.0
    flat = dataclasses.replace(g, rows=rows)
    assert flat.k_cut == np.count_nonzero(flat.live) - 1
    _assert_k_section_is_phi(flat, mode, _box_points(np.random.default_rng(41), us.policy.m, 20))
    monkeypatch.setattr(government, "_grid", lambda s, step: flat)
    assert government.optimize_mix(us, mode, STEP) == optimize_mix_nested_phi(us, mode, STEP)


def _segment_bits(seg):
    return None if seg is None else tuple(end.hex() for end in seg)


def _assert_solvency_is_sound(g):
    # the rows left out are positive at the three corners of the rate
    # triangle, and the k-segment and the k-free theta box of the
    # `solvency` rows are those of all rows, bit for bit
    m = g.m
    c0, c1, c2 = g.rows.T
    out = np.ones(len(g.rows), dtype=bool)
    out[g.solvency] = False
    assert (c0[out] > 0.0).all()
    assert (c0[out] + c1[out] * m > 0.0).all()
    assert (c0[out] + c2[out] * m > 0.0).all()
    s0, s1, s2 = g.rows[g.solvency].T
    free, sfree = c2 == 0.0, s2 == 0.0
    assert (_segment_bits(government._feasible_interval(s0[sfree], s1[sfree], 0.0, m))
            == _segment_bits(government._feasible_interval(c0[free], c1[free], 0.0, m)))
    thetas = list(np.linspace(0.0, m, 2000))
    for end in g.theta_range or ():
        thetas += [end, np.nextafter(end, -1.0), np.nextafter(end, 2.0)]
    for theta in (float(t) for t in thetas if 0.0 <= t <= m):
        assert (_segment_bits(government._feasible_interval(s0 + s1 * theta, s2, 0.0, m - theta))
                == _segment_bits(government._feasible_interval(c0 + c1 * theta, c2, 0.0, m - theta)))
    everything = dataclasses.replace(g)
    everything.__dict__["solvency"] = np.arange(len(g.rows))
    assert _segment_bits(g.theta_range) == _segment_bits(everything.theta_range)


@pytest.mark.parametrize("fixture", ["us", "cn", "us_bb"])
def test_solvency_rows_are_sound(fixture, request):
    g = government._grid(request.getfixturevalue(fixture), STEP)
    assert 0 < g.solvency.size < len(g.rows)
    _assert_solvency_is_sound(g)


def test_solvency_rows_are_sound_on_cut_grids(us):
    g = government._grid(us, STEP)
    for cut in (_with_retiree_rows(g, SLIVER), _cut_in_k(g)):
        _assert_solvency_is_sound(cut)


def test_solvency_rows_are_sound_on_perturbed_scenarios(us, cn):
    checked = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for s in _perturbed_scenarios(us, cn, 22, seed=6):
            checked += 1
            _assert_solvency_is_sound(government._grid(s, 0.25))
    assert checked >= 20


def test_theta_range_equals_the_search_on_perturbed_scenarios(us, cn):
    checked = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for step, n, seed in ((0.25, 22, 6), (STEP, 16, 8)):
            for s in _perturbed_scenarios(us, cn, n, seed):
                checked += 1
                g = government._grid(s, step)
                assert _segment_bits(g.theta_range) == _segment_bits(theta_range_by_search(g))
    assert checked >= 34


def _triangle_points(g, rng, n):
    """(theta, [k, ...]) for theta = 0, m, the theta-range ends and n seeded
    thetas of [0, m]: k = 0, k = m - theta as the k-segment forms it, and
    five seeded k between."""
    m = g.m
    for theta in [0.0, m, *(g.theta_range or ()), *rng.uniform(0.0, m, size=n)]:
        yield theta, [0.0, m - theta, *rng.uniform(0.0, m - theta, size=5)]


def _scored_points(s, step):
    """(theta, [k, ...]) of every point that optimize_mix's k-searches
    score on s, under both weightings."""
    points, section = [], government._k_section

    def recording(g, theta, mode):
        seg, phi = section(g, theta, mode)
        ks = []
        points.append((theta, ks))
        return seg, lambda k: ks.append(k) or phi(k)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(government, "_k_section", recording)
        for mode in government.WEIGHTINGS:
            government.optimize_mix(s, mode, step)
    return points


def _assert_unbound_rows_are_positive(g, points):
    # each point lies in the rate triangle, and there every live row outside
    # `solvency` has G > 0 in the scorer's arithmetic c2 k + (c0 + c1 theta),
    # so the scorer's test of the binding slots alone is exact
    m = g.m
    unbound = g.live.copy()
    unbound[g.solvency] = False
    c0, c1, c2 = g.rows[unbound].T
    for theta, ks in points:
        ks = np.asarray(ks)
        assert 0.0 <= theta <= m and (0.0 <= ks).all() and (ks <= m - theta).all()
        assert (np.multiply.outer(ks, c2) + (c0 + c1 * theta) > 0.0).all()


@pytest.mark.parametrize("fixture", ["us", "cn", "us_bb"])
def test_rows_outside_solvency_are_positive_where_k_is_scored(fixture, request):
    s = request.getfixturevalue(fixture)
    g = government._grid(s, STEP)
    _assert_unbound_rows_are_positive(g, _triangle_points(g, np.random.default_rng(53), 200))
    scored = _scored_points(s, STEP)
    assert sum(len(ks) for _, ks in scored) > 2000
    _assert_unbound_rows_are_positive(g, scored)


def test_rows_outside_solvency_are_positive_on_perturbed_scenarios(us, cn):
    checked = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for step, n, seed in ((0.25, 22, 6), (STEP, 16, 8)):
            rng = np.random.default_rng(seed)
            for s in _perturbed_scenarios(us, cn, n, seed):
                checked += 1
                g = government._grid(s, step)
                _assert_unbound_rows_are_positive(g, _triangle_points(g, rng, 50))
                _assert_unbound_rows_are_positive(g, _scored_points(s, step))
    assert checked >= 34


@pytest.mark.parametrize("mode", government.WEIGHTINGS)
def test_welfare_queries_read_the_rows_of_a_replaced_grid(us, monkeypatch, mode):
    # a grid rebuilt with dataclasses.replace derives its own columns: the
    # k-section and the objective see its rewritten rows, not the cached
    # columns of the fixture grid; each bad k is insolvent on a rewritten
    # row of the k-dependent tail only
    g = government._grid(us, STEP)
    g.columns
    for cut, theta, bad, good in ((_cut_in_k(g), 0.1, 0.04, 0.1),
                                  (_with_retiree_rows(g, SLIVER), 0.1035, 0.12, 0.121)):
        live, solvency, bind, vol = cut.columns
        assert np.array_equal(live, cut.rows[cut.live].T)
        assert np.array_equal(vol, cut.vol_rows[cut.live].T)
        assert np.array_equal(solvency, cut.rows[cut.solvency].T)
        assert np.array_equal(np.flatnonzero(cut.live)[bind],
                              cut.solvency[cut.live[cut.solvency]])
        assert math.isfinite(government._k_section(g, theta, mode)[1](bad))
        assert government._k_section(cut, theta, mode)[1](bad) == -math.inf
        val = government._k_section(cut, theta, mode)[1](good)
        assert _same_bits(val, government._phi(cut, theta, good, mode))
        assert val != government._phi(g, theta, good, mode)
        with monkeypatch.context() as mp:
            mp.setattr(government, "_grid", lambda s, step, cut=cut: cut)
            assert _same_bits(government.objective(theta, good, us, mode, step=STEP), val)
            with pytest.raises(InsolventCohort, match="cohort z = "):
                government.objective(theta, bad, us, mode, step=STEP)


@pytest.mark.parametrize("fixture", ["us", "cn", "us_bb"])
@pytest.mark.parametrize("mode", government.WEIGHTINGS)
def test_voluntary_phi_equals_welfare_of_all_rows(fixture, mode, request):
    # the live d0, d1 gathered once give the bits of the whole-table sum
    s = request.getfixturevalue(fixture)
    g = government._grid(s, STEP)
    d0, d1 = g.vol_rows.T
    phi = government._voluntary_phi(g, mode)
    bounds = government.voluntary_theta_bounds(s, step=STEP)
    thetas = np.random.default_rng(37).uniform(0.0, s.policy.m, size=20)
    for theta in [bounds.lower, bounds.upper, *thetas]:
        assert _same_bits(phi(theta), _welfare_or_neg_inf(g, (d0 + d1 * theta)[g.live], mode))


def test_objective_names_the_first_insolvent_row(cn):
    # CN's retirees are insolvent below theta_range at every k
    g = government._grid(cn, STEP)
    theta = g.theta_range[0] - 1e-3
    c0, c1, _ = g.rows.T
    G = c0 + c1 * theta
    first = np.flatnonzero(g.live & (G <= 0.0))[0]
    with pytest.raises(InsolventCohort, match=f"cohort z = {g.z[first]:.3f} has"):
        government.objective(theta, 0.0, cn, step=STEP)


def _edge_case(s0, rho, tau1, tau2):
    return with_params(s0, **{"demo.rho": rho, "policy.tau1": tau1,
                              "policy.tau2": tau2})


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("mode", government.WEIGHTINGS)
def test_optimum_on_the_k_zero_edge_is_exact(cn, mode):
    # the golden sections used to stop at k* ~ 4e-8, below phi(theta*, 0);
    # the nested search's theta* is as good up to its own 1e-7 bracket
    s = _edge_case(cn, -0.0037, 0.189, 0.454)
    mix = government.optimize_mix(s, mode, step=0.25)
    assert mix.k_star == 0.0 and 0.0 < mix.theta_star < s.policy.m
    old = optimize_mix_no_edge_search(s, mode, 0.25)
    edge = government.objective(old.theta_star, 0.0, s, mode, step=0.25)
    assert mix.objective > old.objective
    assert mix.objective >= edge - 1e-13 * abs(edge)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("mode", government.WEIGHTINGS)
def test_optimum_at_the_cap_corner_is_exact(us, mode):
    # theta* used to come back as m - 4e-8 with k* ~ 4e-8
    s = _edge_case(us, -0.0029, 0.203, 0.453)
    m = s.policy.m
    mix = government.optimize_mix(s, mode, step=0.25)
    assert (mix.theta_star, mix.k_star) == (m, 0.0) and mix.cap_binding
    assert mix.objective >= government.objective(m, 0.0, s, mode, step=0.25)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("mode", government.WEIGHTINGS)
def test_voluntary_optimum_on_the_upper_bound_is_exact(us, mode):
    # theta* used to come back as upper - 4e-8, below phi(upper)
    s = _edge_case(us, -0.0029, 0.203, 0.453)
    bounds = government.voluntary_theta_bounds(s, step=0.25)
    vol = government.optimize_voluntary(s, mode, step=0.25)
    assert vol.theta_star == bounds.upper
    assert vol.objective >= government.voluntary_objective(bounds.upper, s, mode, step=0.25)


def test_optimizer_buffer_memory(us):
    # one warm optimize_mix allocates a few arrays of grid-row length at a
    # time: each objective evaluation's G, its live rows and their terms
    government.optimize_mix(us)
    row_bytes = len(government._grid(us, government.Z_STEP).rows) * 8
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        government.optimize_mix(us)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * row_bytes


# theta in [0.103, 0.104], k in [0.1205, 0.1215]: a sliver between the points
# of any 0.01-spaced grid
SLIVER = [(-0.103, 1.0, 0.0), (0.104, -1.0, 0.0), (-0.1205, 0.0, 1.0),
          (0.1215, 0.0, -1.0)]


def _with_retiree_rows(g, extra):
    """g with its first live retiree rows rewritten to the extra rows
    c0 + c1 theta + c2 k >= 0."""
    rows = g.rows.copy()
    rows[np.flatnonzero(g.live & (rows[:, 2] == 0.0))[:len(extra)]] = extra
    return dataclasses.replace(g, rows=rows)


@pytest.mark.parametrize("extra, point", [
    # theta >= m = 0.25: only the corner (m, 0) is left, where the new row's
    # resource is 0
    ([(-0.25, 1.0, 0.0)], (0.25, 0.0)),
    # theta >= (1 + 1e-12) m: nothing is
    ([(-0.25 * (1.0 + 1e-12), 1.0, 0.0)], None),
    (SLIVER, (0.1035, 0.121)),
], ids=["corner", "past-the-cap", "sliver"])
def test_admissible_region_is_empty_exactly_when_no_theta_is(us, monkeypatch,
                                                              extra, point):
    # the first live retiree rows of the US grid rewritten to the extra rows
    m = us.policy.m
    cut = _with_retiree_rows(government._grid(us, STEP), extra)
    monkeypatch.setattr(government, "_grid", lambda s, step: cut)
    if point is None:
        assert cut.theta_range is None
        for call in (government.admissible_region, government.optimize_mix):
            with pytest.raises(EmptyRegion, match="keeps every cohort solvent"):
                call(us, step=STEP)
        return
    region = government.admissible_region(us, step=STEP)
    assert region.contains(*point, tol=0.0)
    lo, hi = cut.theta_range
    assert lo <= point[0] <= hi
    if point == (m, 0.0):
        assert (lo, hi) == (m, m)
        assert not region.contains(m - m / 25, 0.0, tol=0.0)
        with pytest.raises(EmptyRegion, match="resource G = 0"):
            government.optimize_mix(us, step=STEP)
    else:
        assert (lo, hi) == pytest.approx((0.103, 0.104), abs=1e-15)
        mix = government.optimize_mix(us, step=STEP)
        assert region.contains(mix.theta_star, mix.k_star, tol=0.0)
        assert mix == optimize_mix_nested_phi(us, "population", STEP)


def test_region_contains_agrees_with_phi_on_an_entrant_row_cut_in_k(us, monkeypatch):
    # the settled entrant tail row rewritten to G = 0.1 - k: a point of the
    # region is one where every live row, the entrants' included, is solvent
    rows = government._grid(us, STEP).rows.copy()
    rows[-1] = (0.1, 0.0, -1.0)
    cut = dataclasses.replace(government._grid(us, STEP), rows=rows)
    monkeypatch.setattr(government, "_grid", lambda s, step: cut)
    region = government.admissible_region(us, step=STEP)
    m = us.policy.m
    rng = np.random.default_rng(47)
    inside = 0
    for theta, k in rng.uniform(0.0, m, size=(200, 2)):
        if theta + k > m:
            theta, k = m - theta, m - k
        finite = math.isfinite(government._phi(cut, theta, k, "population"))
        assert region.contains(theta, k, tol=0.0) == finite
        inside += finite
    assert 50 < inside < 150


@pytest.mark.filterwarnings("ignore:tau1")
@pytest.mark.parametrize("fixture, rhos", [
    ("us", (-0.01, -0.005, 0.0, 0.005)),
    ("cn", (-0.01, -0.006, -0.004, -0.002)),   # CN diverges from rho = -0.0003
    ("us_bb", (-0.01, -0.005, 0.0, 0.005))], ids=["us", "cn", "us_bb"])
def test_a1_a2_agree_with_node_signs(fixture, rhos, request):
    # every cohort node of the grid more than 0.06 years from an interval
    # end lies in the set that its sign of M1 - M2^+ implies: A1 positive,
    # A2 negative.  tau2 = 0.6 and 0.7 give Mt2(a) < 0.
    base = request.getfixturevalue(fixture)
    for tau2 in (0.0, 0.47, 0.6, 0.7):
        for rho in rhos:
            s = with_params(base, **{"policy.tau2": tau2, "demo.rho": rho})
            a1, a2 = government._a1_a2_intervals(s)
            g = government._grid(s, STEP)
            ages = s.demo.a + s.policy.t0 - g.z
            positive = g.vol_rows[:g.z.size, 1] > 0.0   # M1 - M2^+ > 0
            ends = np.array([end for interval in a1 + a2 for end in interval])
            clear = np.abs(ages[:, None] - ends).min(axis=1) > 0.06
            covered = np.zeros(ages.size, dtype=bool)
            for intervals, sign in ((a1, True), (a2, False)):
                for lo, hi in intervals:
                    inside = clear & (lo < ages) & (ages < hi)
                    wrong = np.count_nonzero(positive[inside] != sign)
                    assert wrong == 0, (tau2, rho, lo, hi, wrong)
                    covered |= inside
            assert np.array_equal(covered, clear), (tau2, rho)


@pytest.mark.parametrize("extra, match", [
    # a retiree row G = -0.1 fails at every theta, whatever k the cohorts pick
    ([(-0.1, 0.0, 0.0)], "theta-independent cohort constraint is violated"),
    # theta >= 0.3, above the cap m = 0.25
    ([(-0.3, 1.0, 0.0)], "voluntary admissible theta interval is empty"),
], ids=["theta-free-row", "lower-above-upper"])
def test_voluntary_theta_bounds_of_an_empty_region(us, monkeypatch, extra, match):
    cut = _with_retiree_rows(government._grid(us, STEP), extra)
    monkeypatch.setattr(government, "_grid", lambda s, step: cut)
    for call in (government.voluntary_theta_bounds, government.optimize_voluntary):
        with pytest.raises(EmptyRegion, match=match):
            call(us, step=STEP)


def test_voluntary_objective_at_a_binding_bound_is_insolvent(us, monkeypatch):
    # a retiree row G = theta - 0.1 sets the lower bound 0.1, where its
    # resource is 0 exactly
    cut = _with_retiree_rows(government._grid(us, STEP), [(-0.1, 1.0, 0.0)])
    monkeypatch.setattr(government, "_grid", lambda s, step: cut)
    assert government.voluntary_theta_bounds(us, step=STEP).lower == 0.1
    assert math.isfinite(government.voluntary_objective(0.1 + 1e-9, us, step=STEP))
    with pytest.raises(InsolventCohort, match="insolvent cohort at theta = 0.1"):
        government.voluntary_objective(0.1, us, step=STEP)


def test_objective_per_cohort_insolvent_rates(cn):
    # CN's retirees are insolvent below theta_range whatever k each cohort runs
    theta = government._grid(cn, STEP).theta_range[0] - 1e-3
    with pytest.raises(InsolventCohort, match="nonpositive resource under per-cohort"):
        government.objective_per_cohort(theta, lambda z: 0.0, cn, step=STEP)
    assert math.isfinite(government.objective_per_cohort(theta + 2e-3, lambda z: 0.0, cn,
                                                         step=STEP))
