import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from penmix import (DomainError, demography, government, lifecycle, preference, validate,
                    with_params)

from _oracles import scan_root_by_bisection
from test_demography import _bb_blocks


def _scan_root(f, df, lo, hi):
    """(first root or None, crossing count) of one elementwise f with the
    slope df: its bracket grid and Newton polish through
    `preference._first_roots`."""
    xs = np.append(np.arange(lo, hi, preference.BB_SCAN_STEP), hi)
    vals = (np.asarray(f(xs), dtype=float),)
    return preference._first_roots(lambda ages: ((f(ages),), (df(ages),)), xs, vals, [True])[0]


#: how far a polished root may lie from the bisection oracle's (years): the
#: oracle bisects to 1e-13, and both stop within the round-off of the
#: column's values over its slope (about 2e-12 for Mt2 at an interior
#: zeta_bar)
ROOT_ATOL = 1e-11


def _assert_same_root(got, oracle, name=""):
    """The same crossing count, and both roots None or within ROOT_ATOL."""
    (root, crossings), (expect, expect_crossings) = got, oracle
    assert crossings == expect_crossings, name
    assert (root is None) == (expect is None), name
    if root is not None:
        assert abs(root - expect) <= ROOT_ATOL, (name, root, expect)


def test_tilde_matches_lifecycle_coefficients(us):
    t0 = us.policy.t0
    for zeta in (30.0, 37.5, 44.0, 55.0, 64.9, 65.0, 80.0, 99.0):
        mt1, mt2, diff = preference.tilde_coefficients(zeta, us)
        c = lifecycle.coefficients(t0, us.demo.a + t0 - zeta, us)
        assert mt1 == pytest.approx(c.M1, abs=1e-12)
        assert mt2 == pytest.approx(c.M2, abs=1e-12)
        assert diff == pytest.approx(c.M1 - c.M2, abs=1e-12)


@pytest.mark.filterwarnings("ignore:tau1")
@pytest.mark.parametrize("tau2", [None, 0.47])
def test_babyboom_tilde_columns_are_the_coefficients(us_bb, tau2):
    # under a baby boom Mt2 is the kernel's M2 bit for bit and Mt1 the
    # table's M1, at working and retired ages; the slopes are their
    # zeta-derivatives (central differences, h = 1e-4)
    s = us_bb if tau2 is None else _with_tau2(us_bb, tau2)
    d, t0, dc = s.demo, s.policy.t0, validate(s)
    zeta = np.concatenate([np.linspace(d.a, d.omega, 71), [d.tau - 1e-9, d.tau]])
    mt1, mt2, diff = preference._tilde_arrays(zeta, s)
    m2 = lifecycle._coef_kernel(np.maximum(d.tau - zeta, 0.0), d.omega - zeta, s,
                                dc.epsilon, dc.epsilon_tilde, dc.Lambda, dc.a_tau)[1]
    np.testing.assert_array_equal(mt2, m2)
    np.testing.assert_array_equal(mt1, lifecycle._bb_m1(t0, d.a + t0 - zeta, s, dc.epsilon))
    np.testing.assert_array_equal(diff, mt1 - mt2)
    working = np.linspace(d.a + 1e-3, d.tau - 1e-3, 23)
    h = 1e-4
    ahead, behind = (np.array(preference._tilde_arrays(working + e, s)) for e in (h, -h))
    np.testing.assert_allclose(np.array(preference._tilde_slopes(working, s)),
                               (ahead - behind) / (2 * h), rtol=1e-6, atol=1e-9)


def test_retired_ages_have_positive_paygo_coefficient(us):
    dc = validate(us)
    for zeta in (65.0, 75.0, 90.0):
        mt1, mt2, _ = preference.tilde_coefficients(zeta, us)
        expect = dc.Lambda / dc.epsilon * (
            math.exp(dc.epsilon * (us.demo.omega - zeta)) - 1.0)
        assert mt2 == 0.0
        assert mt1 == pytest.approx(expect, rel=1e-12)
        assert mt1 > 0.0


def test_tilde_vanishes_at_maximal_age(us):
    mt1, mt2, diff = preference.tilde_coefficients(us.demo.omega, us)
    assert mt1 == pytest.approx(0.0, abs=1e-14)
    assert mt2 == 0.0 and diff == pytest.approx(0.0, abs=1e-14)


def test_tilde_domain(us):
    with pytest.raises(DomainError):
        preference.tilde_coefficients(us.demo.a - 1.0, us)


def test_us_thresholds(us):
    lam_fp, lam_ep = preference.thresholds(us)
    assert lam_fp == pytest.approx(1.977, abs=2e-3)
    assert validate(us).Lambda <= lam_fp     # hence the critical age exists


def test_full_taxation_kills_savings_advantage(us):
    taxed = with_params(us, **{"policy.tau1": 0.999999})
    lam_fp, _ = preference.thresholds(taxed)
    assert lam_fp < 1e-4
    assert preference.critical_age_paygo_savings(taxed) is None


def test_us_critical_ages(us):
    assert preference.critical_age_paygo_savings(us) == pytest.approx(37.5596, abs=0.02)
    assert preference.critical_age_paygo_eet(us) == pytest.approx(48.3200, abs=0.02)


def test_cn_critical_ages(cn):
    assert preference.critical_age_paygo_savings(cn) == pytest.approx(37.3233, abs=0.02)
    assert preference.critical_age_paygo_eet(cn) == pytest.approx(44.6371, abs=0.02)


def test_critical_age_hits_entry_age_at_threshold(us):
    # tune rho so the support ratio sits on the existence threshold: the
    # critical age must then land on the entry age
    lam_fp, _ = preference.thresholds(us)   # market-only, rho-free
    lo, hi = -0.05, 0.05
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        s_mid = with_params(us, **{"demo.rho": mid})
        if demography.support_ratio(s_mid.demo) < lam_fp:
            lo = mid
        else:
            hi = mid
    s_at = with_params(us, **{"demo.rho": lo})
    zh = preference.critical_age_paygo_savings(s_at)
    assert zh == pytest.approx(us.demo.a, abs=1e-4)


def test_paygo_eet_critical_age_hits_entry_at_threshold(us):
    # support ratio tuned onto the PAYGO-vs-EET existence threshold
    _, lam_ep = preference.thresholds(us)
    lo, hi = -0.05, 0.0325
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        s_mid = with_params(us, **{"demo.rho": mid})
        if demography.support_ratio(s_mid.demo) < lam_ep:
            lo = mid
        else:
            hi = mid
    s_at = with_params(us, **{"demo.rho": lo})
    zt = preference.critical_age_paygo_eet(s_at)
    assert zt == pytest.approx(us.demo.a, abs=1e-3)


def test_eet_savings_flags_on_baselines(us, cn):
    for s in (us, cn):
        case = preference.critical_age_eet_savings(s)
        assert case.flag == "all_prefer_eet"
        assert case.zeta_bar is None
        assert case.m2_at_entry > 0.0 and case.dm2_at_retirement <= 0.0


def test_eet_savings_flip_by_retirement_tax_scan(us):
    # raising tau2 must eventually flip the entry-age EET coefficient
    # negative; the oracle is the closed form of Mt2(a) evaluated directly
    dc = validate(us)
    d, mk = us.demo, us.market
    eps, epst, r, a_tau = dc.epsilon, dc.epsilon_tilde, mk.r, dc.a_tau

    def m2a_direct(tau2):
        ann = (1 - tau2) * (1 - math.exp(-r * (d.omega - d.tau))) / (r * a_tau)
        eq = math.exp(eps * (d.tau - d.a))
        eqt = math.exp(epst * (d.tau - d.a))
        return ann / (eps - epst) * (eq - eqt) - 0.75 / eps * (eq - 1.0)

    flipped = None
    for tau2 in np.arange(0.0, 1.0, 0.02):
        if m2a_direct(tau2) < 0.0:
            flipped = float(tau2)
            break
    assert flipped is not None
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # tau2 > tau1 is flagged but legal
        harsh = with_params(us, **{"policy.tau2": flipped})
        case = preference.critical_age_eet_savings(harsh)
    assert case.flag == "all_prefer_savings"
    assert case.m2_at_entry < 0.0


def test_interior_eet_savings_root_detected(us):
    # between the all-EET and all-savings regimes the root case must appear,
    # with Mt2 crossing + -> - at the reported age
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        found = None
        for tau2 in np.arange(0.0, 1.0, 0.01):
            s2 = with_params(us, **{"policy.tau2": float(tau2)})
            case = preference.critical_age_eet_savings(s2)
            if case.flag == "interior":
                found = (s2, case)
                break
    assert found is not None
    s2, case = found
    assert us.demo.a <= case.zeta_bar < us.demo.tau
    before = preference.tilde_coefficients(case.zeta_bar - 0.1, s2)[1]
    after = preference.tilde_coefficients(case.zeta_bar + 0.1, s2)[1]
    assert before > 0.0 > after
    assert abs(preference.tilde_coefficients(case.zeta_bar, s2)[1]) < 1e-6


def test_interior_eet_savings_root_matches_whole_range_bisection(us):
    # 64.51305897866018 is Mt2's root by 32 halvings of [a, tau - 1e-9] at the
    # first interior tau2 of the scan above
    s2 = with_params(us, **{"policy.tau2": 0.47000000000000003})
    case = preference.critical_age_eet_savings(s2)
    assert case.flag == "interior"
    assert case.zeta_bar == pytest.approx(64.51305897866018, abs=1e-8)


def test_classify_us_examples(us):
    assert preference.classify(40.0, us).ordering == "E>P>I"
    assert preference.classify(50.0, us).ordering == "P>E>I"
    assert preference.classify(70.0, us).ordering == "P>E~I"
    assert preference.classify(40.0, us).case_label == "case_4"


@settings(max_examples=30, deadline=None)
@given(zeta=st.floats(30.0, 100.0))
def test_classify_consistent_with_signs(us, zeta):
    cl = preference.classify(zeta, us)
    order = cl.ordering
    if cl.mt1 > preference.TIE_TOL:
        assert order.index("P") < order.index("I")
    if cl.mt1 < -preference.TIE_TOL:
        assert order.index("I") < order.index("P")
    if cl.mt2 > preference.TIE_TOL:
        assert order.index("E") < order.index("I")


def test_sign_pattern_around_critical_ages(us):
    zh = preference.critical_age_paygo_savings(us)
    zt = preference.critical_age_paygo_eet(us)
    assert preference.tilde_coefficients(zh, us)[0] == pytest.approx(0.0, abs=1e-8)
    assert preference.tilde_coefficients(zh - 0.5, us)[0] < 0.0
    assert preference.tilde_coefficients(zh + 0.5, us)[0] > 0.0
    assert preference.tilde_coefficients(zt, us)[2] == pytest.approx(0.0, abs=1e-8)
    assert preference.tilde_coefficients(zt - 0.5, us)[2] < 0.0
    assert preference.tilde_coefficients(zt + 0.5, us)[2] > 0.0


def test_preference_map_us(us):
    report = preference.preference_map(us, step=1.0)
    assert report.case_label == "case_4"
    assert report.zeta_hat == pytest.approx(37.5596, abs=0.02)
    assert report.zeta_tilde == pytest.approx(48.3200, abs=0.02)
    assert report.zeta_bar is None
    ages = [row[0] for row in report.orderings]
    assert ages[0] == us.demo.a and ages[-1] == us.demo.omega
    by_age = {row[0]: row[4] for row in report.orderings}
    assert by_age[31.0] == "E>I>P"
    assert by_age[40.0] == "E>P>I"
    assert by_age[50.0] == "P>E>I"
    assert by_age[80.0] == "P>E~I"


@pytest.mark.parametrize("fixture", ["us", "cn", "us_bb"])
def test_preference_map_rows_are_tilde_coefficients(fixture, request):
    s = request.getfixturevalue(fixture)
    for step in (1.0, 0.9):
        for zeta, mt1, mt2, diff, _ in preference.preference_map(s, step=step).orderings:
            assert (mt1, mt2, diff) == preference.tilde_coefficients(zeta, s)


def test_preference_map_age_grid(us):
    d = us.demo
    for step in (1.0, 5.0, 0.25):   # steps dividing omega - a: the grid is unchanged
        ages = [row[0] for row in preference.preference_map(us, step=step).orderings]
        assert ages == np.arange(d.a, d.omega + step / 2, step).tolist()
    ages = [row[0] for row in preference.preference_map(us, step=0.9).orderings]
    assert ages == [d.a + 0.9 * i for i in range(len(ages))]
    assert d.omega - 0.9 < ages[-1] <= d.omega


def test_critical_ages_decrease_with_salary_growth(us):
    # faster salary growth favors the pay-as-you-go return at every age
    gammas = [0.016, 0.02, 0.024, 0.028]
    zhs, zts = [], []
    for g in gammas:
        s2 = with_params(us, **{"market.gamma": g})
        zhs.append(preference.critical_age_paygo_savings(s2))
        zts.append(preference.critical_age_paygo_eet(s2))
    assert all(b <= a + 1e-9 for a, b in zip(zhs, zhs[1:]))
    assert all(b <= a + 1e-9 for a, b in zip(zts, zts[1:]))


def test_babyboom_numeric_critical_ages(us_bb):
    report = preference.preference_map(us_bb, step=5.0)
    assert report.zeta_hat == pytest.approx(36.9301, abs=0.05)
    assert report.zeta_tilde == pytest.approx(46.6149, abs=0.05)
    assert report.eet_flag == "all_prefer_eet"
    assert dict(report.diagnostics)["zeta_hat_crossings"] == 1


def _with_tau2(s, tau2):
    """s with the retirement tax rate tau2; 0.47 puts the US zeta_bar inside
    [a, tau) (tau1 <= tau2 is warned about but legal)."""
    return dataclasses.replace(s, policy=dataclasses.replace(s.policy, tau2=tau2))


@pytest.mark.filterwarnings("ignore:tau1")
@pytest.mark.parametrize("column", [0, 1, 2])
def test_babyboom_scan_grid_matches_scalar_scan(us_bb, column):
    # Mt2 changes sign on [a, tau) only at an interior zeta_bar
    s = _with_tau2(us_bb, 0.47) if column == 1 else us_bb
    d = s.demo
    lo, hi = d.a, d.tau - 1e-9

    def vectorised(zeta):
        return preference._tilde_arrays(zeta, s)[column]

    def slope(zeta):
        return preference._tilde_slopes(zeta, s)[column]

    scalar = np.vectorize(
        lambda zeta: preference.tilde_coefficients(float(zeta), s)[column], otypes=[float])
    scalar_slope = np.vectorize(lambda zeta: float(slope(float(zeta))), otypes=[float])
    xs = np.append(np.arange(lo, hi, preference.BB_SCAN_STEP), hi)
    assert vectorised(xs).tolist() == scalar(xs).tolist()
    assert slope(xs).tolist() == scalar_slope(xs).tolist()
    root, crossings = _scan_root(vectorised, slope, lo, hi)
    assert (root, crossings) == _scan_root(scalar, scalar_slope, lo, hi)
    assert crossings == 1


def test_babyboom_critical_ages_are_python_floats(us_bb):
    report = preference.preference_map(us_bb, step=5.0)
    assert type(report.zeta_hat) is float and type(report.zeta_tilde) is float


def test_degenerate_babyboom_matches_constant_report(us):
    import dataclasses
    from penmix.scenario import BabyBoomParams
    d = us.demo
    bb = BabyBoomParams(t1=-30.0, t2=-30.0 + 1e-6,
                        n1=d.n0 * math.exp(d.rho * -30.0), nm=1e6,
                        kappa=0.05, rho1=d.rho, rho2=d.rho)
    degen = dataclasses.replace(us, demo=dataclasses.replace(d, babyboom=bb))
    base = preference.preference_map(us, step=10.0)
    red = preference.preference_map(degen, step=10.0)
    assert red.zeta_hat == pytest.approx(base.zeta_hat, abs=1e-4)
    assert red.zeta_tilde == pytest.approx(base.zeta_tilde, abs=1e-4)


def _bb_scenario(s, bb):
    # demo.rho is the settled rate, babyboom rho2
    return dataclasses.replace(s, demo=dataclasses.replace(s.demo, babyboom=bb,
                                                           rho=bb.rho2))


def _bb_cases(us_bb):
    """(name, scenario) for every `_bb_blocks` block, with the fixture's tau2
    and with an interior zeta_bar."""
    for name, bb in _bb_blocks(us_bb.demo):
        s = _bb_scenario(us_bb, bb)
        yield name, s
        yield f"{name}, tau2 = 0.47", _with_tau2(s, 0.47)


@pytest.mark.filterwarnings("ignore:tau1")
@pytest.mark.parametrize("column", [0, 1, 2])
def test_scan_matches_bisection_oracle_on_bb_blocks(us_bb, column):
    d = us_bb.demo
    for name, s in _bb_cases(us_bb):

        def f(zeta):
            return preference._tilde_arrays(zeta, s)[column]

        def df(zeta):
            return preference._tilde_slopes(zeta, s)[column]

        _assert_same_root(_scan_root(f, df, d.a, d.tau - 1e-9),
                          scan_root_by_bisection(f, d.a, d.tau - 1e-9), name)


@pytest.mark.filterwarnings("ignore:tau1")
def test_preference_map_matches_bisection_oracle_on_bb_blocks(us_bb):
    # one shared bracket grid and one joint Newton polish give each column's
    # own bisection root and crossing count
    d = us_bb.demo
    for name, s in _bb_cases(us_bb):
        report = preference.preference_map(s, step=5.0)
        (zh, zh_n), (zb, zb_n), (zt, zt_n) = (
            scan_root_by_bisection(lambda zeta: preference._tilde_arrays(zeta, s)[c],
                                   d.a, d.tau - 1e-9) for c in range(3))
        _assert_same_root((report.zeta_hat, zh_n), (zh, zh_n), name)
        _assert_same_root((report.zeta_tilde, zt_n), (zt, zt_n), name)
        _assert_same_root((report.zeta_bar, zb_n), (zb, zb_n), name)
        assert dict(report.diagnostics) == {"zeta_hat_crossings": zh_n,
                                            "zeta_tilde_crossings": zt_n}, name
        for zeta in (d.a, 40.0, 70.0):
            assert preference.classify(zeta, s).case_label == report.case_label, name


def _count_tilde_calls(monkeypatch):
    """Start with no cached analysis and record every `_tilde_arrays` call."""
    calls = []
    tilde = preference._tilde_arrays

    def counted(zeta, s):
        calls.append(zeta)
        return tilde(zeta, s)

    monkeypatch.setattr(preference, "_tilde_arrays", counted)
    preference._analyse.cache_clear()
    return calls


def test_one_bracket_grid_per_analysis(us_bb, monkeypatch):
    # one call on the shared bracket grid and the joint Newton rounds (three
    # on the fixture), plus one for the per-age rows of the map
    calls = _count_tilde_calls(monkeypatch)
    preference.preference_map(us_bb, step=5.0)
    assert len(calls) <= 7
    preference._analyse.cache_clear()
    calls.clear()
    government.voluntary_theta_bounds(us_bb)
    assert len(calls) <= 6


def test_one_analysis_per_scenario(us_bb, monkeypatch):
    # the map's rows are its own call; every other critical-age question,
    # here on an equal scenario built anew, reads the cached analysis
    calls = _count_tilde_calls(monkeypatch)
    preference.preference_map(us_bb, step=5.0)
    analysis = len(calls) - 1
    assert 1 <= analysis <= 6
    again = dataclasses.replace(us_bb, policy=dataclasses.replace(us_bb.policy))
    preference.critical_age_paygo_savings(again)
    preference.critical_age_paygo_eet(again)
    preference.critical_age_eet_savings(again)
    government.voluntary_theta_bounds(again)
    preference.preference_map(again, step=5.0)
    assert len(calls) == analysis + 2


def test_scan_two_sign_changes_gives_the_first_root():
    def f(x):
        return (x - 31.3) * (x - 47.9)

    root, crossings = _scan_root(f, lambda x: 2.0 * x - 79.2, 30.0, 65.0 - 1e-9)
    assert crossings == 2
    assert root == pytest.approx(31.3, abs=1e-11)
    _assert_same_root((root, crossings), scan_root_by_bisection(f, 30.0, 65.0 - 1e-9))


def test_scan_exact_zeros_on_the_grids():
    # a zero on the 0.25-year bracket grid is the root itself
    def one(x):
        return np.ones_like(x)

    assert _scan_root(lambda x: x - 40.0, one, 30.0, 65.0 - 1e-9) == (40.0, 1)
    assert scan_root_by_bisection(lambda x: x - 40.0, 30.0, 65.0 - 1e-9) == (40.0, 1)
    # so is one at a polish point (the secant start of a line); bisection
    # only closes in on it
    root, crossings = _scan_root(lambda x: x - 40.125, one, 30.0, 65.0 - 1e-9)
    assert (root, crossings) == (40.125, 1)
    _assert_same_root((root, crossings),
                      scan_root_by_bisection(lambda x: x - 40.125, 30.0, 65.0 - 1e-9))


@pytest.mark.parametrize("step", [0.0, -1.0, math.nan, math.inf])
def test_preference_map_step_must_be_positive_and_finite(us, step):
    with pytest.raises(DomainError, match="positive and finite"):
        preference.preference_map(us, step=step)


def _no_mortality_draws(s, count, seed):
    """s with A = B = 0 (no mortality) and tau1 = 0, then count seeded draws
    of it with gamma and xi scaled by U(0.8, 1.2)."""
    base = with_params(s, **{"demo.A": 0.0, "demo.B": 0.0, "policy.tau1": 0.0})
    rng = np.random.default_rng(seed)
    draws = [base]
    for _ in range(count):
        g, x = rng.uniform(0.8, 1.2, size=2)
        draws.append(with_params(base, **{"market.gamma": base.market.gamma * g,
                                          "market.xi": base.market.xi * x}))
    return draws


@pytest.mark.filterwarnings("ignore:tau1")
@pytest.mark.parametrize("name", ["us", "cn"])
def test_samuelson_aaron_limit(name, request):
    # without mortality and without the tax on contributions, PAYGO beats
    # individual savings (Lambda > Lambda_FP) exactly when population growth
    # rho exceeds -epsilon = r + xi nu - gamma, the Samuelson-Aaron condition
    # (Samuelson 1958, J. Political Economy 66(6); Aaron 1966, Canadian J.
    # of Economics and Political Science 32(3)) with the risk-adjusted rate
    # r + xi nu
    for s in _no_mortality_draws(request.getfixturevalue(name), 3, seed=16):
        eps = validate(s).epsilon
        lam_fp = preference.thresholds(s)[0]

        def gap(rho):
            return demography.support_ratio(dataclasses.replace(s.demo, rho=rho)) - lam_fp

        lo, hi = -eps - 1e-3, -eps + 1e-3
        assert gap(lo) < 0.0 < gap(hi)
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if gap(mid) < 0.0 else (lo, mid)
        assert abs(0.5 * (lo + hi) + eps) <= 1e-10
