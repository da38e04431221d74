"""The paper's two effects of a falling entrant rate rho, as properties.

A falling rho lowers the support ratio Lambda, which makes PAYGO less
attractive: Mt1 falls at every working age and the critical ages rise.  It
also raises the weight of the older cohorts, who prefer PAYGO, in the
population-weighted welfare.  Under a constant entrant flow each follows from
the closed forms (the weight shift when every delta is negative, so that
every weight has one sign), so any failure is a defect.  Each property is
checked on the two constant-flow fixtures and on perturbed draws of them, as
rho moves up by H.
"""
import warnings

import numpy as np
import pytest

from penmix import PenmixError, government, preference, validate, with_params

H = 1e-3
#: grid step of the weight shares: the shares need no fine grid
STEP = 0.5


def _pairs(us, cn, n, seed):
    """n perturbed US/CN scenarios, alternating, each with its copy at
    rho + H; draws that either copy fails to validate are skipped."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        s0 = (us, cn)[i % 2]
        params = {"demo.rho": s0.demo.rho + rng.uniform(-0.004, 0.004),
                  "demo.A": s0.demo.A * rng.uniform(0.5, 1.5),
                  "demo.B": s0.demo.B * rng.uniform(0.5, 1.5),
                  "market.gamma": s0.market.gamma * rng.uniform(0.8, 1.2),
                  "policy.tau1": rng.uniform(0.1, 0.3),
                  "policy.tau2": rng.uniform(0.0, 0.45),
                  "preference.lambda": rng.uniform(1.0, 2.0),
                  "preference.delta0": rng.uniform(-4.0, -1.5),
                  "preference.delta1": rng.uniform(-4.0, -1.5),
                  "preference.delta2": rng.uniform(-4.0, -1.5)}
        try:
            s = with_params(s0, **params)
            up = with_params(s, **{"demo.rho": s.demo.rho + H})
            validate(s), validate(up)
        except PenmixError:
            continue
        yield s, up


def _older_shares(s, ages):
    """Share of the population weights of the cohorts older than each age
    at t0, out of every weight of the welfare, future entrants included."""
    g = government._grid(s, STEP)
    w = g.weights["population"]
    cohort_age = (s.demo.a + s.policy.t0 - g.z)[g.live[:g.z.size]]
    return np.array([w[:cohort_age.size][cohort_age > age].sum() / w.sum()
                     for age in ages])


def _assert_two_effects(s, up):
    d = s.demo
    # first effect: Lambda, hence Mt1 at every working age, rises with rho
    assert validate(up).Lambda > validate(s).Lambda
    for age in np.linspace(d.a, d.tau, 36)[:-1].tolist():
        assert preference.tilde_coefficients(age, up)[0] > preference.tilde_coefficients(age, s)[0]
    # ... so fewer ages prefer PAYGO: the critical ages fall
    for critical_age in (preference.critical_age_paygo_savings,
                         preference.critical_age_paygo_eet):
        low, high = critical_age(s), critical_age(up)
        if high is not None:
            assert low is not None and high < low
    # second effect: the older cohorts' share of the weights falls
    ages = (d.a + 10.0, d.tau, 0.5 * (d.tau + d.omega))
    assert (_older_shares(up, ages) < _older_shares(s, ages)).all()


@pytest.mark.parametrize("fixture", ["us", "cn"])
def test_two_effects_on_the_fixtures(fixture, request):
    s = request.getfixturevalue(fixture)
    _assert_two_effects(s, with_params(s, **{"demo.rho": s.demo.rho + H}))


def test_two_effects_on_perturbed_scenarios(us, cn):
    checked = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for s, up in _pairs(us, cn, 80, seed=13):
            _assert_two_effects(s, up)
            checked += 1
    assert checked >= 50
