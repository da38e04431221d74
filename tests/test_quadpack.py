import dataclasses
import math
import random
import warnings

import pytest

from penmix import _quadpack, demography

#: the head of scipy.integrate.quad's message for each QUADPACK ier
SCIPY_MESSAGES = {1: "The maximum number of subdivisions",
                  2: "The occurrence of roundoff error",
                  3: "Extremely bad integrand behavior",
                  4: "The algorithm does not converge",
                  5: "The integral is probably divergent"}


def _perturbed(fixtures, count, seed):
    """The fixtures' (demography, r), then count seeded perturbations of
    them; every 50th has B = 0 (no Makeham term)."""
    rng = random.Random(seed)
    base = [(s.demo, s.market.r) for s in fixtures]
    out = list(base)
    for i in range(count):
        d, r = rng.choice(base)
        out.append((dataclasses.replace(
            d, A=d.A * rng.uniform(0.0, 5.0),
            B=0.0 if i % 50 == 0 else d.B * rng.uniform(0.2, 5.0),
            c=1.0 + (d.c - 1.0) * rng.uniform(0.5, 1.5),
            rho=d.rho + rng.uniform(-0.05, 0.05),
            tau=d.tau + rng.uniform(-10.0, 5.0),
            omega=d.omega + rng.uniform(-5.0, 20.0)), r * rng.uniform(0.2, 3.0)))
    return out


def _scipy_qags(f, a, b, epsabs, epsrel, limit):
    """(value, abserr, ier, last) from scipy.integrate.quad's full output."""
    from scipy.integrate import quad

    out = quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit, full_output=1)
    ier = 0 if len(out) == 3 else next(
        ier for ier, head in SCIPY_MESSAGES.items() if out[3].startswith(head))
    return out[0], out[1], ier, out[2]["last"]


def test_qags_matches_scipy_bits(us, cn, us_bb, monkeypatch):
    # the integrals validate makes (the masses over [a, tau] and [tau, omega],
    # the annuity range) plus [a, omega], on the fixtures and 2 000 seeded
    # perturbations: (value, abserr, ier, subintervals) are scipy's bits
    integrals = []

    def record(f, a, b, epsabs, epsrel, limit):
        integrals.append((f, a, b, epsabs, epsrel, limit))
        return 0.0, 0.0

    monkeypatch.setattr(demography, "quad", record)
    for demo, r in _perturbed((us, cn, us_bb), 2000, seed=25):
        for lo, hi in ((demo.a, demo.tau), (demo.tau, demo.omega), (demo.a, demo.omega)):
            demography.lambda_segment(lo, hi, demo)
        demography.annuity_factor(demo, r)
    assert len(integrals) == 4 * 2003

    dqelg = _quadpack._dqelg
    extrapolations = []
    monkeypatch.setattr(_quadpack, "_dqelg",
                        lambda *args: extrapolations.append(1) or dqelg(*args))
    lasts = set()
    for args in integrals:
        got = _quadpack.qagse(*args)
        assert got == _scipy_qags(*args), args[1:]
        lasts.add(got[3])
    assert extrapolations, "no integral reached the epsilon algorithm"
    assert max(lasts) > 3

    # a kinked integrand that one subinterval cannot resolve: ier = 1
    def kink(x):
        return abs(x - 1.0 / 3.0)

    for limit in (1, 2, 5):
        got = _quadpack.qagse(kink, 0.0, 1.0, 1e-14, 1e-14, limit)
        assert got[2] == 1 and got[3] == limit
        assert got == _scipy_qags(kink, 0.0, 1.0, 1e-14, 1e-14, limit)


#: endpoint singularities, divergent integrals (x^-1.1, 1/x), a jump, a
#: sign change with an odd singularity, and oscillation
HARD_INTEGRANDS = (
    lambda x: x ** -0.5 if x > 0 else 0.0,
    lambda x: math.log(x) if x > 0 else 0.0,
    lambda x: x ** -0.99 if x > 0 else 0.0,
    lambda x: x ** -1.1 if x > 0 else 0.0,
    lambda x: 1.0 / x if x > 0 else 0.0,
    lambda x: math.sin(1.0 / x) if x > 0 else 0.0,
    lambda x: 1.0 if x > 0.37 else 0.0,
    lambda x: math.copysign(abs(x) ** -0.999, x) if x else 0.0,
    lambda x: math.cos(100.0 * x),
)


def test_qags_matches_scipy_bits_on_hard_integrands():
    # long subinterval lists, the extrapolation table, and every failure
    # but ier = 3
    iers = set()
    for f in HARD_INTEGRANDS:
        for epsabs, epsrel in ((1e-10, 1e-12), (0.0, 1e-10), (1.49e-8, 1.49e-8), (0.0, 1e-13)):
            for limit in (7, 50, 200):
                for a, b in ((0.0, 1.0), (-1.0, 2.0)):
                    got = _quadpack.qagse(f, a, b, epsabs, epsrel, limit)
                    assert got == _scipy_qags(f, a, b, epsabs, epsrel, limit)
                    iers.add(got[2])
    assert iers == {0, 1, 2, 4, 5}


def test_quad_warns_and_returns_the_value_on_failure():
    def kink(x):
        return abs(x - 1.0 / 3.0)

    with pytest.warns(UserWarning, match=r"ier=1"):
        value, abserr = demography.quad(kink, 0.0, 1.0, 1e-14, 1e-14, 1)
    assert (value, abserr) == _quadpack.qagse(kink, 0.0, 1.0, 1e-14, 1e-14, 1)[:2]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, _ = demography.quad(math.exp, 0.0, 1.0, 1e-10, 1e-12, 200)
    assert value == pytest.approx(math.e - 1.0, rel=1e-15)


@pytest.mark.parametrize("limit, epsabs, epsrel", [(0, 1e-10, 1e-12), (200, 0.0, 1e-15)])
def test_qagse_rejects_invalid_input(limit, epsabs, epsrel):
    with pytest.raises(ValueError):
        _quadpack.qagse(math.exp, 0.0, 1.0, epsabs, epsrel, limit)
