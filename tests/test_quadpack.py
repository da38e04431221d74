import dataclasses
import importlib.util
import math
import random
import warnings
from pathlib import Path

import pytest

from penmix import _quadpack, demography, load_scenario

ROOT = Path(__file__).resolve().parents[1]

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


def _integrals(monkeypatch, pairs, whole_life=False):
    """The (f, a, b, epsabs, epsrel, limit) of each `quad` call behind the
    support ratio (the masses over [a, tau] and [tau, omega], plus [a, omega]
    when whole_life) and the annuity factor of each (demography, r)."""
    calls = []

    def record(f, a, b, epsabs, epsrel, limit):
        calls.append((f, a, b, epsabs, epsrel, limit))
        return 0.0, 0.0

    with monkeypatch.context() as m:
        m.setattr(demography, "quad", record)
        for demo, r in pairs:
            spans = [(demo.a, demo.tau), (demo.tau, demo.omega)]
            for lo, hi in spans + [(demo.a, demo.omega)] * whole_life:
                demography.lambda_segment(lo, hi, demo)
            demography.annuity_factor(demo, r)
    assert len(calls) == (3 + whole_life) * len(pairs)
    return calls


def _scipy_qags(f, a, b, epsabs, epsrel, limit):
    """(value, abserr, ier, last) from scipy.integrate.quad's full output."""
    from scipy.integrate import quad

    out = quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit, full_output=1)
    ier = 0 if len(out) == 3 else next(
        ier for ier, head in SCIPY_MESSAGES.items() if out[3].startswith(head))
    return out[0], out[1], ier, out[2]["last"]


def test_qag_matches_scipy_bits_on_fixture_integrals(us, cn, us_bb, monkeypatch):
    # validate's three integrals on each fixture, at the golden sweep's
    # corner rho - 0.005, and on the baby-boom table's two plateaus:
    # (value, abserr, ier, subintervals) are scipy's QAGS bits
    bb = us_bb.demo.babyboom
    pairs = [(s.demo, s.market.r) for s in (us, cn, us_bb)]
    pairs += [(dataclasses.replace(d, rho=d.rho - 0.005), r) for d, r in pairs]
    pairs += [(dataclasses.replace(us_bb.demo, babyboom=None, rho=rho), us_bb.market.r)
              for rho in (bb.rho1, bb.rho2)]
    for args in _integrals(monkeypatch, pairs):
        assert _quadpack.qag(*args) == _scipy_qags(*args), args[1:]


def test_qag_matches_scipy_bits_on_sweep_cold_reference_inputs(monkeypatch, tmp_path):
    # the perturbed US and CN scenarios of the benchmark's reference ops
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    sweep = workloads.SweepCold(ROOT, tmp_path, workloads.DEFAULT_SEED)
    sweep.prepare()
    scenarios = [load_scenario(path) for i in range(workloads.REFERENCE_OPS)
                 for _, path in sweep.make_input(i)]
    for args in _integrals(monkeypatch, [(s.demo, s.market.r) for s in scenarios]):
        assert _quadpack.qag(*args) == _scipy_qags(*args), args[1:]


def test_qag_is_within_one_ulp_of_scipy_on_perturbed_demographies(us, cn, us_bb, monkeypatch):
    # 2 000 seeded perturbations, some of them where QAGS extrapolates:
    # QAG's value is within 1 ulp of scipy's, it never needs more
    # subintervals, and it never fails
    integrals = _integrals(monkeypatch, _perturbed((us, cn, us_bb), 2000, seed=25),
                           whole_life=True)
    assert len(integrals) == 4 * 2003
    lasts = set()
    for args in integrals:
        value, _, ier, last = _quadpack.qag(*args)
        ref, _, _, ref_last = _scipy_qags(*args)
        assert abs(value - ref) <= math.ulp(ref), args[1:]
        assert ier == 0 and last <= ref_last, args[1:]
        lasts.add(last)
    assert max(lasts) > 3


def test_quad_warns_and_returns_the_value_on_failure():
    # a kinked integrand that few subintervals cannot resolve: ier = 1
    def kink(x):
        return abs(x - 1.0 / 3.0)

    for limit in (1, 2, 5):
        value, abserr, ier, last = _quadpack.qag(kink, 0.0, 1.0, 1e-14, 1e-14, limit)
        assert ier == 1 and last == limit
        with pytest.warns(UserWarning, match=r"ier=1"):
            assert demography.quad(kink, 0.0, 1.0, 1e-14, 1e-14, limit) == (value, abserr)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, _ = demography.quad(math.exp, 0.0, 1.0, 1e-10, 1e-12, 200)
    assert value == pytest.approx(math.e - 1.0, rel=1e-15)


@pytest.mark.parametrize("limit, epsabs, epsrel", [(0, 1e-10, 1e-12), (200, 0.0, 1e-15)])
def test_qag_rejects_invalid_input(limit, epsabs, epsrel):
    with pytest.raises(ValueError):
        _quadpack.qag(math.exp, 0.0, 1.0, epsabs, epsrel, limit)
