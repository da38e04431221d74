import dataclasses
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

from penmix import DomainError, demography, validate
from penmix.scenario import BabyBoomParams

from _oracles import (bb_leg_by_search, pchip_support_ratio, quad_bb_support_ratio,
                      trapezoid_annuity)

# 50-digit evaluations of the survival formula at the US Makeham constants
SURVIVAL_US_65 = 0.9549788295793718
SURVIVAL_US_100 = 0.06352701557526895


def test_survival_at_entry_is_one(us):
    assert demography.survival(us.demo.a, us.demo) == pytest.approx(1.0, abs=1e-15)


def test_survival_highprecision_value(us):
    assert demography.survival(65.0, us.demo) == pytest.approx(SURVIVAL_US_65, rel=1e-14)
    assert demography.survival(100.0, us.demo) == pytest.approx(SURVIVAL_US_100, rel=1e-14)


def test_survival_below_entry_age_rejected(us):
    with pytest.raises(DomainError):
        demography.survival(us.demo.a - 1.0, us.demo)


@settings(max_examples=40)
@given(x1=st.floats(30.0, 100.0), x2=st.floats(30.0, 100.0))
def test_survival_nonincreasing(us, x1, x2):
    lo, hi = sorted((x1, x2))
    assert demography.survival(hi, us.demo) <= demography.survival(lo, us.demo) + 1e-15


def test_segment_empty_interval(us):
    assert demography.lambda_segment(50.0, 50.0, us.demo) == 0.0


@settings(max_examples=20, deadline=None)
@given(mid=st.floats(30.0, 100.0))
def test_segment_additivity(us, mid):
    d = us.demo
    total = demography.lambda_segment(d.a, d.omega, d)
    split = (demography.lambda_segment(d.a, mid, d)
             + demography.lambda_segment(mid, d.omega, d))
    assert split == pytest.approx(total, abs=1e-9)


def test_segment_bounds_checked(us):
    with pytest.raises(DomainError):
        demography.lambda_segment(65.0, 40.0, us.demo)
    with pytest.raises(DomainError):
        demography.lambda_segment(10.0, 40.0, us.demo)


def test_us_dependency_ratio(us):
    lam = demography.support_ratio(us.demo)
    assert 1.0 / lam == pytest.approx(0.7271, abs=5e-4)
    ratio = (demography.lambda_segment(30.0, 65.0, us.demo)
             / demography.lambda_segment(65.0, 100.0, us.demo))
    assert ratio == pytest.approx(lam, rel=1e-12)


def test_support_ratio_monotone_in_growth(us):
    grow = dataclasses.replace(us.demo, rho=0.05)
    assert demography.support_ratio(grow) > demography.support_ratio(us.demo)


def test_support_ratio_ignores_entrant_scale(us):
    doubled = dataclasses.replace(us.demo, n0=2 * us.demo.n0)
    assert demography.support_ratio(doubled) == pytest.approx(
        demography.support_ratio(us.demo), rel=1e-15)


def test_annuity_pure_discount_limit(us):
    flat = dataclasses.replace(us.demo, A=0.0, B=0.0)
    assert demography.annuity_factor(flat, 0.02) == pytest.approx(50.0, rel=1e-9)


@pytest.mark.parametrize("A, r", [(0.0, 5e-8), (0.0, 3e-8), (0.0, 1e-8), (0.0, 2e-9),
                                  (2e-8, 1e-8)])
def test_annuity_without_makeham_term_at_a_tiny_rate(us, A, r):
    # B = 0 and r + A below about 7e-8: the upper limit doubles past its 1e9
    # cap, and the analytic tail e^{-(r + A) upper} / (r + A) completes the
    # integral 1 / (r + A); the tail is about 2e-5 of it at r + A = 1e-8
    flat = dataclasses.replace(us.demo, A=A, B=0.0)
    assert demography.annuity_factor(flat, r) == pytest.approx(1.0 / (r + A), rel=1e-12)


def test_annuity_below_riskless_perpetuity(us):
    a_tau = demography.annuity_factor(us.demo, us.market.r)
    assert 0.0 < a_tau < 1.0 / us.market.r


def test_annuity_against_trapezoid_oracle(us):
    a_tau = demography.annuity_factor(us.demo, us.market.r)
    oracle = trapezoid_annuity(us.demo, us.market.r)
    assert a_tau == pytest.approx(oracle, abs=1e-6)


def test_annuity_decreasing_in_mortality(us):
    base = demography.annuity_factor(us.demo, us.market.r)
    for field, factor in (("A", 10.0), ("B", 10.0), ("c", 1.01)):
        heavier = dataclasses.replace(
            us.demo, **{field: getattr(us.demo, field) * factor})
        assert demography.annuity_factor(heavier, us.market.r) < base


def test_annuity_requires_positive_rate(us):
    with pytest.raises(DomainError):
        demography.annuity_factor(us.demo, 0.0)


# --------------------------------------------------------------------------
# baby boom
# --------------------------------------------------------------------------

def test_bb_entrants_boundary_values(us_bb):
    bb = us_bb.demo.babyboom
    assert demography.bb_entrants(bb.t1, bb) == pytest.approx(bb.n1, rel=1e-14)
    expected_t2 = bb.nm / (1 + (bb.nm / bb.n1 - 1) * math.exp(-bb.kappa * (bb.t2 - bb.t1)))
    assert demography.bb_entrants(bb.t2, bb) == pytest.approx(expected_t2, rel=1e-14)


def test_bb_entrants_continuity(us_bb):
    bb = us_bb.demo.babyboom
    for t in (bb.t1, bb.t2):
        left = demography.bb_entrants(t - 1e-9, bb)
        right = demography.bb_entrants(t + 1e-9, bb)
        assert abs(right - left) < 1e-6 * left
    # the regime formulas agree exactly at the joins
    assert demography.bb_entrants(np.array([bb.t1]), bb)[0] == pytest.approx(
        bb.n1, abs=1e-12)


def test_bb_requires_parameters(us):
    with pytest.raises(DomainError):
        demography.bb_support_ratio(0.0, us.demo)
    # a constant entrant flow has one ratio, `support_ratio`, and no table
    with pytest.raises(DomainError, match="no babyboom parameters"):
        demography.support_ratio_fn(us.demo)


def test_bb_pre_boom_plateau_matches_constant_model(us_bb):
    d = us_bb.demo
    bb = d.babyboom
    flat = dataclasses.replace(d, babyboom=None, rho=bb.rho1)
    expect = demography.support_ratio(flat)
    assert demography.bb_support_ratio(bb.t1 - 5.0, d) == pytest.approx(expect, rel=1e-6)


def test_bb_post_boom_plateau_matches_constant_model(us_bb):
    d = us_bb.demo
    bb = d.babyboom
    flat = dataclasses.replace(d, babyboom=None, rho=bb.rho2)
    expect = demography.support_ratio(flat)
    far = bb.t2 + (d.omega - d.a) + 1.0
    assert demography.bb_support_ratio(far, d) == pytest.approx(expect, rel=1e-6)


def test_bb_support_ratio_continuous(us_bb):
    d = us_bb.demo
    bb = d.babyboom
    # no jumps across the regime joins: dense grid, adjacent steps < 1e-3
    for t_join in (bb.t1, bb.t2, bb.t2 + d.omega - d.a):
        ts = t_join + np.arange(-0.05, 0.05, 1e-3)
        vals = demography.bb_support_ratio(ts, d)
        assert np.max(np.abs(np.diff(vals))) < 1e-3
    # bounded variation over the whole affected window
    ts = np.arange(bb.t1 - 2.0, bb.t2 + (d.omega - d.a) + 2.0, 0.1)
    vals = demography.bb_support_ratio(ts, d)
    assert np.max(np.abs(np.diff(vals))) < 0.05


def test_bb_degenerate_boom_reduces_to_constant(us):
    d = us.demo
    bb = BabyBoomParams(t1=-30.0, t2=-30.0 + 1e-6, n1=d.n0 * math.exp(d.rho * -30.0),
                        nm=1e6, kappa=0.05, rho1=d.rho, rho2=d.rho)
    degen = dataclasses.replace(d, babyboom=bb)
    expect = demography.support_ratio(d)
    far = bb.t2 + (d.omega - d.a) + 1.0
    assert demography.bb_support_ratio(far, degen) == pytest.approx(expect, rel=1e-6)
    assert demography.bb_support_ratio(0.0, degen) == pytest.approx(expect, rel=1e-6)


def test_bb_table_ends_exactly_at_post_boom_plateau(us_bb):
    # t2 - t1 is not a multiple of the 0.1-year table step
    d = us_bb.demo
    bb = dataclasses.replace(d.babyboom, t2=d.babyboom.t1 + 20.037)
    demo = dataclasses.replace(d, babyboom=bb)
    t_hi = bb.t2 + d.omega - d.a
    fn = demography.support_ratio_fn(demo)
    assert fn.nodes[-1] == t_hi
    for rho, ts in ((bb.rho1, (bb.t1 - 5.0, bb.t1)), (bb.rho2, (t_hi, t_hi + 5.0))):
        expect = demography.support_ratio(dataclasses.replace(d, babyboom=None, rho=rho))
        for t in ts:
            assert fn(t) == pytest.approx(expect, rel=1e-12)


#: perturbed baby-boom blocks, relative to the fixture: (t1 shift, length
#: factor, nm factor, kappa factor), drawn like the benchmark's inputs
BB_PERTURBATIONS = ((2.71, 1.083, 0.94, 1.07), (-2.96, 0.912, 1.09, 0.93),
                    (0.37, 1.0, 1.1, 0.9))

#: a block on which adaptive quadrature split only at the regime kinks meets
#: a kink that rounds onto omega and warns
BB_SLIVER_BLOCK = dict(t1=-8.2638, t2=10.7197, nm=111.82, kappa=0.05259,
                       rho1=-0.009805, rho2=-0.002197)


def _bb_blocks(d):
    bb = d.babyboom
    yield "fixture", bb
    yield "length 20.037", dataclasses.replace(bb, t2=bb.t1 + 20.037)
    for shift, length, nm, kappa in BB_PERTURBATIONS:
        t1 = bb.t1 + shift
        yield f"perturbed {shift}", dataclasses.replace(
            bb, t1=t1, t2=t1 + (bb.t2 - bb.t1) * length, nm=bb.nm * nm,
            kappa=bb.kappa * kappa)
    yield "sliver", dataclasses.replace(bb, **BB_SLIVER_BLOCK)


def _check_bb_table(demo, name=""):
    """Table nodes exactly on the lattice t1 + step * i up to t_hi, and
    Lambda there within 1e-12 of the quad oracle."""
    fn = demography.support_ratio_fn(demo)
    bb, n = demo.babyboom, fn.nodes.size - 1
    lattice = bb.t1 + demography.BB_GRID_STEP * np.arange(n)
    assert fn.nodes[:-1].tolist() == lattice.tolist(), name
    assert fn.nodes[-1] == bb.t2 + demo.omega - demo.a, name
    oracle = np.array([quad_bb_support_ratio(t, demo) for t in fn.nodes])
    np.testing.assert_allclose(fn(fn.nodes), oracle, rtol=1e-12, atol=0, err_msg=name)


def test_bb_table_nodes_match_quad_oracle(us_bb):
    for name, bb in _bb_blocks(us_bb.demo):
        _check_bb_table(dataclasses.replace(us_bb.demo, babyboom=bb), name)


def test_bb_table_emits_no_warning(us_bb):
    demo = dataclasses.replace(us_bb.demo, babyboom=dataclasses.replace(
        us_bb.demo.babyboom, **BB_SLIVER_BLOCK))
    demography.support_ratio_fn.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fn = demography.support_ratio_fn(demo)
    assert np.all(np.isfinite(fn(fn.nodes)))


#: blocks at the edges of the factorised masses, as (babyboom, demography)
#: changes: a boom longer than the life span (the logistic piece covers a
#: whole age range), one shorter than the table step, flat entrant flows on
#: both sides of the boom, and ages off the table lattice with a boom that is
#: no whole number of steps (partial cells at t2, a, tau and omega)
BB_EDGE_BLOCKS = {"longer than omega - a": (dict(t2=-40.0 + 80.0), {}),
                  "shorter than a step": (dict(t2=-40.0 + 0.05), {}),
                  "rho1 = rho2 = 0": (dict(rho1=0.0, rho2=0.0), {}),
                  "ages off the lattice": (dict(t2=-40.0 + 20.037),
                                           dict(a=30.04, tau=64.97, omega=99.93))}


def _edge_block_demo(d, name):
    bb_changes, demo_changes = BB_EDGE_BLOCKS[name]
    bb = dataclasses.replace(d.babyboom, t1=-40.0, **bb_changes)
    return dataclasses.replace(d, babyboom=bb, **demo_changes)


@pytest.mark.parametrize("name", BB_EDGE_BLOCKS)
def test_bb_table_nodes_match_quad_oracle_on_edge_blocks(us_bb, name):
    _check_bb_table(_edge_block_demo(us_bb.demo, name))


def test_bb_cells_match_scipy_pchip(us_bb):
    # the numpy Hermite cells are scipy's PCHIP interpolant of the table, at
    # every node, one ulp either side of it and at 1e5 seeded points between
    # them; the nodes return the table itself, and the cell of every point
    # is the one searchsorted finds (the blocks' t1 put nodes on both sides
    # of the rounded lattice index)
    d = us_bb.demo
    demos = [(name, dataclasses.replace(d, babyboom=bb)) for name, bb in _bb_blocks(d)]
    demos += [(name, _edge_block_demo(d, name)) for name in BB_EDGE_BLOCKS]
    # a table of one cell
    demos.append(("two nodes", dataclasses.replace(
        d, a=30.0, tau=30.02, omega=30.05,
        babyboom=dataclasses.replace(d.babyboom, t2=d.babyboom.t1 + 0.01))))
    for name, demo in demos:
        fn = demography.support_ratio_fn(demo)
        table, pchip = pchip_support_ratio(demo)
        assert (fn.nodes.size == 2) == (name == "two nodes")
        np.testing.assert_array_equal(fn(fn.nodes), table, err_msg=name)
        inner = fn.nodes[1:-1]
        ts = np.concatenate([fn.nodes, np.nextafter(inner, -np.inf), np.nextafter(inner, np.inf),
                             np.random.default_rng(7).uniform(fn.nodes[0], fn.nodes[-1], 10**5)])
        np.testing.assert_array_max_ulp(fn(ts), pchip(ts), maxulp=2)
        j = np.searchsorted(fn.nodes, ts, side="right") - 1
        s = ts - fn.nodes[j]
        c0, c1, c2, c3 = fn._cells[:, j]
        np.testing.assert_array_equal(
            fn(ts), ((c3 + c2 * s) + c1 * (s * s)) + c0 * ((s * s) * s), err_msg=name)
    # a table whose left end slope, 4.5, overshoots 3 m0 = 3 against a secant
    # of the other sign: scipy clamps it to 3 m0
    x, y = np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, -5.0])
    np.testing.assert_array_equal(demography._pchip_cells(x, y), PchipInterpolator(x, y).c)


def test_import_loads_no_scipy(scenario_dir):
    # the runtime is numpy only: no scipy module after importing the package,
    # importing the CLI, or a validate run (its three adaptive integrals)
    code = f"""
import contextlib, io, sys
def scipy():
    return sorted(m for m in sys.modules if m.startswith("scipy"))
import penmix
loaded = [scipy()]
import penmix.cli
loaded.append(scipy())
with contextlib.redirect_stdout(io.StringIO()):
    assert penmix.cli.main(["validate", {str(scenario_dir / "scenario_us.json")!r}]) == 0
loaded.append(scipy())
print(loaded)
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[[], [], []]"


def test_bb_scalar_calls_match_array_calls(us_bb):
    fn = demography.support_ratio_fn(us_bb.demo)
    t_lo, t_hi = fn.nodes[0], fn.nodes[-1]
    ts = np.concatenate([[t_lo - 1.0, t_lo, t_hi, t_hi + 1.0], np.linspace(t_lo, t_hi, 37)])
    scalars = [fn(float(t)) for t in ts]
    assert all(type(v) is float for v in scalars)
    assert scalars == fn(ts).tolist()


def test_bb_leg_matches_search_oracle(us_bb):
    # each Gauss-Legendre point read on its known cell gives the bits of the
    # per-point cell search, on both plateaus, at every node, one ulp either
    # side of it and at 1e4 seeded interior points, for two rates
    eps = validate(us_bb).epsilon
    rng = np.random.default_rng(11)
    for name, bb in _bb_blocks(us_bb.demo):
        demo = dataclasses.replace(us_bb.demo, babyboom=bb)
        fn = demography.support_ratio_fn(demo)
        t_lo, t_hi = fn.nodes[0], fn.nodes[-1]
        x = np.concatenate([[t_lo - 30.0, t_lo - 1e-3, t_hi + 1e-3, t_hi + 30.0], fn.nodes,
                            np.nextafter(fn.nodes, -np.inf), np.nextafter(fn.nodes, np.inf),
                            rng.uniform(t_lo, t_hi, 10**4)])
        x = np.stack([x, rng.permutation(x)])
        t = rng.uniform(t_lo - 40.0, t_hi, x.shape[1])
        for rate in (eps, -0.5 * eps):
            np.testing.assert_array_equal(fn.leg(x, t, rate), bb_leg_by_search(x, t, demo, rate),
                                          err_msg=name)
