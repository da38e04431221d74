import math
import tracemalloc

import numpy as np
import pytest

from penmix import ConfigError, demography, lifecycle, montecarlo, validate
from penmix.montecarlo import SimulationConfig
from penmix.scenario import with_params

from _oracles import (simulate_block_both_phases, simulate_cohort_per_block,
                      whole_span_time_grid)

FAST = dict(n_paths=2000, dt=0.05, seed=99)


def test_reports_are_deterministic(us):
    cfg = SimulationConfig(z=0.0, theta=0.08, k=0.12, **FAST)
    a = montecarlo.simulate_cohort(cfg, us)
    b = montecarlo.simulate_cohort(cfg, us)
    assert a == b


def test_block_size_changes_streams_not_statistics(us):
    # BLOCK = 256 splits the 1 000 antithetic pairs over four streams instead
    # of one: other paths, the same distribution, the same step loop
    cfg = SimulationConfig(z=0.0, theta=0.08, k=0.12, **FAST)
    a = montecarlo.simulate_cohort(cfg, us)
    orig = montecarlo.BLOCK
    try:
        montecarlo.BLOCK = 256
        b = montecarlo.simulate_cohort(cfg, us)
        assert b == simulate_cohort_per_block(cfg, us)
    finally:
        montecarlo.BLOCK = orig
    assert a != b
    for mean, se in (("mean_utility", "se_utility"),
                     ("mean_terminal_wealth", "se_terminal_wealth")):
        gap = abs(getattr(a, mean) - getattr(b, mean))
        assert gap <= 3.0 * math.hypot(getattr(a, se), getattr(b, se))


@pytest.mark.parametrize("dt", [0.01, 0.05, 0.5, 2.5, 35.0 / 17, 35.0])
def test_time_grid_steps_are_positive(us, dt):
    # the uniform part never reaches past the start of the graded tail
    tg = montecarlo._time_grid(-10.0, us, dt)
    assert np.all(np.diff(tg) > 0)
    assert tg[-1] == -10.0 + us.demo.omega - us.demo.a
    assert np.allclose(np.diff(tg[:int((us.demo.tau - us.demo.a) / dt) + 1]), dt)
    # grading covers the last year only: at dt = 35, 1 + 1 + 200 steps
    assert tg.size - 1 <= math.ceil((us.demo.omega - us.demo.a - 1.0) / dt) + 200


@pytest.mark.parametrize("fixture", ["us", "cn", "us_bb"])
def test_time_grid_unchanged_where_dt_divides_the_span(request, fixture):
    # the reference statistics of the Monte Carlo oracle rest on these meshes
    s = request.getfixturevalue(fixture)
    for dt in (0.01, 0.025, 0.05, 0.1, 0.25, 0.5):
        for dz in (0.0, -10.0, -40.0):
            z = s.policy.t0 + dz
            np.testing.assert_array_equal(montecarlo._time_grid(z, s, dt),
                                          whole_span_time_grid(z, s, dt))


def test_utility_matches_value_function(us):
    cfg = SimulationConfig(z=0.0, theta=0.08, k=0.12, **FAST)
    rep = montecarlo.simulate_cohort(cfg, us)
    assert abs(rep.mean_utility - rep.closed_form_value) <= 3 * rep.se_utility
    assert abs(rep.mean_terminal_wealth) <= 3 * rep.se_terminal_wealth
    assert rep.clipped_paths == 0


def test_y_at_t0_matches_expectation_formula(us):
    cfg = SimulationConfig(z=-10.0, theta=0.08, k=0.12, **FAST)
    rep = montecarlo.simulate_cohort(cfg, us)
    closed = lifecycle.expected_eet_balance(us.policy.t0, -10.0, us, 0.12)
    assert rep.mean_y_at_t0 == pytest.approx(closed, abs=3 * rep.se_y_at_t0)


def test_antithetic_reduces_utility_variance(us):
    plain = SimulationConfig(z=0.0, theta=0.08, k=0.12, n_paths=4000, dt=0.05,
                             seed=31, antithetic=False)
    anti = SimulationConfig(z=0.0, theta=0.08, k=0.12, n_paths=4000, dt=0.05,
                            seed=31, antithetic=True)
    se_plain = montecarlo.simulate_cohort(plain, us).se_utility
    se_anti = montecarlo.simulate_cohort(anti, us).se_utility
    assert se_anti < se_plain


def test_single_brownian_driver(us, monkeypatch):
    # exactly one normal per (step, base path): salary, fund, and wealth all
    # share the draw
    shapes = []
    real_generator = np.random.Generator

    class CountingGenerator:
        def __init__(self, bitgen):
            self._g = real_generator(bitgen)

        def standard_normal(self, *args, **kwargs):
            out = self._g.standard_normal(*args, **kwargs)
            shapes.append(np.shape(out))
            return out

    monkeypatch.setattr(np.random, "Generator", CountingGenerator)
    cfg = SimulationConfig(z=0.0, theta=0.08, k=0.12, n_paths=128, dt=0.5, seed=1)
    montecarlo.simulate_cohort(cfg, us)
    tb_steps = len(montecarlo._time_grid(0.0, us, 0.5)) - 1
    total = sum(int(np.prod(s)) for s in shapes)
    assert total == tb_steps * 64   # 64 antithetic base pairs, one draw each


def test_scaled_control_is_worse(us):
    good = SimulationConfig(z=0.0, theta=0.08, k=0.12, n_paths=2000, dt=0.05,
                            seed=17)
    bad = SimulationConfig(z=0.0, theta=0.08, k=0.12, n_paths=2000, dt=0.05,
                           seed=17, pi_scale=3.0)
    rep_good = montecarlo.simulate_cohort(good, us)
    rep_bad = montecarlo.simulate_cohort(bad, us)
    assert rep_bad.mean_utility < rep_good.closed_form_value
    assert (rep_bad.closed_form_value - rep_bad.mean_utility) > 3 * rep_bad.se_utility


def test_halving_dt_keeps_agreement(us):
    for dt in (0.1, 0.05):
        cfg = SimulationConfig(z=0.0, theta=0.08, k=0.12, n_paths=2000, dt=dt,
                               seed=23)
        rep = montecarlo.simulate_cohort(cfg, us)
        assert abs(rep.mean_utility - rep.closed_form_value) <= 3 * rep.se_utility


def test_config_validation(us):
    with pytest.raises(ConfigError):
        montecarlo.simulate_cohort(
            SimulationConfig(z=0.0, theta=0.08, k=0.12, dt=-0.01), us)
    with pytest.raises(ConfigError):
        montecarlo.simulate_cohort(
            SimulationConfig(z=0.0, theta=0.08, k=0.12, n_paths=101), us)
    for antithetic in (True, False):
        with pytest.raises(ConfigError, match="n_paths must be at least 2"):
            montecarlo.simulate_cohort(SimulationConfig(z=0.0, theta=0.08, k=0.12, n_paths=1,
                                                        antithetic=antithetic), us)
    with pytest.raises(ConfigError):
        # 0.03 does not divide the 35-year working span
        montecarlo.simulate_cohort(
            SimulationConfig(z=0.0, theta=0.08, k=0.12, n_paths=100, dt=0.03), us)
    # a dt putting more than 1e6 nodes on omega - a is refused before any mesh
    for bad in (dict(dt=math.nan), dict(dt=math.inf), dict(dt=1e-300), dict(dt=5e-324),
                dict(seed=-1)):
        with pytest.raises(ConfigError):
            montecarlo.simulate_cohort(
                SimulationConfig(z=0.0, theta=0.08, k=0.12, n_paths=100, **bad), us)


def test_probe_statistics_match_expected_wealth(us):
    cfg = SimulationConfig(z=0.0, theta=0.08, k=0.12, n_paths=4000, dt=0.05,
                           seed=41)
    rep = montecarlo.simulate_cohort(cfg, us, probe_times=[10.0, 40.0])
    for t, mean, se in rep.probes:
        closed = lifecycle.expected_wealth(t, 0.0, us, 0.08, 0.12,
                                           switch_at_t0=False)
        assert mean == pytest.approx(closed, abs=3 * se)


def test_verify_harness_fast(us):
    # n must be large enough for the 1.5x-control gap to clear 3 SE
    rep = montecarlo.verify_value_function(us, [0.0, -10.0], n_paths=12000,
                                           dt=0.05, seed=12)
    assert rep.passed
    assert all(r.report.clipped_paths == 0 for r in rep.rows)
    assert rep.rows[1].y0_ok is True
    assert rep.rows[0].y0_ok is None


def test_constant_flow_retiree_benefit_is_the_validated_ratio(us):
    # constant entrant flow: Lambda(t) is the validated constant bit for bit,
    # so the US/CN Monte Carlo numbers do not depend on how it is looked up
    cfg = SimulationConfig(z=-30.0, theta=0.08, k=0.12, n_paths=128, dt=0.05)
    tb = montecarlo._build_tables(cfg, us)
    retired = ~tb.working
    assert retired.any()
    assert np.array_equal(tb.a_t[retired],
                          np.full(retired.sum(), 0.08 * validate(us).Lambda))


def test_constant_flow_simulation_adds_no_quadrature(us, monkeypatch):
    # a fresh scenario's adaptive quad calls are validate's three (the two
    # support-ratio masses and the annuity factor); the simulation reads the
    # validated ratio instead of computing it again
    calls = []
    quad = demography.quad
    monkeypatch.setattr(demography, "quad", lambda *a, **kw: calls.append(1) or quad(*a, **kw))
    fresh = with_params(us, **{"demo.A": us.demo.A * 1.0001})
    montecarlo.simulate_cohort(SimulationConfig(z=-30.0, theta=0.08, k=0.12, n_paths=16,
                                                dt=0.5), fresh)
    assert len(calls) == 3


def test_babyboom_verify_rows_pass(us_bb):
    # retirees are paid theta * Lambda(t) along the baby-boom path, as in the
    # closed-form M1; the perturbed-control row is left out: at 2048 paths its
    # gap is below 3 SE on the constant-flow fixture too
    t0 = us_bb.policy.t0
    rep = montecarlo.verify_value_function(us_bb, [t0, t0 - 10.0, t0 - 30.0],
                                           n_paths=2048, dt=0.05, seed=5)
    for row in rep.rows:
        assert row.utility_ok and row.terminal_ok and row.probes_ok, row.z
    assert [row.y0_ok for row in rep.rows] == [None, True, True]


# (scenario fixture, z - t0, SimulationConfig fields, with probes)
ORACLE_CASES = {
    "t0": ("us", 0.0, dict(n_paths=4096), False),
    "t0-40": ("us", -40.0, dict(n_paths=4096), False),
    "partial-last-block": ("us", -10.0, dict(n_paths=2500), True),
    "plain": ("us", 0.0, dict(n_paths=2049, antithetic=False), False),
    "pi-scale": ("us", -40.0, dict(n_paths=2048, pi_scale=1.5), False),
    "babyboom": ("us_bb", -30.0, dict(n_paths=2048), True),
}


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_one_step_loop_matches_per_block_loop(request, case):
    # every float of the report equals the one from simulating the blocks one
    # after another, each from a whole normal matrix of its own stream
    name, dz, fields, with_probes = ORACLE_CASES[case]
    s = request.getfixturevalue(name)
    z = s.policy.t0 + dz
    cfg = SimulationConfig(z=z, theta=s.policy.theta0, k=s.policy.k0, dt=0.05,
                           seed=11, **fields)
    probes = montecarlo._probe_times(z, s) if with_probes else ()
    rep = montecarlo.simulate_cohort(cfg, s, probe_times=probes)
    assert rep == simulate_cohort_per_block(cfg, s, probe_times=probes)
    assert len(rep.probes) == len(probes)
    assert (rep.mean_y_at_t0 is not None) == (z < s.policy.t0)


# (scenario fixture, z - t0, SimulationConfig fields) at 1 024 paths, dt 0.05
STEP_CASES = {
    "us-t0": ("us", 0.0, {}),
    "us-t0-40": ("us", -40.0, {}),
    "cn": ("cn", -10.0, {}),
    "babyboom": ("us_bb", -30.0, {}),
    "plain": ("us", -10.0, dict(n_paths=1500, antithetic=False)),
    "pi-scale": ("us", -40.0, dict(pi_scale=1.5)),
}


@pytest.mark.parametrize("case", STEP_CASES)
def test_phase_specific_step_keeps_every_bit(request, case):
    # each step does only its life phase's arithmetic; every path's utility,
    # terminal X, Y(t0), probe X and the clip count equal those of the loop
    # that does both phases' arithmetic on every step
    name, dz, fields = STEP_CASES[case]
    s = request.getfixturevalue(name)
    z = s.policy.t0 + dz
    cfg = SimulationConfig(z=z, theta=s.policy.theta0, k=s.policy.k0,
                           **{**dict(n_paths=1024, dt=0.05, seed=17), **fields})
    tb = montecarlo._build_tables(cfg, s)
    probe_idx = {int(np.argmin(np.abs(tb.t - pt))): pt
                 for pt in montecarlo._probe_times(z, s)}
    n_units = cfg.n_paths // 2 if cfg.antithetic else cfg.n_paths
    util, X, y_t0, probe_x, clip = montecarlo._simulate_block(
        cfg, s, tb, n_units, probe_idx)
    ref = simulate_block_both_phases(cfg, s, tb, n_units, probe_idx)
    np.testing.assert_array_equal(util, ref[0])
    np.testing.assert_array_equal(X, ref[1])
    assert (y_t0 is None) == (ref[2] is None) == (z >= s.policy.t0)
    if y_t0 is not None:
        np.testing.assert_array_equal(y_t0, ref[2])
    assert probe_x.keys() == ref[3].keys() == probe_idx.keys()
    for idx, arr in probe_x.items():
        np.testing.assert_array_equal(arr, ref[3][idx])
    assert clip == ref[4]
    assert (clip > 0) == (cfg.pi_scale != 1.0)


def test_entry_node_is_recorded(us):
    # a probe time or t0 whose nearest mesh node is the entry node reads the
    # entry state: X = Y = 0 on every path
    cfg = SimulationConfig(z=-0.01, theta=0.08, k=0.12, n_paths=128, dt=0.05,
                           seed=3)
    rep = montecarlo.simulate_cohort(cfg, us, probe_times=[cfg.z])
    assert rep.probes == ((cfg.z, 0.0, 0.0),)
    assert (rep.mean_y_at_t0, rep.se_y_at_t0) == (0.0, 0.0)


@pytest.mark.parametrize("n_paths", [4096, 20000])
def test_memory_does_not_grow_with_steps(us, n_paths):
    # 7 100 steps at dt = 0.01: a (steps x block) normal matrix alone would
    # take 58 MB; the step loop keeps a fixed set of per-path buffers
    cfg = SimulationConfig(z=us.policy.t0, theta=0.08, k=0.12,
                           n_paths=n_paths, dt=0.01)
    validate(us)
    tracemalloc.start()
    try:
        montecarlo.simulate_cohort(cfg, us)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
