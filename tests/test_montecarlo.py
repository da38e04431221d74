import math
import tracemalloc

import numpy as np
import pytest

from penmix import ConfigError, lifecycle, montecarlo, validate
from penmix.montecarlo import SimulationConfig

from _oracles import simulate_cohort_per_block

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
    with pytest.raises(ConfigError):
        # 0.03 does not divide the 35-year working span
        montecarlo.simulate_cohort(
            SimulationConfig(z=0.0, theta=0.08, k=0.12, n_paths=100, dt=0.03), us)
    for bad in (dict(dt=math.nan), dict(dt=math.inf), dict(seed=-1)):
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
