import json
import math
import warnings

import numpy as np
import pytest

from penmix import (DomainError, EmptyRegion, InsolventCohort, demography, government,
                    load_scenario, preference, with_params)
from penmix.cli import _write_csv, main, mortality_scale


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_ok(capsys, scenario_dir):
    code, out, _ = run(capsys, "validate", str(scenario_dir / "scenario_us.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["dependency_ratio"] == pytest.approx(0.7271, abs=5e-4)
    assert doc["nu"] == pytest.approx(0.3076923, abs=1e-7)


def test_validate_failure_names_constraint(capsys, scenario_dir, tmp_path):
    doc = json.loads((scenario_dir / "scenario_us.json").read_text())
    doc["market"]["mu"] = 0.015   # below the risk-free rate
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 4
    assert "mu" in err and "r" in err


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 2
    assert main([]) == 2


def test_critical_ages_cn(capsys, scenario_dir):
    code, out, _ = run(capsys, "critical-ages", str(scenario_dir / "scenario_cn.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["zeta_hat"] == pytest.approx(37.3233, abs=0.02)
    assert doc["zeta_tilde"] == pytest.approx(44.6371, abs=0.02)
    assert doc["case_label"] == "case_4"


def test_classify_csv_round_trip(capsys, scenario_dir, tmp_path):
    out_file = tmp_path / "orderings.csv"
    code, _, _ = run(capsys, "classify", str(scenario_dir / "scenario_us.json"),
                     "--step", "5", "--out", str(out_file))
    assert code == 0
    text = out_file.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "zeta,M1t,M2t,M1mM2,ordering"
    # re-emitting parsed floats reproduces the file byte for byte
    rebuilt = [lines[0]]
    for line in lines[1:]:
        cols = line.split(",")
        rebuilt.append(",".join([f"{float(c):.17g}" for c in cols[:4]] + [cols[4]]))
    assert "\n".join(rebuilt) + "\n" == text


def test_csv_cells_keep_their_text(tmp_path):
    # floats (numpy ones too) print as %.17g, every other cell as str(), also
    # in a column that mixes the two
    rows = [(0.1, np.float64(1 / 3), 2, "a;b", 7, True, math.nan),
            (-0.0, math.inf, 10**20, "", 2.5, None, 1e-300)]
    out = tmp_path / "t.csv"
    _write_csv(out, list("abcdefg"), rows)
    assert out.read_text(encoding="utf-8").splitlines() == [
        "a,b,c,d,e,f,g",
        "0.10000000000000001,0.33333333333333331,2,a;b,7,True,nan",
        "-0,inf,100000000000000000000,,2.5,None,1e-300"]
    _write_csv(out, ["a"], [])
    assert out.read_text(encoding="utf-8") == "a\n"


def test_optimize_json(capsys, scenario_dir, tmp_path):
    out_file = tmp_path / "mix.json"
    code, out, _ = run(capsys, "optimize", str(scenario_dir / "scenario_us.json"),
                       "--weighting", "population", "--step", "0.5",
                       "--out", str(out_file))
    assert code == 0
    doc = json.loads(out)
    assert doc == json.loads(out_file.read_text())
    assert doc["cap_binding"] is True
    assert doc["mode"] == "mandatory"
    assert doc["theta_star"] + doc["k_star"] == pytest.approx(0.25, abs=1e-6)


def test_back_to_back_calls_share_no_state(capsys, scenario_dir):
    us = str(scenario_dir / "scenario_us.json")
    run(capsys, "optimize", us, "--weighting", "population", "--step", "0.5", "--voluntary")
    code, out, _ = run(capsys, "optimize", us, "--weighting", "population", "--step", "0.5")
    assert code == 0
    assert json.loads(out)["mode"] == "mandatory"
    run(capsys, "classify", us, "--step", "0.25")
    code, out, _ = run(capsys, "classify", us)
    assert code == 0
    ages = [float(line.split(",")[0]) for line in out.strip().split("\n")[1:]]
    assert ages[0] == 30.0 and {b - a for a, b in zip(ages, ages[1:])} == {1.0}


def test_paths_csv(capsys, scenario_dir):
    code, out, _ = run(capsys, "paths", str(scenario_dir / "scenario_us.json"),
                       "--zeta", "30", "--theta", "0.1169", "--k", "0.1331",
                       "--grid", "17.5")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,EX,EY,Epi,EC"
    first = [float(v) for v in lines[1].split(",")]
    last = [float(v) for v in lines[-1].split(",")]
    assert first[1] == pytest.approx(0.0, abs=1e-9)
    assert abs(last[1]) < 1e-6


def test_paths_at_the_terminal_age(capsys, scenario_dir):
    # zeta = omega: the one node is evaluated just inside the end of life
    code, out, err = run(capsys, "paths", str(scenario_dir / "scenario_us.json"),
                         "--zeta", "100", "--theta", "0.1", "--k", "0.1")
    assert code == 0, err
    lines = out.strip().split("\n")
    assert lines[0] == "t,EX,EY,Epi,EC" and len(lines) == 2
    assert all(math.isfinite(float(v)) for v in lines[1].split(","))


def test_paths_zeta_out_of_range(capsys, scenario_dir):
    code, _, err = run(capsys, "paths", str(scenario_dir / "scenario_us.json"),
                       "--zeta", "150", "--theta", "0.1", "--k", "0.1")
    assert code == 2
    assert "zeta" in err


@pytest.mark.parametrize("theta, k", [("nan", "0.1"), ("0.1", "nan"), ("inf", "0.1"),
                                      ("-inf", "0.1"), ("-0.01", "0.1"), ("0.1", "-0.01"),
                                      ("2", "0.12"), ("0.3", "0.3"), ("0.13", "0.1200001")])
def test_paths_rates_outside_the_box_are_usage_errors(capsys, scenario_dir, theta, k):
    # the US cap is m = 0.25: rates must be finite, theta, k >= 0 and
    # theta + k <= m, with objective's 1e-12 slack
    code, out, err = run(capsys, "paths", str(scenario_dir / "scenario_us.json"),
                         "--zeta", "40", f"--theta={theta}", f"--k={k}")
    assert code == 2
    assert out == ""
    assert err.startswith("error: (theta, k) = (") and err.count("\n") == 1
    assert err.endswith("lies outside the rate box theta, k >= 0, theta + k <= 0.25\n")


def test_paths_rates_on_the_box_edges(capsys, scenario_dir):
    # the cap itself, a zero rate and the 1e-12 slack past either are inside
    for theta, k in (("0.25", "0"), ("0", "0.25"), ("0.13", "0.12000000000099"),
                     ("-1e-13", "0.1")):
        code, out, err = run(capsys, "paths", str(scenario_dir / "scenario_us.json"),
                             "--zeta", "40", f"--theta={theta}", f"--k={k}", "--grid", "10")
        assert code == 0, (theta, k, err)
        assert out.startswith("t,EX,EY,Epi,EC\n")


def test_sweep_rectangular_with_reasons(capsys, scenario_dir, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "param1": {"path": "demo.rho", "lo": -0.005, "hi": 0.005, "steps": 2},
        "param2": {"path": "market.gamma", "lo": 0.02, "hi": 0.025, "steps": 2},
        "target": "zeta_hat",
    }))
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", str(scenario_dir / "scenario_us.json"),
                     "--spec", str(spec), "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().strip().split("\n")
    assert lines[0] == "demo.rho,market.gamma,zeta_hat,reason"
    assert len(lines) == 1 + 4
    cells = [line.split(",") for line in lines[1:]]
    nan_rows = [c for c in cells if c[2] == "nan"]
    assert all(c[3] != "" for c in nan_rows)
    assert all(c[3] == "" for c in cells if c[2] != "nan")
    # deterministic reruns
    out2 = tmp_path / "sweep2.csv"
    run(capsys, "sweep", str(scenario_dir / "scenario_us.json"),
        "--spec", str(spec), "--out", str(out2))
    assert out2.read_text() == out_file.read_text()


def test_sweep_bad_target(capsys, scenario_dir, tmp_path):
    # an unknown target, then parameter paths that name no number of the
    # scenario: each is one schema error before any cell runs
    spec = tmp_path / "spec.json"
    for path1, target, fixture, word in (
            ("demo.rho", "bogus", "scenario_us", "target"),
            ("market.bogus", "zeta_hat", "scenario_us", "market.bogus"),
            ("demo.babyboom", "zeta_hat", "scenario_us_babyboom", "block"),
            ("demo.babyboom.rho2", "zeta_hat", "scenario_us", "babyboom")):
        spec.write_text(json.dumps({
            "param1": {"path": path1, "lo": -0.01, "hi": 0.0, "steps": 2},
            "param2": {"path": "market.gamma", "lo": 0.02, "hi": 0.03, "steps": 2},
            "target": target,
        }))
        code, out, err = run(capsys, "sweep", str(scenario_dir / f"{fixture}.json"),
                             "--spec", str(spec))
        assert code == 4 and word in err, (path1, err)
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("param1, word", [
    ({"steps": "x"}, "param1.steps"),
    ({"lo": "a"}, "param1.lo"),
    ({"hi": None}, "param1.hi"),
    ({"hi": float("inf")}, "param1.hi"),
    ({"steps": 2.7}, "param1.steps"),
    ({"steps": 1}, "param1.steps"),
    ({"path": 5}, "param1.path"),
    (5, "param1"),
], ids=["steps-text", "lo-text", "hi-null", "hi-infinite", "steps-fraction", "steps-one",
        "path-number", "param-number"])
def test_sweep_malformed_spec_is_a_schema_error(capsys, scenario_dir, tmp_path,
                                                param1, word):
    # lo and hi are numbers, steps an integer >= 2, path a string
    if isinstance(param1, dict):
        param1 = {"path": "demo.rho", "lo": -0.01, "hi": 0.0, "steps": 2, **param1}
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "param1": param1,
        "param2": {"path": "market.gamma", "lo": 0.02, "hi": 0.03, "steps": 2},
        "target": "zeta_hat",
    }))
    code, out, err = run(capsys, "sweep", str(scenario_dir / "scenario_us.json"),
                         "--spec", str(spec))
    assert code == 4 and word in err and "internal" not in err, err
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_sweep_bad_value_is_a_nan_row(capsys, scenario_dir, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "param1": {"path": "mortality.delta", "lo": 0.0, "hi": 1.0, "steps": 2},
        "param2": {"path": "market.gamma", "lo": 0.02, "hi": 0.025, "steps": 2},
        "target": "zeta_hat",
    }))
    code, out, err = run(capsys, "sweep", str(scenario_dir / "scenario_us.json"),
                         "--spec", str(spec))
    assert code == 0, err
    cells = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert [c[2] == "nan" for c in cells] == [True, True, False, False]
    assert all("mortality scale" in c[3] for c in cells[:2])


def test_babyboom_command(capsys, scenario_dir, tmp_path):
    out_file = tmp_path / "bb.csv"
    code, out, _ = run(capsys, "babyboom",
                       str(scenario_dir / "scenario_us_babyboom.json"),
                       "--grid", "5", "--out", str(out_file))
    assert code == 0
    doc = json.loads(out)
    assert doc["zeta_hat"] == pytest.approx(36.9301, abs=0.05)
    assert doc["one_over_lambda_pre_boom"] == pytest.approx(0.6738, abs=2e-3)
    assert doc["one_over_lambda_post_boom"] == pytest.approx(0.7271, abs=2e-3)
    lines = out_file.read_text().strip().split("\n")
    assert lines[0] == "t,n,Lambda"


@pytest.mark.parametrize("grid", ["0", "-1", "nan", "inf"])
def test_babyboom_grid_must_be_positive(capsys, scenario_dir, tmp_path, grid):
    out_file = tmp_path / "bb.csv"
    code, out, err = run(capsys, "babyboom", str(scenario_dir / "scenario_us_babyboom.json"),
                         "--grid", grid, "--out", str(out_file))
    assert code == 2
    assert out == "" and not out_file.exists()
    assert err == f"error: grid step must be positive and finite (got {float(grid)})\n"


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("command, option, message", [
    ("classify", "--step", "age step"),
    ("paths", "--grid", "grid step"),
])
def test_age_and_time_steps_must_be_positive_and_finite(capsys, scenario_dir, tmp_path,
                                                        command, option, message, value):
    out_file = tmp_path / "out.csv"
    extra = ["--zeta", "40", "--theta", "0.08", "--k", "0.12"] if command == "paths" else []
    code, out, err = run(capsys, command, str(scenario_dir / "scenario_us_babyboom.json"),
                         *extra, f"{option}={value}", "--out", str(out_file))
    assert code == 2
    assert out == "" and not out_file.exists()
    assert err == f"error: {message} must be positive and finite (got {float(value)})\n"


@pytest.mark.parametrize("value", ["1e-300", "5e-324", "1e-5", "6.9e-5"])
@pytest.mark.parametrize("command, option, message", [
    ("classify", "--step", "age step"),
    ("paths", "--grid", "grid step"),
    ("babyboom", "--grid", "grid step"),
    ("optimize", "--step", "z-grid step"),
    ("sweep", "--step", "z-grid step"),
    ("verify", "--dt", "dt"),
])
def test_tiny_steps_are_usage_errors(capsys, scenario_dir, tmp_path, command, option,
                                     message, value):
    # every value here is refused by the node bound before any grid or mesh
    # exists; paths asks for the entering cohort (zeta = a), which lives
    # omega - a, as does verify's mesh
    path = scenario_dir / "scenario_us_babyboom.json"
    s = load_scenario(path)
    d = s.demo
    span = d.omega - d.a
    if command == "babyboom":   # the table's span with 5 years either side
        span += d.babyboom.t2 - d.babyboom.t1 + 10.0
    if message == "z-grid step":   # the entrants up to t2 + omega - tau
        span += d.babyboom.t2 + d.omega - d.tau - s.policy.t0
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "param1": {"path": "preference.lambda", "lo": 1.0, "hi": 2.0, "steps": 2},
        "param2": {"path": "demo.rho", "lo": -0.01, "hi": 0.0, "steps": 2},
        "target": "theta_star",
    }))
    out_file = tmp_path / "out.csv"
    extra = {"paths": ["--zeta", str(d.a), "--theta", "0.08", "--k", "0.12"],
             "optimize": ["--weighting", "population"], "sweep": ["--spec", str(spec)],
             "verify": ["--paths", "64"]}.get(command, [])
    code, out, err = run(capsys, command, str(path), *extra, option, value,
                         "--out", str(out_file))
    assert code == 2
    assert out == "" and not out_file.exists()
    assert err == (f"error: {message} too small: more than 1000000 nodes "
                   f"over {span:g} years (got {float(value)})\n")


@pytest.mark.parametrize("c, words", [
    (1.3209, "M01 not finite"),           # the mass is normal, M01 overflows
    (1.32097, "retiree mass"),            # the mass is subnormal
    (1.35, "retiree mass over [tau, omega] = 0 "),
    (2.0, "retiree mass over [tau, omega] = 0 "),
])
def test_makeham_underflow_is_a_validation_error(capsys, scenario_dir, tmp_path, c, words):
    # a steep Makeham base leaves no representable retiree mass, or a
    # derived constant past the float range: one error line, exit 4
    doc = json.loads((scenario_dir / "scenario_us.json").read_text())
    doc["demography"]["c"] = c
    path = tmp_path / "steep.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # no overflow warning before the error line
        code, out, err = run(capsys, "validate", str(path))
    assert code == 4
    assert out == ""
    assert err.startswith("error: ") and words in err and err.count("\n") == 1


@pytest.mark.parametrize("extra", [[], ["--voluntary"]])
@pytest.mark.parametrize("weighting", ["population", "equal"])
def test_underflowing_welfare_is_a_validation_error(capsys, scenario_dir, tmp_path,
                                                     extra, weighting):
    # c = 1.3 passes validate, but every G^delta underflows: the welfare,
    # strictly negative with every delta < 0, reads 0.0 at the optimum
    doc = json.loads((scenario_dir / "scenario_us.json").read_text())
    doc["demography"]["c"] = 1.3
    path = tmp_path / "steep.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "optimize", str(path), "--weighting", weighting, *extra)
    assert code == 4
    assert out == ""
    assert err.startswith("error: welfare underflows to 0.0") and err.count("\n") == 1


def test_paths_that_leave_the_float_range_are_a_validation_error(capsys, scenario_dir,
                                                                tmp_path):
    # at c = 1.3 the survival of a 65-year-old underflows a few years on,
    # and the consumption rate with it
    doc = json.loads((scenario_dir / "scenario_us.json").read_text())
    doc["demography"]["c"] = 1.3
    path = tmp_path / "steep.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # no warning before the error line
        code, out, err = run(capsys, "paths", str(path), "--zeta", "65", "--theta", "0.08",
                             "--k", "0.12", "--grid", "1")
    assert code == 4
    assert out == ""
    assert err.startswith("error: expected path not finite from t = ") and err.count("\n") == 1


def test_tiny_negative_welfare_is_an_optimum(capsys, scenario_dir, tmp_path):
    doc = json.loads((scenario_dir / "scenario_us.json").read_text())
    doc["demography"]["c"] = 1.25
    path = tmp_path / "steep.json"
    path.write_text(json.dumps(doc))
    for extra in ([], ["--voluntary"]):
        code, out, err = run(capsys, "optimize", str(path), "--weighting", "population",
                             *extra)
        assert code == 0, err
        assert -1e-29 < json.loads(out)["objective"] < 0.0


def test_sweep_cell_with_underflowing_welfare_is_a_nan_row(capsys, scenario_dir,
                                                           tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "param1": {"path": "demo.c", "lo": 1.124, "hi": 1.3, "steps": 2},
        "param2": {"path": "policy.tau1", "lo": 0.25, "hi": 0.25, "steps": 2},
        "target": "theta_star",
    }))
    code, out, err = run(capsys, "sweep", str(scenario_dir / "scenario_us.json"),
                         "--spec", str(spec), "--step", "0.5")
    assert code == 0, err
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert [row[3] for row in rows[:2]] == ["", ""]
    for row in rows[2:]:
        assert row[2] == "nan" and row[3].startswith("welfare underflows to 0.0")


def test_validate_without_makeham_term(capsys, scenario_dir, tmp_path):
    # B = 0: the annuity integrand is e^{-(r + A) t}, whose integral is 1/(r + A)
    doc = json.loads((scenario_dir / "scenario_us.json").read_text())
    doc["demography"].update(B=0, A=0.0005, rho=-0.03)
    doc["market"]["r"] = 0.004
    path = tmp_path / "no_makeham.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 0, err
    assert json.loads(out)["a_tau"] == pytest.approx(1.0 / (0.004 + 0.0005), rel=1e-14)


@pytest.mark.parametrize("step", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("command", ["optimize", "sweep"])
def test_grid_step_must_be_positive_and_finite(capsys, scenario_dir, tmp_path, command, step):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "param1": {"path": "policy.tau1", "lo": 0.24, "hi": 0.26, "steps": 2},
        "param2": {"path": "policy.m", "lo": 0.24, "hi": 0.26, "steps": 2},
        "target": "theta_star",
    }))
    extra = (["--weighting", "population"] if command == "optimize"
             else ["--spec", str(spec)])
    code, out, err = run(capsys, command, str(scenario_dir / "scenario_us.json"),
                         *extra, "--step", step)
    assert code == 2
    assert out == ""
    assert err == f"error: z-grid step must be positive and finite (got {float(step)})\n"


@pytest.mark.parametrize("name", ["scenario_us.json", "scenario_us_babyboom.json"])
def test_classify_step_not_dividing_life_span(capsys, scenario_dir, name):
    d = load_scenario(scenario_dir / name).demo
    code, out, err = run(capsys, "classify", str(scenario_dir / name), "--step", "0.9")
    assert code == 0, err
    zetas = [float(line.split(",")[0]) for line in out.strip().split("\n")[1:]]
    assert zetas[0] == d.a and d.omega - 0.9 < zetas[-1] <= d.omega
    assert len(zetas) == math.floor((d.omega - d.a) / 0.9) + 1


def test_verify_table_format(capsys, scenario_dir, tmp_path):
    out_file = tmp_path / "verify.json"
    code, out, _ = run(capsys, "verify", str(scenario_dir / "scenario_us.json"),
                       "--paths", "512", "--dt", "0.1", "--seed", "5",
                       "--out", str(out_file))
    assert code in (0, 1)   # small-sample statistical checks may flag FAIL
    lines = out.strip().split("\n")
    assert len([l for l in lines if l.startswith("z=")]) == 3
    assert lines[-1].startswith("overall:")
    doc = json.loads(out_file.read_text())
    assert len(doc["rows"]) == 3
    assert {"perturbed_gap_se", "perturbed_ok", "passed"} <= doc.keys()


@pytest.mark.parametrize("arg", [("--dt", "nan"), ("--dt", "inf"),
                                 ("--seed", "-1")])
def test_verify_bad_arguments(capsys, scenario_dir, arg):
    code, out, err = run(capsys, "verify", str(scenario_dir / "scenario_us.json"),
                         "--paths", "64", *arg)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_probes_on_entry_node(capsys, scenario_dir):
    # at dt = 35 the probes and t0 of the older cohorts map to the entry node
    code, out, err = run(capsys, "verify", str(scenario_dir / "scenario_us.json"),
                         "--paths", "64", "--dt", "35")
    assert code == 1
    lines = out.strip().split("\n")
    assert len([l for l in lines if l.startswith("z=")]) == 3
    assert lines[-1] == "overall: FAIL"
    assert "error:" not in err


@pytest.mark.filterwarnings("error")
def test_verify_coarse_dt_keeps_graded_tail(capsys, scenario_dir):
    # (omega - a - 1) / 35 = 1.97: the uniform mesh stops at 35 years, one
    # 34-year step reaches the graded last year, so no step has zero width
    code, out, err = run(capsys, "verify", str(scenario_dir / "scenario_us.json"),
                         "--paths", "64", "--dt", "35")
    assert code == 1, err
    assert "nan" not in out
    assert "perturbed-control gap: 2.95 SE" in out


def test_babyboom_requires_block(capsys, scenario_dir):
    code, _, err = run(capsys, "babyboom", str(scenario_dir / "scenario_us.json"))
    assert code == 4
    assert "babyboom" in err


def test_missing_file(capsys):
    code, _, _ = run(capsys, "validate", "/nonexistent/file.json")
    assert code == 2


def test_directory_paths_are_usage_errors(capsys, scenario_dir, tmp_path):
    # a directory as the scenario or as --out is an unreadable or unwritable
    # path, like a missing file, not a defect
    for argv in (("validate", str(tmp_path)),
                 ("classify", str(scenario_dir / "scenario_us.json"), "--step", "5",
                  "--out", str(tmp_path))):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error: ") and "internal" not in err, argv


def test_non_utf8_inputs_are_parse_errors(capsys, scenario_dir, tmp_path):
    text = (scenario_dir / "scenario_us.json").read_text()
    latin = tmp_path / "latin1.json"
    latin.write_bytes(text.replace('"market"', '"märket"').encode("latin-1"))
    spec = tmp_path / "spec.json"
    spec.write_bytes(b'{"target": "theta_star", "param1": "caf\xe9"}')
    for argv in (("validate", str(latin)),
                 ("sweep", str(scenario_dir / "scenario_us.json"), "--spec", str(spec))):
        code, out, err = run(capsys, *argv)
        assert code == 4, argv
        assert out == "" and err.startswith("error: ") and "internal" not in err, argv


def test_mortality_scale_identity_and_direction(us):
    same = mortality_scale(us, 1.0)
    assert same == us
    lighter = mortality_scale(us, 0.5)
    assert lighter.demo.A == pytest.approx(us.demo.A * 0.5)
    assert (demography.annuity_factor(lighter.demo, us.market.r)
            > demography.annuity_factor(us.demo, us.market.r))
    with pytest.raises(DomainError):
        mortality_scale(us, 0.0)


def test_longevity_raises_critical_age(us):
    # lighter mortality (smaller scale) pushes the flip age upward
    ages = []
    for delta in (1.0, 0.7, 0.4):
        ages.append(preference.critical_age_paygo_savings(mortality_scale(us, delta)))
    assert ages[0] < ages[1] < ages[2]


def test_sweep_babyboom_theta_star(capsys, scenario_dir, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "param1": {"path": "policy.tau1", "lo": 0.24, "hi": 0.26, "steps": 2},
        "param2": {"path": "policy.m", "lo": 0.24, "hi": 0.26, "steps": 2},
        "target": "theta_star",
    }))
    out_file = tmp_path / "sweep.csv"
    code, _, err = run(capsys, "sweep", str(scenario_dir / "scenario_us_babyboom.json"),
                       "--spec", str(spec), "--out", str(out_file))
    assert code == 0, err
    cells = [line.split(",") for line in out_file.read_text().strip().split("\n")[1:]]
    assert len(cells) == 4
    assert all(0.0 < float(c[2]) < float(c[1]) and c[3] == "" for c in cells)


def test_sweep_over_preference_lambda(capsys, scenario_dir, tmp_path):
    # the scenario file's names and the attribute names are one path; the
    # header keeps the path as given
    tables = []
    for lam, rho in (("preference.lambda", "demo.rho"), ("pref.lam", "demography.rho")):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "param1": {"path": lam, "lo": 1.0, "hi": 2.0, "steps": 2},
            "param2": {"path": rho, "lo": -0.01, "hi": 0.0, "steps": 2},
            "target": "theta_star",
        }))
        code, out, err = run(capsys, "sweep", str(scenario_dir / "scenario_us.json"),
                             "--spec", str(spec), "--step", "0.25")
        assert code == 0, err
        lines = out.strip().split("\n")
        assert lines[0] == f"{lam},{rho},theta_star,reason"
        assert len(lines) == 1 + 4
        tables.append(lines[1:])
    assert tables[0] == tables[1]
    cells = [line.split(",") for line in tables[0]]
    assert all(math.isfinite(float(c[2])) and c[3] == "" for c in cells)
    # lambda moves theta* at either rho
    assert cells[0][2] != cells[2][2] and cells[1][2] != cells[3][2]


def test_sweep_babyboom_block_parameter(capsys, scenario_dir, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "param1": {"path": "demo.babyboom.rho2", "lo": -0.01, "hi": 0.0, "steps": 2},
        "param2": {"path": "market.gamma", "lo": 0.015, "hi": 0.025, "steps": 2},
        "target": "theta_star",
    }))
    out_file = tmp_path / "sweep.csv"
    code, _, err = run(capsys, "sweep", str(scenario_dir / "scenario_us_babyboom.json"),
                       "--spec", str(spec), "--out", str(out_file))
    assert code == 0, err
    lines = out_file.read_text().strip().split("\n")
    assert lines[0] == "demo.babyboom.rho2,market.gamma,theta_star,reason"
    cells = [line.split(",") for line in lines[1:]]
    assert len(cells) == 4
    assert all(math.isfinite(float(c[2])) and c[3] == "" for c in cells)
    # rho2 moves theta* at either gamma
    assert cells[0][2] != cells[2][2] and cells[1][2] != cells[3][2]


def test_internal_error_exit_code(capsys, scenario_dir, monkeypatch):
    import penmix.cli

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(penmix.cli, "_cmd_validate", broken)
    code, out, err = run(capsys, "validate", str(scenario_dir / "scenario_us.json"))
    assert code == 5
    assert out == ""
    assert err == "error: internal: RuntimeError: boom\n"


#: loader-accepted boundary values, each a set of field overrides
BOUNDARIES = {
    "beta-0": {"market": {"beta": 0.0}},
    "xi-0": {"market": {"xi": 0.0}},
    "A-0": {"demography": {"A": 0.0}},
    "B-0": {"demography": {"B": 0.0}},
    "m-0": {"policy": {"m": 0.0, "theta0": 0.0, "k0": 0.0}},
    "m-1": {"policy": {"m": 1.0}},
    "tau1-0": {"policy": {"tau1": 0.0}},
    "tau2-0": {"policy": {"tau2": 0.0}},
    "theta0-0": {"policy": {"theta0": 0.0}},
    "k0-0": {"policy": {"k0": 0.0}},
}


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("name", ["scenario_us.json", "scenario_cn.json",
                                  "scenario_us_babyboom.json"])
@pytest.mark.parametrize("boundary", sorted(BOUNDARIES))
def test_boundary_values_exit_without_internal_error(capsys, scenario_dir, tmp_path,
                                                     name, boundary):
    # every command ends in a result or a typed error, never in exit 5
    doc = json.loads((scenario_dir / name).read_text())
    for section, values in BOUNDARIES[boundary].items():
        doc[section].update(values)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    policy = doc["policy"]
    rates = ["--theta", repr(policy["theta0"]), "--k", repr(policy["k0"])]
    for argv in (["validate"], ["critical-ages"], ["classify"],
                 ["optimize", "--weighting", "population", "--step", "0.25"],
                 ["optimize", "--weighting", "population", "--step", "0.25", "--voluntary"],
                 ["paths", "--zeta", "30"] + rates):
        code, _, err = run(capsys, argv[0], str(path), *argv[1:])
        assert code != 5, (argv, err)


@pytest.mark.parametrize("error", [EmptyRegion, InsolventCohort], ids=lambda e: e.__name__)
def test_infeasible_errors_exit_3(capsys, scenario_dir, monkeypatch, error):
    # no shipped or perturbed scenario has an empty admissible region, so the
    # optimizer is made to raise each infeasibility error
    def infeasible(*args, **kwargs):
        raise error("no admissible mix")

    monkeypatch.setattr(government, "optimize_mix", infeasible)
    code, out, err = run(capsys, "optimize", str(scenario_dir / "scenario_us.json"),
                         "--weighting", "population")
    assert code == 3
    assert out == ""
    assert err == "error: no admissible mix\n"


@pytest.mark.parametrize("spec, word", [
    ([1, 2], "JSON object"),
    ({"param1": {"path": "demo.rho", "lo": -0.01, "hi": 0.0, "steps": 2},
      "param2": {"path": "market.gamma", "lo": 0.02, "hi": 0.03, "steps": 2}},
     "missing 'target'"),
    ({"param1": {"path": "demo.rho", "hi": 0.0, "steps": 2},
      "param2": {"path": "market.gamma", "lo": 0.02, "hi": 0.03, "steps": 2},
      "target": "zeta_hat"},
     "param1 missing 'lo'"),
], ids=["not-an-object", "no-target", "axis-without-lo"])
def test_sweep_spec_without_its_fields_is_a_schema_error(capsys, scenario_dir, tmp_path,
                                                         spec, word):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "sweep", str(scenario_dir / "scenario_us.json"),
                         "--spec", str(path))
    assert code == 4 and word in err, err
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_sweep_zeta_tilde_rows_and_reasons(capsys, scenario_dir, tmp_path, us):
    # at rho = 0.03 every US age prefers PAYGO to EET: no zeta_tilde
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "param1": {"path": "demo.rho", "lo": 0.02, "hi": 0.03, "steps": 2},
        "param2": {"path": "market.gamma", "lo": 0.02, "hi": 0.02, "steps": 2},
        "target": "zeta_tilde",
    }))
    code, out, err = run(capsys, "sweep", str(scenario_dir / "scenario_us.json"),
                         "--spec", str(spec))
    assert code == 0, err
    lines = out.strip().split("\n")
    assert lines[0] == "demo.rho,market.gamma,zeta_tilde,reason"
    cells = [line.split(",") for line in lines[1:]]
    want = preference.critical_age_paygo_eet(with_params(us, **{"demo.rho": 0.02}))
    for row in cells[:2]:
        assert row[2:] == [f"{want:.17g}", ""]
    for row in cells[2:]:
        assert row[2:] == ["nan", "no critical age: all ages prefer PAYGO to EET"]
