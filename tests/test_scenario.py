import copy
import json
import math
import pickle
import re
from dataclasses import MISSING, asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from penmix import (
    DegenerateDrift,
    DomainError,
    InsolventCohort,
    OrderingViolation,
    ParseError,
    SchemaError,
    UtilityExplosion,
    delta_for_entry,
    demography,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate,
    with_params,
)
from penmix.scenario import _JSON_NAMES, _RECORDS, Scenario, _validate_cached, check_rates

#: (theta, k) outside the rate box theta, k >= 0, theta + k <= m of the US
#: fixture (m = 0.25): NaN, infinite, negative, over the cap
OUTSIDE_RATE_BOX = [(math.nan, 0.1), (0.1, math.nan), (math.inf, 0.0), (0.0, math.inf),
                    (-0.01, 0.1), (0.1, -0.01), (0.2, 0.1)]


def test_us_fixture_fields(us):
    assert us.demo.a == 30 and us.demo.tau == 65 and us.demo.omega == 100
    assert us.demo.rho == -0.005
    assert us.policy.m == 0.25
    assert us.policy.theta0 == 0.08 and us.policy.k0 == 0.12
    assert us.pref.lam == 1.5


def test_cn_fixture_fields(cn):
    assert cn.demo.a == 25 and cn.demo.tau == 60 and cn.demo.omega == 95
    assert cn.demo.rho == -0.004
    assert cn.policy.theta0 == 0.16 and cn.policy.k0 == 0.04


def test_cap_violation_is_schema_error(us, tmp_path):
    doc = scenario_to_dict(us)
    doc["policy"]["theta0"] = 0.2
    doc["policy"]["k0"] = 0.2
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="cap"):
        load_scenario(path)


def test_missing_field_named(us):
    doc = scenario_to_dict(us)
    del doc["market"]["sigma"]
    with pytest.raises(SchemaError, match="market.sigma"):
        scenario_from_dict(doc)


@pytest.mark.parametrize("section, field, value, word", [
    ("market", "r", "abc", "market.r"),
    ("market", "r", None, "market.r"),
    ("market", "r", [1], "market.r"),
    ("market", "r", True, "market.r"),
    ("market", "W0", "1", "market.W0"),
    ("policy", "t0", "x", "policy.t0"),
    ("policy", "t0", float("nan"), "policy.t0"),
    ("demography", "A", float("inf"), "demography.A"),
    ("preference", "lambda", "x", "preference.lambda"),
    ("market", None, 3, "market"),
])
def test_non_number_field_is_schema_error(us, tmp_path, capsys, section, field,
                                          value, word):
    # a field (or, with field None, a whole section) that is not a finite
    # JSON number (an object): a schema error that names it, exit 4 from the
    # CLI; Python's json reads and writes NaN and Infinity
    from penmix.cli import main
    doc = scenario_to_dict(us)
    if field is None:
        doc[section] = value
    else:
        doc[section][field] = value
    with pytest.raises(SchemaError, match=word):
        scenario_from_dict(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and word in err and err.count("\n") == 1


@pytest.mark.parametrize("section", ["demography", "market", "policy", "preference"])
def test_missing_section_named(us, section):
    doc = scenario_to_dict(us)
    del doc[section]
    with pytest.raises(SchemaError, match=f"missing required section '{section}'"):
        scenario_from_dict(doc)


def test_top_level_array_is_schema_error(us, tmp_path, capsys):
    from penmix.cli import main
    path = tmp_path / "array.json"
    path.write_text(json.dumps([scenario_to_dict(us)]))
    with pytest.raises(SchemaError, match="top level must be a JSON object"):
        load_scenario(path)
    assert main(["validate", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "top level" in err and err.count("\n") == 1


def test_malformed_file_is_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_scenario(path)


def test_us_derived_constants(us):
    dc = validate(us)
    assert dc.nu == pytest.approx(0.3076923, abs=1e-7)
    assert dc.epsilon == pytest.approx(-0.0276923, abs=1e-7)
    assert dc.epsilon_tilde == pytest.approx(0.0030769, abs=1e-7)


def test_sharpe_gap_constants(us, cn):
    for s, gap in ((us, 0.0256), (cn, 0.0333)):
        mk = s.market
        observed = (mk.alpha - mk.r) / mk.beta - (mk.mu - mk.r) / mk.sigma
        assert observed == pytest.approx(gap, abs=1e-4)


def test_degenerate_salary_drift(us):
    nu = (us.market.mu - us.market.r) / us.market.sigma
    bad = with_params(us, **{"market.gamma": us.market.r + us.market.xi * nu})
    with pytest.raises(DegenerateDrift):
        validate(bad)


def test_finiteness_margin_positive(us):
    mk, d, f = us.market, us.demo, us.pref
    margin = mk.r - d.rho - f.delta0 * (mk.gamma + 0.5 * (f.delta0 - 1) * mk.xi**2)
    assert margin == pytest.approx(0.0379, abs=1e-4)
    validate(us)


def test_finiteness_violation_raises(us):
    bad = with_params(us, **{"demo.rho": 0.06})
    with pytest.raises(UtilityExplosion):
        validate(bad)


def test_mu_below_r_rejected(us):
    bad = with_params(us, **{"market.mu": 0.01})
    with pytest.raises(OrderingViolation, match="mu"):
        validate(bad)


def test_sharpe_dominance_required(us):
    bad = with_params(us, **{"market.alpha": 0.03})
    with pytest.raises(OrderingViolation, match="Sharpe"):
        validate(bad)


def test_babyboom_rho_other_than_rho2_rejected(us_bb, tmp_path, capsys):
    # under a baby boom demo.rho is the settled rate, babyboom rho2: the
    # loader, the CLI (exit 4) and validate reject any other value
    from penmix.cli import main
    doc = scenario_to_dict(us_bb)
    doc["demography"]["rho"] = 0.0
    with pytest.raises(SchemaError, match="rho2"):
        scenario_from_dict(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "rho2" in err and err.count("\n") == 1
    with pytest.raises(OrderingViolation, match="rho2"):
        validate(replace(us_bb, demo=replace(us_bb.demo, rho=0.0)))


def test_validate_is_pure(us):
    assert validate(us) == validate(us)


def test_scenario_hash_is_kept_outside_the_fields(scenario_dir):
    # the cached hash is no field: fields, asdict and the JSON object are a
    # fresh scenario's, and a hashed scenario still equals a fresh one
    path = scenario_dir / "scenario_us_babyboom.json"
    s, fresh = load_scenario(path), load_scenario(path)
    hash(s)
    assert [f.name for f in fields(s)] == ["market", "demo", "policy", "pref"]
    assert asdict(s) == asdict(fresh)
    assert scenario_to_dict(s) == scenario_to_dict(fresh)
    assert s == fresh and hash(s) == hash(fresh)
    assert hash(s) == hash((s.market, s.demo, s.policy, s.pref))
    # a copy or a pickle carries the fields, not the hash
    for twin in (copy.deepcopy(s), pickle.loads(pickle.dumps(s)), replace(s)):
        assert twin == s and "_hash" not in vars(twin) and hash(twin) == hash(s)


def test_equal_scenarios_share_cache_entries(scenario_dir):
    path = scenario_dir / "scenario_cn.json"
    _validate_cached.cache_clear()
    s = load_scenario(path)
    validate(s)
    validate(load_scenario(path))   # equal, built anew
    info = _validate_cached.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    validate(with_params(s, **{"market.r": s.market.r * 1.01}))
    validate(with_params(s, **{"market.r": s.market.r}))   # the same values again
    info = _validate_cached.cache_info()
    assert (info.hits, info.misses) == (2, 2)


def test_validate_makes_three_quad_calls(us, cn, monkeypatch):
    # the two support-ratio masses and the annuity factor, each once
    calls = []
    real = demography.quad
    monkeypatch.setattr(demography, "quad",
                        lambda *args, **kw: calls.append(1) or real(*args, **kw))
    for s in (us, cn):
        calls.clear()
        _validate_cached.__wrapped__(s)
        assert len(calls) == 3


def test_round_trip_preserves_derived_constants(us, cn, us_bb):
    for s in (us, cn, us_bb):
        again = scenario_from_dict(json.loads(json.dumps(scenario_to_dict(s))))
        assert again == s
        assert validate(again) == validate(s)
    # baby-boom draws, with the defaulted n0, W0 and t0 moved off their defaults
    rng = np.random.default_rng(19)
    for _ in range(20):
        t1 = rng.uniform(-60.0, 10.0)
        s = with_params(us_bb, **{
            "demo.babyboom.t1": t1, "demo.babyboom.t2": t1 + rng.uniform(1.0, 40.0),
            "demo.babyboom.nm": rng.uniform(20.0, 300.0),
            "demo.babyboom.kappa": rng.uniform(0.01, 0.3),
            "demo.babyboom.rho1": rng.uniform(-0.02, 0.01),
            "demo.babyboom.rho2": rng.uniform(-0.02, 0.01),
            "demo.n0": rng.uniform(1.0, 20.0), "market.W0": rng.uniform(0.5, 2.0),
            "policy.t0": rng.uniform(-10.0, 10.0)})
        assert scenario_from_dict(scenario_to_dict(s)) == s
        assert scenario_from_dict(json.loads(json.dumps(scenario_to_dict(s)))) == s


def test_save_scenario_writes_the_declared_order(us_bb, tmp_path):
    path = tmp_path / "saved.json"
    save_scenario(us_bb, path)
    doc = json.loads(path.read_text())
    assert list(doc) == ["market", "demography", "policy", "preference"]
    assert list(doc["demography"]) == ["a", "tau", "omega", "rho", "A", "B", "c", "n0",
                                       "babyboom"]
    assert list(doc["preference"]) == ["lambda", "delta0", "delta1", "delta2"]
    assert load_scenario(path) == us_bb


def test_tax_inversion_warns(us):
    flipped = with_params(us, **{"policy.tau2": 0.5})
    with pytest.warns(UserWarning, match="tau1"):
        validate(flipped)


def test_delta_class_assignment(us):
    t0 = us.policy.t0
    assert delta_for_entry(t0 + 5.0, us) == us.pref.delta0   # not yet employed
    assert delta_for_entry(t0, us) == us.pref.delta1         # entering now
    assert delta_for_entry(t0 - 20.0, us) == us.pref.delta1  # mid-career
    assert delta_for_entry(t0 - 40.0, us) == us.pref.delta2  # retired
    assert delta_for_entry(t0 - 35.0, us) == us.pref.delta2  # exactly tau


def test_unknown_param_path_rejected(us):
    with pytest.raises(SchemaError):
        with_params(us, **{"market.bogus": 1.0})
    with pytest.raises(SchemaError):
        with_params(us, **{"nowhere.r": 1.0})


#: the attribute names of the JSON names that differ from them
ATTRIBUTE_NAMES = {"demography": "demo", "preference": "pref", "lambda": "lam"}


def _number_paths(doc, prefix=()):
    """The JSON path, as a tuple of names, of every number in a scenario doc."""
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from _number_paths(value, (*prefix, key))
        else:
            yield (*prefix, key)


def _holder(doc, names):
    """The object in doc that holds the last of the names."""
    for name in names[:-1]:
        doc = doc[name]
    return doc


def test_every_field_is_a_path_under_both_spellings(us_bb):
    # each number of every section and of the baby-boom block, by the
    # scenario file's names (preference.lambda) and by the attribute names
    # (pref.lam); on a baby boom rho and rho2 are one settled rate
    doc = scenario_to_dict(us_bb)
    settled = {("demography", "rho"), ("demography", "babyboom", "rho2")}
    paths = list(_number_paths(doc))
    assert len(paths) == 8 + 8 + 7 + 6 + 4
    for names in paths:
        attrs = tuple(ATTRIBUTE_NAMES.get(name, name) for name in names)
        value = _holder(doc, names)[names[-1]] + 0.125
        expected = json.loads(json.dumps(doc))
        for target in settled if names in settled else (names,):
            _holder(expected, target)[target[-1]] = value
        for path in (".".join(names), ".".join(attrs)):
            s = with_params(us_bb, **{path: value})
            record = s
            for name in attrs:
                record = getattr(record, name)
            assert record == value, path
            assert scenario_to_dict(s) == expected, path


def test_babyboom_param_paths(us_bb):
    for section in ("demo", "demography"):
        s = with_params(us_bb, **{f"{section}.babyboom.rho2": -0.01,
                                  f"{section}.babyboom.t1": -45.0})
        assert s.demo.babyboom == replace(us_bb.demo.babyboom, rho2=-0.01, t1=-45.0)
        # the settled rate moves with rho2, and rho2 with it
        assert s.demo.rho == -0.01
        assert replace(s, demo=replace(s.demo, babyboom=us_bb.demo.babyboom,
                                       rho=us_bb.demo.rho)) == us_bb
        assert with_params(us_bb, **{f"{section}.rho": -0.01}) == with_params(
            us_bb, **{f"{section}.babyboom.rho2": -0.01})
    with pytest.raises(SchemaError, match="unknown"):
        with_params(us_bb, **{"demo.babyboom.bogus": 1.0})
    with pytest.raises(SchemaError, match="unknown"):
        with_params(us_bb, **{"demo.rho.x": 1.0})


DOC_FIELD = re.compile(r"(\w+)(?: \((?:default ([^)]+)|(optional))\))?$")


def test_formats_doc_lists_the_declared_fields_and_defaults():
    # the scenario field block of docs/formats.md against the dataclasses
    text = (Path(__file__).resolve().parents[1] / "docs" / "formats.md").read_text()
    block = text.split("## Scenario file", 1)[1].split("```", 2)[1]
    documented, section = {}, None
    for line in block.strip().split("\n"):
        head, items = line.split(":", 1)
        name, _, marker = DOC_FIELD.match(head.strip()).groups()
        if line[0].isspace():   # a block nested in the section above
            documented[section].append((name, marker))
            name = f"{section}.{name}"
        else:
            section = name
        documented.setdefault(name, [])
        for item in filter(None, (item.strip() for item in items.split(","))):
            field, default, marker = DOC_FIELD.match(item).groups()
            documented[name].append((field, marker or (default and float(default))))

    declared = {}

    def walk(cls, where):
        declared[where] = []
        for f in fields(cls):
            key = _JSON_NAMES.get(f.name, f.name)
            if f.name in _RECORDS:
                if where:
                    declared[where].append((key, "optional"))
                walk(_RECORDS[f.name], f"{where}.{key}".lstrip("."))
            else:
                declared[where].append((key, None if f.default is MISSING else f.default))

    walk(Scenario, "")
    del declared[""]
    assert documented == declared


@pytest.mark.parametrize("path", ["demo.babyboom", "demography.babyboom"])
def test_block_path_rejected(us, us_bb, path):
    # a path must name a number, not the baby-boom record, with or without one
    for s in (us, us_bb):
        with pytest.raises(SchemaError, match="block"):
            with_params(s, **{path: 1.0})


def test_babyboom_path_needs_babyboom_block(us):
    with pytest.raises(SchemaError, match="no babyboom block"):
        with_params(us, **{"demo.babyboom.rho2": -0.01})


def test_riskless_eet_fund_needs_alpha_above_r(us):
    # beta = 0: the ordering is epsilon_tilde = alpha - r > 0, no division
    riskless = with_params(us, **{"market.beta": 0.0})
    assert validate(riskless).epsilon_tilde == us.market.alpha - us.market.r
    bad = with_params(us, **{"market.beta": 0.0, "market.alpha": us.market.r})
    with pytest.raises(OrderingViolation, match="Sharpe"):
        validate(bad)


@pytest.mark.parametrize("path, value, rule", [
    (("demography", "tau"), 20.0, "a < tau < omega"),
    (("demography", "c"), 1.0, "Makeham base c must exceed 1"),
    (("demography", "B"), -1e-6, "Makeham constants A, B must be nonnegative"),
    (("demography", "n0"), 0.0, "entrant density n0 must be positive"),
    (("demography", "babyboom", "t1"), -10.0, "requires t1 < t2"),
    (("demography", "babyboom", "n1"), 200.0, "requires 0 < n1 < nm"),
    (("demography", "babyboom", "kappa"), 0.0, "logistic rate kappa must be positive"),
    (("policy", "theta0"), -0.01, "theta0 must lie in [0, 1]"),
    (("policy", "m"), 1.5, "cap m must lie in [0, 1]"),
    (("policy", "tau2"), 1.0, "tau2 must lie in [0, 1)"),
    (("preference", "delta1"), 0.0, "delta1 must be < 1 and nonzero"),
], ids=lambda v: ".".join(v) if isinstance(v, tuple) else None)
def test_structural_violation_is_a_schema_error_naming_it(us_bb, path, value, rule):
    doc = scenario_to_dict(us_bb)
    *sections, field = path
    node = doc
    for key in sections:
        node = node[key]
    node[field] = value
    with pytest.raises(SchemaError, match=re.escape(rule)):
        scenario_from_dict(doc)


@pytest.mark.parametrize("field, value, error, words", [
    ("sigma", 0.0, OrderingViolation, "positive (sigma)"),
    ("sigma", -0.26, OrderingViolation, "positive (sigma)"),
    ("W0", 0.0, OrderingViolation, "W0 must be positive"),
    ("W0", -1.0, OrderingViolation, "W0 must be positive"),
])
def test_validate_rejects_nonpositive_sigma_and_W0(us, field, value, error, words):
    with pytest.raises(error, match=re.escape(words)):
        validate(with_params(us, **{f"market.{field}": value}))


def test_validate_rejects_epsilon_tilde_equal_to_epsilon(us):
    # gamma = alpha + (xi - beta) nu makes epsilon = epsilon_tilde, away from 0
    mk = us.market
    nu = (mk.mu - mk.r) / mk.sigma
    s = with_params(us, **{"market.gamma": mk.alpha + (mk.xi - mk.beta) * nu})
    with pytest.raises(DegenerateDrift, match="coincides with epsilon"):
        validate(s)


@pytest.mark.parametrize("theta, k", OUTSIDE_RATE_BOX)
@pytest.mark.parametrize("error", [DomainError, InsolventCohort])
def test_check_rates_refuses_points_outside_the_box(theta, k, error):
    with pytest.raises(error, match=re.escape(
            f"({theta}, {k}) lies outside the rate box theta, k >= 0, theta + k <= 0.25")):
        check_rates(theta, k, 0.25, error)


def test_check_rates_has_1e_12_slack():
    for theta, k in [(0.0, 0.0), (0.25, 0.0), (0.0, 0.25), (-5e-13, 0.25 + 5e-13),
                     (0.25 + 5e-13, -5e-13)]:
        check_rates(theta, k, 0.25, DomainError)
    for theta, k in [(-2e-12, 0.1), (0.1, -2e-12), (0.25, 2e-12)]:
        with pytest.raises(DomainError):
            check_rates(theta, k, 0.25, DomainError)
