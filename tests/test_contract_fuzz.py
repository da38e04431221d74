"""Contract fuzz: every subcommand on broadly perturbed scenarios ends in a
result or in a documented error (docs/formats.md, "Exit codes").

Each draw scales up to five scalar fields of one fixture, the baby-boom
block included, by factors in [0.5, 1.5], may move t0 anywhere in [-60, 60] and
picks the entry-time step of `optimize` and `sweep`.  The draws are
derandomized, so a run is repeatable.  The explicit examples pin the known
edges: a welfare that underflows (US with c = 1.3), a retiree mass that
underflows (c = 1.686) and a step that would ask for 3.5e301 nodes.
"""
import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from penmix.cli import main

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
FIXTURES = {name: json.loads((SCENARIOS / f"scenario_{name}.json").read_text())
            for name in ("us", "cn", "us_babyboom")}
#: (section, field) of every scalar of the baby-boom fixture; a constant-flow
#: draw ignores the block's fields
FIELDS = [(section, key) for section, values in FIXTURES["us_babyboom"].items()
          for key, value in values.items() if not isinstance(value, dict)]
FIELDS += [("babyboom", key) for key in FIXTURES["us_babyboom"]["demography"]["babyboom"]]
EXIT_CODES = {0, 2, 3, 4}

#: up to five fields of a draw, each scaled by a factor in [0.5, 1.5]
scales = st.dictionaries(st.sampled_from([f"{section}.{key}" for section, key in FIELDS]),
                         st.floats(0.5, 1.5), max_size=5)


def _scenario(name: str, scale: dict, t0) -> dict:
    doc = json.loads(json.dumps(FIXTURES[name]))
    bb = doc["demography"].get("babyboom")
    for path, factor in scale.items():
        section, key = path.split(".")
        block = bb if section == "babyboom" else doc[section]
        if block is not None:
            block[key] *= factor
    if bb is not None:
        bb["rho2"] = doc["demography"]["rho"]   # the loader requires rho = rho2
    if t0 is not None:
        doc["policy"]["t0"] = t0
    return doc


def _runs(doc: dict, scenario: str, spec: str, step: str):
    d, p = doc["demography"], doc["policy"]
    rates = ["--theta", repr(p["theta0"]), "--k", repr(p["k0"])]
    return [["validate", scenario],
            ["critical-ages", scenario],
            ["optimize", scenario, "--weighting", "population", "--step", step],
            ["optimize", scenario, "--weighting", "equal", "--step", step],
            ["optimize", scenario, "--weighting", "population", "--voluntary", "--step", step],
            ["classify", scenario, "--step", "5"],
            ["paths", scenario, "--zeta", repr(0.5 * (d["a"] + d["omega"])), "--grid", "1",
             *rates],
            ["babyboom", scenario, "--grid", "1"],
            ["sweep", scenario, "--spec", spec, "--step", step]]


def _numbers(doc):
    if isinstance(doc, dict):
        for value in doc.values():
            yield from _numbers(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from _numbers(value)
    elif isinstance(doc, float) or (isinstance(doc, int) and not isinstance(doc, bool)):
        yield doc


def _check_output(argv, out: str) -> None:
    """Every number of a successful run's stdout is finite, except the value
    of a sweep cell that carries a reason; no objective is 0.0."""
    if out.startswith("{"):
        doc = json.loads(out)
        assert all(math.isfinite(x) for x in _numbers(doc)), (argv, out)
        assert doc.get("objective", -1.0) != 0.0, (argv, out)
        return
    header, *rows = [line.split(",") for line in out.strip().split("\n")]
    for row in rows:
        assert len(row) == len(header), (argv, row)
        for name, cell in zip(header, row):
            if name in ("ordering", "reason"):
                continue
            if argv[0] == "sweep" and name == header[2] and row[3]:
                continue   # a documented nan cell
            assert math.isfinite(float(cell)), (argv, name, row)


@settings(max_examples=60, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(FIXTURES)), scale=scales,
       t0=st.one_of(st.none(), st.floats(-60.0, 60.0)),
       step=st.sampled_from(["0.25", "0.5", "1e-300"]))
@example(name="us", scale={"demography.c": 1.3 / 1.124}, t0=None, step="0.25")
@example(name="us", scale={"demography.c": 1.5}, t0=None, step="0.25")
@example(name="cn", scale={}, t0=None, step="1e-300")
def test_every_command_ends_in_a_result_or_a_documented_error(name, scale, t0, step):
    doc = _scenario(name, scale, t0)
    with tempfile.TemporaryDirectory() as tmp:
        scenario, spec = Path(tmp) / "scenario.json", Path(tmp) / "spec.json"
        scenario.write_text(json.dumps(doc))
        tau1 = doc["policy"]["tau1"]
        spec.write_text(json.dumps({
            "param1": {"path": "policy.tau1", "lo": tau1, "hi": 1.1 * tau1, "steps": 2},
            "param2": {"path": "preference.lambda", "lo": doc["preference"]["lambda"],
                       "hi": doc["preference"]["lambda"], "steps": 2},
            "target": "theta_star"}))
        for argv in _runs(doc, str(scenario), str(spec), step):
            out, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("ignore")
                code = main(argv)
            out, err = out.getvalue(), err.getvalue()
            assert code in EXIT_CODES, (argv, code, err)
            if code == 0:
                _check_output(argv, out)
            else:
                assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
                assert "Traceback" not in err
