"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/tests

They check that inputs are a pure function of the seed, that every workload
runs clean at the default seed and at another seed, that a wrong answer is
reported as a failed op, and that the printed metrics are the ones
BENCHMARK.json declares.  Together they take a few minutes.
"""
from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.pin_threads()
workloads = run.bootstrap()

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = list(workloads.WORKLOADS)


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _plain(inputs, directory: Path):
    """Inputs with paths made relative, so two directories compare equal."""
    return json.loads(json.dumps(
        inputs, default=lambda p: str(Path(p).relative_to(directory))))


def _invoke(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=600)


def _result(done: subprocess.CompletedProcess) -> tuple[dict, dict]:
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def test_workloads_match_benchmark_json():
    assert NAMES == [w["name"] for w in BENCHMARK["workloads"]]
    assert list(run.WORKLOAD_NAMES) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_identical_inputs(name, tmp_path):
    seen = []
    for side in ("a", "b"):
        workdir = tmp_path / side
        workdir.mkdir()
        wl = workloads.WORKLOADS[name](run.ROOT, workdir, seed=5)
        wl.setup()
        seen.append((_plain(wl.inputs, workdir), _files(workdir)))
    assert seen[0] == seen[1]
    other = tmp_path / "c"
    other.mkdir()
    wl = workloads.WORKLOADS[name](run.ROOT, other, seed=6)
    wl.setup()
    assert _plain(wl.inputs, other) != seen[0][0] or _files(other) != seen[0][1]


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, 1])
@pytest.mark.parametrize("name", ["sweep-cold", "babyboom"])
def test_generated_scenarios_validate(name, seed, tmp_path):
    import penmix

    wl = workloads.WORKLOADS[name](run.ROOT, tmp_path, seed)
    wl.setup()
    for path in sorted(tmp_path.glob("*.json")):
        penmix.validate(penmix.load_scenario(path))


def test_tampered_reference_is_a_failed_op(tmp_path):
    reference = run.load_reference()["ops"]["policy-warm"]
    wl = workloads.WORKLOADS["policy-warm"](
        run.ROOT, tmp_path, workloads.DEFAULT_SEED, reference)
    wl.setup()
    inp = wl.input(0)
    raw = wl.run(inp, None)
    assert wl.evaluate(0, inp, raw) == []

    tampered = copy.deepcopy(reference)
    tampered[0]["us.theta_star"] += 1e-4
    wl.reference = tampered
    problems = wl.evaluate(0, inp, raw)
    assert len(problems) == 1 and problems[0].startswith("us.theta_star")


def test_speed_probe_samples_during_the_op_and_restores_the_handler():
    import signal
    from time import perf_counter

    import hostspeed

    previous = signal.getsignal(signal.SIGALRM)
    with hostspeed.SpeedProbe() as probe:
        end = perf_counter() + 0.3
        while perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.samples) >= 5          # before, during and after
    assert 0.0 < probe.spent < 0.3
    assert probe.elapsed == pytest.approx(0.3 - probe.spent, abs=0.01)
    assert probe.normalized == pytest.approx(
        probe.elapsed * hostspeed.scale(probe.samples))


def test_compare_tolerances():
    assert workloads.compare({"x": ("rate", 0.1 + 5e-7)}, {"x": 0.1}) == []
    assert workloads.compare({"x": ("rate", 0.1 + 2e-6)}, {"x": 0.1})
    assert workloads.compare({"x": ("mc", 1.0 + 1e-13)}, {"x": 1.0}) == []
    assert workloads.compare({"x": ("mc", 1.0 + 1e-11)}, {"x": 1.0})
    assert workloads.compare({"x": ("rate", None)}, {"x": None}) == []
    assert workloads.compare({"x": ("rate", 40.0)}, {"x": None})
    assert workloads.compare({}, {"x": 1.0})


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, 1])
@pytest.mark.parametrize("name", NAMES)
def test_run_is_clean_and_prints_the_end_to_end_metrics(name, seed):
    done = _invoke(run.ROOT, "--workload", name, "--seed", str(seed),
                   "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    report, result = _result(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert report["end_to_end"]["fail_ratio"]["value"] == 0.0
    assert ("path_steps_per_s" in report["end_to_end"]) == (name == "mc-oracle")
    assert report["env"]["threads"]["PENMIX_THREADS"] == "1"


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_prints_the_per_layer_metrics(name):
    done = _invoke(run.ROOT, "--workload", name, "--seed", "0",
                   "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    report, result = _result(done)
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] is not None for v in result["metrics"].values())
    assert set(report["tracing"]) == {"untraced_ops_per_s", "traced_ops_per_s",
                                      "ops_per_s_gap"}
    assert (run.ROOT / report["spans_file"]).is_file()


def test_bare_directory_exits_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _invoke(tmp_path, "--workload", "sweep-cold", "--seed", "0",
                   "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
    assert "src/penmix/__init__.py not found" in done.stderr
