import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPTS / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(side, pair, failed=0, **values):
    return {"side": side, "pair": pair, "seed": pair,
            "result": {"correct": not failed, "attempted": 10, "failed": failed,
                       "metrics": {k: {"value": v, "unit": "u"} for k, v in values.items()}}}


def test_bench_pairs_summary_on_canned_runs(bench_pairs):
    metrics = [{"name": "rate", "better": "higher"}, {"name": "rss", "better": "lower"},
               {"name": "count", "better": "lower"}]
    runs = [_run("parent", 0, rate=1.0, rss=90.0, count=None),
            _run("change", 0, rate=1.5, rss=90.0, count=3),
            _run("change", 1, failed=2, rate=1.9, rss=89.0, count=3),
            _run("parent", 1, rate=2.0, rss=91.0, count=4),
            _run("parent", 2, rate=3.0, rss=92.0, count=4),
            _run("change", 2, rate=3.5, rss=93.0, count=2)]
    doc = bench_pairs.summarize(runs, metrics)
    assert doc["pairs"] == 3
    # numpy.percentile, linear: quartiles of (1, 2, 3) are 1.5 and 2.5
    assert doc["summary"]["parent"]["rate"] == {"median": 2.0, "q25": 1.5, "q75": 2.5}
    assert doc["summary"]["change"]["rate"] == {"median": 1.9, "q25": 1.7, "q75": 2.7}
    assert doc["summary"]["change"]["rss"] == {"median": 90.0, "q25": 89.5, "q75": 91.5}
    assert doc["summary"]["parent"]["failed_ops"] == 0
    assert doc["summary"]["change"]["failed_ops"] == 2
    # higher rate wins pairs 0 and 2; lower rss wins pair 1, a tie is no win;
    # a metric some run reports as null is left out
    assert doc["wins"] == {"rate": 2, "rss": 1}
    assert "count" not in doc["summary"]["parent"]


@pytest.fixture(scope="module")
def golden_outputs():
    spec = importlib.util.spec_from_file_location("golden_outputs",
                                                  SCRIPTS / "golden_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _output_dir(path, cell="0.5"):
    path.mkdir()
    (path / "a.csv").write_text(f"x,y\n1,{cell}\n2,0.25\n")
    (path / "b.stdout").write_text('{\n  "theta": 0.1\n}\n')
    return path


def test_golden_compare_of_identical_directories(golden_outputs, tmp_path, capsys):
    a, b = _output_dir(tmp_path / "a"), _output_dir(tmp_path / "b")
    assert golden_outputs.main(["--compare", str(a), str(b)]) == 0
    assert capsys.readouterr().out == "a.csv: identical\nb.stdout: identical\n"


def test_golden_compare_names_a_changed_csv_cell(golden_outputs, tmp_path, capsys):
    a, b = _output_dir(tmp_path / "a"), _output_dir(tmp_path / "b", cell="0.75")
    assert golden_outputs.main(["--compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out.splitlines()
    # 0.5 -> 0.75: relative 0.25 / 0.75, column-scaled 0.25 / max(0.5, 0.25)
    assert out[:3] == ["a.csv:", "  x: max rel 0, column-scaled 0",
                       "  y: max rel 0.333, column-scaled 0.5"]
    assert out[3:] == ["b.stdout: identical"]


def test_golden_compare_of_a_file_in_one_directory_only(golden_outputs, tmp_path, capsys):
    a, b = _output_dir(tmp_path / "a"), _output_dir(tmp_path / "b")
    (b / "c.json").write_text("{}\n")
    assert golden_outputs.main(["--compare", str(a), str(b)]) == 1
    assert f"c.json: only in {b}" in capsys.readouterr().out.splitlines()
