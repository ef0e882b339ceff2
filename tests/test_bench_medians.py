"""tools/bench_medians.py on synthetic run files: medians, IQRs, counts,
correctness flags, pair wins and the usage exit code."""
import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_medians.py"
_spec = importlib.util.spec_from_file_location("bench_medians", _PATH)
bench_medians = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_medians)


def _write_runs(directory, workload, runs):
    """runs: {seed: (metrics, failed)} as `<workload>-seed<N>-trace0.json`."""
    directory.mkdir(exist_ok=True)
    for seed, (metrics, failed) in runs.items():
        (directory / f"{workload}-seed{seed}-trace0.json").write_text(
            json.dumps({"metrics": metrics, "failed": failed}))


def _run(capsys, parent, change):
    assert bench_medians.main(["bench_medians.py", str(parent), str(change)]) == 0
    return json.loads(capsys.readouterr().out)


def test_medians_iqr_and_pairs(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    _write_runs(parent, "flow", {1: ({"wall_s": 1.0, "rss": 5}, 0),
                                 2: ({"wall_s": 3.0, "rss": 5}, 0),
                                 3: ({"wall_s": 2.0, "rss": 5}, 0),
                                 4: ({"wall_s": 4.0, "rss": 5}, 0)})
    _write_runs(change, "flow", {1: ({"wall_s": 0.5, "rss": 5}, 0),
                                 2: ({"wall_s": 3.0, "rss": 4}, 0),
                                 3: ({"wall_s": 2.5, "rss": 6}, 1),
                                 5: ({"wall_s": 0.1, "rss": 1}, 0)})
    # files that do not follow the naming scheme are ignored
    (parent / "flow-seed9-trace1.json").write_text("not json")
    (change / "notes.txt").write_text("x")
    out = _run(capsys, parent, change)

    p = out["parent"]["flow"]
    assert p["runs"] == 4 and p["correct"] is True
    # inclusive quartiles of 1, 2, 3, 4 are 1.75 and 3.25
    assert p["metrics"]["wall_s"] == {"median": 2.5, "iqr": 1.5, "n": 4}
    assert p["metrics"]["rss"] == {"median": 5, "iqr": 0, "n": 4}

    c = out["change"]["flow"]
    assert c["runs"] == 4 and c["correct"] is False  # seed 3 has failed > 0
    assert c["metrics"]["wall_s"]["n"] == 4

    # seeds 1, 2, 3 run on both sides; equal values count for neither side
    pairs = out["pairs"]["flow"]
    assert pairs["wall_s"] == {"pairs": 3, "change_wins": 1, "parent_wins": 1}
    assert pairs["rss"] == {"pairs": 3, "change_wins": 1, "parent_wins": 1}


def test_single_run_and_disjoint_workloads(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    _write_runs(parent, "cli", {7: ({"wall_s": 2.0}, 0)})
    _write_runs(change, "moments", {7: ({"wall_s": 1.0}, 0)})
    out = _run(capsys, parent, change)
    assert out["parent"]["cli"]["metrics"]["wall_s"] == {"median": 2.0, "iqr": 0, "n": 1}
    assert set(out["change"]) == {"moments"}
    assert out["pairs"] == {}


@pytest.mark.parametrize("argv", [["bench_medians.py"], ["bench_medians.py", "a"],
                                  ["bench_medians.py", "a", "b", "c"]])
def test_usage_exit_code(argv, capsys):
    assert bench_medians.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "bench_medians.py PARENT_DIR CHANGE_DIR" in captured.err
