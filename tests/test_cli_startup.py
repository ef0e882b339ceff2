"""tools/cli_startup.py on one round: a line per README example."""
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_TOOL = _ROOT / "tools" / "cli_startup.py"


def _run(*args):
    return subprocess.run([sys.executable, str(_TOOL), *args], capture_output=True,
                          text=True, cwd=_ROOT, timeout=300, check=False)


def test_one_round_prints_each_examples_time_and_rss():
    res = _run("--rounds", "1", "--root", str(_ROOT))
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert lines[0] == f"# A = {_ROOT}"
    assert lines[1].split("\t") == ["command", "A:median_s", "A:rss_mb"]
    rows = [line.split("\t") for line in lines[2:]]
    assert [r[0] for r in rows] == ["moments", "hankel", "criticals", "charpoly", "nset",
                                    "euler", "fuss", "monotone", "deconv", "density",
                                    "region", "oeis"]
    assert all(float(r[1]) > 0 and float(r[2]) > 0 for r in rows)


def test_three_roots_are_a_usage_error():
    res = _run("--root", ".", "--root", ".", "--root", ".")
    assert res.returncode == 2 and "one or two roots" in res.stderr
