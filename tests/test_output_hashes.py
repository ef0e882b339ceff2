"""tools/output_hashes.py on small pools: one sha256 per seed, repeatable."""
import re
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_TOOL = _ROOT / "tools" / "output_hashes.py"


def _run(*args):
    return subprocess.run([sys.executable, str(_TOOL), *args], capture_output=True,
                          text=True, cwd=_ROOT, timeout=300, check=False)


@pytest.mark.parametrize("workload", ["flow_scan", "algebraic_rr0", "moment_hankel"])
def test_one_hash_per_seed_and_repeatable(workload):
    res = _run(workload, "4", "4", "5", "--scale", "0.05", "--root", str(_ROOT))
    assert res.returncode == 0, res.stderr
    lines = [line.split() for line in res.stdout.splitlines()]
    assert [line[:2] for line in lines] == [[workload, "4"], [workload, "4"], [workload, "5"]]
    assert all(re.fullmatch(r"[0-9a-f]{64}", line[2]) for line in lines)
    assert lines[0][2] == lines[1][2]


def test_unknown_workload_is_a_usage_error():
    res = _run("no_such_workload", "1")
    assert res.returncode == 2 and "flow_scan" in res.stderr
