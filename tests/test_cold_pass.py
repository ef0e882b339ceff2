"""tools/cold_pass.py on small pools: one timed pass per process."""
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_TOOL = _ROOT / "tools" / "cold_pass.py"


def _run(*args):
    return subprocess.run([sys.executable, str(_TOOL), *args], capture_output=True,
                          text=True, cwd=_ROOT, timeout=300, check=False)


@pytest.mark.parametrize("workload", ["flow_scan", "algebraic_rr0", "moment_hankel"])
def test_one_line_with_the_pass_time_and_pool_size(workload):
    res = _run(workload, "4", "--scale", "0.05", "--root", str(_ROOT))
    assert res.returncode == 0, res.stderr
    name, seed, seconds, n_items = res.stdout.split()
    assert (name, seed) == (workload, "4")
    assert float(seconds) > 0 and int(n_items) > 0


def test_unknown_workload_is_a_usage_error():
    res = _run("no_such_workload", "1")
    assert res.returncode == 2 and "flow_scan" in res.stderr
