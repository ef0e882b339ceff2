"""Benchmark entry point: python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1, run from the repository root.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  See perfbench/README.md.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from fclbench.harness import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
