"""Where the program under test lives, and run metadata.

The benchmark always measures the fcl sources of the checkout it sits in
(<root>/src/fcl), never an installed copy.
"""
from __future__ import annotations

import importlib.util
import os
import platform
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"


class SetupError(RuntimeError):
    """The checkout does not hold what the benchmark needs."""


def use_checkout_fcl(import_it=True):
    """Put <root>/src first on sys.path and check fcl resolves there."""
    if not (SRC / "fcl" / "__init__.py").is_file():
        raise SetupError(f"no fcl sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if import_it:
        import fcl
        origin = fcl.__file__
    else:
        spec = importlib.util.find_spec("fcl")
        origin = spec.origin if spec else None
    if origin is None or Path(origin).resolve().parent != (SRC / "fcl").resolve():
        raise SetupError(f"fcl resolves to {origin}, not to {SRC / 'fcl'}")


def child_env() -> dict:
    """Environment for fcl subprocesses: checkout sources, no fcl config."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("FCL_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def git_sha():
    """HEAD commit read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.is_file():
                return path.read_text().strip()
            packed = git / "packed-refs"
            if packed.is_file():
                for line in packed.read_text().splitlines():
                    if line.endswith(" " + ref):
                        return line.split()[0]
            return None
        return head
    except OSError:
        return None


def run_metadata(seed: int) -> dict:
    return {"seed": seed, "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "git_sha": git_sha(), "nproc": os.cpu_count(),
            "platform": platform.platform()}
