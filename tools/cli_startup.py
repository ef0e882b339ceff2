#!/usr/bin/env python3
"""Time each README CLI example in fresh processes, on one or two checkouts.

For each example of perfbench's `CLI_EXAMPLES` (read from the first
root's `perfbench/fclbench`), every round starts one fresh
`python -m fcl.cli` child per root on that root's `src`, the first root
first in even rounds and last in odd ones.  Children write no bytecode,
read no fcl config and discard their output; a child that fails stops
the run.  Prints one line per example: for each root, the median wall
seconds and the median peak RSS in MB (`ru_maxrss` from `os.wait4`),
then, with two roots, the rounds each root was the faster.  This
resolves start-up gains of a few milliseconds per command, which
`cli_session`'s whole-session metrics do not.  Standard library only.

    python3 tools/cli_startup.py [--root DIR [--root DIR]] [--rounds N]
"""
import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path


def _parse(argv):
    ap = argparse.ArgumentParser(prog="cli_startup.py", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", type=Path, action="append",
                    help="checkout holding perfbench/ and src/; give it twice to "
                         "compare two (default: this one)")
    ap.add_argument("--rounds", type=int, default=20, help="children per example and root")
    args = ap.parse_args(argv)
    args.root = [r.resolve() for r in args.root or [Path(__file__).resolve().parents[1]]]
    if len(args.root) > 2 or args.rounds < 1:
        ap.error("give one or two roots and at least one round")
    return args


def _child_env(root):
    env = {k: v for k, v in os.environ.items() if not k.startswith("FCL_")}
    env.update(PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1")
    return env


def _run(root, argv):
    """Wall seconds and peak RSS in MB of one CLI child."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "fcl.cli", *argv], cwd=root,
                            env=_child_env(root), stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    dt = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"fcl {' '.join(argv)} exited {proc.returncode} under {root}")
    return dt, usage.ru_maxrss / 1024


def main(argv):
    args = _parse(argv)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(args.root[0] / "perfbench"))
    from fclbench.workloads import CLI_EXAMPLES
    labels = "AB"[:len(args.root)]
    for label, root in zip(labels, args.root):
        print(f"# {label} = {root}")
    head = ["command"] + [f"{x}:{col}" for x in labels for col in ("median_s", "rss_mb")]
    print("\t".join(head + [f"{x}:wins" for x in labels if len(labels) == 2]), flush=True)
    for name, cli_argv in CLI_EXAMPLES:
        secs = [[] for _ in args.root]
        rss = [[] for _ in args.root]
        for r in range(args.rounds):
            order = range(len(args.root)) if r % 2 == 0 else reversed(range(len(args.root)))
            for i in order:
                dt, mb = _run(args.root[i], cli_argv)
                secs[i].append(dt)
                rss[i].append(mb)
        row = [name]
        for s, m in zip(secs, rss):
            row += [f"{statistics.median(s):.4f}", f"{statistics.median(m):.2f}"]
        if len(secs) == 2:
            a_wins = sum(a < b for a, b in zip(*secs))
            row += [str(a_wins), str(args.rounds - a_wins)]
        print("\t".join(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
