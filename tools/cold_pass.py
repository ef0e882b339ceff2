#!/usr/bin/env python3
"""Time one pass over a benchmark workload's pool in this fresh process.

Builds the workload's pool from `ROOT/perfbench/fclbench` and runs its
warm-up call, as `perfbench/run.py` does in its set-up; then calls the
workload once per item on the fcl sources under `ROOT/src` and prints one
line: the workload, the seed, the seconds of that one pass and the number
of items.  Unlike `wall_s`, which keeps each item's best time over many
passes, this counts every memo miss a single `fcl` run pays, so a gain
that only replays of a memo give does not show here.  Start one process
per sample, and alternate checkouts.  Nothing is written under ROOT: no
bytecode is cached and `cli_session`'s scratch files go to a temporary
directory.  Standard library only.

    python3 tools/cold_pass.py WORKLOAD SEED [--root DIR] [--scale X]
"""
import argparse
import sys
import tempfile
import time
from pathlib import Path


def _parse(argv):
    ap = argparse.ArgumentParser(prog="cold_pass.py", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("workload")
    ap.add_argument("seed", type=int)
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                    help="checkout holding perfbench/ and src/ (default: this one)")
    ap.add_argument("--scale", type=float, default=1.0, help="pool size factor")
    return ap.parse_args(argv)


def main(argv):
    args = _parse(argv)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(args.root.resolve() / "perfbench"))
    from fclbench import env
    from fclbench.workloads import WORKLOADS
    env.use_checkout_fcl()
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory() as out_dir:
        env.OUT_DIR = Path(out_dir)
        items = wl.setup(args.seed, args.scale)
        wl.warmup()
        t0 = time.perf_counter()
        for it in items:
            wl.call(it)
        dt = time.perf_counter() - t0
    print(args.workload, args.seed, f"{dt:.6f}", len(items), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
