#!/usr/bin/env python3
"""Hash a benchmark workload's outputs, to compare two checkouts byte for byte.

For each seed, builds the workload's pool from `ROOT/perfbench/fclbench`,
calls the workload once per item on the fcl sources under `ROOT/src`, and
prints one line: the workload, the seed and the sha256 of the items'
`Workload.text` outputs joined by newlines.  Two checkouts whose lines
agree print the same bytes on that pool.  Nothing is written under ROOT:
no bytecode is cached and `cli_session`'s scratch files go to a temporary
directory.  Standard library only.

    python3 tools/output_hashes.py WORKLOAD SEED [SEED ...] [--root DIR] [--scale X]
"""
import argparse
import hashlib
import sys
import tempfile
from pathlib import Path


def _parse(argv):
    ap = argparse.ArgumentParser(prog="output_hashes.py", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("workload")
    ap.add_argument("seeds", nargs="+", type=int, metavar="SEED")
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
        for seed in args.seeds:
            text = "\n".join(wl.text(wl.call(it)) for it in wl.setup(seed, args.scale))
            print(args.workload, seed, hashlib.sha256(text.encode()).hexdigest(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
