#!/usr/bin/env python3
"""Medians of benchmark runs, parent against change.

Reads two directories of `perfbench/out/<workload>-seed<N>-trace0.json`
files copied from runs of `perfbench/run.py --trace 0`, one directory per
side, and prints one JSON object: for each side and workload, the number
of runs, whether every run was correct (`failed == 0`), and the median,
interquartile range and count of each end-to-end metric.  With the
`pairs` table it also counts, per workload and metric, the seeds run on
both sides and how many of those pairs the change won (lower is better;
ties count for neither side).  Standard library only.

    python3 tools/bench_medians.py PARENT_DIR CHANGE_DIR > BENCH_x.json
"""
import json
import re
import statistics
import sys
from pathlib import Path

NAME = re.compile(r"^(?P<workload>.+)-seed(?P<seed>\d+)-trace0\.json$")


def load(directory):
    """{workload: {seed: details}} for the trace0 files in directory."""
    runs = {}
    for path in sorted(Path(directory).iterdir()):
        m = NAME.match(path.name)
        if m:
            runs.setdefault(m["workload"], {})[int(m["seed"])] = json.loads(path.read_text())
    return runs


def summary(values):
    values = sorted(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "iqr": q3 - q1, "n": len(values)}


def side(runs):
    out = {}
    for workload, by_seed in sorted(runs.items()):
        details = list(by_seed.values())
        names = sorted({k for d in details for k in d["metrics"]})
        out[workload] = {
            "runs": len(details),
            "correct": all(d["failed"] == 0 for d in details),
            "metrics": {k: summary([d["metrics"][k] for d in details if k in d["metrics"]])
                        for k in names},
        }
    return out


def pairs(parent, change):
    out = {}
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        names = sorted({k for s in seeds for k in change[workload][s]["metrics"]})
        out[workload] = {}
        for k in names:
            both = [(parent[workload][s]["metrics"].get(k), change[workload][s]["metrics"].get(k))
                    for s in seeds]
            both = [(p, c) for p, c in both if p is not None and c is not None]
            out[workload][k] = {"pairs": len(both),
                                "change_wins": sum(1 for p, c in both if c < p),
                                "parent_wins": sum(1 for p, c in both if p < c)}
    return out


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = load(argv[1]), load(argv[2])
    print(json.dumps({"parent": side(parent), "change": side(change),
                      "pairs": pairs(parent, change)}, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
