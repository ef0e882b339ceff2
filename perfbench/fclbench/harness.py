"""Run one workload: set up, time passes over the pool, check, report.

Load shape: one client in one process, closed loop, no threads.  The next
call starts when the previous one has returned; cli_session's calls are
child processes started one after another and waited for.
"""
from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
import traceback

from . import env
from .speed import calibrate, normalize_all
from .stats import median, tail

# Set-up is repeated in this many fresh child processes; together with the
# run's own set-up they give the median reported as setup_s.
SETUP_PROBES = 2


def _parse(argv):
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="pool size factor; below 1 only for smoke tests")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _setup(wl, seed, scale):
    """Import fcl, build the pool, warm up; returns (items, normalized s)."""
    c0 = calibrate()
    t0 = time.perf_counter()
    import fcl  # noqa: F401  (the import is part of set-up)
    items = wl.setup(seed, scale)
    wl.warmup()
    dt = time.perf_counter() - t0
    return items, normalize_all([dt], [c0, calibrate()])[0]


def _probe_setup(args) -> float:
    cmd = [sys.executable, str(env.BENCH_DIR / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--scale", str(args.scale)]
    res = subprocess.run(cmd, capture_output=True, text=True, cwd=env.ROOT,
                         timeout=120, check=False)
    if res.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {res.stderr.strip()[-500:]}")
    return json.loads(res.stdout.strip().splitlines()[-1])["setup_s"]


class PassResult:
    """Outputs, latencies and failures of one or more passes over a pool."""

    def __init__(self, n_items):
        self.first_out = [None] * n_items
        self.first_text = [None] * n_items
        self.errors = {}                  # item index -> reason
        self.failed_calls = 0
        self.calls = []                   # (item index, pass, seconds, raw seconds)
        self.pass_seconds = []            # raw
        self.pass_normalized = []
        self.unknown = 0

    def record(self, wl, i, npass, out, err, dt, raw):
        self.calls.append((i, npass, dt, raw))
        if err is not None:
            self.failed_calls += 1
            self.errors.setdefault(i, err)
            return
        if wl.is_unknown(out):
            self.unknown += 1
        text = wl.text(out)
        if npass == 0:
            self.first_out[i], self.first_text[i] = out, text
        elif text != self.first_text[i]:
            self.failed_calls += 1
            self.errors.setdefault(i, f"pass {npass} output differs from pass 0")


def _call(wl, item):
    t0 = time.perf_counter()
    try:
        out = wl.call(item)
        err = None
    except Exception:                     # a failing call is counted, not fatal
        out, err = None, traceback.format_exc(limit=3).strip().splitlines()[-1]
    return out, err, time.perf_counter() - t0


def timed_pass(wl, items, res, npass, before_each=None):
    """One pass over the pool; calls alternate with calibrations.

    Returns the pass's raw seconds.
    """
    cals, done = [calibrate()], []
    for i, item in enumerate(items):
        if before_each is not None:
            before_each(i)
        done.append(_call(wl, item))
        cals.append(calibrate())
    raws = [raw for _, _, raw in done]
    norms = normalize_all(raws, cals)
    for i, ((out, err, raw), norm) in enumerate(zip(done, norms)):
        res.record(wl, i, npass, out, err, norm, raw)
    res.pass_seconds.append(sum(raws))
    res.pass_normalized.append(sum(norms))
    return sum(raws)


def run_passes(wl, items, seconds, max_passes=None) -> PassResult:
    """At least wl.min_passes passes over the pool, then more while another
    pass, as long as the last one, still ends within `seconds`.  Each
    item's best time over the passes is kept (see best_latencies)."""
    res = PassResult(len(items))
    start = time.perf_counter()
    npass = 0
    while True:
        total = timed_pass(wl, items, res, npass)
        npass += 1
        if max_passes is not None and npass >= max_passes:
            break
        if npass >= wl.min_passes and time.perf_counter() - start + total > seconds:
            break
    return res


def peak_rss_mb(wl, res) -> float:
    if wl.name == "cli_session":
        return max(o.maxrss_kb for o in res.first_out if o is not None) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def best_latencies(n_items, calls, col=2):
    """Each item's fastest call over the run's passes (column col of the
    call records: 2 normalized, 3 raw seconds)."""
    best = [None] * n_items
    for call in calls:
        i, dt = call[0], call[col]
        if best[i] is None or dt < best[i]:
            best[i] = dt
    return best


def end_to_end(wl, items, res, setup_samples, rss_mb):
    lat = best_latencies(len(items), res.calls)
    tail_s, tail_p = tail(lat, len(items))
    return {
        "wall_s": (sum(lat), "s"),
        "p50_s": (median(lat), "s"),
        "tail_s": (tail_s, "s"),
        "setup_s": (median(setup_samples), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }, {"tail_percentile": tail_p, "samples": len(lat), "pool_size": len(items),
        "passes": len(res.pass_seconds),
        "raw_wall_s": sum(best_latencies(len(items), res.calls, col=3))}


def check_outputs(wl, items, res) -> int:
    """Oracle check of the first pass; failed items fail in every pass.
    Returns the number of failed calls."""
    good = [i for i in range(len(items)) if i not in res.errors]
    bad = wl.check([items[i] for i in good], [res.first_out[i] for i in good])
    for j, why in bad:
        res.errors[good[j]] = why
    per_item = {}
    for i, *_ in res.calls:
        per_item[i] = per_item.get(i, 0) + 1
    oracle_failed = sum(per_item[good[j]] for j, _ in bad)
    return res.failed_calls + oracle_failed


def _report_lines(wl, metrics, info, attempted, failed, unknown):
    lines = [f"workload {wl.name}: {attempted} calls in {info['passes']} pass(es) "
             f"over {info['pool_size']} items"]
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name} = {value:.6g} {unit}")
    lines.append(f"  (wall_s before normalization: {info['raw_wall_s']:.6g} s)")
    lines.append(f"  failed_share = {failed / attempted:.6g} 1")
    decisions = attempted if wl.unknown_counted else 0
    share = unknown / decisions if decisions else 0.0
    lines.append(f"  unknown_share = {share:.6g} 1 ({unknown} of {decisions} rr0 decisions)")
    lines.append(f"  tail_s is p{info['tail_percentile']:g} of {info['samples']} samples")
    return lines


def _details(args, wl, items, res, extra):
    from .env import run_metadata
    return dict(
        run_metadata(args.seed), workload=wl.name, seconds=args.seconds,
        trace=args.trace, scale=args.scale,
        calls=[dict(item=items[i].label, pass_=p, seconds=dt, raw_seconds=raw,
                    **items[i].sizes)
               for i, p, dt, raw in res.calls],
        pass_seconds=res.pass_seconds, pass_normalized=res.pass_normalized,
        failures={items[i].label: why for i, why in res.errors.items()},
        **extra)


def _write_details(args, payload):
    env.OUT_DIR.mkdir(exist_ok=True)
    path = env.OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(payload, indent=1, default=str))
    return path


def main(argv=None) -> int:
    args = _parse(argv)
    t_main = time.perf_counter()
    from .workloads import WORKLOADS
    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    try:
        env.use_checkout_fcl(import_it=False)
    except env.SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    if args.setup_probe:
        _, own = _setup(wl, args.seed, args.scale)
        print(json.dumps({"setup_s": own}))
        return 0

    items, own_setup = _setup(wl, args.seed, args.scale)
    env.use_checkout_fcl()
    setup_samples = [own_setup] + [_probe_setup(args) for _ in range(SETUP_PROBES)]

    if args.trace:
        from .tracing import traced_run
        return traced_run(args, wl, items, setup_samples, t_main)

    res = run_passes(wl, items, args.seconds)
    rss = peak_rss_mb(wl, res)
    metrics, info = end_to_end(wl, items, res, setup_samples, rss)
    failed = check_outputs(wl, items, res)
    attempted = len(res.calls)
    for line in _report_lines(wl, metrics, info, attempted, failed, res.unknown):
        print(line)
    path = _write_details(args, _details(args, wl, items, res, dict(
        info, setup_samples=setup_samples, failed=failed, unknown=res.unknown,
        metrics={k: v for k, (v, _) in metrics.items()},
        total_seconds=time.perf_counter() - t_main)))
    print(f"  details: {path.relative_to(env.ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0
