"""The benchmark's own tests: python3 -m pytest perfbench/tests -q"""
import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

from fclbench import env, metrics, oracle, stats, tracing
from fclbench.workloads import WORKLOADS

# ----------------------------------------------------------------------
# tail percentile rule


@pytest.mark.parametrize("n, p", [
    (1, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
    (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)])
def test_tail_percentile_has_ten_samples_beyond(n, p):
    assert stats.tail_percentile(n) == p
    if p is not None:
        assert n - stats.nearest_rank(p, n) >= stats.TAIL_BEYOND


def test_tail_value_and_small_pools():
    xs = [float(i) for i in range(1, 101)]          # 1..100
    assert stats.tail(xs, 100) == (90.0, 90.0)
    # two passes over a pool of 40: the pool fixes p75, all samples count
    assert stats.tail(xs[:40] * 2, 40) == (30.0, 75.0)
    assert stats.tail([3.0, 1.0, 2.0], 3) == (3.0, 100.0)


def test_median_and_bits():
    assert stats.median([3, 1, 2]) == 2
    assert stats.median([4, 1, 2, 3]) == 2.5
    assert stats.rat_bits(Fraction(-255, 4)) == 8
    assert stats.max_bits([]) == 0


# ----------------------------------------------------------------------
# wrappers


def test_install_and_remove_leave_fcl_unchanged():
    tracing.load_targets()
    import fcl.exactalg.algebraic as alg
    import fcl.spectra as spectra
    originals = (spectra.isolate_real_roots, alg.isolate_real_roots,
                 alg.AlgebraicReal.__dict__["refined_to"], alg._compare)
    before = tracing.snapshot()
    tr = tracing.Tracer()
    tr.install()
    try:
        assert spectra.isolate_real_roots is alg.isolate_real_roots
        assert spectra.isolate_real_roots is not originals[0]
        assert tracing.wrappers_left()
    finally:
        tr.uninstall()
    assert tracing.snapshot() == before
    assert tracing.wrappers_left() == []
    assert (spectra.isolate_real_roots, alg.isolate_real_roots,
            alg.AlgebraicReal.__dict__["refined_to"], alg._compare) == originals


def test_traced_call_matches_and_self_time_adds_up():
    wl = WORKLOADS["flow_scan"]
    items = wl.setup(7, scale=0.02)
    plain = [wl.text(wl.call(it)) for it in items]
    tr = tracing.Tracer()
    tr.install()
    try:
        traced = [wl.text(wl.call(it)) for it in items]
    finally:
        tr.uninstall()
    assert traced == plain
    layer = tr.layer_metrics()
    assert layer["spectra.critical_ts.calls"] == len(items)
    assert layer["spectra.n_set.calls"] == len(items)
    assert layer["exactalg.sturm.sturm_chain.calls"] > 0
    roots = [s for s in tr.spans if s[2] == -1]
    total = sum(t1 - t0 for _, _, _, _, t0, t1, _ in roots)
    self_sum = sum(v for k, v in layer.items() if k.endswith(".self_s"))
    assert 0 < self_sum <= total * 1.001
    assert all(v >= -1e-6 for k, v in layer.items() if k.endswith(".self_s"))


# ----------------------------------------------------------------------
# oracles catch wrong answers


def test_oracle_rejects_a_flipped_verdict():
    from dataclasses import replace
    from fcl.spectra import Verdict, critical_ts
    wl = WORKLOADS["flow_scan"]
    f = wl.setup(3, scale=0.02)[0].arg
    rep = critical_ts(f, 0, 10)
    assert oracle.check_critical_report(f, rep) is None
    flipped = tuple(Verdict.NO if v is Verdict.YES else Verdict.YES for v in rep.rr0_verdicts)
    assert oracle.check_critical_report(f, replace(rep, rr0_verdicts=flipped))


def test_oracle_moment_checks():
    cat = [Fraction(1), Fraction(1), Fraction(2), Fraction(5), Fraction(14), Fraction(42)]
    # F = w - w^2 = w (1 - w) / 1 has the Catalan numbers as moments
    assert oracle.moments_satisfy_inverse([1, -1], [1], cat)
    assert not oracle.moments_satisfy_inverse([1, -1], [1], cat[:-1] + [Fraction(43)])
    assert oracle.hankel_minors(cat[:5], 2) == [1, 1, 1]
    assert oracle.hankel_minors([1, 0, -1], 1) == [1, -1]
    assert oracle.closed_form_moments(("wigner", Fraction(2)), 4) == [1, 0, 2, 0, 8]


# ----------------------------------------------------------------------
# BENCHMARK.json and smoke runs


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        metrics.per_layer()


def _run(workload, trace, scale):
    res = subprocess.run(
        [sys.executable, str(env.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "11", "--seconds", "0", "--trace", str(trace), "--scale", str(scale)],
        capture_output=True, text=True, cwd=env.ROOT, timeout=600)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload, scale", [
    ("flow_scan", 0.05), ("algebraic_rr0", 0.05), ("moment_hankel", 0.05),
    ("cli_session", 0.25)])
def test_smoke_run(workload, scale):
    out = _run(workload, 0, scale)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert [(k, v["unit"]) for k, v in out["metrics"].items()] == \
        [(n, u) for n, u, _ in metrics.END_TO_END]
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_smoke_traced_run():
    out = _run("algebraic_rr0", 1, 0.05)
    assert out["correct"]
    assert list(out["metrics"]) == [n for n, _, _ in metrics.per_layer()]
    assert out["metrics"]["spectra.rr0_at_algebraic_t.calls"]["value"] >= 1


def test_refuses_to_run_without_fcl_sources(tmp_path):
    shutil.copytree(env.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(env.ROOT / "BENCHMARK.json", tmp_path)
    res = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", "flow_scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
