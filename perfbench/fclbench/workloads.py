"""The four workloads: seeded inputs, the timed call, canonical output text.

Every workload builds a pool of items from the seed.  One pass calls the
workload's public fcl entry points once per item; the harness repeats
passes until the run's time is up.  `call` is the only code inside the
timed region.  `text` renders an output canonically so that passes,
traced and untraced runs can be compared byte for byte.
"""
from __future__ import annotations

import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import env
from .stats import max_bits


@dataclass
class Item:
    label: str
    arg: object                       # what the timed call receives
    sizes: dict = field(default_factory=dict)   # deg_p, deg_q, bits
    ref: object = None                # oracle data prepared in setup


def f_sizes(f) -> dict:
    return {"deg_p": f.P.degree, "deg_q": f.Q.degree,
            "bits": max_bits(f.P.coeffs + f.Q.coeffs)}


def rand_rat(rng, num=9, den=4, nonzero=False):
    """p/q with |p| <= num and 1 <= q <= den, drawn as the test suite does."""
    while True:
        v = Fraction(rng.randint(-num, num), rng.randint(1, den))
        if v or not nonzero:
            return v


def rand_member(rng, d: int):
    """A class member with deg P = deg Q = d (retried until in the class)."""
    from fcl.classf import make_classf
    from fcl.errors import NotInClass
    from fcl.exactalg import Poly
    while True:
        p = Poly([1] + [rand_rat(rng) for _ in range(d - 1)] + [rand_rat(rng, nonzero=True)])
        q = Poly([1] + [rand_rat(rng) for _ in range(d - 1)] + [rand_rat(rng, nonzero=True)])
        try:
            return make_classf(p, q)
        except NotInClass:
            continue


def _rs(xs) -> str:
    return "[" + ",".join(str(Fraction(x)) for x in xs) + "]"


def alg_text(a) -> str:
    return f"{_rs(a.defining.coeffs)}@[{a.lo},{a.hi}]"


class Workload:
    name = ""
    unknown_counted = False           # True where outputs are rr0 verdicts
    min_passes = 1

    def setup(self, seed: int, scale: float = 1.0) -> list:
        raise NotImplementedError

    def warmup(self):
        """One small untimed call so lazy imports and caches are settled."""

    def call(self, item: Item):
        raise NotImplementedError

    def text(self, out) -> str:
        raise NotImplementedError

    def is_unknown(self, out) -> bool:
        return False

    def check(self, items, outs) -> list:
        """Oracle check of one output per item: list of (index, reason)."""
        raise NotImplementedError


def _scaled(n: int, scale: float) -> int:
    return max(1, round(n * scale))


def _member_of_class(build):
    """build() until it returns a class member (random parameters can make
    P and Q share a factor)."""
    from fcl.errors import FclError
    while True:
        try:
            return build()
        except FclError:
            continue


# ----------------------------------------------------------------------


class FlowScan(Workload):
    """critical_ts(f, 0, 10) then n_set(f) on random members of degree d."""

    name = "flow_scan"
    POOL = {3: 20, 4: 50}
    T_LO, T_HI = 0, 10

    def setup(self, seed, scale=1.0):
        rng = random.Random(f"flow_scan:{seed}")
        items = []
        for d, n in self.POOL.items():
            for i in range(_scaled(n, scale)):
                f = rand_member(rng, d)
                items.append(Item(f"d{d}#{i}", f, f_sizes(f)))
        rng.shuffle(items)
        return items

    def warmup(self):
        from fcl.spectra import critical_ts, n_set
        f = rand_member(random.Random("flow_scan:warmup"), 2)
        critical_ts(f, self.T_LO, self.T_HI)
        n_set(f)

    def call(self, item):
        from fcl.spectra import critical_ts, n_set
        return critical_ts(item.arg, self.T_LO, self.T_HI), n_set(item.arg)

    def text(self, out):
        rep, ns = out
        crit = ";".join(f"{alg_text(c)}:{k}" for c, k in zip(rep.criticals, rep.kinds))
        return (f"crit={crit}|verdicts={','.join(v.value for v in rep.rr0_verdicts)}"
                f"|samples={_rs(rep.samples)}|z={_rs(ns.z_poly.coeffs)}"
                f"|members={';'.join(alg_text(m) for m in ns.real_members)}"
                f"|pairs={ns.nonreal_pair_count}")

    def check(self, items, outs):
        from . import oracle
        bad = []
        for i, (it, (rep, ns)) in enumerate(zip(items, outs)):
            why = (oracle.check_critical_report(it.arg, rep)
                   or oracle.check_n_set(it.arg, ns))
            if why:
                bad.append((i, why))
        return bad


# ----------------------------------------------------------------------


class AlgebraicRR0(Workload):
    """rr0_at_algebraic_t(f, t0) at irrational criticals built in setup."""

    name = "algebraic_rr0"
    unknown_counted = True
    NK_RANGE = (0, 2000)
    # nk_classf(6) has three criticals in (0, 2000); the two below 6 take
    # 15-22 s each on the interval route, longer than a whole run, so only
    # the third is kept.
    NK6_KEEP_ABOVE = 6
    D3_CRITICALS = 40
    D3_RANGE = (0, 10)

    def setup(self, seed, scale=1.0):
        from fcl.euler import nk_classf
        from fcl.spectra import critical_ts
        items = []
        for k in range(2, 7):
            f = nk_classf(k)
            rep = critical_ts(f, *self.NK_RANGE)
            for j, c in enumerate(rep.criticals):
                if c.is_rational():
                    continue
                if k == 6 and c.compare_rational(self.NK6_KEEP_ABOVE) < 0:
                    continue
                items.append(Item(f"nk{k}#{j}", (f, c), dict(f_sizes(f), k=k)))
        rng = random.Random(f"algebraic_rr0:{seed}")
        want = _scaled(self.D3_CRITICALS, scale)
        n_d3 = 0
        while n_d3 < want:
            f = rand_member(rng, 3)
            rep = critical_ts(f, *self.D3_RANGE)
            for j, c in enumerate(rep.criticals):
                if c.is_rational() or n_d3 >= want:
                    continue
                items.append(Item(f"d3#{n_d3}", (f, c), f_sizes(f)))
                n_d3 += 1
        rng.shuffle(items)
        return items

    def warmup(self):
        from fcl.euler import nk_classf
        from fcl.spectra import critical_ts, rr0_at_algebraic_t
        f = nk_classf(2)
        c = critical_ts(f, *self.NK_RANGE).criticals[0]
        rr0_at_algebraic_t(f, c)

    def call(self, item):
        from fcl.spectra import rr0_at_algebraic_t
        f, t0 = item.arg
        return rr0_at_algebraic_t(f, t0)

    def text(self, out):
        return out.value

    def is_unknown(self, out):
        return out.value == "unknown"

    def check(self, items, outs):
        from . import oracle
        bad = []
        for i, (it, v) in enumerate(zip(items, outs)):
            if v.value == "unknown":
                continue
            f, t0 = it.arg
            want = oracle.rr0_at_root(f, t0)
            if want != v.value:
                bad.append((i, f"rr0 verdict {v.value}, oracle says {want}"))
        return bad


# ----------------------------------------------------------------------


class MomentHankel(Workload):
    """moments(f, N), is_moment_positive_up_to(f, K), fid_check(f, K)."""

    name = "moment_hankel"
    N = 50
    K = 18
    LAW_COPIES = 4
    RANDOM = {2: 6, 3: 6}

    def setup(self, seed, scale=1.0):
        from fcl import distlib as dl
        from fcl.classf import compose
        rng = random.Random(f"moment_hankel:{seed}")

        def pos(num=6, den=4):
            return Fraction(rng.randint(1, num), rng.randint(1, den))

        def nz(num=6, den=4):
            return pos(num, den) * rng.choice((1, -1))

        def law_params(law):
            return (pos(),) if law is dl.wigner else (nz(), pos())

        laws = []
        for _ in range(_scaled(self.LAW_COPIES, scale)):
            t = pos()
            laws.append(("wigner", dl.wigner(t), ("wigner", t)))
            v, s = nz(), pos()
            laws.append(("mp", dl.mp(v, s), ("mp", v, s)))
            r = rng.choice((2, 3))
            laws.append((f"fuss{r}", dl.fuss_f(r), ("fuss", r)))
            # the monotone catalog: compositions F_second(F_first(w))
            for name, second, first in (("wmp", dl.mp, dl.wigner), ("mpw", dl.wigner, dl.mp),
                                        ("mpmp", dl.mp, dl.mp), ("ww", dl.wigner, dl.wigner)):
                laws.append((name, _member_of_class(lambda: compose(
                    second(*law_params(second)), first(*law_params(first)))), None))
        items = [Item(f"{name}#{i}", f, f_sizes(f), ref=closed)
                 for i, (name, f, closed) in enumerate(laws)]
        for d, n in self.RANDOM.items():
            for i in range(_scaled(n, scale)):
                f = rand_member(rng, d)
                items.append(Item(f"rand{d}#{i}", f, f_sizes(f)))
        rng.shuffle(items)
        return items

    def warmup(self):
        from fcl import distlib as dl
        from fcl.classf import moments
        from fcl.posdef import fid_check, is_moment_positive_up_to
        f = dl.wigner(1)
        moments(f, 8)
        is_moment_positive_up_to(f, 3)
        fid_check(f, 3)

    def call(self, item):
        from fcl.classf import moments
        from fcl.posdef import fid_check, is_moment_positive_up_to
        f = item.arg
        return (moments(f, self.N), is_moment_positive_up_to(f, self.K),
                fid_check(f, self.K))

    def text(self, out):
        m, hv, fv = out

        def hv_text(h):
            return f"{h.status}:{h.order}:{h.determinant}:{_rs(h.minors)}"

        return f"moments={_rs(m.terms)}|hankel={hv_text(hv)}|fid={hv_text(fv)}"

    def check(self, items, outs):
        from . import oracle
        bad = []
        for i, (it, out) in enumerate(zip(items, outs)):
            why = oracle.check_moment_triple(it.arg, it.ref, out, self.N, self.K)
            if why:
                bad.append((i, why))
        return bad


# ----------------------------------------------------------------------

# The README's CLI examples, in README order.
CLI_EXAMPLES = (
    ("moments", ["moments", "w - w^2", "--order", "5", "--json"]),
    ("hankel", ["hankel", "--from-r", "w/(1-w)^2", "--order", "5"]),
    ("criticals", ["criticals", "w*(1-w^2)", "--range", "0:3"]),
    ("charpoly", ["charpoly", "w*(1-w)^2/(1-w+w^2)", "--power", "27/8", "--json"]),
    ("nset", ["nset", "w*(1-w)*(1-w+w^2)", "--json"]),
    ("euler", ["euler", "2", "--ck", "10", "--json"]),
    ("fuss", ["fuss", "2", "--order", "10", "--json"]),
    ("monotone", ["monotone", "ww", "1", "1", "--json"]),
    ("deconv", ["deconv", "wmp", "1", "-1", "--json"]),
    ("density", ["density", "w*(1+w^2)/(1+9*w^2)", "--range=-5:5", "--grid", "201", "--csv"]),
    ("region", ["region", "lb", "--b", "1", "--samples", "65", "--csv"]),
    ("oeis", ["oeis-match", "w - w^2", "--json"]),
)


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    maxrss_kb: int


def run_cli(argv, launcher=None, tag="cli") -> CliResult:
    """One fresh interpreter running the fcl CLI; rusage taken from wait4.

    Output goes through files in the benchmark's out directory, so the
    child can never block on a full pipe.
    """
    env.OUT_DIR.mkdir(exist_ok=True)
    out_path = env.OUT_DIR / f".{tag}-{os.getpid()}.out"
    err_path = env.OUT_DIR / f".{tag}-{os.getpid()}.err"
    cmd = [sys.executable] + (launcher or ["-m", "fcl.cli"]) + list(argv)
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, stdin=subprocess.DEVNULL,
                                cwd=env.ROOT, env=env.child_env())
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        return CliResult(proc.returncode, out_path.read_text(), err_path.read_text(),
                         usage.ru_maxrss)
    finally:
        out_path.unlink()
        err_path.unlink()


class CliSession(Workload):
    """The README CLI examples, each in a fresh `python -m fcl.cli`."""

    name = "cli_session"
    ROUNDS = 4
    # a child process's time jitters more than an in-process call's;
    # the best of two passes steadies the tail
    min_passes = 2
    launcher = None         # set by the traced run to wrap each child

    def setup(self, seed, scale=1.0):
        rng = random.Random(f"cli_session:{seed}")
        items = []
        for r in range(max(1, round(self.ROUNDS * scale))):
            order = list(CLI_EXAMPLES)
            rng.shuffle(order)
            items += [Item(f"{name}#{r}", argv) for name, argv in order]
        return items

    def warmup(self):
        res = run_cli(["moments", "w", "--order", "2"], tag="warmup")
        if res.code != 0:
            raise RuntimeError(f"fcl CLI warm-up failed: {res.stderr.strip()}")

    def call(self, item):
        return run_cli(item.arg, launcher=self.launcher)

    def text(self, out):
        return f"exit={out.code}\n{out.stdout}"

    def check(self, items, outs):
        """Oracle check of each example's first run; later rounds of the
        same example must print the same bytes."""
        from . import oracle
        bad, first = [], {}
        for i, (it, out) in enumerate(zip(items, outs)):
            name = it.label.split("#")[0]
            if name in first:
                why = None if self.text(out) == first[name] else "output differs between rounds"
            elif out.code != 0:
                why = f"exit code {out.code}: {out.stderr.strip()[-200:]}"
            else:
                first[name] = self.text(out)
                why = oracle.check_cli(name, out.stdout)
            if why:
                bad.append((i, why))
        return bad


WORKLOADS = {w.name: w for w in (FlowScan(), AlgebraicRR0(), MomentHankel(), CliSession())}
