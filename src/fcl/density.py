"""Numeric density by Stieltjes inversion.

The density needs G(x - i0) = D(1/x), D the inverse of F.  D(z) is a
root w of w*P(w) - z*Q(w); every value solves that pencil written in
zeta = 1/z, zeta*w*P(w) - Q(w) = 0, which stays regular at x = 0, by one
Newton core.  The branch is found by vertical descent: start deep in the
lower half plane where G(zeta) ~ 1/zeta is unambiguous, halve Im zeta
down to 1e-3 with a Newton correction at each stage, then make one Newton
solve of the real pencil x*w*P(w) - Q(w) = 0 at zeta = x.

f(x) = Im G(x - i0)/pi.  Continuation failures are reported as gaps,
never interpolated over.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .classf import ClassF, moments
from .errors import ContinuationFailure, FclError
from .exactalg import Poly

_DESCENT_EPS = 1e-3   # last Im zeta of the descent before the solve at zeta = x
_NEWTON_ITERS = 80    # Newton steps per solve before it gives up
_CLAMP_TOL = 1e-9     # negatives this small are rounding and read as 0


def _float_coeffs(p: Poly):
    try:
        return [float(c) for c in p.coeffs]
    except OverflowError:
        raise FclError("a coefficient of F is past the float range of the density") from None


def _horner(cs, x):
    acc = 0j
    for c in reversed(cs):
        acc = acc * x + c
    return acc


class _Evaluator:
    """Float view of F; Newton acts on the pencil zeta w P(w) - Q(w).

    The pencil form stays well conditioned where F itself has a pole
    (G approaches such points at the center of symmetric supports), since
    no near-cancelling division appears.
    """

    def __init__(self, f: ClassF):
        self.p = _float_coeffs(f.P)
        self.q = _float_coeffs(f.Q)
        self.dp = _float_coeffs(f.P.derivative())
        self.dq = _float_coeffs(f.Q.derivative())

    def newton(self, w, zeta):
        """Root of zeta w P(w) - Q(w) near w, or None (backward-error stop)."""
        for _ in range(_NEWTON_ITERS):
            pw, qw = _horner(self.p, w), _horner(self.q, w)
            resid = zeta * w * pw - qw
            scale = abs(zeta * w * pw) + abs(qw) + 1.0
            if abs(resid) <= 5e-14 * scale:
                return w
            deriv = zeta * (pw + w * _horner(self.dp, w)) - _horner(self.dq, w)
            if abs(deriv) < 1e-280:
                return None
            step = resid / deriv
            w = w - step
            if abs(step) <= 1e-14 * (1 + abs(w)):
                return w
        return None


def support_radius_estimate(f: ClassF) -> float:
    """Crude spectral radius bound from low moments; FclError when it is
    past the float range."""
    s = moments(f, 8).terms
    r = 1.0
    try:
        for k in (1, 2, 4, 6, 8):
            r = max(r, abs(float(s[k])) ** (1.0 / k))
    except OverflowError:
        r = math.inf
    if math.isinf(2.0 * r + 1.0):
        raise FclError("a moment of F is past the float range of the density")
    return 2.0 * r + 1.0


def g_eval_descent(ev: _Evaluator, x: float, anchor: float) -> complex:
    """G(x - i0) by vertical descent, then one Newton solve at zeta = x.

    `ev` is the float view _Evaluator(f) of the law.  Starts at eta =
    anchor where G ~ 1/zeta identifies the branch, halves eta down to 1e-3
    with a Newton correction on zeta w P(w) - Q(w) at each stage, then
    solves the real pencil x w P(w) - Q(w) = 0 from there.
    """
    etas = []
    eta = max(anchor, 4 * _DESCENT_EPS)
    while eta > _DESCENT_EPS:
        etas.append(eta)
        eta /= 2
    w = 1 / complex(x, -etas[0])
    for eta in etas + [_DESCENT_EPS, 0.0]:
        w = ev.newton(w, complex(x, -eta))
        if w is None:
            raise ContinuationFailure(f"descent to x={x}, eps={eta} lost the branch")
    return w


@dataclass(frozen=True)
class DensityTable:
    xs: tuple
    fs: tuple            # density values; None marks a continuation gap
    mass_estimate: float
    clamped: int         # count of small negatives clamped to 0

    def rows(self):
        return list(zip(self.xs, self.fs))


def density_grid(f: ClassF, x_lo: float, x_hi: float, n: int) -> DensityTable:
    """Tabulate the density on a uniform grid by Stieltjes inversion; one
    float view of f serves every point."""
    if n < 2:
        raise ValueError("need n >= 2")
    if not x_lo < x_hi:
        raise ValueError("need x_lo < x_hi")
    anchor = support_radius_estimate(f)
    ev = _Evaluator(f)
    xs = [x_lo + (x_hi - x_lo) * i / (n - 1) for i in range(n)]
    fs = []
    clamped = 0
    for x in xs:
        try:
            v = g_eval_descent(ev, x, anchor).imag / cmath.pi
        except ContinuationFailure:
            fs.append(None)
            continue
        if -_CLAMP_TOL <= v < 0:
            clamped += 1
            v = 0.0
        fs.append(v)
    mass = 0.0
    for (x0, f0), (x1, f1) in zip(zip(xs, fs), zip(xs[1:], fs[1:])):
        if f0 is not None and f1 is not None:
            mass += 0.5 * (f0 + f1) * (x1 - x0)
    return DensityTable(tuple(xs), tuple(fs), mass, clamped)


def reference_density(kind: str, x: float, *params) -> float:
    """Closed-form densities for validation; zero outside the support.

    kind 'wigner' (t): sqrt(4t - x^2) / (2 pi t)
    kind 'mp' (v, t): scaled MP density (absolutely continuous part)
    kind 'expoly': the cube-root density supported on x^2 <= 27
    """
    pi = cmath.pi
    if kind == "wigner":
        (t,) = params
        t = float(t)
        disc = 4 * t - x * x
        return (disc ** 0.5) / (2 * pi * t) if disc > 0 else 0.0
    if kind == "mp":
        v, t = (float(p) for p in params)
        y = x / v
        disc = 4 * t - (y - 1 - t) ** 2
        if disc <= 0 or y == 0:
            return 0.0
        return (disc ** 0.5) / (2 * pi * y) / abs(v)
    if kind == "expoly":
        if x * x >= 27:
            return 0.0
        s27 = 27 ** 0.5
        ratio = (s27 + x) / (s27 - x)
        c = ratio ** (1.0 / 3)
        return 1.0 / (pi * (c + 1 + 1 / c))
    raise ValueError(f"unknown reference density {kind!r}")


def density_csv(table: DensityTable) -> str:
    """CSV emission: header x,f; gaps leave the f field empty."""
    lines = ["x,f"]
    for x, v in table.rows():
        lines.append(f"{x!r},{'' if v is None else repr(v)}")
    return "\n".join(lines) + "\n"
