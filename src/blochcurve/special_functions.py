"""Elliptic integrals of the second kind and adaptive quadrature.

``elliptic_e`` and ``elliptic_e_incomplete`` use the PARAMETER convention

    E(φ|m) = ∫₀^φ √(1 − m sin²θ) dθ,    E(m) = E(π/2|m),    m ≤ 1,

not the modulus convention E(k) with m = k². The parameter may be negative
(the scenario needs m = −(1/4)(ν₀/ω₀)², which can be large-negative), so
both go through the Carlson symmetric forms R_F and R_D, which converge
uniformly for every m ≤ 1. All four take scalars or numpy arrays.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError, InvalidArgumentError

_EPS = sys.float_info.epsilon
_MAX_DUPLICATIONS = 120  # never reached in double precision; defensive bound
_MAX_DEPTH = 50  # adaptive_simpson's bisection levels per top panel
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class QuadratureResult:
    """Value, accumulated error estimate, and integrand evaluation count."""

    value: float
    error_estimate: float
    evaluations: int


def carlson_rf(x, y, z):
    """Carlson symmetric integral R_F(x,y,z) by the duplication theorem.

    R_F(x,y,z) = (1/2) ∫₀^∞ dt / √((t+x)(t+y)(t+z)), args ≥ 0, at most one 0.
    Arguments broadcast; every entry takes as many steps as the slowest one.
    """
    x, y, z = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (x, y, z)))
    lowest, middle, _ = np.sort([x, y, z], axis=0)
    if np.any((lowest < 0.0) | (middle == 0.0)):
        raise DomainError("carlson_rf needs nonnegative arguments, at most one zero")
    xn, yn, zn = x, y, z
    a0 = an = (xn + yn + zn) / 3.0
    q = (3.0 * _EPS) ** -0.125 * np.maximum(np.maximum(abs(a0 - xn), abs(a0 - yn)), abs(a0 - zn))
    fn = 1.0
    for _ in range(_MAX_DUPLICATIONS):
        if np.all(q < abs(an) * fn):
            break
        rx, ry, rz = np.sqrt(xn), np.sqrt(yn), np.sqrt(zn)
        lam = rx * ry + rx * rz + ry * rz
        an = (an + lam) / 4.0
        xn = (xn + lam) / 4.0
        yn = (yn + lam) / 4.0
        zn = (zn + lam) / 4.0
        fn *= 4.0
    else:
        raise ConvergenceError("carlson_rf duplication did not converge")
    big_x = (a0 - x) / (an * fn)
    big_y = (a0 - y) / (an * fn)
    big_z = -big_x - big_y
    e2 = big_x * big_y - big_z * big_z
    e3 = big_x * big_y * big_z
    series = (
        1.0
        + e3 * (1.0 / 14.0 + 3.0 * e3 / 104.0)
        + e2 * (-0.1 + e2 / 24.0 - 3.0 * e3 / 44.0 - 5.0 * e2 * e2 / 208.0 + e2 * e3 / 16.0)
    )
    return (series / np.sqrt(an))[()]


def carlson_rd(x, y, z):
    """Carlson symmetric integral R_D(x,y,z) by the duplication theorem.

    R_D(x,y,z) = (3/2) ∫₀^∞ dt / (√((t+x)(t+y)) (t+z)^{3/2}),
    x,y ≥ 0 with at most one of them zero, z > 0. Broadcasts like R_F.
    """
    x, y, z = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (x, y, z)))
    if np.any((np.minimum(x, y) < 0.0) | (x + y == 0.0) | (z <= 0.0)):
        raise DomainError("carlson_rd needs x,y >= 0 (at most one zero) and z > 0")
    xn, yn, zn = x, y, z
    a0 = an = (xn + yn + 3.0 * zn) / 5.0
    q = (0.25 * _EPS) ** -0.125 * np.maximum(np.maximum(abs(a0 - xn), abs(a0 - yn)), abs(a0 - zn))
    fn = 1.0
    tail = 0.0
    for _ in range(_MAX_DUPLICATIONS):
        if np.all(q * fn < abs(an)):
            break
        rx, ry, rz = np.sqrt(xn), np.sqrt(yn), np.sqrt(zn)
        lam = rx * ry + rx * rz + ry * rz
        tail += fn / (rz * (zn + lam))
        an = (an + lam) / 4.0
        xn = (xn + lam) / 4.0
        yn = (yn + lam) / 4.0
        zn = (zn + lam) / 4.0
        fn /= 4.0
    else:
        raise ConvergenceError("carlson_rd duplication did not converge")
    big_x = fn * (a0 - x) / an
    big_y = fn * (a0 - y) / an
    big_z = -(big_x + big_y) / 3.0
    e2 = big_x * big_y - 6.0 * big_z * big_z
    e3 = (3.0 * big_x * big_y - 8.0 * big_z * big_z) * big_z
    e4 = 3.0 * (big_x * big_y - big_z * big_z) * big_z * big_z
    e5 = big_x * big_y * big_z * big_z * big_z
    series = (
        1.0
        - 3.0 * e2 / 14.0
        + e3 / 6.0
        + 9.0 * e2 * e2 / 88.0
        - 3.0 * e4 / 22.0
        - 9.0 * e2 * e3 / 52.0
        + 3.0 * e5 / 26.0
        - e2 * e2 * e2 / 16.0
        + 3.0 * e3 * e3 / 40.0
        + 3.0 * e2 * e4 / 20.0
        + 45.0 * e2 * e2 * e3 / 272.0
        - 9.0 * (e3 * e4 + e2 * e5) / 68.0
    )
    return (3.0 * tail + fn * series / (an * np.sqrt(an)))[()]


def elliptic_e(m):
    """Complete elliptic integral of the second kind, parameter convention.

    E(m) = R_F(0, 1−m, 1) − (m/3)·R_D(0, 1−m, 1) for m < 1; E(0) = π/2 and
    E(1) = 1 exactly (the Carlson identity degenerates at m = 1). Relative
    accuracy is a few ulp, well inside the 1e-12 contract.
    """
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise InvalidArgumentError("parameter m must be finite")
    if np.any(m > 1.0):
        raise DomainError(f"elliptic_e requires m <= 1, got {float(m[m > 1.0][0])!r}")
    y = np.where(m == 1.0, 1.0, 1.0 - m)
    value = carlson_rf(0.0, y, 1.0) - (m / 3.0) * carlson_rd(0.0, y, 1.0)
    return np.where(m == 1.0, 1.0, np.where(m == 0.0, math.pi / 2.0, value))[()]


def elliptic_e_incomplete(phi, m):
    """Incomplete elliptic integral E(φ|m) of the second kind. With φ = kπ + r,
    |r| ≤ π/2, quasi-periodicity and DLMF 19.25.9 give, for c = cos²r and
    y = 1 − m sin²r,

        E(φ|m) = 2k·E(m) + sin r·R_F(c, y, 1) − (m/3)·sin³r·R_D(c, y, 1).
    """
    e_complete = elliptic_e(m)  # also validates m
    m, phi = np.asarray(m, dtype=float), np.asarray(phi, dtype=float)
    if not np.all(np.isfinite(phi)):
        raise InvalidArgumentError("amplitude phi must be finite")
    k = np.rint(phi / math.pi)
    r = phi - k * math.pi
    s, c = np.sin(r), np.cos(r) ** 2
    y = 1.0 - m * s * s
    return (2.0 * k * e_complete + s * carlson_rf(c, y, 1.0)
            - (m / 3.0) * s ** 3 * carlson_rd(c, y, 1.0))[()]


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-10,
) -> QuadratureResult:
    """Adaptive Simpson quadrature of f over [a, b].

    Each panel is accepted when the Richardson estimate |S_half − S_whole|/15
    is below its share of the tolerance, and the accepted value includes the
    extrapolation correction. Raises ConvergenceError when a panel would need
    subdividing past ``_MAX_DEPTH`` levels.
    """
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise InvalidArgumentError("integration bounds must be finite with a < b")
    if not (tol > 0.0 and math.isfinite(tol)):
        raise InvalidArgumentError("tolerance must be positive")

    count = 0

    def ev(x: float) -> float:
        nonlocal count
        count += 1
        val = float(f(x))
        if not math.isfinite(val):
            raise InvalidArgumentError(f"integrand not finite at x = {x!r}")
        return val

    def simpson(lo: float, hi: float, flo: float, fmid: float, fhi: float) -> float:
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, hi, flo, fmid, fhi, whole, tol_here, depth):
        mid = 0.5 * (lo + hi)
        flm = ev(0.5 * (lo + mid))
        frm = ev(0.5 * (mid + hi))
        left = simpson(lo, mid, flo, flm, fmid)
        right = simpson(mid, hi, fmid, frm, fhi)
        delta = left + right - whole
        if abs(delta) <= 15.0 * tol_here:
            return left + right + delta / 15.0, abs(delta) / 15.0
        if depth >= _MAX_DEPTH:
            raise ConvergenceError(
                f"adaptive_simpson exceeded depth {_MAX_DEPTH} on [{lo!r}, {hi!r}]"
            )
        lval, lerr = recurse(lo, mid, flo, flm, fmid, left, tol_here / 2.0, depth + 1)
        rval, rerr = recurse(mid, hi, fmid, frm, fhi, right, tol_here / 2.0, depth + 1)
        return lval + rval, lerr + rerr

    def run_panel(lo, hi, flo, fhi, tol_here):
        fm = ev(0.5 * (lo + hi))
        return recurse(lo, hi, flo, fm, fhi, simpson(lo, hi, flo, fm, fhi),
                       tol_here, 0)

    # First split at an irrational fraction of [a, b]: a dyadic sample tree on
    # the whole interval can alias with a periodic integrand (every node hits
    # the same phase, the Richardson delta vanishes, and a wrong value is
    # accepted); no period is commensurate with the golden section.
    c = a + (b - a) * _GOLDEN
    fa, fc, fb = ev(a), ev(c), ev(b)
    lval, lerr = run_panel(a, c, fa, fc, tol * _GOLDEN)
    rval, rerr = run_panel(c, b, fc, fb, tol * (1.0 - _GOLDEN))
    return QuadratureResult(lval + rval, lerr + rerr, count)
