"""Elliptic integrals of the second kind.

``elliptic_e`` and ``elliptic_e_incomplete`` use the PARAMETER convention

    E(φ|m) = ∫₀^φ √(1 − m sin²θ) dθ,    E(m) = E(π/2|m),    m ≤ 1,

not the modulus convention E(k) with m = k². The parameter may be negative
(the scenario needs m = −(1/4)(ν₀/ω₀)², which can be large-negative). The
complete integral comes from the arithmetic–geometric mean of 1 and √(1 − m)
(DLMF 19.8(i)), which converges quadratically and needs no transformation for
any m ≤ 1. The incomplete integral goes through the Carlson symmetric forms
R_F and R_D, which converge uniformly for every m ≤ 1. All four take scalars
or numpy arrays.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import ConvergenceError, DomainError, InvalidArgumentError

_EPS = sys.float_info.epsilon
_MAX_DUPLICATIONS = 120  # never reached in double precision; defensive bound
_MAX_AGM_STEPS = 30  # every finite m <= 1 converges within 12; defensive bound
_AGM_TOL = 1e-9  # |c_n| <= tol*a_n: the neglected tail is below 1e-33 of E(m)


def carlson_rf(x, y, z):
    """Carlson symmetric integral R_F(x,y,z) by the duplication theorem.

    R_F(x,y,z) = (1/2) ∫₀^∞ dt / √((t+x)(t+y)(t+z)), args ≥ 0, at most one 0.
    Arguments broadcast; every entry takes as many steps as the slowest one.
    """
    x, y, z = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (x, y, z)))
    lowest = np.minimum(np.minimum(x, y), z)
    # a sum of two nonnegative doubles is 0 only when both are 0
    pair = np.minimum(np.minimum(x + y, x + z), y + z)
    if np.any((lowest < 0.0) | (pair == 0.0)):
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

    By the arithmetic–geometric mean (DLMF 19.8(i)): with a₀ = 1, g₀ = √(1−m),
    c₀² = m, a_{n+1} = (a_n + g_n)/2, g_{n+1} = √(a_n g_n) and
    c_{n+1} = (a_n − g_n)/2,

        E(m) = π/(a_N + g_N) · (1 − Σ_{n≥0} 2^{n−1} c_n²),

    for every m ≤ 1 with no transformation. The loop stops once
    |c_n| ≤ 1e-9·a_n holds entry by entry (one max/min test would never stop
    on entries that span many decades). E(0) = π/2 and E(1) = 1 exactly (the
    mean of 1 and 0 never converges, so m = 1 is mapped out first). The
    relative error is below 1e-14 for −1e30 ≤ m ≤ 1, well inside the 1e-12
    contract, and grows slowly with |m| beyond (2.4e-14 near m = −1e200).
    """
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise InvalidArgumentError("parameter m must be finite")
    if np.any(m > 1.0):
        raise DomainError(f"elliptic_e requires m <= 1, got {float(m[m > 1.0][0])!r}")
    one = m == 1.0
    a = np.ones_like(m)
    g = np.sqrt(np.where(one, 1.0, 1.0 - m))
    total = 0.5 * m
    weight = 0.5
    for _ in range(_MAX_AGM_STEPS):
        c = 0.5 * (a - g)
        a, g = 0.5 * (a + g), np.sqrt(a * g)
        weight *= 2.0
        total += weight * (c * c)
        if np.all(np.abs(c) <= _AGM_TOL * a):
            break
    else:
        raise ConvergenceError("elliptic_e arithmetic-geometric mean did not converge")
    return np.where(one, 1.0, math.pi / (a + g) * (1.0 - total))[()]


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
