"""Elliptic integrals of the second kind.

``elliptic_e`` and ``elliptic_e_incomplete`` use the PARAMETER convention

    E(φ|m) = ∫₀^φ √(1 − m sin²θ) dθ,    E(m) = E(π/2|m),    m ≤ 1,

not the modulus convention E(k) with m = k². The parameter may be negative
(the scenario needs m = −(1/4)(ν₀/ω₀)², which can be large-negative). The
complete integral comes from the arithmetic–geometric mean of 1 and √(1 − m)
(DLMF 19.8(i)), which converges quadratically and needs no transformation for
any m ≤ 1. The incomplete integral goes through the Carlson symmetric forms
R_F and R_D, which converge uniformly for every m ≤ 1 and come from one
duplication sequence. Both take scalars or numpy arrays and iterate to a
fixed depth, so an entry gets the same bits alone as inside any array.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, InvalidArgumentError

# steps for every entry: the most that a run-time stopping rule takes in the domain
_DUPLICATIONS = 13
_AGM_STEPS = 12
# largest argument, as a power of 2, taken unscaled: R_D forms its 3/2 powers
_TOP = 600


def _carlson_rf_rd(x, y, z):
    """Carlson symmetric integrals (R_F(x,y,z), R_D(x,y,z)) from one sequence
    of the duplication theorem (DLMF 19.36(i)),

        R_F(x,y,z) = (1/2) ∫₀^∞ dt / √((t+x)(t+y)(t+z)),
        R_D(x,y,z) = (3/2) ∫₀^∞ dt / (√((t+x)(t+y)) (t+z)^{3/2}),

    for x,y ≥ 0 with at most one of them zero and z > 0. Each step takes the
    three square roots once and moves both forms' means, (x+y+z)/3 and
    (x+y+3z)/5. Every entry takes ``_DUPLICATIONS`` steps, the most that
    Carlson's stopping rules take (by step 12 on E(φ|m)'s arguments down to
    m = −1e307, by 13 over {0, 5e-324, …, 1.8e308}³), and both series are
    summed after the last, so no entry's bits depend on the others in the
    call. Entries from 2^600 up go through R_F(λx, λy, λz) = λ^(−1/2)·R_F(x, y, z)
    and R_D(λx, λy, λz) = λ^(−3/2)·R_D(x, y, z) with λ a power of 4, so nothing
    overflows up to the largest double; the domain is checked after that
    scaling, which can take a tiny argument to zero.
    """
    x0, y0, z0 = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (x, y, z)))
    # per entry the least k ≥ 0 that brings max(x, y, z)·4^−k below 2^_TOP; powers
    # of 4 keep every step exact up to a power of 2, so k = 0 changes no bit
    _, e = np.frexp(np.maximum(np.maximum(x0, y0), z0))
    k = np.maximum(e - _TOP + 1, 0) // 2
    x, y, z = np.ldexp(x0, -2 * k), np.ldexp(y0, -2 * k), np.ldexp(z0, -2 * k)
    if np.any((np.minimum(x0, y0) < 0.0) | (np.maximum(x, y) == 0.0) | (z <= 0.0)):
        raise DomainError("Carlson forms need x,y >= 0 (at most one zero) and z > 0")
    xn, yn, zn = x, y, z
    f0 = fa = (x + y + z) / 3.0
    d0 = da = (x + y + 3.0 * z) / 5.0
    fn, tail = 1.0, 0.0  # fn = 4^−n after n steps
    for _ in range(_DUPLICATIONS):
        rx, ry, rz = np.sqrt(xn), np.sqrt(yn), np.sqrt(zn)
        lam = rx * ry + rx * rz + ry * rz
        tail += fn / (rz * (zn + lam))
        fa, da = (fa + lam) / 4.0, (da + lam) / 4.0
        xn, yn, zn = (xn + lam) / 4.0, (yn + lam) / 4.0, (zn + lam) / 4.0
        fn /= 4.0
    big_x, big_y = (f0 - x) / (fa / fn), (f0 - y) / (fa / fn)
    big_z = -big_x - big_y
    e2 = big_x * big_y - big_z * big_z
    e3 = big_x * big_y * big_z
    series = (
        1.0
        + e3 * (1.0 / 14.0 + 3.0 * e3 / 104.0)
        + e2 * (-0.1 + e2 / 24.0 - 3.0 * e3 / 44.0 - 5.0 * e2 * e2 / 208.0
                + e2 * e3 / 16.0)
    )
    rf = np.ldexp(series / np.sqrt(fa), -k)
    big_x, big_y = fn * (d0 - x) / da, fn * (d0 - y) / da
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
    rd = np.ldexp(3.0 * tail + fn * series / (da * np.sqrt(da)), -3 * k)
    return rf[()], rd[()]


def elliptic_e(m):
    """Complete elliptic integral of the second kind, parameter convention.

    By the arithmetic–geometric mean (DLMF 19.8(i)): with a₀ = 1, g₀ = √(1−m),
    c₀² = m, a_{n+1} = (a_n + g_n)/2, g_{n+1} = √(a_n g_n) and
    c_{n+1} = (a_n − g_n)/2,

        E(m) = π/(a_N + g_N) · (1 − Σ_{n≥0} 2^{n−1} c_n²),

    for every m ≤ 1 with no transformation. Every entry takes N =
    ``_AGM_STEPS`` steps, so its bits do not depend on the other entries of
    the call: the rule |c_n| ≤ 1e-9·a_n, beyond which the neglected tail is
    below 1e-33 of E(m), holds by step 12 at every finite m ≤ 1, m = −1.7e308
    included, and a converged step adds nothing. E(0) = π/2 and E(1) = 1
    exactly (the mean of 1 and 0 never converges, so m = 1 is mapped out
    first). The relative error is below 1e-14 for −1e30 ≤ m ≤ 1, well inside
    the 1e-12 contract, and grows slowly with |m| beyond (2.4e-14 near
    m = −1e200).
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
    for _ in range(_AGM_STEPS):
        c = 0.5 * (a - g)
        a, g = 0.5 * (a + g), np.sqrt(a * g)
        weight *= 2.0
        total += weight * (c * c)
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
    s, c = np.sin(r), np.cos(r)
    y = 1.0 - m * s * s
    rf, rd = _carlson_rf_rd(c * c, y, 1.0)
    return (2.0 * k * e_complete + s * rf - (m / 3.0) * (s * s * s) * rd)[()]
