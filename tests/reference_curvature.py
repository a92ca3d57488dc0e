"""The three-term Bloch-vector curvature route, kept as an independent
oracle for ``blochcurve.geometry.curvature_bloch``, which computes κ² as the
square 4κ_g² of the geodesic curvature of the Bloch curve.

It works on the unscaled field, so it serves where h² and h²·ḣ² are finite
(it overflows at |h| of about 1e77 and beyond). Its three terms are signed,
so their sum is clipped at 0 within a round-off floor.
"""

import numpy as np

from blochcurve import InvalidArgumentError, SingularityError
from blochcurve.geometry import EPSILON_SINGULAR

KAPPA2_CLIP_FLOOR = -1e-9  # clip [floor, 0) to 0, fail below


def _vec3(x) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape[-1:] != (3,):
        raise InvalidArgumentError(f"expected 3 components on the last axis, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidArgumentError("vector components must be finite")
    return v


def _dot(x, y):
    return np.einsum("...k,...k->...", x, y)


def clip_nonneg(value, floor: float = KAPPA2_CLIP_FLOOR):
    """Clip values in [floor, 0) to 0; anything below floor, or NaN, fails
    an assertion."""
    value = np.asarray(value, dtype=float)
    ok = value >= floor
    assert np.all(ok), (f"curvature {float(value.flat[int(np.argmin(ok))])!r} is "
                        f"negative beyond round-off tolerance {floor!r}")
    return np.maximum(value, 0.0)[()]


def three_term_curvature(a, h, h_dot):
    """Curvature coefficient from the Bloch vector a and the field pair (h, ḣ).

    With D = h² − (a·h)² the three contributions are

        κ² = 4(a·h)²/D
           + ( [h²ḣ² − (h·ḣ)²] − ‖(a·ḣ)h − (a·h)ḣ‖² ) / D³
           + 4(a·h)·[a·(h×ḣ)] / D².

    When a·h = a·ḣ = 0 this collapses to [h²ḣ² − (h·ḣ)²]/h⁶.
    D ≤ ``EPSILON_SINGULAR``·h² means a is (numerically) collinear with h,
    i.e. an instantaneous eigenstate with zero speed, where curvature is
    undefined; the test is relative, so a weak field is not mistaken for one.
    κ² is projective, so a is rescaled to unit length after the check. Vectors
    carry their (finite) components on the last axis; leading axes (a time
    grid) broadcast.
    """
    av, hv, hd = _vec3(a), _vec3(h), _vec3(h_dot)
    a2 = _dot(av, av)
    if not np.all(np.abs(a2 - 1.0) <= 1e-9):
        raise InvalidArgumentError("Bloch vector a must have unit length")
    av = av / np.sqrt(a2)[..., None]

    h2 = _dot(hv, hv)
    ah = _dot(av, hv)
    den = h2 - ah * ah
    if np.any(den <= EPSILON_SINGULAR * h2):
        raise SingularityError(
            "state is an instantaneous eigenstate (a collinear with h); "
            "curvature is undefined"
        )
    adh = _dot(av, hd)
    hdh = _dot(hv, hd)
    hd2 = _dot(hd, hd)
    wvec = adh[..., None] * hv - ah[..., None] * hd
    term1 = 4.0 * ah * ah / den
    term2 = ((h2 * hd2 - hdh * hdh) - _dot(wvec, wvec)) / den**3
    term3 = 4.0 * ah * _dot(av, np.cross(hv, hd)) / den**2
    return clip_nonneg(term1 + term2 + term3)


def two_fraction_curvature(params, t):
    """The closed form as the paper displays it, in (ω₀/ν₀)² (ν₀ > 0):

        κ²(t) = [sin²(4ω₀t) + 32(ω₀/ν₀)²(1 + cos(4ω₀t))] / [sin²(2ω₀t) + 4(ω₀/ν₀)²]²
                − 4(ω₀/ν₀)² sin²(4ω₀t) / [sin²(2ω₀t) + 4(ω₀/ν₀)²]³
    """
    w, n = params.omega0, params.nu0
    r2 = (w / n) ** 2
    s2 = np.sin(2.0 * w * t)
    s4 = np.sin(4.0 * w * t)
    c4 = np.cos(4.0 * w * t)
    den = s2 * s2 + 4.0 * r2
    return (s4 * s4 + 32.0 * r2 * (1.0 + c4)) / den**2 - 4.0 * r2 * s4 * s4 / den**3
