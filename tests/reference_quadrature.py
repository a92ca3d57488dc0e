"""Adaptive Simpson quadrature, kept as an independent oracle for the elliptic
integrals and closed-form arc lengths in ``blochcurve``.

It knows nothing of the Carlson forms or of the scenario: it samples the
integrand pointwise and subdivides until each panel's Richardson estimate is
inside its share of the tolerance, so agreement with the library is evidence
from a second, unrelated method.
"""

import math
from dataclasses import dataclass
from typing import Callable

from blochcurve import InvalidArgumentError

_MAX_DEPTH = 50  # bisection levels per top panel
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class QuadratureDepthError(RuntimeError):
    """A panel would need subdividing past ``_MAX_DEPTH`` levels."""


@dataclass(frozen=True)
class QuadratureResult:
    """Value, accumulated error estimate, and integrand evaluation count."""

    value: float
    error_estimate: float
    evaluations: int


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-10,
) -> QuadratureResult:
    """Adaptive Simpson quadrature of f over [a, b].

    Each panel is accepted when the Richardson estimate |S_half − S_whole|/15
    is below its share of the tolerance, and the accepted value includes the
    extrapolation correction. Raises QuadratureDepthError when a panel would need
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
            raise QuadratureDepthError(
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
