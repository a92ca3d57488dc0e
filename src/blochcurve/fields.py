"""Driving-field abstraction: h₀(t), h(t), ḣ(t) behind a single contract.

The Hamiltonian is H(t) = h₀(t)·I + h(t)·σ with every component in units of
1/time (ℏ = 1). The built-in two-parameter scenario drives the state from the
north pole along

    h(t) = ( −(ν₀/2)cos(2ω₀t)sin(2ω₀t)cos(ν₀t) − ω₀ sin(ν₀t),
             −(ν₀/2)cos(2ω₀t)sin(2ω₀t)sin(ν₀t) + ω₀ cos(ν₀t),
             (ν₀/2)sin²(2ω₀t) ),        h₀(t) = 0,

which is traceless by construction and periodic with T = π/(2ω₀).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InvalidArgumentError


@dataclass(frozen=True)
class ScenarioParams:
    """Angular rates of the built-in scenario: ω₀ = θ̇/2 > 0, ν₀ = φ̇ ≥ 0.

    ν₀ = 0 is the geodesic limit (constant speed ω₀, zero curvature).
    A 1-D array ``nu0`` (each entry checked) is accepted only by
    ``geometry.extrema_summary`` and ``geometry.geodesic_efficiency``.
    """

    omega0: float
    nu0: object

    def __post_init__(self):
        if not (math.isfinite(self.omega0) and self.omega0 > 0.0):
            raise InvalidArgumentError(f"omega0 must be finite and > 0, got {self.omega0!r}")
        nu0 = np.asarray(self.nu0, dtype=float)
        if nu0.ndim > 1:
            raise InvalidArgumentError(f"nu0 must be a scalar or 1-D, got shape {nu0.shape}")
        bad = np.flatnonzero(~(np.isfinite(nu0) & (nu0 >= 0.0)))
        if bad.size:
            name = f"nu0[{bad[0]}]" if nu0.ndim else "nu0"
            raise InvalidArgumentError(
                f"{name} must be finite and >= 0, got {float(nu0.flat[bad[0]])!r}")
        object.__setattr__(self, "nu0", nu0 if nu0.ndim else float(nu0))


@dataclass(frozen=True)
class FieldSample:
    """Field data on a time grid: scalar part h0, vector part h, derivative ḣ.

    ``t`` and ``h0`` have the grid's shape; ``h`` and ``h_dot`` add a trailing
    axis of 3 components. A scalar t gives scalar t and h0 and (3,) vectors.
    Every component is checked finite once, for the whole grid.
    """

    t: object
    h0: object
    h: np.ndarray
    h_dot: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        h0 = np.broadcast_to(np.asarray(self.h0, dtype=float), t.shape)
        h = np.asarray(self.h, dtype=float)
        hd = np.asarray(self.h_dot, dtype=float)
        if h.shape != t.shape + (3,) or hd.shape != h.shape:
            raise InvalidArgumentError(f"field vectors must have shape {t.shape + (3,)}")
        if not all(np.all(np.isfinite(x)) for x in (t, h0, h, hd)):
            raise InvalidArgumentError("field sample components must be finite")
        object.__setattr__(self, "t", t[()])
        object.__setattr__(self, "h0", h0[()])
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "h_dot", hd)


class FieldSpec:
    """Deterministic evaluation contract t ↦ FieldSample.

    Subclasses implement ``sample`` for a scalar t or an array of times (one
    sample per entry); equal t must always yield identical samples
    (stateless, safe for concurrent evaluation).
    """

    def sample(self, t) -> FieldSample:
        raise NotImplementedError


@dataclass(frozen=True)
class TwoParameterField(FieldSpec):
    """The built-in analytic scenario field for given (ω₀, ν₀)."""

    params: ScenarioParams

    def sample(self, t) -> FieldSample:
        return two_parameter_field(self.params, t)


@dataclass(frozen=True)
class CallableField(FieldSpec):
    """User-supplied field h(t) with optional analytic derivative.

    ``h`` maps one float t to a length-3 sequence. When ``h_dot`` is omitted
    the derivative comes from a 4th-order central stencil with step ``step``.
    ``h0`` may be a constant or a callable. ``sample`` accepts an array of
    times and calls the user's functions once per time.
    """

    h: Callable[[float], object]
    h0: object = 0.0
    h_dot: Optional[Callable[[float], object]] = None
    step: float = 1e-4

    def __post_init__(self):
        if not (self.step > 0.0 and math.isfinite(self.step)):
            raise InvalidArgumentError("derivative step must be positive")

    def h_value(self, t) -> np.ndarray:
        return _pointwise(self.h, t, (3,))

    def sample(self, t) -> FieldSample:
        t = np.asarray(t, dtype=float)
        if self.h_dot is not None:
            hd = _pointwise(self.h_dot, t, (3,))
        else:
            hd = _central_stencil(self.h_value, t, self.step)
        h0 = _pointwise(self.h0, t, ()) if callable(self.h0) else self.h0
        return FieldSample(t, h0, self.h_value(t), hd)


def _pointwise(fn: Callable[[float], object], t: np.ndarray, shape: tuple) -> np.ndarray:
    """Evaluate a one-float user callable at every entry of t; the values,
    each coerced to ``shape``, are stacked on the trailing axes."""
    t = np.asarray(t, dtype=float)
    values = [np.asarray(fn(u), dtype=float).reshape(shape) for u in t.ravel().tolist()]
    return np.array(values).reshape(t.shape + shape)


def two_parameter_field(params: ScenarioParams, t) -> FieldSample:
    """Evaluate the built-in field and its hand-differentiated time derivative
    at a scalar t or at every entry of an array of times.

    The derivative below was worked out once by hand (chain rule on the
    display above, using sin(4ω₀t) = 2 sin(2ω₀t)cos(2ω₀t)) and is validated
    against central differences in the test suite:

        ḣx = −ν₀ω₀ cos(4ω₀t)cos(ν₀t) + (ν₀²/4) sin(4ω₀t)sin(ν₀t) − ω₀ν₀ cos(ν₀t)
        ḣy = −ν₀ω₀ cos(4ω₀t)sin(ν₀t) − (ν₀²/4) sin(4ω₀t)cos(ν₀t) − ω₀ν₀ sin(ν₀t)
        ḣz = ν₀ω₀ sin(4ω₀t)
    """
    t = np.asarray(t, dtype=float)
    w, n = params.omega0, params.nu0
    s2, c2 = np.sin(2.0 * w * t), np.cos(2.0 * w * t)
    s4, c4 = np.sin(4.0 * w * t), np.cos(4.0 * w * t)
    sn, cn = np.sin(n * t), np.cos(n * t)
    h = np.stack(
        [
            -0.5 * n * c2 * s2 * cn - w * sn,
            -0.5 * n * c2 * s2 * sn + w * cn,
            0.5 * n * s2 * s2,
        ],
        axis=-1,
    )
    h_dot = np.stack(
        [
            -n * w * c4 * cn + 0.25 * n * n * s4 * sn - w * n * cn,
            -n * w * c4 * sn - 0.25 * n * n * s4 * cn - w * n * sn,
            n * w * s4,
        ],
        axis=-1,
    )
    return FieldSample(t, 0.0, h, h_dot)


def _central_stencil(h_of_t: Callable, t: np.ndarray, dt: float) -> np.ndarray:
    # 4th-order: (h(t-2dt) - 8h(t-dt) + 8h(t+dt) - h(t+2dt)) / (12 dt)
    return (
        h_of_t(t - 2.0 * dt)
        - 8.0 * h_of_t(t - dt)
        + 8.0 * h_of_t(t + dt)
        - h_of_t(t + 2.0 * dt)
    ) / (12.0 * dt)


def h_parallel_sq(params: ScenarioParams, t):
    """Squared component of h along the precession axis: (ν₀²/4) sin⁴(2ω₀t)."""
    s2 = np.sin(2.0 * params.omega0 * t)
    return 0.25 * params.nu0**2 * s2**4


def h_transverse_sq(params: ScenarioParams, t):
    """Squared transverse component: (ν₀²/16) sin²(4ω₀t) + ω₀²."""
    s4 = np.sin(4.0 * params.omega0 * t)
    return params.nu0**2 / 16.0 * s4 * s4 + params.omega0**2


def parallel_transverse_ratio(params: ScenarioParams, t):
    """Ratio h∥²/h⊥² = 4 sin⁴(2ω₀t) / [sin²(4ω₀t) + 16(ω₀/ν₀)²].

    Zero identically in the geodesic limit ν₀ = 0 (no parallel component).
    Periodic with T = π/(2ω₀); maxima (1/4)(ν₀/ω₀)² at t = π/(4ω₀) + nT.
    """
    w, n = params.omega0, params.nu0
    if n == 0.0:
        return np.zeros(np.shape(t))[()]
    s2 = np.sin(2.0 * w * t)
    s4 = np.sin(4.0 * w * t)
    return 4.0 * s2**4 / (s4 * s4 + 16.0 * (w / n) ** 2)
