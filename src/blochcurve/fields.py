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
    """

    omega0: float
    nu0: float

    def __post_init__(self):
        if not (math.isfinite(self.omega0) and math.isfinite(self.nu0)):
            raise InvalidArgumentError("scenario parameters must be finite")
        if self.omega0 <= 0.0:
            raise InvalidArgumentError(f"omega0 must be > 0, got {self.omega0!r}")
        if self.nu0 < 0.0:
            raise InvalidArgumentError(f"nu0 must be >= 0, got {self.nu0!r}")


@dataclass(frozen=True)
class FieldSample:
    """Field data at one instant: scalar part h0, vector part h, derivative ḣ."""

    t: float
    h0: float
    h: np.ndarray
    h_dot: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float).reshape(3)
        hd = np.asarray(self.h_dot, dtype=float).reshape(3)
        if not (
            math.isfinite(self.t)
            and math.isfinite(self.h0)
            and np.all(np.isfinite(h))
            and np.all(np.isfinite(hd))
        ):
            raise InvalidArgumentError("field sample components must be finite")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "h_dot", hd)


class FieldSpec:
    """Deterministic evaluation contract t ↦ FieldSample.

    Subclasses implement ``sample``; equal t must always yield identical
    samples (stateless, safe for concurrent evaluation).
    """

    def sample(self, t: float) -> FieldSample:
        raise NotImplementedError


@dataclass(frozen=True)
class TwoParameterField(FieldSpec):
    """The built-in analytic scenario field for given (ω₀, ν₀)."""

    params: ScenarioParams

    def sample(self, t: float) -> FieldSample:
        return two_parameter_field(self.params, t)


@dataclass(frozen=True)
class CallableField(FieldSpec):
    """User-supplied field h(t) with optional analytic derivative.

    ``h`` maps t to a length-3 sequence. When ``h_dot`` is omitted the
    derivative comes from a 4th-order central stencil with step ``step``.
    ``h0`` may be a constant or a callable.
    """

    h: Callable[[float], object]
    h0: object = 0.0
    h_dot: Optional[Callable[[float], object]] = None
    step: float = 1e-4

    def __post_init__(self):
        if not (self.step > 0.0 and math.isfinite(self.step)):
            raise InvalidArgumentError("derivative step must be positive")

    def h_value(self, t: float) -> np.ndarray:
        return np.asarray(self.h(t), dtype=float).reshape(3)

    def _h0_value(self, t: float) -> float:
        return float(self.h0(t)) if callable(self.h0) else float(self.h0)

    def sample(self, t: float) -> FieldSample:
        if self.h_dot is not None:
            hd = np.asarray(self.h_dot(t), dtype=float).reshape(3)
        else:
            hd = _central_stencil(self.h_value, t, self.step)
        return FieldSample(t, self._h0_value(t), self.h_value(t), hd)


def two_parameter_field(params: ScenarioParams, t: float) -> FieldSample:
    """Evaluate the built-in field and its hand-differentiated time derivative.

    The derivative below was worked out once by hand (chain rule on the
    display above, using sin(4ω₀t) = 2 sin(2ω₀t)cos(2ω₀t)) and is validated
    against central differences in the test suite:

        ḣx = −ν₀ω₀ cos(4ω₀t)cos(ν₀t) + (ν₀²/4) sin(4ω₀t)sin(ν₀t) − ω₀ν₀ cos(ν₀t)
        ḣy = −ν₀ω₀ cos(4ω₀t)sin(ν₀t) − (ν₀²/4) sin(4ω₀t)cos(ν₀t) − ω₀ν₀ sin(ν₀t)
        ḣz = ν₀ω₀ sin(4ω₀t)
    """
    if not math.isfinite(t):
        raise InvalidArgumentError("t must be finite")
    w, n = params.omega0, params.nu0
    s2, c2 = math.sin(2.0 * w * t), math.cos(2.0 * w * t)
    s4, c4 = math.sin(4.0 * w * t), math.cos(4.0 * w * t)
    sn, cn = math.sin(n * t), math.cos(n * t)
    h = np.array(
        [
            -0.5 * n * c2 * s2 * cn - w * sn,
            -0.5 * n * c2 * s2 * sn + w * cn,
            0.5 * n * s2 * s2,
        ]
    )
    h_dot = np.array(
        [
            -n * w * c4 * cn + 0.25 * n * n * s4 * sn - w * n * cn,
            -n * w * c4 * sn - 0.25 * n * n * s4 * cn - w * n * sn,
            n * w * s4,
        ]
    )
    return FieldSample(float(t), 0.0, h, h_dot)


def _central_stencil(h_of_t: Callable[[float], np.ndarray], t: float, dt: float) -> np.ndarray:
    # 4th-order: (h(t-2dt) - 8h(t-dt) + 8h(t+dt) - h(t+2dt)) / (12 dt)
    return (
        h_of_t(t - 2.0 * dt)
        - 8.0 * h_of_t(t - dt)
        + 8.0 * h_of_t(t + dt)
        - h_of_t(t + 2.0 * dt)
    ) / (12.0 * dt)


def h_parallel_sq(params: ScenarioParams, t: float) -> float:
    """Squared component of h along the precession axis: (ν₀²/4) sin⁴(2ω₀t)."""
    s2 = math.sin(2.0 * params.omega0 * t)
    return 0.25 * params.nu0**2 * s2**4


def h_transverse_sq(params: ScenarioParams, t: float) -> float:
    """Squared transverse component: (ν₀²/16) sin²(4ω₀t) + ω₀²."""
    s4 = math.sin(4.0 * params.omega0 * t)
    return params.nu0**2 / 16.0 * s4 * s4 + params.omega0**2


def parallel_transverse_ratio(params: ScenarioParams, t: float) -> float:
    """Ratio h∥²/h⊥² = 4 sin⁴(2ω₀t) / [sin²(4ω₀t) + 16(ω₀/ν₀)²].

    Zero identically in the geodesic limit ν₀ = 0 (no parallel component).
    Periodic with T = π/(2ω₀); maxima (1/4)(ν₀/ω₀)² at t = π/(4ω₀) + nT.
    """
    w, n = params.omega0, params.nu0
    if n == 0.0:
        return 0.0
    s2 = math.sin(2.0 * w * t)
    s4 = math.sin(4.0 * w * t)
    return 4.0 * s2**4 / (s4 * s4 + 16.0 * (w / n) ** 2)
