"""Driving fields: h₀(t), h(t), ḣ(t) behind a single contract.

A field is any deterministic callable t ↦ ``FieldSample`` (t a scalar or an
array of times): ``functools.partial(two_parameter_field, params)`` for the
built-in scenario, ``CallableField(...).sample`` for a user drive. The sample
checks its data once; every consumer reads it as given.

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

from .errors import DomainError, InvalidArgumentError


@dataclass(frozen=True)
class ScenarioParams:
    """Angular rates of the built-in scenario: ω₀ = θ̇/2 > 0, ν₀ = φ̇ ≥ 0.

    ν₀ = 0 is the geodesic limit (constant speed ω₀, zero curvature). π/(2ω₀),
    the field's fastest phase rate 4ω₀, ν₀², the curvature peak 4(ν₀/ω₀)² and
    the field rate ν₀(2ω₀ + ν₀/4) ≥ |ḣ_k| must be finite doubles too, so that
    no closed form and no field overflows.
    A 1-D array ``nu0`` is accepted only by ``geometry.extrema_summary`` and
    ``geometry.geodesic_efficiency``. Each bound is monotone in ν₀, so the
    list is checked at its largest entry, in O(1) memory; only when that
    fails are the entries walked in order, to name the first that fails.
    """

    omega0: float
    nu0: object

    def __post_init__(self):
        w = self.omega0
        if not (math.isfinite(w) and w > 0.0):
            raise InvalidArgumentError(f"omega0 must be finite and > 0, got {w!r}")
        if not (math.isfinite(math.pi / (2.0 * w)) and math.isfinite(4.0 * w)):
            raise InvalidArgumentError(
                f"omega0 = {w!r} is out of range: pi/(2*omega0) and 4*omega0 must be finite")
        nu0 = np.asarray(self.nu0, dtype=float)
        if nu0.ndim > 1:
            raise InvalidArgumentError(f"nu0 must be a scalar or 1-D, got shape {nu0.shape}")
        # each bound is a chain of roundings that never decreases as ν₀ ≥ 0
        # grows, so the largest entry decides for the whole list (a NaN
        # propagates into the max)
        flat = nu0.reshape(-1)
        if flat.size and not (flat.min() >= 0.0 and _in_range(float(flat.max()), w)):
            bad, value = next((i, x) for i, x in enumerate(map(float, flat))
                              if not _in_range(x, w))
            name = f"nu0[{bad}]" if nu0.ndim else "nu0"
            if not (math.isfinite(value) and value >= 0.0):
                raise InvalidArgumentError(f"{name} must be finite and >= 0, got {value!r}")
            raise InvalidArgumentError(
                f"{name} = {value!r} is out of range at omega0 = {w!r}: "
                "nu0**2, 4*(nu0/omega0)**2 and nu0*(2*omega0 + nu0/4) must be finite")
        object.__setattr__(self, "nu0", nu0 if nu0.ndim else float(nu0))


def _in_range(x: float, w: float) -> bool:
    """Whether ν₀ = x is in the domain at ω₀ = w: x ≥ 0 and ν₀²/4 + 2ν₀ω₀ and
    (ν₀/ω₀)·4(ν₀/ω₀) finite (so ν₀² is too). On Python floats, which overflow
    to inf without a warning."""
    r = x / w
    return x >= 0.0 and math.isfinite(x * x * 0.25 + x * w * 2.0) and math.isfinite(r * (r * 4.0))


@dataclass(frozen=True)
class FieldSample:
    """Field data on a time grid: scalar part h0, vector part h, derivative ḣ.

    ``t`` and ``h0`` have the grid's shape; ``h`` and ``h_dot`` add a trailing
    axis of 3 components. A scalar t gives scalar t and h0 and (3,) vectors.
    Every component is checked finite once, for the whole grid, here and
    nowhere downstream.
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


def _scaled_field(h: np.ndarray, *rates: np.ndarray):
    """λ, λh and λ²ḣ per ḣ in ``rates``, components first: per node, λ is the power
    of two that brings the largest |h_k| into [½, 1) (1 at h = 0, at most 2^1022). λ·λ,
    infinite below |h| = 2^-511, is never formed; this layout is several times faster.
    A λ²ḣ beyond the largest double raises DomainError: κ² is then not a double."""
    hx, hy, hz = np.moveaxis(np.abs(h), -1, 0)
    lam = np.ldexp(1.0, np.minimum(-np.frexp(np.maximum(np.maximum(hx, hy), hz))[1], 1022))
    with np.errstate(over="ignore"):
        scaled = [np.multiply(np.moveaxis(v, -1, 0), lam, order="C") for v in (h, *rates)]
        for rate in scaled[1:]:
            rate *= lam
    if not all(np.all(np.isfinite(rate)) for rate in scaled[1:]):
        raise DomainError("the field rate scaled to the field overflows: "
                          "kappa2 is not representable as a double")
    return (lam, *scaled)


@dataclass(frozen=True)
class CallableField:
    """User-supplied field h(t) with optional analytic derivative; its bound
    ``sample`` is the field callable.

    ``h`` and ``h_dot`` take an array of times t and return three components
    (x, y, z), each a scalar or an array that broadcasts to t's shape, so
    ``lambda t: (np.sin(t), t * t, 1.0)`` or a constant tuple. ``h0`` is a
    constant or a callable returning a scalar or an array shaped like t.
    ``sample`` calls each user callable once per grid. When ``h_dot`` is
    omitted the derivative comes from a 4th-order central stencil with step
    ``step``, evaluated in that same single call of ``h``.
    """

    h: Callable[[np.ndarray], object]
    h0: object = 0.0
    h_dot: Optional[Callable[[np.ndarray], object]] = None
    step: float = 1e-4

    def __post_init__(self):
        if not (self.step > 0.0 and math.isfinite(self.step)):
            raise InvalidArgumentError("derivative step must be positive")

    def sample(self, t) -> FieldSample:
        t = np.asarray(t, dtype=float)
        if self.h_dot is not None:
            h = _components(self.h, t)
            hd = _components(self.h_dot, t)
        else:
            # h at t and at the four stencil points t ± dt, t ± 2dt, in one call
            d = self.step
            offsets = np.array([0.0, -2.0 * d, -d, d, 2.0 * d]).reshape((5,) + (1,) * t.ndim)
            h, *stencil = _components(self.h, t + offsets)
            hd = _central_difference(*stencil, d)
        h0 = self.h0(t) if callable(self.h0) else self.h0
        return FieldSample(t, h0, h, hd)


def _central_difference(f_m2, f_m1, f_p1, f_p2, d: float):
    """f′ to 4th order from f at −2d, −d, +d, +2d around each point:
    (f(−2d) − 8f(−d) + 8f(d) − f(2d)) / (12d)."""
    return (f_m2 - 8.0 * f_m1 + 8.0 * f_p1 - f_p2) / (12.0 * d)


def _components(fn: Callable[[np.ndarray], object], t: np.ndarray) -> np.ndarray:
    """Call a user field function once on the whole array t; its three
    components, each broadcast to t's shape, are stacked on a trailing axis."""
    parts = [np.asarray(c, dtype=float) for c in fn(t)]
    if len(parts) != 3:
        raise InvalidArgumentError(f"field function must return 3 components, got {len(parts)}")
    try:
        return np.stack([np.broadcast_to(c, t.shape) for c in parts], axis=-1)
    except ValueError:
        shapes = [c.shape for c in parts]
        raise InvalidArgumentError(
            f"field components of shapes {shapes} do not broadcast to t of shape {t.shape}"
        ) from None


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


def parallel_transverse_ratio(params: ScenarioParams, t):
    """h∥²/h⊥² of the squared field components along the precession axis,
    h∥² = (ν₀²/4) sin⁴(2ω₀t), and across it, h⊥² = (ν₀²/16) sin²(4ω₀t) + ω₀²,
    as 4(ρ sin²(2ω₀t))² / [(ρ sin(4ω₀t))² + 16] with ρ = ν₀/ω₀, so that no
    rate is squared; 0 when ν₀ = 0. Periodic with T = π/(2ω₀); maxima ρ²/4 at
    t = π/(4ω₀) + nT.
    """
    w = params.omega0
    rho = params.nu0 / w
    s2 = np.sin(2.0 * w * t)
    par = rho * (s2 * s2)
    trans = rho * np.sin(4.0 * w * t)
    return 4.0 * par * par / (trans * trans + 16.0)
