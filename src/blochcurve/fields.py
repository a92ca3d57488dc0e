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

import copy
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InvalidArgumentError


@dataclass(frozen=True)
class ScenarioParams:
    """Angular rates of the built-in scenario: ω₀ = θ̇/2 > 0, ν₀ = φ̇ ≥ 0.

    ν₀ = 0 is the geodesic limit (constant speed ω₀, zero curvature). π/(2ω₀),
    the field's fastest phase rate 4ω₀, ν₀², the curvature peak 4(ν₀/ω₀)² and
    the field rate ν₀(2ω₀ + ν₀/4) ≥ |ḣ_k| must be finite doubles too, so that
    no closed form and no field overflows.
    A 1-D array ``nu0`` (each entry checked) is accepted only by
    ``geometry.extrema_summary`` and ``geometry.geodesic_efficiency``.
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
        # each half of nu0 in turn, in two scratch rows that together hold no
        # more doubles than nu0: ν₀², ν₀²/4 + 2(ν₀ω₀) and (ν₀/ω₀)·4(ν₀/ω₀)
        flat, half, bad = nu0.reshape(-1), (nu0.size + 1) // 2, None
        scratch = np.empty((2, half))
        with np.errstate(over="ignore", invalid="ignore"):
            for start in (0, half):
                x = flat[start:start + half]
                s, r = scratch[:, :x.size]
                ok = np.isfinite(np.multiply(x, x, out=s)) & (x >= 0.0)
                s *= 0.25
                s += np.multiply(np.multiply(x, w, out=r), 2.0, out=r)
                ok &= np.isfinite(s)
                np.multiply(np.divide(x, w, out=s), 4.0, out=r)
                ok &= np.isfinite(np.multiply(s, r, out=s))
                if not ok.all():
                    bad = start + int(np.argmin(ok))
                    break
        if bad is not None:
            name = f"nu0[{bad}]" if nu0.ndim else "nu0"
            value = float(flat[bad])
            if not (math.isfinite(value) and value >= 0.0):
                raise InvalidArgumentError(f"{name} must be finite and >= 0, got {value!r}")
            raise InvalidArgumentError(
                f"{name} = {value!r} is out of range at omega0 = {w!r}: "
                "nu0**2, 4*(nu0/omega0)**2 and nu0*(2*omega0 + nu0/4) must be finite")
        object.__setattr__(self, "nu0", nu0 if nu0.ndim else float(nu0))

    def blocks(self, rows: int):
        """Consecutive slices of at most ``rows`` entries of the 1-D ``nu0``,
        each as params of its own; the entries are not checked again."""
        for start in range(0, self.nu0.size, rows):
            block = copy.copy(self)
            object.__setattr__(block, "nu0", self.nu0[start:start + rows])
            yield block


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
    infinite below |h| = 2^-511, is never formed; this layout is several times faster."""
    hx, hy, hz = np.moveaxis(np.abs(h), -1, 0)
    lam = np.ldexp(1.0, np.minimum(-np.frexp(np.maximum(np.maximum(hx, hy), hz))[1], 1022))
    scaled = [np.multiply(np.moveaxis(v, -1, 0), lam, order="C") for v in (h, *rates)]
    for rate in scaled[1:]:
        rate *= lam
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
            h, h_m2, h_m1, h_p1, h_p2 = _components(self.h, t + offsets)
            hd = (h_m2 - 8.0 * h_m1 + 8.0 * h_p1 - h_p2) / (12.0 * d)
        h0 = self.h0(t) if callable(self.h0) else self.h0
        return FieldSample(t, h0, h, hd)


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
    par = rho * np.sin(2.0 * w * t) ** 2
    trans = rho * np.sin(4.0 * w * t)
    return 4.0 * par * par / (trans * trans + 16.0)
