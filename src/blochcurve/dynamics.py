"""Time evolution of a driven qubit: one integrator whose ``Trajectory`` holds
both the Schrödinger and the Bloch picture, analytic reference solutions for
the built-in scenario, transport phase, arc length, and Hamiltonian synthesis
from a parallel-transported trajectory.

The integrator takes fixed 4th-order Magnus steps, one exponent ω per step
from the field at the step's two Gauss points, and holds every step and every
propagator as one unit quaternion (c, v), U = cI − iv·σ (h₀ adds only a
phase): the propagators are prefix products of the steps, computed once, and
the states are Uψ₀ and the Bloch rows a₀ turned by U. Nothing is
renormalized. A step whose embedded error estimate exceeds
``STEP_ERROR_LIMIT``, or is not finite because the field overflows the step,
raises IntegrationInstabilityError (the right fix is a smaller dt, not a
looser limit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    ContractViolationError,
    IntegrationInstabilityError,
    InvalidArgumentError,
)
from .fields import FieldSample, ScenarioParams, _scaled_field
from .qubit_core import _braket, _pauli_apply, _pure_states, bloch_vector
from .special_functions import elliptic_e_incomplete

STEP_ERROR_LIMIT = 1e-2      # per-step |ω − dt·h(t + dt/2)| that flags an unresolved step
TRANSPORT_GAUGE_ATOL = 1e-8  # |⟨m|ṁ⟩| bound for Hamiltonian synthesis

_GAUSS = math.sqrt(3.0) / 6.0  # offsets ±√3/6 of a unit step's Gauss points from its midpoint
_STEP_POINTS = 0.5 + np.array([-_GAUSS, 0.0, _GAUSS])  # where a step samples the field

Field = Callable[[np.ndarray], FieldSample]  # t ↦ FieldSample, see ``fields``


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of ``steps`` intervals on [t0, t1], dt = (t1-t0)/steps."""

    t0: float
    t1: float
    steps: int

    def __post_init__(self):
        if not (math.isfinite(self.t0) and math.isfinite(self.t1)):
            raise InvalidArgumentError("grid endpoints must be finite")
        if not self.t1 > self.t0:
            raise InvalidArgumentError("need t1 > t0")
        if not (isinstance(self.steps, (int, np.integer)) and self.steps >= 1):
            raise InvalidArgumentError("steps must be a positive integer")
        object.__setattr__(self, "steps", int(self.steps))

    @property
    def dt(self) -> float:
        return (self.t1 - self.t0) / self.steps

    def times(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Nodes ``start`` to ``stop`` − 1, all ``steps`` + 1 by default, cut
        like a slice: k·dt + t0, and t1 at the last node. That is bit for bit
        ``np.linspace(t0, t1, steps + 1)[start:stop]``, so a node has one
        time however the grid is cut into blocks."""
        stop = self.steps + 1 if stop is None else min(stop, self.steps + 1)
        t = np.arange(start, stop, dtype=np.float64)
        if self.dt == 0.0:    # dt underflows: k/steps·(t1 − t0), as linspace does
            t /= self.steps
            t *= self.t1 - self.t0
        else:
            t *= self.dt
        t += self.t0
        if stop == self.steps + 1 and t.size:
            t[-1] = self.t1
        return t


@dataclass(frozen=True)
class Trajectory:
    """Integration output on a TimeGrid (arrays have ``steps + 1`` rows).

    states : complex (n+1, 2) unit states (checked like every pure state,
             by ``qubit_core._pure_states``)
    bloch  : float (n+1, 3) Bloch rows: a₀, the Bloch vector of ψ₀, turned by
             the same propagators; they agree with the Bloch vectors of the
             states to round-off
    beta   : accumulated phase ∫₀ᵗ ⟨ψ|H|ψ⟩ dt' (trapezoidal); multiplying the
             solution by e^{iβ} yields the parallel-transported representative
    arc    : accumulated arc length ∫₀ᵗ v dt', v = √(⟨H²⟩ − ⟨H⟩²) (trapezoidal)
    sample : the FieldSample at the grid's nodes that beta and arc were built
             from; its ``t`` is the trajectory's ``times``
    max_step_error : largest per-step error estimate |ω − dt·h(t + dt/2)|
    """

    grid: TimeGrid
    states: np.ndarray
    bloch: np.ndarray
    beta: np.ndarray
    arc: np.ndarray
    sample: FieldSample
    max_step_error: float = 0.0

    def __post_init__(self):
        n = self.grid.steps + 1
        for name, dtype, shape in (("states", complex, (n, 2)), ("bloch", float, (n, 3)),
                                   ("beta", float, (n,)), ("arc", float, (n,))):
            val = np.asarray(getattr(self, name), dtype=dtype)
            if val.shape != shape:
                raise ContractViolationError(f"{name} must have shape {shape}, got {val.shape}")
            object.__setattr__(self, name, val)
        _pure_states(self.states)
        if self.beta[0] != 0.0 or self.arc[0] != 0.0:
            raise ContractViolationError("beta[0] and arc[0] must be 0")
        if np.any(np.diff(self.arc) < -1e-12):
            raise ContractViolationError("arc length must be nondecreasing")
        if not np.array_equal(self.sample.t, self.grid.times()):
            raise ContractViolationError(f"the field sample must be taken at the {n} nodes")

    @property
    def times(self) -> np.ndarray:
        """The grid's nodes, the times of ``sample``."""
        return self.sample.t

    @property
    def n_nodes(self) -> int:
        return self.grid.steps + 1


def transport_phase_closed(params: ScenarioParams, t):
    """Accumulated transport phase φ(t) = (ν₀/4ω₀)·[2ω₀t − sin(2ω₀t)].

    φ is the phase that parallel-transports the bare path
    cos(ω₀t)|0⟩ + e^{iν₀t} sin(ω₀t)|1⟩: the transported state is e^{−iφ} times
    the bare one. A phase β defined through "transported = e^{+iβ} · bare"
    is therefore β(t) = −φ(t); this library stores the single scalar φ and
    leaves the sign flip to the caller's gauge convention.
    """
    w, n = params.omega0, params.nu0
    return n / (4.0 * w) * (2.0 * w * t - np.sin(2.0 * w * t))


def analytic_state(params: ScenarioParams, t) -> np.ndarray:
    """Closed-form parallel-transported solution of the built-in scenario:

        |m(t)⟩ = e^{−iφ(t)} [ cos(ω₀t)|0⟩ + e^{iν₀t} sin(ω₀t)|1⟩ ]

    with φ from ``transport_phase_closed``. Satisfies ⟨m|ṁ⟩ = 0 and the
    Schrödinger equation for the built-in field. Returns the amplitudes
    (α, β) on the last axis: shape (2,) for a scalar t, t.shape + (2,) else.
    Built from the real parts of ``_phase_factors``.
    """
    cp, sp, p, q, c, s = _phase_factors(params, np.asarray(t, dtype=float))
    re = np.stack([cp * c, p * s], axis=-1)
    im = np.stack([-sp * c, q * s], axis=-1)
    return re + 1j * im  # exact: 1j * im and the sum round nothing


def analytic_state_derivative(params: ScenarioParams, t) -> np.ndarray:
    """Exact dm/dt of the closed-form solution, differentiated by hand.

    With φ̇ = ν₀ sin²(ω₀t) the components are

        ṁ₀ = e^{−iφ} [ −ω₀ sin(ω₀t) − iφ̇ cos(ω₀t) ]
        ṁ₁ = e^{−iφ} e^{iν₀t} [ ω₀ cos(ω₀t) + i(ν₀ − φ̇) sin(ω₀t) ]

    which makes ⟨m|ṁ⟩ = i(ν₀ sin²(ω₀t) − φ̇) vanish identically, so this
    derivative feeds ``synthesize_hamiltonian`` with no finite-difference
    noise in the gauge condition. Built from the real parts of
    ``_phase_factors``; shaped like ``analytic_state``.
    """
    t = np.asarray(t, dtype=float)
    w, n = params.omega0, params.nu0
    cp, sp, p, q, c, s = _phase_factors(params, t)
    phi_dot = n * s * s
    x0, y0 = -w * s, -phi_dot * c      # ṁ₀ = (cos φ − i sin φ)(x0 + iy0)
    x1, y1 = w * c, (n - phi_dot) * s  # ṁ₁ = (p + iq)(x1 + iy1)
    re = np.stack([cp * x0 + sp * y0, p * x1 - q * y1], axis=-1)
    im = np.stack([cp * y0 - sp * x0, p * y1 + q * x1], axis=-1)
    return re + 1j * im


def _phase_factors(params: ScenarioParams, t: np.ndarray):
    """cos φ, sin φ, the parts p + iq = e^{−iφ}·e^{iν₀t}, cos ω₀t and sin ω₀t.
    The closed-form state and its derivative multiply these real parts, never
    complex numbers: numpy's complex product is fused in its array loop and
    not on scalars, and swaps its operands on large arrays, so a node would
    get different bits alone, in a block or in a grid."""
    w, n = params.omega0, params.nu0
    phi = transport_phase_closed(params, t)
    cp, sp, cn, sn = np.cos(phi), np.sin(phi), np.cos(n * t), np.sin(n * t)
    return cp, sp, cp * cn + sp * sn, cp * sn - sp * cn, np.cos(w * t), np.sin(w * t)


def analytic_bloch(params: ScenarioParams, t) -> np.ndarray:
    """Closed-form Bloch vector of the built-in scenario:
    (sin(2ω₀t)cos(ν₀t), sin(ν₀t)sin(2ω₀t), cos(2ω₀t)), components on the
    last axis: shape (3,) for a scalar t, t.shape + (3,) else.
    """
    t = np.asarray(t, dtype=float)
    w, n = params.omega0, params.nu0
    s2 = np.sin(2.0 * w * t)
    return np.stack([s2 * np.cos(n * t), np.sin(n * t) * s2, np.cos(2.0 * w * t)], axis=-1)


def integrate_schrodinger(field: Field, psi0, grid: TimeGrid) -> Trajectory:
    """Integrate i dψ/dt = H(t)ψ on the grid with exactly unitary Magnus-4 steps;
    ``field`` is any callable t ↦ FieldSample.

    One scan of the propagators U gives both pictures: the states Uψ₀ and
    the Bloch rows, the Bloch vector a₀ of ψ₀ turned by U, which solve the
    precession equation ȧ = 2 h × a. Fills ``beta`` with the trapezoidal
    accumulation of ⟨ψ|H|ψ⟩ = h₀ + h·a and ``arc`` with the trapezoidal
    accumulation of the speed v = √(h·h − (h·a)²), which h₀ does not enter,
    formed on the field scaled per node by a power of two λ, as κ² is, and
    divided by λ, so no square of a huge or tiny field overflows. Both read
    one field sample at the nodes, kept as the trajectory's ``sample``.
    """
    psi = _pure_states(np.asarray(psi0, dtype=complex).reshape(2))

    times, dt = grid.times(), grid.dt
    c, v, phase, error = _propagators(field, times, dt)
    # h₀ only moves the global phase; per-step factors would compound their round-off
    states = ((c[:, None] * psi - 1j * _pauli_apply(*v.T, psi).T)
              * np.exp(-1j * np.cumsum(np.append(0.0, phase)))[:, None])
    bloch = _rotate(c, v, bloch_vector(psi))

    s = field(times)
    lam, h = _scaled_field(s.h)
    ha = np.einsum("kn,nk->n", h, bloch)
    speed = np.sqrt(np.maximum(np.einsum("kn,kn->n", h, h) - ha * ha, 0.0)) / lam
    energy = s.h0 + np.einsum("nk,nk->n", s.h, bloch)
    beta = np.concatenate(([0.0], np.cumsum(0.5 * dt * (energy[:-1] + energy[1:]))))
    arc = np.concatenate(([0.0], np.cumsum(0.5 * dt * (speed[:-1] + speed[1:]))))
    return Trajectory(grid=grid, states=states, bloch=bloch, beta=beta, arc=arc, sample=s,
                      max_step_error=float(error.max()))


def _magnus_steps(field: Field, t, dt: float):
    """Magnus-4 exponents of the steps from the times ``t`` (any shape) to
    t + dt, from one field sample at their Gauss points t₁, t₂ and midpoints:

        ω = (dt/2)(h₁ + h₂) + (√3/6)·dt²·(h₂ × h₁),   φ = (dt/2)(h₀₁ + h₀₂)

    (Blanes, Casas, Oteo & Ros, Phys. Rep. 470 (2009) 151): a step is
    e^{−iφ}·exp(−iω·σ) to 4th order. Also returns the embedded error
    estimate |ω − dt·h(t + dt/2)|, the distance to the midpoint step."""
    s = field(np.asarray(t, dtype=float)[..., None] + dt * _STEP_POINTS)
    h1, h_mid, h2 = np.moveaxis(s.h, -2, 0)
    # a field too strong for dt overflows here; its estimate is then not finite
    with np.errstate(over="ignore", invalid="ignore"):
        omega = 0.5 * dt * (h1 + h2) + _GAUSS * dt * dt * np.cross(h2, h1)
        error = np.linalg.norm(omega - dt * h_mid, axis=-1)
    phase = 0.5 * dt * (s.h0[..., 0] + s.h0[..., 2])
    return omega, phase, error


def _quaternions(omega: np.ndarray):
    """cos|ω| and (sin|ω|/|ω|)·ω, the unit quaternion of exp(−iω·σ)."""
    norm = np.linalg.norm(omega, axis=-1)
    return np.cos(norm), np.sinc(norm / np.pi)[..., None] * omega


def _propagators(field: Field, times, dt: float):
    """Unit quaternions (c, v) of the propagators U_k = S_{k−1}⋯S₀ (U₀ = I) to
    each of ``times``, and the steps' phases and error estimates. The Magnus
    steps S become their prefix products in ⌈log₂ n⌉ doubling rounds of the
    Hamilton product (c₁, v₁)(c₂, v₂) = (c₁c₂ − v₁·v₂, c₁v₂ + c₂v₁ + v₁ × v₂),
    later step on the left. The first step whose error estimate exceeds
    ``STEP_ERROR_LIMIT`` (or is not finite) raises IntegrationInstabilityError."""
    omega, phase, error = _magnus_steps(field, times[:-1], dt)
    i = int(np.argmax(~(error <= STEP_ERROR_LIMIT)))  # the first bad step, or 0
    if not error[i] <= STEP_ERROR_LIMIT:
        at = f"at t = {float(times[i + 1])!r}"
        problem = (f"step error estimate {error[i]:.3e} {at} exceeds {STEP_ERROR_LIMIT:.1e}"
                   if math.isfinite(error[i]) else f"step error estimate is not finite {at}")
        raise IntegrationInstabilityError(f"{problem}; reduce the step size")
    c, v = _quaternions(np.concatenate((np.zeros((1, 3)), omega)))
    s = 1
    while s < len(omega):
        c[s:], v[s:] = (c[s:] * c[:-s] - np.einsum("nk,nk->n", v[s:], v[:-s]),
                        c[s:, None] * v[:-s] + c[:-s, None] * v[s:] + np.cross(v[s:], v[:-s]))
        s *= 2
    return c, v, phase, error


def _rotate(c, v, a) -> np.ndarray:
    """a turned by each unit quaternion (c, v), (c² − v·v)a + 2(v·a)v + 2c(v × a):
    exp(−iω·σ) turns the Bloch vector by 2|ω| about ω (Rodrigues)."""
    c = c[..., None]
    return ((c * c - np.sum(v * v, axis=-1, keepdims=True)) * a
            + 2.0 * np.sum(v * a, axis=-1, keepdims=True) * v + 2.0 * c * np.cross(v, a))


def arc_length_closed(params: ScenarioParams, t):
    """Exact scenario arc length s(t) = ∫₀ᵗ v dt' = ½·E(2ω₀t | −(1/4)(ν₀/ω₀)²)
    (substitute θ = 2ω₀t'); ω₀t when ν₀ = 0. ``t`` may be an array of times ≥ 0."""
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t) & (t >= 0.0)):
        raise InvalidArgumentError("t must be finite and >= 0")
    w = params.omega0
    return 0.5 * elliptic_e_incomplete(2.0 * w * t, -0.25 * (params.nu0 / w) ** 2)


def synthesize_hamiltonian(m, m_dot) -> tuple[np.ndarray, np.ndarray]:
    """The pair (h₀, h) of the Hamiltonian H = h₀·I + h·σ = i|ṁ⟩⟨m| − i|m⟩⟨ṁ|
    that drives a parallel-transported state at maximal speed:

        h₀ = tr(H)/2 = −Im⟨m|ṁ⟩,   h_k = tr(Hσ_k)/2 = −Im⟨m|σ_k ṁ⟩,

    each σ_k ṁ by the one Pauli action. m is a pure state, checked by
    ``qubit_core._pure_states``. Requires the transport gauge
    |⟨m|ṁ⟩| ≤ ``TRANSPORT_GAUGE_ATOL``, under which H m = i ṁ and
    |tr H| = 2|h₀| hold to within it. States (..., 2) broadcast to h₀ of
    shape (...) and h of shape (..., 3); the first node that breaks the gauge
    raises.
    """
    mv, md = np.broadcast_arrays(_pure_states(m), np.asarray(m_dot, dtype=complex))
    psi, dpsi = np.moveaxis(mv, -1, 0), np.moveaxis(md, -1, 0)
    overlap = _braket(psi, dpsi)
    gap = np.abs(overlap)
    broken = ~(gap <= TRANSPORT_GAUGE_ATOL)
    if np.any(broken):
        k = int(np.argmax(broken))
        raise ContractViolationError(
            f"not parallel-transported at node {k}: |<m|dm/dt>| = {float(gap.flat[k]):.3e}"
        )
    h = [-_braket(psi, _pauli_apply(*axis, dpsi)).imag for axis in np.eye(3)]
    return -overlap.imag, np.stack(h, axis=-1)
