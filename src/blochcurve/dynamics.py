"""Time evolution of a driven qubit: Schrödinger and Bloch-vector integrators,
analytic reference solutions for the built-in scenario, transport phase, arc
length, and Hamiltonian synthesis from a parallel-transported trajectory.

Both integrators are fixed-step classical RK4 for y′ = G(t)y with per-step
renormalization: G = −iH for the state, G = 2[h]× for the Bloch vector, each
sampled once at every node and midpoint before the loop. The
pre-renormalization norm drift is logged and a per-step drift above
``DRIFT_LIMIT`` raises IntegrationInstabilityError (the right fix is a
smaller dt, not a looser limit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractViolationError,
    IntegrationInstabilityError,
    InvalidArgumentError,
)
from .fields import FieldSpec, ScenarioParams
from .qubit_core import QubitState, pauli_compose
from .special_functions import elliptic_e_incomplete

DRIFT_LIMIT = 1e-6          # per-step norm drift that flags instability
TRANSPORT_GAUGE_ATOL = 1e-8  # |⟨m|ṁ⟩| bound for Hamiltonian synthesis


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

    def times(self) -> np.ndarray:
        return np.linspace(self.t0, self.t1, self.steps + 1)


@dataclass(frozen=True)
class Trajectory:
    """Integration output on a TimeGrid (arrays have ``steps + 1`` rows).

    states : complex (n+1, 2), renormalized at every node
    bloch  : float (n+1, 3) Bloch vectors of the states
    beta   : accumulated phase ∫₀ᵗ ⟨ψ|H|ψ⟩ dt' (trapezoidal); multiplying the
             solution by e^{iβ} yields the parallel-transported representative
    arc    : accumulated arc length ∫₀ᵗ v dt', v = √(⟨H²⟩ − ⟨H⟩²) (trapezoidal)
    max_norm_drift : largest per-step |norm − 1| seen before renormalization
    """

    grid: TimeGrid
    times: np.ndarray
    states: np.ndarray
    bloch: np.ndarray
    beta: np.ndarray
    arc: np.ndarray
    max_norm_drift: float = 0.0

    def __post_init__(self):
        n = self.grid.steps + 1
        states = np.asarray(self.states, dtype=complex).reshape(n, 2)
        bloch = np.asarray(self.bloch, dtype=float).reshape(n, 3)
        beta = np.asarray(self.beta, dtype=float).reshape(n)
        arc = np.asarray(self.arc, dtype=float).reshape(n)
        norms = np.abs(states[:, 0]) ** 2 + np.abs(states[:, 1]) ** 2
        if np.max(np.abs(norms - 1.0)) > 1e-10:
            raise ContractViolationError("trajectory states must stay normalized")
        if beta[0] != 0.0 or arc[0] != 0.0:
            raise ContractViolationError("beta[0] and arc[0] must be 0")
        if np.any(np.diff(arc) < -1e-12):
            raise ContractViolationError("arc length must be nondecreasing")
        for name, val in (("times", np.asarray(self.times, dtype=float).reshape(n)),
                          ("states", states), ("bloch", bloch),
                          ("beta", beta), ("arc", arc)):
            object.__setattr__(self, name, val)

    def state_at(self, i: int) -> QubitState:
        return QubitState.from_vector(self.states[i], renormalize=True)

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
    """
    t = np.asarray(t, dtype=float)
    w, n = params.omega0, params.nu0
    gauge = np.exp(-1j * transport_phase_closed(params, t))
    return np.stack(
        [gauge * np.cos(w * t), gauge * np.exp(1j * n * t) * np.sin(w * t)], axis=-1
    )


def analytic_state_derivative(params: ScenarioParams, t) -> np.ndarray:
    """Exact dm/dt of the closed-form solution, differentiated by hand.

    With φ̇ = ν₀ sin²(ω₀t) the components are

        ṁ₀ = e^{−iφ} [ −iφ̇ cos(ω₀t) − ω₀ sin(ω₀t) ]
        ṁ₁ = e^{−iφ} e^{iν₀t} [ (−iφ̇ + iν₀) sin(ω₀t) + ω₀ cos(ω₀t) ]

    which makes ⟨m|ṁ⟩ = i(ν₀ sin²(ω₀t) − φ̇) vanish identically, so this
    derivative feeds ``synthesize_hamiltonian`` with no finite-difference
    noise in the gauge condition. Shaped like ``analytic_state``.
    """
    t = np.asarray(t, dtype=float)
    w, n = params.omega0, params.nu0
    gauge = np.exp(-1j * transport_phase_closed(params, t))
    c, s = np.cos(w * t), np.sin(w * t)
    phi_dot = n * s * s
    return np.stack(
        [
            gauge * (-1j * phi_dot * c - w * s),
            gauge * np.exp(1j * n * t) * ((-1j * phi_dot + 1j * n) * s + w * c),
        ],
        axis=-1,
    )


def analytic_bloch(params: ScenarioParams, t) -> np.ndarray:
    """Closed-form Bloch vector of the built-in scenario:
    (sin(2ω₀t)cos(ν₀t), sin(ν₀t)sin(2ω₀t), cos(2ω₀t)), components on the
    last axis: shape (3,) for a scalar t, t.shape + (3,) else.
    """
    t = np.asarray(t, dtype=float)
    w, n = params.omega0, params.nu0
    s2 = np.sin(2.0 * w * t)
    return np.stack([s2 * np.cos(n * t), np.sin(n * t) * s2, np.cos(2.0 * w * t)], axis=-1)


def hamiltonian_at(spec: FieldSpec, t) -> np.ndarray:
    """H(t) = h₀(t)·I + h(t)·σ as a 2x2 complex matrix, or a stack of them
    for an array of times."""
    s = spec.sample(t)
    return pauli_compose(s.h0, s.h)


def integrate_schrodinger(spec: FieldSpec, psi0, grid: TimeGrid) -> Trajectory:
    """Integrate i dψ/dt = H(t)ψ on the grid with per-step renormalization.

    Fills ``beta`` with the trapezoidal accumulation of ⟨ψ|H|ψ⟩ and ``arc``
    with the trapezoidal accumulation of the speed v = √(⟨H²⟩ − ⟨H⟩²).
    """
    psi = np.asarray(psi0, dtype=complex).reshape(2)
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > 1e-10:
        raise InvalidArgumentError(f"psi0 not normalized: |psi0| = {norm!r}")

    times = grid.times()
    dt = grid.dt
    h_nodes = hamiltonian_at(spec, times)
    h_half = hamiltonian_at(spec, times[:-1] + 0.5 * dt)
    states, max_drift = _integrate(-1j * h_nodes, -1j * h_half, psi, times, dt)

    hpsi = np.einsum("nij,nj->ni", h_nodes, states)
    energy = np.einsum("ni,ni->n", states.conj(), hpsi).real
    h2 = np.einsum("ni,ni->n", hpsi.conj(), hpsi).real  # ⟨H²⟩ for Hermitian H
    speed = np.sqrt(np.maximum(h2 - energy * energy, 0.0))
    beta = np.concatenate(([0.0], np.cumsum(0.5 * dt * (energy[:-1] + energy[1:]))))
    arc = np.concatenate(([0.0], np.cumsum(0.5 * dt * (speed[:-1] + speed[1:]))))
    return Trajectory(
        grid=grid,
        times=times,
        states=states,
        bloch=_bloch_rows(states),
        beta=beta,
        arc=arc,
        max_norm_drift=max_drift,
    )


def bloch_step(spec: FieldSpec, a: np.ndarray, t: float, dt: float) -> np.ndarray:
    """One raw RK4 step of the precession equation ȧ = 2 h × a (dt may be
    negative). No renormalization; callers decide.
    """
    g = _precession_generator(spec.sample(np.array([t, t + 0.5 * dt, t + dt])).h)
    return _rk4_step(g[0], g[1], g[2], np.asarray(a, dtype=float).reshape(3), dt)


def integrate_bloch(spec: FieldSpec, a0, grid: TimeGrid) -> np.ndarray:
    """Integrate the precession equation ȧ = 2 h × a with RK4.

    The factor 2 is the h·σ ↔ rotation-rate correspondence (Ω = 2h); the
    scalar part h₀ only moves the global phase and does not enter. Returns an
    (steps+1, 3) array of unit vectors.
    """
    a = np.asarray(a0, dtype=float).reshape(3)
    if abs(float(np.linalg.norm(a)) - 1.0) > 1e-10:
        raise InvalidArgumentError("a0 must be a unit vector")

    times = grid.times()
    dt = grid.dt
    g_nodes = _precession_generator(spec.sample(times).h)
    g_half = _precession_generator(spec.sample(times[:-1] + 0.5 * dt).h)
    return _integrate(g_nodes, g_half, a, times, dt)[0]


def _precession_generator(h: np.ndarray) -> np.ndarray:
    """Matrices G = 2[h]× with G·a = 2 h × a, one per row of h: row i of
    [h]× is e_i × h."""
    return 2.0 * np.cross(np.eye(3), h[..., None, :])


def _rk4_step(g0, g_half, g1, y: np.ndarray, dt: float) -> np.ndarray:
    """One classical RK4 step of y′ = G(t)y, given G at the step's start,
    midpoint and end."""
    k1 = g0 @ y
    k2 = g_half @ (y + 0.5 * dt * k1)
    k3 = g_half @ (y + 0.5 * dt * k2)
    k4 = g1 @ (y + dt * k3)
    return y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _integrate(g_nodes, g_half, y0, times, dt) -> tuple[np.ndarray, float]:
    """RK4 for y′ = G(t)y with G presampled at every node and midpoint.

    Each step is renormalized; its pre-renormalization norm drift is logged
    and a drift above ``DRIFT_LIMIT`` raises IntegrationInstabilityError.
    Returns the unit-norm rows and the largest drift seen.
    """
    out = np.empty((len(times),) + y0.shape, dtype=y0.dtype)
    out[0] = y = y0
    max_drift = 0.0
    for i in range(len(times) - 1):
        raw = _rk4_step(g_nodes[i], g_half[i], g_nodes[i + 1], y, dt)
        norm = float(np.linalg.norm(raw))
        drift = abs(norm - 1.0)
        if drift > DRIFT_LIMIT:
            raise IntegrationInstabilityError(
                f"norm drift {drift:.3e} at t = {float(times[i + 1])!r} exceeds "
                f"{DRIFT_LIMIT:.1e}; reduce the step size"
            )
        max_drift = max(max_drift, drift)
        y = raw / norm
        out[i + 1] = y
    return out, max_drift


def arc_length_closed(params: ScenarioParams, t):
    """Exact scenario arc length s(t) = ∫₀ᵗ v dt' = ½·E(2ω₀t | −(1/4)(ν₀/ω₀)²)
    (substitute θ = 2ω₀t'); ω₀t when ν₀ = 0. ``t`` may be an array of times ≥ 0."""
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t) & (t >= 0.0)):
        raise InvalidArgumentError("t must be finite and >= 0")
    w = params.omega0
    return 0.5 * elliptic_e_incomplete(2.0 * w * t, -0.25 * (params.nu0 / w) ** 2)


def synthesize_hamiltonian(m, m_dot, gauge_atol: float = TRANSPORT_GAUGE_ATOL) -> np.ndarray:
    """Traceless Hamiltonian H = i|ṁ⟩⟨m| − i|m⟩⟨ṁ| driving a
    parallel-transported state at maximal speed.

    Requires the transport gauge ⟨m|ṁ⟩ = 0 within ``gauge_atol``; under that
    condition H is Hermitian, traceless, and satisfies i ṁ = H m.
    """
    mv = np.asarray(m, dtype=complex).reshape(2)
    md = np.asarray(m_dot, dtype=complex).reshape(2)
    overlap = complex(np.vdot(mv, md))
    if abs(overlap) > gauge_atol:
        raise ContractViolationError(
            f"not parallel-transported: |<m|dm/dt>| = {abs(overlap):.3e}"
        )
    return 1j * (np.outer(md, mv.conj()) - np.outer(mv, md.conj()))


def _bloch_rows(states: np.ndarray) -> np.ndarray:
    cross = np.conjugate(states[:, 0]) * states[:, 1]
    return np.column_stack(
        (
            2.0 * cross.real,
            2.0 * cross.imag,
            np.abs(states[:, 0]) ** 2 - np.abs(states[:, 1]) ** 2,
        )
    )
