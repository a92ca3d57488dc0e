"""Geometric observables of the quantum evolution: speed, acceleration, the
curvature coefficient by three independent routes, efficiencies, and the
extrema/period summary of the built-in scenario.

Conventions held throughout: ℏ = 1 and the speed is v = ΔE = √(⟨H²⟩ − ⟨H⟩²)
(unit proportionality between speed and energy dispersion). The curvature
coefficient κ² = 4κ_g² (κ_g the geodesic curvature of the Bloch curve) is
dimensionless and nonnegative: every route computes it as a square, the
closed form and the Bloch route as 4κ_g², the operator route as the squared
norm ‖P⊥ dT/ds‖² of the covariant derivative of the unit tangent T. Neither
κ² nor η_SE changes with the time unit, (h, ḣ) → (hλ, ḣλ²), so each node's
field is scaled exactly by a power of two λ before it is squared.

Every observable takes a scalar t or an array of times (vectors carry their
components on the last axis) and returns a scalar or an array to match, so a
whole time profile is one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics, fields
from .errors import InvalidArgumentError, SingularityError, UndefinedEfficiencyError
from .fields import FieldSample, ScenarioParams, _scaled_field
from .qubit_core import _pauli_apply, _pure_states, fidelity
from .special_functions import elliptic_e

EPSILON_SINGULAR = 1e-12   # floor of |h × a|²/h² = v²/h² in both field routes
_EXPECT_NODES = 1024  # operator-route nodes per block: bounds its temporaries


@dataclass(frozen=True)
class ExtremaSummary:
    """Closed-form extrema of v, acc, κ², ratio over one period [0, T)."""

    v_max: float
    v_min: float
    t_vmax: float
    t_vmin: float
    acc_max: float
    acc_min: float
    t_accmax: float
    t_accmin: float
    kappa2_max: float
    kappa2_min: float
    t_k2max: float
    t_k2min: float
    ratio_max: float
    ratio_min: float
    period: float


def speed(params: ScenarioParams, t):
    """Evolution speed v(t) = ω₀ √(1 + (1/4)(ν₀/ω₀)² sin²(2ω₀t)).

    Equals the energy dispersion ΔE of the built-in scenario; constant ω₀ in
    the geodesic limit ν₀ = 0.
    """
    w, n = params.omega0, params.nu0
    s2 = np.sin(2.0 * w * t)
    return w * np.sqrt(1.0 + 0.25 * (n / w) ** 2 * s2 * s2)


def acceleration(params: ScenarioParams, t):
    """dv/dt = (1/4)ν₀² sin(4ω₀t) / √(1 + (1/4)(ν₀/ω₀)² sin²(2ω₀t))."""
    w, n = params.omega0, params.nu0
    s2 = np.sin(2.0 * w * t)
    return (
        0.25 * n * n * np.sin(4.0 * w * t)
        / np.sqrt(1.0 + 0.25 * (n / w) ** 2 * s2 * s2)
    )


def curvature_closed(params: ScenarioParams, t):
    """Closed-form curvature coefficient of the built-in scenario.

    With ρ = ν₀/ω₀, x = ρ² sin²(2ω₀t) and q = (8 + x)/(4 + x),

        κ²(t) = 4ρ² cos²(2ω₀t) · q² / (4 + x).

    Periodic with T = π/(2ω₀): maxima 4ρ² at t = nT, minima 0 at t = π/(4ω₀) + nT.
    It is 0 in the geodesic limit ν₀ = 0, and no intermediate exceeds 4ρ².
    """
    w = params.omega0
    rho = params.nu0 / w
    rs, rc = rho * np.sin(2.0 * w * t), rho * np.cos(2.0 * w * t)
    x = rs * rs
    q = (8.0 + x) / (4.0 + x)
    return 4.0 * (rc * rc) * (q * q / (4.0 + x))


def curvature_bloch(sample: FieldSample, a):
    """Curvature coefficient from the field sample's pair (h, ḣ) and the Bloch
    vector a.

        κ² = 4[a·(ȧ × ä)]² / |ȧ|⁶,   ȧ = 2h × a,   ä = 2ḣ × a + 2h × ȧ,

    which is [2(a·h)|h × a|² + a·(h × ḣ)]² / |h × a|⁶, on the scaled field,
    with |h × a|² = h² − (a·h)² (fewer roundings than the cross product).
    |ȧ|² ≤ 4·``EPSILON_SINGULAR``·h² means a is (numerically) collinear with
    h, i.e. an instantaneous eigenstate with zero speed, where curvature is
    undefined; the test is relative, so a weak field is not mistaken for one.
    κ² is projective, so ``_unit_bloch`` rescales a to unit length after
    its check. a carries its components on the last axis; its leading axes
    broadcast against the sample's grid. The sample is read as given; where
    its scaled rate ḣλ² overflows, κ² is not a double and DomainError is
    raised.
    """
    ax, ay, az = np.moveaxis(_unit_bloch(a), -1, 0)
    _, (hx, hy, hz), (gx, gy, gz) = _scaled_field(sample.h, sample.h_dot)
    h2 = hx * hx + hy * hy + hz * hz
    ah = ax * hx + ay * hy + az * hz
    hxa2 = h2 - ah * ah   # |h × a|² = |ȧ|²/4
    if np.any(hxa2 <= EPSILON_SINGULAR * h2):
        raise SingularityError("state is an instantaneous eigenstate (a collinear with h); "
                               "curvature is undefined")
    ahg = ax * (hy * gz - hz * gy) + ay * (hz * gx - hx * gz) + az * (hx * gy - hy * gx)
    k = (2.0 * ah * hxa2 + ahg) / hxa2
    return k * (k / hxa2)


def curvature_expectation(sample: FieldSample, state):
    """Curvature coefficient from the field sample (H, Ḣ) and the state ψ,
    as the squared norm of the covariant derivative of the unit tangent.

    With Δh = (H − ⟨H⟩)/v and the state transported along the flow
    (i dψ/dt = (H − ⟨H⟩)ψ, a phase that κ² does not see), the unit tangent
    is T = dψ/ds = −iΔhψ, s the arc length (ds = v dt). The rate
    Δh′ = [dΔh/dt]/v comes exactly from ψ, H and Ḣ = ḣ·σ: the expectation
    values follow the evolving state through the Ehrenfest identities
    d⟨H⟩/dt = ⟨Ḣ⟩ and d⟨H²⟩/dt = ⟨ḢH + HḢ⟩ (the commutator terms
    i⟨[H, H]⟩ and i⟨[H, H²]⟩ vanish), so v² = ⟨H²⟩ − ⟨H⟩² gives

        v̇ = (⟨ḢH + HḢ⟩ − 2⟨H⟩⟨Ḣ⟩) / (2v),
        Δh′ψ = [(Ḣ − ⟨Ḣ⟩)ψ/v − Δhψ·v̇/v] / v.

    Then dT/ds = −i(Δh′ψ − iΔh²ψ) = −iq, and with P⊥ = I − |ψ⟩⟨ψ|

        κ² = ‖P⊥ dT/ds‖² = ‖q − ψ⟨ψ|q⟩‖²,

    which expands to ⟨(Δh)⁴⟩ − ⟨(Δh)²⟩² + ⟨(Δh′)²⟩ − ⟨Δh′⟩² + i⟨[(Δh)², Δh′]⟩.
    Computed as a norm, it is real and nonnegative in floating point as
    well. For a
    stationary H, Δh′ = 0 and the kurtosis-like first pair remains. The
    identity parts h₀·I of H and ḣ₀·I of Ḣ cancel exactly from Δh, v, v̇ and
    Δh′, so H = h·σ and Ḣ = ḣ·σ are composed from the vector parts alone
    (keeping h₀ would only cost round-off when |h₀| ≫ |h|). Only the Pauli
    action (h·σ)ψ on states enters, no operator is formed, so the route is
    independent of the Bloch-vector algebra. It runs in a time-last layout
    (field components (3, n), states (2, n)) on blocks of at most
    ``_EXPECT_NODES`` nodes of the flattened grid: every node sees the same
    elementwise operations, so the blocking changes no bit of the result and
    bounds the temporaries.

    ``sample`` may hold an array of times, with ``state`` of shape
    sample.t.shape + (2,). κ² is projective, so each state is divided by its
    norm after the contract check. The field is scaled per node, which
    changes no bit of a result that is finite unscaled; where the scaled
    rate ḣλ² overflows, κ² is not a double and DomainError is raised, as in
    ``curvature_bloch``. A SingularityError
    names the first time of ``sample.t`` where v² ≤ ``EPSILON_SINGULAR``·h²
    (h² = ⟨H²⟩), the Bloch route's test since v² = |h × a|²; being relative,
    it does not mistake a weak field for an eigenstate.
    """
    t = np.asarray(sample.t)
    psi = _pure_states(state)
    if psi.shape != t.shape + (2,):
        raise InvalidArgumentError(f"state must have shape {t.shape + (2,)}, got {psi.shape}")

    shape, nodes = t.shape, t.size
    t, psi = t.reshape(nodes), psi.reshape(nodes, 2)
    h, h_dot = sample.h.reshape(nodes, 3), sample.h_dot.reshape(nodes, 3)
    kappa2 = np.empty(nodes)
    for start in range(0, nodes, _EXPECT_NODES):
        block = slice(start, start + _EXPECT_NODES)
        kappa2[block] = _expectation_block(t[block], h[block], h_dot[block], psi[block])
    return kappa2.reshape(shape)[()]


def _expectation_block(t, h, h_dot, psi):
    """κ² of ``curvature_expectation`` on one block of nodes: times (n,),
    fields (n, 3) and states (n, 2). Raises on the block's first singular
    node."""
    psi = np.moveaxis(psi, -1, 0)
    psi = psi / np.sqrt(_braket(psi, psi).real)
    lam, h, h_dot = _scaled_field(h, h_dot)
    hpsi = _pauli_apply(*h, psi)
    hdpsi = _pauli_apply(*h_dot, psi)
    e = _braket(psi, hpsi).real
    v = np.sqrt(np.maximum(_braket(hpsi, hpsi).real - e * e, 0.0))
    singular = v * v <= EPSILON_SINGULAR * (v * v + e * e)   # h² = ⟨H²⟩ = v² + ⟨H⟩²
    if np.any(singular):
        k = int(np.argmax(singular))
        t_bad = float(t.flat[k])
        v_bad, e_bad = float(v.flat[k] / lam.flat[k]), float(e.flat[k] / lam.flat[k])
        raise SingularityError(
            f"evolution speed {v_bad:.3e} below singular threshold "
            f"{math.sqrt(EPSILON_SINGULAR) * math.hypot(v_bad, e_bad):.3e} at t = {t_bad!r}",
            t=t_bad,
        )
    e_dot = _braket(psi, hdpsi).real
    # ½⟨ḢH + HḢ⟩ = Re⟨Hψ|Ḣψ⟩
    v_dot = (_braket(hpsi, hdpsi).real - e * e_dot) / v

    u = (hpsi - e * psi) / v                                   # Δhψ
    p = ((hdpsi - e_dot * psi) / v - u * (v_dot / v)) / v      # Δh′ψ
    q = p - 1j * (_pauli_apply(*h, u) - e * u) / v             # Δh′ψ − iΔh²ψ
    r = q - psi * _braket(psi, q)
    return _braket(r, r).real


def speed_efficiency(sample: FieldSample, a):
    """Speed efficiency η_SE = √(h·h − (a·h)²) / (|h₀| + √(h·h)) of the field
    sample's (h₀, h) in the state with Bloch vector a.

    The numerator is the energy dispersion in the state with Bloch vector a,
    the denominator the spectral norm of H (largest |eigenvalue|, from
    eig(H†H) = (h₀ ± ‖h‖)²). Equals 1 exactly when h₀ = 0 and a ⊥ h: all of
    the Hamiltonian drives the state. a is checked and rescaled by
    ``_unit_bloch``, as in ``curvature_bloch``, and broadcasts likewise. h₀
    and h are scaled per node, as κ²'s field is.
    """
    av = _unit_bloch(a)
    lam, hv = _scaled_field(sample.h)
    hv, h0 = np.moveaxis(hv, 0, -1), sample.h0 * lam
    h_sq = _dot(hv, hv)
    if np.any((h_sq == 0.0) & (h0 == 0.0)):
        raise UndefinedEfficiencyError("zero Hamiltonian has no speed efficiency")
    ah = _dot(av, hv)
    num = np.sqrt(np.maximum(h_sq - ah * ah, 0.0))
    return num / (np.abs(h0) + np.sqrt(h_sq))


def geodesic_efficiency(params: ScenarioParams) -> float:
    """Geodesic efficiency of the built-in evolution between the orthogonal
    endpoint states at t = 0 and t = π/(2ω₀):

        η_GE = (π/2) / E(−(1/4)(ν₀/ω₀)²).

    Equals 1 iff ν₀ = 0 (great-circle path); below 1 otherwise because the
    actual arc exceeds the geodesic distance π/2.
    """
    ratio = params.nu0 / params.omega0
    return (math.pi / 2.0) / elliptic_e(-0.25 * ratio * ratio)


def geodesic_efficiency_generic(traj: dynamics.Trajectory) -> float:
    """Geodesic efficiency of an arbitrary trajectory:
    2·arccos|⟨ψ(t0)|ψ(t1)⟩| / (2·s(t1)), geodesic distance over path length.
    """
    s_total = float(traj.arc[-1])
    if s_total <= 0.0:
        raise UndefinedEfficiencyError("zero arc length; efficiency undefined")
    overlap = min(fidelity(traj.states[0], traj.states[-1]), 1.0)
    return 2.0 * math.acos(overlap) / (2.0 * s_total)


def extrema_summary(params: ScenarioParams) -> ExtremaSummary:
    """Closed-form extrema of the scenario observables with their first
    attainment times in [0, T), T = π/(2ω₀).

    The acceleration extremum is a genuine critical point of the quotient
    acc = (ν₀²/4)sin(4ω₀t)/v, not of its numerator alone: with
    u = sin²(2ω₀t), d(acc)/dt = 0 gives r²u² + 8u − 4 = 0 (r = ν₀/ω₀), so

        u* = 2 / (2 + √(4 + r²)),    t* = arcsin(√u*)/(2ω₀),

    and acc(T − t) = −acc(t) places the minimum at T − t*. In the weak-drive
    limit r → 0 this reduces to u* = 1/2, i.e. the familiar t* = π/(8ω₀) and
    acc_max = (ν₀²/4)[1 + r²/8]^{−1/2}; at finite r those limiting
    expressions miss the true extremum (by 3.7e-4 in value at r = 1), which
    is why the exact forms are used here.
    """
    w, n = params.omega0, params.nu0
    r = n / w
    period = math.pi / (2.0 * w)
    u = 2.0 / (2.0 + np.sqrt(4.0 + r * r))
    t_acc = np.arcsin(np.sqrt(u)) / (2.0 * w)
    acc_max = (
        0.25 * n * n * 2.0 * np.sqrt(u * (1.0 - u))
        / np.sqrt(1.0 + 0.25 * r * r * u)
    )
    return ExtremaSummary(
        v_max=w * np.sqrt(1.0 + 0.25 * r * r),
        v_min=w,
        t_vmax=math.pi / (4.0 * w),
        t_vmin=0.0,
        acc_max=acc_max,
        acc_min=-acc_max,
        t_accmax=t_acc,
        t_accmin=period - t_acc,
        kappa2_max=4.0 * r * r,
        kappa2_min=0.0,
        t_k2max=0.0,
        t_k2min=math.pi / (4.0 * w),
        ratio_max=0.25 * r * r,
        ratio_min=0.0,
        period=period,
    )


SERIES_COLUMNS = (
    "t", "ax", "ay", "az", "hx", "hy", "hz", "v", "acc",
    "kappa2_closed", "kappa2_bloch", "kappa2_expect", "ratio",
    "eta_se", "arc_length", "beta_phase",
)


def scenario_records(
    params: ScenarioParams,
    grid: dynamics.TimeGrid,
) -> dict[str, np.ndarray]:
    """Evaluate every observable of the built-in scenario on a time grid.

    Returns one array per column of ``SERIES_COLUMNS``, in that order: the
    node times, the analytic Bloch vector, the field, speed, acceleration,
    the three curvature routes, h∥²/h⊥², η_SE, arc length and phase. The
    analytic solution and the field are each evaluated once for the whole
    grid, and both curvature routes read that one field sample.
    The three curvature columns come from the closed form, the Bloch-vector
    route on the analytic Bloch vector, and the exact operator route on the
    analytic state; none takes a step size. Arc length is the exact
    ``dynamics.arc_length_closed`` counted from the grid's start; the phase
    column is β(t) = −φ(t) (gauge bookkeeping: ``transport_phase_closed``).

    Every column gives a node the same bits whatever else shares the call,
    so ``simulate`` streams the same table block by block through
    ``_scenario_columns``, the one code path of both.
    """
    s0 = dynamics.arc_length_closed(params, grid.t0)
    return dict(zip(SERIES_COLUMNS, _scenario_columns(params, grid.times(), s0)))


def _scenario_columns(params: ScenarioParams, t: np.ndarray, s0) -> tuple:
    """The ``SERIES_COLUMNS`` of ``scenario_records`` at the 1-D node times
    ``t``, with the arc length counted from s0 = s(t₀)."""
    sample = fields.two_parameter_field(params, t)
    a = dynamics.analytic_bloch(params, t)
    return (
        t, *a.T, *sample.h.T,
        speed(params, t),
        acceleration(params, t),
        curvature_closed(params, t),
        curvature_bloch(sample, a),
        curvature_expectation(sample, dynamics.analytic_state(params, t)),
        fields.parallel_transverse_ratio(params, t),
        speed_efficiency(sample, a),
        dynamics.arc_length_closed(params, t) - s0,
        -dynamics.transport_phase_closed(params, t),
    )


def _unit_bloch(a) -> np.ndarray:
    """The Bloch vector a at the API boundary: 3 components on the last axis,
    all finite, and |a|² within 1e-9 of 1; returned divided by |a|."""
    av = np.asarray(a, dtype=float)
    if av.shape[-1:] != (3,):
        raise InvalidArgumentError(f"expected 3 components on the last axis, got shape {av.shape}")
    if not np.all(np.isfinite(av)):
        raise InvalidArgumentError("vector components must be finite")
    a2 = _dot(av, av)
    if not np.all(np.abs(a2 - 1.0) <= 1e-9):
        raise InvalidArgumentError("Bloch vector a must have unit length")
    return av / np.sqrt(a2)[..., None]


def _dot(x: np.ndarray, y: np.ndarray):
    return np.einsum("...k,...k->...", x, y)


def _braket(x: np.ndarray, y: np.ndarray):
    """⟨x|y⟩ of time-last states (2, ...), per trailing index."""
    return x[0].conj() * y[0] + x[1].conj() * y[1]
