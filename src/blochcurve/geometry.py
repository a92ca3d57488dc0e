"""Geometric observables of the quantum evolution: speed, acceleration, the
curvature coefficient by three independent routes, efficiencies, and the
extrema/period summary of the built-in scenario.

Conventions held throughout: ℏ = 1 and the speed is v = ΔE = √(⟨H²⟩ − ⟨H⟩²)
(unit proportionality between speed and energy dispersion). The curvature
coefficient κ² is dimensionless and nonnegative; values in [−1e-9, 0) are
round-off and clip to 0, anything more negative raises, because that
distinguishes float noise from an implementation bug.

Every observable takes a scalar t or an array of times (vectors carry their
components on the last axis) and returns a scalar or an array to match, so a
whole time profile is one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics, fields
from .errors import (
    InvalidArgumentError,
    NumericalConsistencyError,
    SingularityError,
    UndefinedEfficiencyError,
)
from .fields import FieldSpec, ScenarioParams
from .qubit_core import IDENTITY, pauli_compose
from .special_functions import elliptic_e

EPSILON_SINGULAR = 1e-12   # denominator / speed floor below which curvature is undefined
KAPPA2_CLIP_FLOOR = -1e-9  # analytic routes: clip [floor, 0) to 0, raise below
EXPECT_IMAG_ATOL = 1e-8


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

    κ²(t) = [sin²(4ω₀t) + 32(ω₀/ν₀)²(1 + cos(4ω₀t))] / [sin²(2ω₀t) + 4(ω₀/ν₀)²]²
            − 4(ω₀/ν₀)² sin²(4ω₀t) / [sin²(2ω₀t) + 4(ω₀/ν₀)²]³

    Periodic with T = π/(2ω₀); maxima 4(ν₀/ω₀)² at t = nT, minima 0 at
    t = π/(4ω₀) + nT. Returns 0 identically in the geodesic limit ν₀ = 0.
    """
    w, n = params.omega0, params.nu0
    if n == 0.0:
        return np.zeros(np.shape(t))[()]
    r2 = (w / n) ** 2
    s2 = np.sin(2.0 * w * t)
    s4 = np.sin(4.0 * w * t)
    c4 = np.cos(4.0 * w * t)
    den = s2 * s2 + 4.0 * r2
    value = (s4 * s4 + 32.0 * r2 * (1.0 + c4)) / den**2 - 4.0 * r2 * s4 * s4 / den**3
    return _clip_nonneg(value, KAPPA2_CLIP_FLOOR)


def curvature_bloch(a, h, h_dot, eps_sing: float = EPSILON_SINGULAR):
    """Curvature coefficient from the Bloch vector a and the field pair (h, ḣ).

    With D = h² − (a·h)² the three contributions are

        κ² = 4(a·h)²/D
           + ( [h²ḣ² − (h·ḣ)²] − ‖(a·ḣ)h − (a·h)ḣ‖² ) / D³
           + 4(a·h)·[a·(h×ḣ)] / D².

    When a·h = a·ḣ = 0 this collapses to [h²ḣ² − (h·ḣ)²]/h⁶. D ≤ ``eps_sing``
    means a is (numerically) collinear with h, i.e. an instantaneous
    eigenstate with zero speed, where curvature is undefined. Vectors carry
    their components on the last axis; leading axes (a time grid) broadcast.
    """
    av, hv, hd = _vec3(a), _vec3(h), _vec3(h_dot)
    if not np.all(np.abs(_dot(av, av) - 1.0) <= 1e-9):
        raise InvalidArgumentError("Bloch vector a must have unit length")

    h2 = _dot(hv, hv)
    ah = _dot(av, hv)
    den = h2 - ah * ah
    if np.any(den <= eps_sing):
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
    return _clip_nonneg(term1 + term2 + term3, KAPPA2_CLIP_FLOOR)


def curvature_expectation(
    spec: FieldSpec,
    state,
    t,
    eps_sing: float = EPSILON_SINGULAR,
):
    """Curvature coefficient from operator expectation values in ``state``.

    Builds Δh = (H − ⟨H⟩)/v as a 2x2 operator and its along-the-flow rate
    Δh′ = [dΔh/dt]/v exactly from ψ, H and Ḣ = ḣ·σ. The expectation values
    follow the evolving state through the Ehrenfest identities
    d⟨H⟩/dt = ⟨Ḣ⟩ and d⟨H²⟩/dt = ⟨ḢH + HḢ⟩ (the commutator terms
    i⟨[H, H]⟩ and i⟨[H, H²]⟩ vanish), so v² = ⟨H²⟩ − ⟨H⟩² gives

        v̇ = (⟨ḢH + HḢ⟩ − 2⟨H⟩⟨Ḣ⟩) / (2v),
        Δh′ = [(Ḣ − ⟨Ḣ⟩)/v − Δh·v̇/v] / v.

    The identity part ḣ₀·I of Ḣ shifts ⟨Ḣ⟩ by ḣ₀ and ⟨ḢH + HḢ⟩ by 2ḣ₀⟨H⟩,
    so it cancels from both v̇ and Ḣ − ⟨Ḣ⟩; only ḣ enters. Then

        κ² = ⟨(Δh)⁴⟩ − ⟨(Δh)²⟩²  +  ⟨(Δh′)²⟩ − ⟨Δh′⟩²  +  i⟨[(Δh)², Δh′]⟩.

    The total must be real within ``EXPECT_IMAG_ATOL`` and nonnegative within
    ``KAPPA2_CLIP_FLOOR``. For a stationary H the Δh′ terms vanish and the
    kurtosis-like first pair remains. Only 2x2 operators and expectation
    values enter, so the route is independent of the Bloch-vector algebra.

    ``t`` may be an array of times with ``state`` of shape t.shape + (2,);
    the field is sampled once for all of them. A SingularityError names the
    first time where the speed falls to ``eps_sing``.
    """
    t = np.asarray(t, dtype=float)
    psi = np.asarray(state, dtype=complex)
    if psi.shape != t.shape + (2,):
        raise InvalidArgumentError(f"state must have shape {t.shape + (2,)}, got {psi.shape}")
    if not np.all(np.abs(np.linalg.norm(psi, axis=-1) - 1.0) <= 1e-10):
        raise InvalidArgumentError("state must be normalized")

    sample = spec.sample(t)
    h = pauli_compose(sample.h0, sample.h)
    h_dot = pauli_compose(0.0, sample.h_dot)
    hpsi = _apply(h, psi)
    hdpsi = _apply(h_dot, psi)
    e = _braket(psi, hpsi).real
    v = np.sqrt(np.maximum(_braket(hpsi, hpsi).real - e * e, 0.0))
    singular = v <= eps_sing
    if np.any(singular):
        k = int(np.argmax(singular))
        t_bad = float(t.flat[k])
        raise SingularityError(
            f"evolution speed {float(v.flat[k]):.3e} below singular threshold "
            f"at t = {t_bad!r}",
            t=t_bad,
        )
    e_dot = _braket(psi, hdpsi).real
    # ½⟨ḢH + HḢ⟩ = Re⟨Hψ|Ḣψ⟩
    v_dot = (_braket(hpsi, hdpsi).real - e * e_dot) / v

    e, e_dot, v, v_dot = (x[..., None, None] for x in (e, e_dot, v, v_dot))
    dh = (h - e * IDENTITY) / v
    dh_prime = ((h_dot - e_dot * IDENTITY) / v - dh * (v_dot / v)) / v

    dh2 = dh @ dh
    total = (
        _cexp(dh2 @ dh2, psi)
        - _cexp(dh2, psi) ** 2
        + _cexp(dh_prime @ dh_prime, psi)
        - _cexp(dh_prime, psi) ** 2
        + 1j * _cexp(dh2 @ dh_prime - dh_prime @ dh2, psi)
    )
    if np.any(np.abs(total.imag) > EXPECT_IMAG_ATOL):
        raise NumericalConsistencyError(
            f"curvature has imaginary residue {float(np.max(np.abs(total.imag))):.3e}"
        )
    return _clip_nonneg(total.real, KAPPA2_CLIP_FLOOR)


def speed_efficiency(h0, h, a):
    """Speed efficiency η_SE = √(h·h − (a·h)²) / (|h₀| + √(h·h)).

    The numerator is the energy dispersion in the state with Bloch vector a,
    the denominator the spectral norm of H (largest |eigenvalue|, from
    eig(H†H) = (h₀ ± ‖h‖)²). Equals 1 exactly when h₀ = 0 and a ⊥ h: all of
    the Hamiltonian drives the state. Vectors carry their components on the
    last axis; leading axes (a time grid) broadcast against ``h0``.
    """
    hv, av = _vec3(h), _vec3(a)
    h0 = np.asarray(h0, dtype=float)
    h_sq = _dot(hv, hv)
    if np.any((h_sq == 0.0) & (h0 == 0.0)):
        raise UndefinedEfficiencyError("zero Hamiltonian has no speed efficiency")
    num = np.sqrt(np.maximum(h_sq - _dot(av, hv) ** 2, 0.0))
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
    overlap = min(abs(complex(np.vdot(traj.states[0], traj.states[-1]))), 1.0)
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
    field and the analytic solution are sampled once for the whole grid.
    The three curvature columns come from the closed form, the Bloch-vector
    route on the analytic Bloch vector, and the exact operator route on the
    analytic state; none takes a step size. Arc length is the exact
    ``dynamics.arc_length_closed`` counted from the grid's start; the phase
    column is β(t) = −φ(t) (gauge bookkeeping: ``transport_phase_closed``).
    """
    t = grid.times()
    sample = fields.two_parameter_field(params, t)
    a = dynamics.analytic_bloch(params, t)
    arc = dynamics.arc_length_closed(params, t)
    columns = (
        t, *a.T, *sample.h.T,
        speed(params, t),
        acceleration(params, t),
        curvature_closed(params, t),
        curvature_bloch(a, sample.h, sample.h_dot),
        curvature_expectation(
            fields.TwoParameterField(params), dynamics.analytic_state(params, t), t
        ),
        fields.parallel_transverse_ratio(params, t),
        speed_efficiency(sample.h0, sample.h, a),
        arc - arc[0],
        -dynamics.transport_phase_closed(params, t),
    )
    return dict(zip(SERIES_COLUMNS, columns))


def _vec3(x) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape[-1:] != (3,):
        raise InvalidArgumentError(f"expected 3 components on the last axis, got shape {v.shape}")
    return v


def _dot(x: np.ndarray, y: np.ndarray):
    return np.einsum("...k,...k->...", x, y)


def _apply(op: np.ndarray, psi: np.ndarray) -> np.ndarray:
    return (op @ psi[..., None])[..., 0]


def _braket(x: np.ndarray, y: np.ndarray):
    """⟨x|y⟩ per leading index."""
    return (x.conj()[..., None, :] @ y[..., None])[..., 0, 0]


def _cexp(op: np.ndarray, psi: np.ndarray):
    return _braket(psi, _apply(op, psi))


def _clip_nonneg(value, floor: float):
    """Clip values in [floor, 0) to 0 and raise on anything below floor or NaN."""
    value = np.asarray(value, dtype=float)
    ok = value >= floor
    if not np.all(ok):
        bad = float(value.flat[int(np.argmin(ok))])
        raise NumericalConsistencyError(
            f"curvature {bad!r} is negative beyond round-off tolerance {floor!r}"
        )
    return np.maximum(value, 0.0)[()]
