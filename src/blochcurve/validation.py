"""Numerical invariant battery.

Every identity the library promises is re-checked here against an independent
computation: the three curvature routes against each other, integrated
dynamics against the closed-form solution, efficiency and orthogonality
constants, periodicity, extrema locations, quadrature against the elliptic
integral, and Hamiltonian synthesis against the driving field. Each check
reports a measured residual and the tolerance it was held to, so a report
reads as evidence rather than a verdict.

Checks call into :mod:`fields` and :mod:`geometry` through the module objects
on purpose: corrupting one formula (as the mutation tests do) must propagate
into the battery and trip at least one check.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import dynamics, fields, geometry
from .errors import InvalidArgumentError
from .fields import CallableField, ScenarioParams
from .qubit_core import pauli_compose, pauli_decompose
from .special_functions import adaptive_simpson, elliptic_e, elliptic_e_incomplete

_RNG_SEED = 1729  # fixed so successive runs produce byte-identical reports

DEFAULT_TOLERANCES: dict[str, float] = {
    "decomposition": 1e-12,
    "field_derivative": 1e-8,
    "route_agreement": 1e-10,
    "route_agreement_expect": 1e-10,
    "route_agreement_general": 1e-9,
    "fidelity": 1e-6,
    "bloch_supnorm": 1e-6,
    "orthogonality": 1e-9,
    "eta_se": 1e-12,
    "periodicity": 1e-11,
    "extrema_value": 1e-6,
    "extrema_time": 1e-4,
    "acc_at_extrema": 1e-9,
    "consistency_identity": 1e-6,
    "elliptic": 1e-10,
    "synthesis": 1e-6,
    "synthesis_trace": 1e-12,
    "arc_agreement": 1e-6,
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    tolerance: float
    detail: str


def merge_tolerances(overrides=None) -> dict[str, float]:
    """Default tolerances with user overrides applied; unknown names raise."""
    merged = dict(DEFAULT_TOLERANCES)
    for name, value in (overrides or {}).items():
        if name not in merged:
            known = ", ".join(sorted(merged))
            raise InvalidArgumentError(f"unknown tolerance {name!r}; known: {known}")
        value = float(value)
        if not (value > 0.0 and math.isfinite(value)):
            raise InvalidArgumentError(f"tolerance {name} must be positive, got {value!r}")
        merged[name] = value
    return merged


def tilted_field_fixture() -> tuple[CallableField, np.ndarray]:
    """A driving field in general position plus a matching start state.

    Nothing is orthogonal here: a·h ≠ 0, a·ḣ ≠ 0, and the field has a
    constant trace part, so every term of the curvature formulas is nonzero.
    The derivative is supplied analytically.
    """
    def h(t):
        return np.array([
            0.8 + 0.3 * math.sin(1.3 * t),
            0.5 * math.cos(0.9 * t),
            0.6 + 0.25 * math.sin(0.7 * t),
        ])

    def h_dot(t):
        return np.array([
            0.39 * math.cos(1.3 * t),
            -0.45 * math.sin(0.9 * t),
            0.175 * math.cos(0.7 * t),
        ])

    psi0 = np.array([math.cos(0.35), cmath.exp(0.4j) * math.sin(0.35)])
    return CallableField(h=h, h0=0.2, h_dot=h_dot), psi0


def run_battery(
    params: ScenarioParams,
    grid: dynamics.TimeGrid,
    tolerances=None,
) -> list[CheckResult]:
    """Run every check; a check that raises is reported as failed, so the
    battery always returns one result per check (some produce two).
    """
    tol = merge_tolerances(tolerances)
    ctx = _Context(params, grid)
    results: list[CheckResult] = []
    for primary, fn in _CHECKS:
        try:
            results.extend(fn(ctx, tol))
        except Exception as exc:
            results.append(CheckResult(
                name=primary,
                passed=False,
                residual=math.inf,
                tolerance=tol[primary],
                detail=f"check raised {type(exc).__name__}: {exc}",
            ))
    return results


class _Context:
    """Shared artifacts: one Schrödinger and one Bloch integration of the
    built-in scenario, plus the field and the closed-form solution sampled
    once on the whole grid."""

    def __init__(self, params: ScenarioParams, grid: dynamics.TimeGrid):
        self.params = params
        self.scale = max(1.0, 4.0 * (params.nu0 / params.omega0) ** 2)  # max(1, κ²_max)
        self.grid = grid
        self.spec = fields.TwoParameterField(params)
        self.times = grid.times()
        t0 = float(self.times[0])
        self.traj = dynamics.integrate_schrodinger(
            self.spec, dynamics.analytic_state(params, t0), grid
        )
        self.bloch_num = dynamics.integrate_bloch(
            self.spec, dynamics.analytic_bloch(params, t0), grid
        )
        self.sample = fields.two_parameter_field(params, self.times)
        self.a_closed = dynamics.analytic_bloch(params, self.times)
        self.m_closed = dynamics.analytic_state(params, self.times)
        self._general = None

    def general(self):
        if self._general is None:
            spec, psi0 = tilted_field_fixture()
            traj = dynamics.integrate_schrodinger(spec, psi0, dynamics.TimeGrid(0.0, 3.0, 3000))
            self._general = (spec, traj)
        return self._general


def _result(name, residual, tol, detail) -> CheckResult:
    residual = float(residual)
    return CheckResult(name=name, passed=residual <= tol[name],
                       residual=residual, tolerance=tol[name], detail=detail)


def _check_route_agreement(ctx, tol):
    s = ctx.sample
    kc = geometry.curvature_closed(ctx.params, ctx.times)
    kb = geometry.curvature_bloch(ctx.a_closed, s.h, s.h_dot)
    return [_result("route_agreement", np.max(np.abs(kc - kb)) / ctx.scale, tol,
                    f"max |closed - field-vector| / max(1, kappa2_max), {len(ctx.times)} nodes")]


def _check_route_expect(ctx, tol):
    kc = geometry.curvature_closed(ctx.params, ctx.times)
    ke = geometry.curvature_expectation(ctx.spec, ctx.m_closed, ctx.times)
    return [_result("route_agreement_expect", np.max(np.abs(kc - ke)) / ctx.scale, tol,
                    f"max |closed - expectation| / max(1, kappa2_max), {len(ctx.times)} nodes")]


def _general_nodes(traj) -> np.ndarray:
    return np.arange(150, traj.grid.steps, 300)


def _check_route_general(ctx, tol):
    spec, traj = ctx.general()
    k = _general_nodes(traj)
    s = spec.sample(traj.times[k])
    kb = geometry.curvature_bloch(traj.bloch[k], s.h, s.h_dot)
    ke = geometry.curvature_expectation(spec, traj.states[k], traj.times[k])
    worst = np.max(np.abs(kb - ke) / np.maximum(1.0, np.abs(ke)))
    return [_result("route_agreement_general", worst, tol,
                    "field-vector vs expectation route on a tilted field, relative")]


def _check_consistency_identity(ctx, tol):
    spec, traj = ctx.general()
    d = 1e-4
    k = _general_nodes(traj)
    t = traj.times[k]
    a = traj.bloch[k]
    a_p = np.array([dynamics.bloch_step(spec, row, tt, d) for row, tt in zip(a, t)])
    a_m = np.array([dynamics.bloch_step(spec, row, tt, -d) for row, tt in zip(a, t)])
    lhs = (np.einsum("nk,nk->n", a_p, spec.sample(t + d).h)
           - np.einsum("nk,nk->n", a_m, spec.sample(t - d).h)) / (2 * d)
    rhs = np.einsum("nk,nk->n", a, spec.sample(t).h_dot)
    return [_result("consistency_identity", np.max(np.abs(lhs - rhs)), tol,
                    "d/dt(a·h) vs a·h_dot by symmetric difference, tilted field")]


def _check_fidelity(ctx, tol):
    overlap = np.abs(np.einsum("ni,ni->n", ctx.traj.states.conj(), ctx.m_closed))
    return [_result("fidelity", np.max(1.0 - overlap), tol,
                    "max fidelity deficit, integrated state vs closed form")]


def _check_bloch_supnorm(ctx, tol):
    worst = np.max(np.abs(ctx.bloch_num - ctx.a_closed))
    return [_result("bloch_supnorm", worst, tol,
                    "sup-norm error, precession integrator vs closed form")]


def _check_orthogonality(ctx, tol):
    a, s = ctx.a_closed, ctx.sample
    worst = max(np.max(np.abs(np.einsum("nk,nk->n", a, v))) for v in (s.h, s.h_dot))
    return [_result("orthogonality", worst, tol,
                    "max of |a·h| and |a·h_dot| over all nodes")]


def _check_eta_se(ctx, tol):
    s = ctx.sample
    eta = geometry.speed_efficiency(s.h0, s.h, ctx.a_closed)
    return [_result("eta_se", np.max(np.abs(eta - 1.0)), tol,
                    "max |eta_SE - 1| over all nodes")]


def _check_periodicity(ctx, tol):
    rng = np.random.default_rng(_RNG_SEED)
    period = math.pi / (2.0 * ctx.params.omega0)
    t = rng.uniform(0.0, 4.0 * period, size=100)
    worst = 0.0
    for f in (geometry.speed, geometry.acceleration, geometry.curvature_closed,
              fields.parallel_transverse_ratio):
        worst = max(worst, np.max(np.abs(f(ctx.params, t + period) - f(ctx.params, t))))
    return [_result("periodicity", worst / ctx.scale, tol,
                    "max |f(t+T) - f(t)| / max(1, kappa2_max), v, acc, kappa2, ratio, 100 t")]


def _check_extrema(ctx, tol):
    summary = geometry.extrema_summary(ctx.params)
    period = summary.period
    n = 100_000
    ts = period * np.arange(n) / n
    v = geometry.speed(ctx.params, ts)
    acc = geometry.acceleration(ctx.params, ts)
    k2 = geometry.curvature_closed(ctx.params, ts)
    ratio = fields.parallel_transverse_ratio(ctx.params, ts)

    value_worst = 0.0
    time_worst = 0.0
    cases = [
        (v, summary.v_max, summary.t_vmax, True),
        (v, summary.v_min, summary.t_vmin, False),
        (acc, summary.acc_max, summary.t_accmax, True),
        (acc, summary.acc_min, summary.t_accmin, False),
        (k2, summary.kappa2_max, summary.t_k2max, True),
        (k2, summary.kappa2_min, summary.t_k2min, False),
        (ratio, summary.ratio_max, None, True),
        (ratio, summary.ratio_min, None, False),
    ]
    for arr, value_closed, t_closed, is_max in cases:
        idx = int(np.argmax(arr) if is_max else np.argmin(arr))
        value_worst = max(value_worst, abs(float(arr[idx]) - value_closed))
        flat = (np.max(arr) - np.min(arr)) <= tol["extrema_value"]
        if t_closed is not None and not flat:
            time_worst = max(time_worst, abs(float(ts[idx]) - t_closed) / period)

    t_k2 = np.array([summary.t_k2max, summary.t_k2min])
    acc_resid = np.max(np.abs(geometry.acceleration(ctx.params, t_k2)))
    return [
        _result("extrema_value", value_worst, tol,
                f"dense-grid ({n} nodes) extrema vs closed forms"),
        _result("extrema_time", time_worst, tol,
                "extremum time offsets as a fraction of the period"),
        _result("acc_at_extrema", acc_resid, tol,
                "|acc| at the curvature extremum times"),
    ]


def _check_elliptic(ctx, tol):
    def legendre(phi, m):
        return adaptive_simpson(
            lambda th: math.sqrt(1.0 - m * math.sin(th) ** 2), 0.0, phi, 1e-12).value

    ms = [-4.0, -1.0, -0.25, 0.0, 0.5, 0.99]
    worst = max(abs(e - legendre(math.pi / 2.0, m)) for e, m in zip(elliptic_e(ms), ms))
    for phi, m in ((3.5, -4.0), (4.9, -0.25), (7.0, 0.5)):  # phi = k*pi + r, r of both signs
        worst = max(worst, abs(elliptic_e_incomplete(phi, m) - legendre(phi, m)))
    return [_result("elliptic", worst, tol,
                    "E(m) at six m and E(phi|m) at three phi > pi vs direct quadrature")]


def _check_synthesis(ctx, tol):
    rng = np.random.default_rng(_RNG_SEED)
    t = rng.uniform(float(ctx.times[0]), float(ctx.times[-1]), size=100)
    ref = fields.two_parameter_field(ctx.params, t)
    worst_h = 0.0
    worst_trace = 0.0
    for m, md, h0_ref, h_ref in zip(dynamics.analytic_state(ctx.params, t),
                                    dynamics.analytic_state_derivative(ctx.params, t),
                                    ref.h0, ref.h):
        ham = dynamics.synthesize_hamiltonian(m, md)
        worst_trace = max(worst_trace, abs(complex(ham[0, 0] + ham[1, 1])))
        h0_syn, h_syn = pauli_decompose(ham)
        worst_h = max(worst_h, float(np.max(np.abs(h_syn - h_ref))), abs(h0_syn - h0_ref))
    return [
        _result("synthesis", worst_h, tol,
                "synthesized Hamiltonian vs driving field at 100 random t"),
        _result("synthesis_trace", worst_trace, tol, "|tr H| of the synthesized operator"),
    ]


def _check_decomposition(ctx, tol):
    rng = np.random.default_rng(_RNG_SEED)
    worst = 0.0
    for _ in range(10):
        h0 = float(rng.uniform(-2, 2))
        h = rng.uniform(-2, 2, size=3)
        mat = pauli_compose(h0, h)
        h0_back, h_back = pauli_decompose(mat)
        worst = max(worst, abs(h0_back - h0), float(np.max(np.abs(h_back - h))))
    stride = max(1, len(ctx.times) // 10)
    h0s, hs = ctx.sample.h0[::stride], ctx.sample.h[::stride]
    for h0, h, mat in zip(h0s, hs, pauli_compose(h0s, hs)):
        h0_back, h_back = pauli_decompose(mat)
        worst = max(worst, abs(h0_back - h0), float(np.max(np.abs(h_back - h))))
    return [_result("decomposition", worst, tol,
                    "compose/decompose round trip, random and field-sampled")]


def _check_field_derivative(ctx, tol):
    stencil_spec = CallableField(
        h=lambda tt: fields.two_parameter_field(ctx.params, tt).h, step=1e-4
    )
    stride = max(1, len(ctx.times) // 25)
    numeric = stencil_spec.sample(ctx.times[::stride]).h_dot
    worst = np.max(np.abs(numeric - ctx.sample.h_dot[::stride]))
    return [_result("field_derivative", worst, tol,
                    "analytic h_dot vs 5-point stencil at dt=1e-4")]


def _check_arc(ctx, tol):
    n = ctx.grid.steps
    k = [n // 4, n // 2, 3 * n // 4, n]
    closed = dynamics.arc_length_closed(ctx.params, ctx.times[[0] + k])
    worst = np.max(np.abs(ctx.traj.arc[k] - (closed[1:] - closed[0])))
    return [_result("arc_agreement", worst, tol,
                    "trapezoidal arc length vs closed-form ½E(2ω₀t|m)")]


_CHECKS = [
    ("decomposition", _check_decomposition),
    ("field_derivative", _check_field_derivative),
    ("route_agreement", _check_route_agreement),
    ("route_agreement_expect", _check_route_expect),
    ("route_agreement_general", _check_route_general),
    ("consistency_identity", _check_consistency_identity),
    ("fidelity", _check_fidelity),
    ("bloch_supnorm", _check_bloch_supnorm),
    ("orthogonality", _check_orthogonality),
    ("eta_se", _check_eta_se),
    ("periodicity", _check_periodicity),
    ("extrema_value", _check_extrema),
    ("elliptic", _check_elliptic),
    ("synthesis", _check_synthesis),
    ("arc_agreement", _check_arc),
]
