"""Numerical invariant battery.

Every identity the library promises is re-checked here against an independent
computation: the three curvature routes against each other, integrated
dynamics against the closed-form solution, efficiency and orthogonality
constants, periodicity, extrema locations, quadrature against the elliptic
integral, Hamiltonian synthesis against the driving field, and the
integrator's convergence order on step halving. Checks measure and
``run_battery`` judges: each check returns one residual, held to its own name's
tolerance alone, so a report always names the checks of ``DEFAULT_TOLERANCES``
in order and reads as evidence rather than a verdict.

Which checks each corrupted formula must fail is pinned in ``KILL_MATRIX``
(``tests/test_validation.py``), the battery's mutation contract; its rows with
an empty list are formulas that no check sees yet. A check is added with one
``DEFAULT_TOLERANCES`` entry N, which sets its tolerance and report position,
one ``_check_N(ctx)`` returning (residual, detail), and its name in the
``KILL_MATRIX`` rows of the mutants it fails.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from . import dynamics, fields, geometry
from .errors import InvalidArgumentError
from .fields import CallableField, ScenarioParams
from .qubit_core import pauli_compose, pauli_decompose
from .special_functions import elliptic_e, elliptic_e_incomplete

DEFAULT_TOLERANCES: dict[str, float] = {
    "decomposition": 1e-12,
    "field_derivative": 1e-9,
    "route_agreement": 1e-10,
    "route_agreement_expect": 1e-10,
    "route_agreement_general": 1e-9,
    "consistency_identity": 1e-6,
    "fidelity": 1e-6,
    "bloch_supnorm": 1e-6,
    "orthogonality": 1e-9,
    "eta_se": 1e-12,
    "periodicity": 1e-11,
    "extrema_value": 1e-12,
    "extrema_time": 1e-6,
    "acc_at_extrema": 1e-9,
    "elliptic": 1e-10,
    "synthesis": 1e-6,
    "synthesis_trace": 1e-12,
    "arc_agreement": 1e-6,
    "integrator_order": 0.1,
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
        return (0.8 + 0.3 * np.sin(1.3 * t),
                0.5 * np.cos(0.9 * t),
                0.6 + 0.25 * np.sin(0.7 * t))

    def h_dot(t):
        return (0.39 * np.cos(1.3 * t),
                -0.45 * np.sin(0.9 * t),
                0.175 * np.cos(0.7 * t))

    psi0 = np.array([math.cos(0.35), cmath.exp(0.4j) * math.sin(0.35)])
    return CallableField(h=h, h0=0.2, h_dot=h_dot), psi0


def run_battery(params: ScenarioParams, grid: dynamics.TimeGrid,
                tolerances=None) -> list[CheckResult]:
    """Run every check and hold its residual to its own name's tolerance: the
    results carry the names of ``DEFAULT_TOLERANCES`` in order, and a check
    that raises reads as failed, with residual inf and the exception text."""
    tol = merge_tolerances(tolerances)
    ctx = _Context(params, grid)
    results: list[CheckResult] = []
    for name, check in _CHECKS:
        try:
            residual, detail = check(ctx)
            residual = float(residual)
        except Exception as exc:
            residual, detail = math.inf, f"check raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name=name, passed=residual <= tol[name],
                                   residual=residual, tolerance=tol[name], detail=detail))
    return results


class _Context:
    """Shared artifacts: one integration of the built-in scenario, whose
    trajectory holds the states, the Bloch rows and the field sampled on the
    whole grid, plus the closed-form solution there."""

    def __init__(self, params: ScenarioParams, grid: dynamics.TimeGrid):
        self.params = params
        self.scale = max(1.0, 4.0 * (params.nu0 / params.omega0) ** 2)  # max(1, κ²_max)
        self.grid = grid
        self.traj = dynamics.integrate_schrodinger(
            partial(fields.two_parameter_field, params),
            dynamics.analytic_state(params, grid.t0), grid,
        )
        self.times = self.traj.times
        self.sample = self.traj.sample
        self.a_closed = dynamics.analytic_bloch(params, self.times)
        self.m_closed = dynamics.analytic_state(params, self.times)

    # Lazy and computed once, so a value that raises is reported by each
    # check that reads it, and the others do not compute it.
    @cached_property
    def kappa2_closed(self) -> np.ndarray:
        return geometry.curvature_closed(self.params, self.times)

    @cached_property
    def summary(self) -> geometry.ExtremaSummary:
        return geometry.extrema_summary(self.params)

    @cached_property
    def extrema(self) -> list:
        """Per case of ``_extrema_cases``: the closed [max, min] values and
        times, then the refined times and values."""
        return [(closed, times, *_refined_extrema(self.params, f, locate))
                for f, locate, closed, times in _extrema_cases(self.summary)]

    @cached_property
    def synthesized(self):
        """100 golden-ratio t and the Hamiltonian synthesized there from the closed form."""
        t = _golden_points(100, float(self.times[0]), float(self.times[-1]))
        return t, dynamics.synthesize_hamiltonian(
            dynamics.analytic_state(self.params, t),
            dynamics.analytic_state_derivative(self.params, t))

    @cached_property
    def general(self):
        """The tilted fixture's field, integrated once on the finest of the order grids."""
        spec, psi0 = tilted_field_fixture()
        return spec.sample, dynamics.integrate_schrodinger(spec.sample, psi0,
                                                           dynamics.TimeGrid(0.0, 3.0, 400))


def _golden_points(n: int, lo: float, hi: float) -> np.ndarray:
    """n fixed points spread over [lo, hi): lo + (hi − lo)·frac(k·(√5 − 1)/2)
    for k = 1..n, the golden-ratio (Weyl) sequence. It fills the interval as
    evenly as a low-discrepancy sequence can, and a report stays byte-identical
    from run to run without numpy's random generator, whose import costs a
    fresh process more than most checks.
    """
    return lo + (hi - lo) * (np.arange(1, n + 1) * (0.5 * (math.sqrt(5.0) - 1.0)) % 1.0)


def _check_route_agreement(ctx):
    kb = geometry.curvature_bloch(ctx.sample, ctx.a_closed)
    worst = np.max(np.abs(ctx.kappa2_closed - kb))
    return (worst / ctx.scale,
            f"max |closed - field-vector| / max(1, kappa2_max), {len(ctx.times)} nodes")


def _check_route_agreement_expect(ctx):
    ke = geometry.curvature_expectation(ctx.sample, ctx.m_closed)
    worst = np.max(np.abs(ctx.kappa2_closed - ke))
    return (worst / ctx.scale,
            f"max |closed - expectation| / max(1, kappa2_max), {len(ctx.times)} nodes")


def _check_route_agreement_general(ctx):
    _, traj = ctx.general
    kb = geometry.curvature_bloch(traj.sample, traj.bloch)
    ke = geometry.curvature_expectation(traj.sample, traj.states)
    worst = np.max(np.abs(kb - ke) / np.maximum(1.0, np.abs(ke)))
    return worst, f"field-vector vs expectation route, relative, {traj.n_nodes} tilted-field nodes"


def _check_consistency_identity(ctx):
    # d/dt(a·h) = a·ḣ, since ȧ = 2h × a is orthogonal to h: the 5-point
    # difference of a·h along the integrated rows sees the rotation axis of
    # the steps and the integrator's order as well as ḣ
    _, traj = ctx.general
    ah = np.einsum("nk,nk->n", traj.bloch, traj.sample.h)
    lhs = fields._central_difference(ah[:-4], ah[1:-3], ah[3:-1], ah[4:], traj.grid.dt)
    rhs = np.einsum("nk,nk->n", traj.bloch[2:-2], traj.sample.h_dot[2:-2])
    worst = np.max(np.abs(lhs - rhs))
    return worst, f"d/dt(a·h) by 5-point difference vs a·h_dot, {len(rhs)} tilted-field nodes"


def _check_fidelity(ctx):
    overlap = np.abs(np.einsum("ni,ni->n", ctx.traj.states.conj(), ctx.m_closed))
    return np.max(1.0 - overlap), "max fidelity deficit, integrated state vs closed form"


def _check_bloch_supnorm(ctx):
    worst = np.max(np.abs(ctx.traj.bloch - ctx.a_closed))
    return worst, "sup-norm error, precession integrator vs closed form"


def _check_orthogonality(ctx):
    a, s = ctx.a_closed, ctx.sample
    worst = max(np.max(np.abs(np.einsum("nk,nk->n", a, v))) for v in (s.h, s.h_dot))
    return worst, "max of |a·h| and |a·h_dot| over all nodes"


def _check_eta_se(ctx):
    eta = geometry.speed_efficiency(ctx.sample, ctx.a_closed)
    return np.max(np.abs(eta - 1.0)), "max |eta_SE - 1| over all nodes"


def _check_periodicity(ctx):
    period = math.pi / (2.0 * ctx.params.omega0)
    t = _golden_points(100, 0.0, 4.0 * period)
    worst = 0.0
    for f in (geometry.speed, geometry.acceleration, geometry.curvature_closed,
              fields.parallel_transverse_ratio):
        worst = max(worst, np.max(np.abs(f(ctx.params, t + period) - f(ctx.params, t))))
    return (worst / ctx.scale,
            "max |f(t+T) - f(t)| / max(1, kappa2_max), v, acc, kappa2, ratio, 100 t")


_BRACKET_NODES = 1024  # periodic grid over [0, T) on which each extremum is bracketed
_ZOOM_NODES = 257  # nodes per zoomed window, which spans ±1 node of the grid before it
_ZOOMS = 3  # each zoom is 128× finer: the last grid's spacing is T/1024/128³ ≈ 5e-10·T


def _refined_extrema(params: ScenarioParams, f, locate=None):
    """Times and values of the maximum and the minimum of ``f(params, t)`` over
    one period T = π/(2ω₀), each as an array [max, min].

    Each extremum is bracketed by the best node of a periodic grid over [0, T),
    then narrowed by ``_ZOOMS`` windows of ``_ZOOM_NODES`` nodes centred on the
    best node so far; windows may reach below t = 0, since f has period T. The
    top of f is flat to round-off over about √(ε·|f|/|f''|), which bounds where
    its values can place the extremum; when ``locate`` is given (the derivative
    of f), the windows instead close in on the zero of |locate|, which has no
    such plateau.
    """
    period = math.pi / (2.0 * params.omega0)
    grid = period * np.arange(_BRACKET_NODES) / _BRACKET_NODES
    y = f(params, grid)
    best = grid[[np.argmax(y), np.argmin(y)]]
    sign = np.array([[1.0], [-1.0]])  # row 0 seeks the maximum, row 1 the minimum
    half = period / _BRACKET_NODES
    for _ in range(_ZOOMS):
        window = best[:, None] + half * np.linspace(-1.0, 1.0, _ZOOM_NODES)
        score = sign * f(params, window) if locate is None else -np.abs(locate(params, window))
        best = window[[0, 1], np.argmax(score, axis=-1)]
        half *= 2.0 / (_ZOOM_NODES - 1)
    return best, f(params, best)


def _extrema_cases(s):
    # (observable, its derivative for locating, closed [max, min] values and times);
    # v rides on a constant ω₀, so its flat top would place it only to ~√ε/(ν₀/ω₀)
    # of a period, while acc = v̇ crosses zero cleanly
    return [
        (geometry.speed, geometry.acceleration, (s.v_max, s.v_min), (s.t_vmax, s.t_vmin)),
        (geometry.acceleration, None, (s.acc_max, s.acc_min), (s.t_accmax, s.t_accmin)),
        (geometry.curvature_closed, None, (s.kappa2_max, s.kappa2_min),
         (s.t_k2max, s.t_k2min)),
        (fields.parallel_transverse_ratio, None, (s.ratio_max, s.ratio_min), None),
    ]


_FLAT = 1e-12  # (max - min) / max(1, closed range) at or below this: no extremum to time


def _check_extrema_value(ctx):
    worst = 0.0
    for closed, _, _, y in ctx.extrema:
        worst = max(worst, np.max(np.abs(y - closed)) / max(1.0, closed[0] - closed[1]))
    return (worst,
            "max |refined - closed| / max(1, closed max - closed min) per observable;"
            f" extrema bracketed on {_BRACKET_NODES} nodes per period, refined by"
            f" {_ZOOMS} zooms of {_ZOOM_NODES} nodes")


def _check_extrema_time(ctx):
    s = ctx.summary
    worst = 0.0
    for closed, closed_times, t, y in ctx.extrema[:3]:  # the ratio has no times
        if (y[0] - y[1]) / max(1.0, closed[0] - closed[1]) <= _FLAT:
            continue
        # circular distance: v_min and kappa2_max sit at t = 0 ≡ T
        lag = (t - closed_times) % s.period
        worst = max(worst, np.max(np.minimum(lag, s.period - lag)) / s.period)
    return worst, "extremum time offsets, modulo the period, as a fraction of it"


def _check_acc_at_extrema(ctx):
    s = ctx.summary
    scale = max(1.0, s.acc_max - s.acc_min)
    acc = geometry.acceleration(ctx.params, np.array([s.t_k2max, s.t_k2min]))
    return (np.max(np.abs(acc)) / scale,
            f"|acc| at the curvature extremum times / max(1, acc_max - acc_min) = {scale:.3e}")


def _gauss_legendre(n: int):
    """Nodes (ascending) and weights of the n-point Gauss–Legendre rule on
    [−1, 1]: Newton's method on P_n from x_k = −cos(π(k − ¼)/(n + ½)), with
    P_n and P_n' from the three-term recurrence kP_k = (2k − 1)xP_{k−1} −
    (k − 1)P_{k−2}, and w_k = 2/((1 − x_k²)P_n'(x_k)²)."""
    x = -np.cos(math.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    for _ in range(6):  # at n = 16 the 4th step is 4e-16 and the 5th round-off
        p_prev, p = np.ones_like(x), x
        for k in range(2, n + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        x = x - p / dp
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


def _legendre_e(phi, m):
    """E(φ|m) = ∫₀^φ √(1 − m sin²θ) dθ straight from the Legendre form, for
    broadcast arrays φ, m: a composite 16-point Gauss–Legendre rule on 8 equal
    panels of [0, φ], all pairs in one array expression.

    The 16 nodes and weights come from ``_gauss_legendre`` (Newton's method on
    P₁₆; they match ``np.polynomial.legendre.leggauss`` to 1e-15). Neither
    ``numpy.polynomial`` nor LAPACK is touched: either would cost a fresh
    process more time or memory than the whole check.
    """
    x, w = _gauss_legendre(16)
    panels = 8
    u = ((np.arange(panels)[:, None] + 0.5 * (x + 1.0)) / panels).ravel()  # nodes in [0, 1]
    weights = np.tile(w, panels) / (2.0 * panels)
    phi = np.asarray(phi, dtype=float)[..., None]
    m = np.asarray(m, dtype=float)[..., None]
    return phi[..., 0] * np.sum(weights * np.sqrt(1.0 - m * np.sin(phi * u) ** 2), axis=-1)


# E(m) at six m (phi = pi/2), then E(phi|m) at three phi = k*pi + r, r of both signs
_ELLIPTIC_PHI = np.array([math.pi / 2.0] * 6 + [3.5, 4.9, 7.0])
_ELLIPTIC_M = np.array([-4.0, -1.0, -0.25, 0.0, 0.5, 0.99, -4.0, -0.25, 0.5])


def _check_elliptic(ctx):
    lib = np.concatenate([elliptic_e(_ELLIPTIC_M[:6]),
                          elliptic_e_incomplete(_ELLIPTIC_PHI[6:], _ELLIPTIC_M[6:])])
    worst = np.max(np.abs(lib - _legendre_e(_ELLIPTIC_PHI, _ELLIPTIC_M)))
    return worst, "E(m) at six m and E(phi|m) at three phi > pi vs Gauss-Legendre quadrature"


def _check_synthesis(ctx):
    t, ham = ctx.synthesized
    ref = fields.two_parameter_field(ctx.params, t)
    h0_syn, h_syn = pauli_decompose(ham)
    worst = max(np.max(np.abs(h_syn - ref.h)), np.max(np.abs(h0_syn - ref.h0)))
    return worst, "synthesized Hamiltonian vs driving field at 100 golden-ratio t"


def _check_synthesis_trace(ctx):
    _, ham = ctx.synthesized
    return np.max(np.abs(ham[:, 0, 0] + ham[:, 1, 1])), "|tr H| of the synthesized operator"


def _check_decomposition(ctx):
    drawn = _golden_points(40, -2.0, 2.0).reshape(10, 4)  # ten (h0, h) rows
    stride = max(1, len(ctx.times) // 10)
    h0 = np.concatenate([drawn[:, 0], ctx.sample.h0[::stride]])
    h = np.concatenate([drawn[:, 1:], ctx.sample.h[::stride]])
    h0_back, h_back = pauli_decompose(pauli_compose(h0, h))
    worst = max(np.max(np.abs(h0_back - h0)), np.max(np.abs(h_back - h)))
    return worst, "compose/decompose round trip, golden-ratio and field-sampled"


def _check_field_derivative(ctx):
    # the step scales with the field's fastest angular rate, 4ω₀ + ν₀
    d = 1e-3 / (4.0 * ctx.params.omega0 + ctx.params.nu0)
    stride = max(1, len(ctx.times) // 25)
    offsets = np.array([-2.0 * d, -d, d, 2.0 * d])[:, None]
    numeric = fields._central_difference(
        *fields.two_parameter_field(ctx.params, ctx.times[::stride] + offsets).h, d)
    scale = max(1.0, np.max(np.abs(ctx.sample.h_dot)))
    worst = np.max(np.abs(numeric - ctx.sample.h_dot[::stride])) / scale
    return (worst,
            "max |analytic h_dot - 5-point stencil at dt=1e-3/(4*omega0+nu0)|"
            " / max(1, max|h_dot|)")


def _check_arc_agreement(ctx):
    n = ctx.grid.steps
    k = [n // 4, n // 2, 3 * n // 4, n]
    closed = dynamics.arc_length_closed(ctx.params, ctx.times[[0] + k])
    worst = np.max(np.abs(ctx.traj.arc[k] - (closed[1:] - closed[0])))
    return worst, "trapezoidal arc length vs closed-form ½E(2ω₀t|m)"


def _check_integrator_order(ctx):
    field, traj = ctx.general
    psi0 = traj.states[0]
    end = [dynamics.integrate_schrodinger(field, psi0, dynamics.TimeGrid(0.0, 3.0, n)).bloch[-1]
           for n in (100, 200)] + [traj.bloch[-1]]
    order = math.log2(np.linalg.norm(end[0] - end[1]) / np.linalg.norm(end[1] - end[2]))
    return (abs(order - 4.0),
            f"|p - 4|, p = {order:.3f} from 100/200/400 Bloch steps on a tilted field")


# (name, check) pairs in the order of DEFAULT_TOLERANCES: name N runs _check_N. A
# list of pairs, which a profiler may rewrap in place.
_CHECKS = [(name, globals()["_check_" + name]) for name in DEFAULT_TOLERANCES]
