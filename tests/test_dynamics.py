import math
import sys
import warnings
from functools import partial

import numpy as np
import pytest

import blochcurve.dynamics as dynamics_mod
from blochcurve import (
    CallableField,
    ContractViolationError,
    FieldSample,
    IntegrationInstabilityError,
    InvalidArgumentError,
    ScenarioParams,
    TimeGrid,
    Trajectory,
    analytic_bloch,
    analytic_state,
    analytic_state_derivative,
    arc_length_closed,
    bloch_vector,
    curvature_expectation,
    elliptic_e,
    fidelity,
    integrate_schrodinger,
    speed,
    speed_efficiency,
    synthesize_hamiltonian,
    transport_phase_closed,
    two_parameter_field,
)
from blochcurve.validation import tilted_field_fixture

import reference_magnus
from reference_quadrature import adaptive_simpson
from reference_qubit import pauli_matrix, pauli_pair

P11 = ScenarioParams(1.0, 1.0)
FIELD11 = partial(two_parameter_field, P11)
RNG = np.random.default_rng(7)


def tilted_field():
    # smooth non-commuting drive with analytic derivative, nothing special
    # about the numbers; returns the field callable
    def h(t):
        return (0.8 + 0.3 * np.sin(1.3 * t),
                0.5 * np.cos(0.9 * t),
                0.6 + 0.25 * np.sin(0.7 * t))

    def h_dot(t):
        return (0.39 * np.cos(1.3 * t),
                -0.45 * np.sin(0.9 * t),
                0.175 * np.cos(0.7 * t))

    return CallableField(h=h, h0=0.2, h_dot=h_dot).sample


class TestTimeGrid:
    def test_dt_and_times(self):
        g = TimeGrid(0.0, 1.0, 4)
        assert g.dt == 0.25
        assert np.allclose(g.times(), [0.0, 0.25, 0.5, 0.75, 1.0])

    @pytest.mark.parametrize("t0, t1, steps", [
        (0.0, 2.0 * math.pi, 1), (0.0, 2.0 * math.pi, 6283), (0.0, 2.0 * math.pi, 62830),
        (0.0, 3.0, 8193), (-1.7, 0.3, 977), (1e-300, 3e-300, 9), (0.0, 5e-324, 3),
        (0.0, 6.283185307179586e300, 400),
    ])
    def test_blocks_are_the_linspace_nodes(self, t0, t1, steps):
        # whole or cut into blocks, a node has linspace's time, bit for bit;
        # (0, 5e-324) has a step that underflows to 0
        g = TimeGrid(t0, t1, steps)
        whole = np.linspace(t0, t1, steps + 1)
        assert np.array_equal(g.times().view(np.uint64), whole.view(np.uint64))
        for block in (2, 4096):
            cuts = range(0, steps + 1, block)
            joined = np.concatenate([g.times(a, min(a + block, steps + 1)) for a in cuts])
            assert np.array_equal(joined.view(np.uint64), whole.view(np.uint64))
        for k in (*range(0, steps + 1, max(1, steps // 97)), steps):
            assert g.times(k, k + 1).view(np.uint64) == whole[k:k + 1].view(np.uint64)
        assert g.times(steps, steps + 1).tolist() == [t1]
        assert g.times(steps, steps + 4096).tolist() == [t1]    # cut like a slice
        assert g.times(3, 3).size == 0

    def test_rejects_degenerate(self):
        with pytest.raises(InvalidArgumentError):
            TimeGrid(0.0, 0.0, 10)
        with pytest.raises(InvalidArgumentError):
            TimeGrid(1.0, 0.0, 10)
        with pytest.raises(InvalidArgumentError):
            TimeGrid(0.0, 1.0, 0)
        for t0, t1 in ((0.0, math.inf), (math.nan, 1.0), (-math.inf, 0.0)):
            with pytest.raises(InvalidArgumentError, match="grid endpoints must be finite"):
                TimeGrid(t0, t1, 10)


class TestTrajectoryContract:
    def _valid_kwargs(self):
        g = TimeGrid(0.0, 1.0, 1)
        states = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)
        return dict(
            grid=g,
            states=states,
            bloch=np.array([[0.0, 0.0, 1.0]] * 2),
            beta=np.array([0.0, 0.1]),
            arc=np.array([0.0, 0.2]),
            sample=FIELD11(g.times()),
        )

    def test_accepts_valid(self):
        traj = Trajectory(**self._valid_kwargs())
        assert traj.n_nodes == 2
        assert fidelity(traj.states[0], [1.0, 0.0]) == pytest.approx(1.0)

    def test_rejects_unnormalized_states(self):
        kw = self._valid_kwargs()
        kw["states"] = np.array([[1.0, 0.0], [0.5, 0.5]], dtype=complex)
        with pytest.raises(ContractViolationError):
            Trajectory(**kw)

    def test_rejects_nonzero_start(self):
        kw = self._valid_kwargs()
        kw["beta"] = np.array([0.3, 0.1])
        with pytest.raises(ContractViolationError):
            Trajectory(**kw)

    def test_rejects_decreasing_arc(self):
        kw = self._valid_kwargs()
        kw["arc"] = np.array([0.0, -0.5])
        with pytest.raises(ContractViolationError):
            Trajectory(**kw)

    def test_rejects_arrays_of_the_wrong_length(self):
        kw = self._valid_kwargs()
        kw["states"] = np.array([[1.0, 0.0]] * 3, dtype=complex)
        with pytest.raises(ContractViolationError, match="states"):
            Trajectory(**kw)

    def test_rejects_a_sample_off_the_nodes(self):
        kw = self._valid_kwargs()
        for t in (0.5, kw["grid"].times() + 0.25):  # one node; the right count at other times
            kw["sample"] = FIELD11(t)
            with pytest.raises(ContractViolationError, match="2 nodes"):
                Trajectory(**kw)

    def test_keeps_the_field_sample_at_its_nodes(self):
        field = tilted_field()
        traj = integrate_schrodinger(field, NORTH, TimeGrid(0.0, 3.0, 400))
        s = field(traj.times)
        for name in ("t", "h0", "h", "h_dot"):
            assert np.array_equal(getattr(traj.sample, name), getattr(s, name)), name


class TestTransportPhase:
    def test_values(self):
        assert transport_phase_closed(P11, 0.0) == 0.0
        assert transport_phase_closed(P11, math.pi / 2.0) == pytest.approx(
            math.pi / 4.0, abs=1e-12
        )
        t = 0.3
        assert transport_phase_closed(P11, t) == pytest.approx(
            0.25 * (2.0 * t - math.sin(2.0 * t)), abs=1e-15
        )

    def test_zero_without_azimuthal_drive(self):
        p = ScenarioParams(1.7, 0.0)
        for t in (0.0, 0.4, 2.0):
            assert transport_phase_closed(p, t) == 0.0


class TestAnalyticState:
    def test_starts_at_north_pole(self):
        alpha, beta = analytic_state(P11, 0.0)
        assert abs(alpha - 1.0) < 1e-15
        assert abs(beta) < 1e-15

    def test_reaches_south_pole_at_half_period_pair(self):
        # at t = pi/(2 w) the state is |1> up to phase
        alpha, beta = analytic_state(P11, math.pi / 2.0)
        assert abs(alpha) < 1e-12
        assert abs(abs(beta) - 1.0) < 1e-12

    def test_transport_gauge_by_finite_difference(self):
        # <m|dm/dt> must vanish along the whole path
        d = 1e-5
        t = 0.7
        mp = analytic_state(P11, t + d)
        mm = analytic_state(P11, t - d)
        m = analytic_state(P11, t)
        overlap = np.vdot(m, (mp - mm) / (2.0 * d))
        assert abs(overlap) <= 1e-8

    def test_solves_schrodinger_equation(self):
        # i dm/dt = H m with the matching drive, pointwise
        for t in (0.0, 0.3, 1.1, 2.7):
            m = analytic_state(P11, t)
            md = analytic_state_derivative(P11, t)
            s = FIELD11(t)
            hm = pauli_matrix(s.h0, s.h) @ m
            assert np.max(np.abs(1j * md - hm)) <= 1e-12

    def test_derivative_matches_central_difference(self):
        d = 1e-5
        for t in (0.2, 0.9, 2.2):
            fd = (analytic_state(P11, t + d)
                  - analytic_state(P11, t - d)) / (2.0 * d)
            assert np.max(np.abs(analytic_state_derivative(P11, t) - fd)) <= 1e-9

    def test_derivative_is_exactly_transverse(self):
        for t in (0.1, 0.8, 1.9):
            m = analytic_state(P11, t)
            md = analytic_state_derivative(P11, t)
            assert abs(np.vdot(m, md)) <= 1e-15


class TestAnalyticBloch:
    def test_poles(self):
        assert np.allclose(np.asarray(analytic_bloch(P11, 0.0)), (0, 0, 1), atol=1e-15)
        assert np.asarray(analytic_bloch(P11, math.pi / 2.0))[2] == pytest.approx(
            -1.0, abs=1e-12
        )

    def test_matches_state_projection(self):
        t = RNG.uniform(0.0, 2.0 * math.pi, size=100)
        via_state = bloch_vector(analytic_state(P11, t))
        assert np.max(np.abs(via_state - analytic_bloch(P11, t))) <= 1e-12


class TestIntegrateSchrodinger:
    def test_tracks_analytic_solution(self):
        grid = TimeGrid(0.0, 2.0 * math.pi, 6283)
        traj = integrate_schrodinger(FIELD11, analytic_state(P11, 0.0), grid)
        worst = min(
            fidelity(traj.states[i], analytic_state(P11, float(t)))
            for i, t in enumerate(traj.times)
        )
        assert worst >= 1.0 - 1e-6
        assert traj.max_step_error <= 1e-9

    def test_transport_phase_stays_zero_on_builtin_drive(self):
        # <H> = 0 along the built-in path, so beta never accumulates
        grid = TimeGrid(0.0, math.pi / 2.0, 1571)
        traj = integrate_schrodinger(FIELD11, np.array([1.0, 0.0j]), grid)
        assert np.max(np.abs(traj.beta)) <= 1e-9

    def test_arc_length_matches_quadrature(self):
        grid = TimeGrid(0.0, 2.0 * math.pi, 6283)
        traj = integrate_schrodinger(FIELD11, np.array([1.0, 0.0j]), grid)
        assert traj.arc[-1] == pytest.approx(4.0 * elliptic_e(-0.25), abs=1e-8)

    def test_arc_length_is_finite_at_a_huge_field(self):
        # |h| ~ 1e155: h·h overflows unless the speed is formed on the field
        # scaled per node, as both field routes of κ² form theirs
        p = ScenarioParams(1e155, 1.0)
        grid = TimeGrid(0.0, 2.0 * math.pi / 1e155, 400)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = integrate_schrodinger(partial(two_parameter_field, p), np.array([1.0, 0.0j]),
                                         grid)
        closed = arc_length_closed(p, grid.times())
        assert np.all(np.isfinite(traj.arc))
        assert np.max(np.abs(traj.arc - closed)) <= 1e-12 * closed[-1]

    def test_beta_accumulates_energy_for_eigenstate(self):
        # constant sigma_z drive on its eigenstate: beta(t) = w t exactly
        w = 0.9
        spec = CallableField(h=lambda t: (0.0, 0.0, w),
                             h_dot=lambda t: (0.0, 0.0, 0.0))
        grid = TimeGrid(0.0, 2.0, 200)
        traj = integrate_schrodinger(spec.sample, np.array([1.0, 0.0j]), grid)
        assert traj.beta[-1] == pytest.approx(w * 2.0, abs=1e-12)
        assert np.asarray(traj.bloch[-1])[2] == pytest.approx(1.0, abs=1e-12)

    def test_every_spelling_of_a_field_gives_the_same_trajectory(self):
        # a field is any callable t -> FieldSample: a plain function, the
        # built-in field's partial and an equivalent CallableField's sample
        def plain(t):
            return two_parameter_field(P11, t)

        def components(name):
            return lambda t: np.moveaxis(getattr(two_parameter_field(P11, t), name), -1, 0)

        wrapped = CallableField(h=components("h"), h_dot=components("h_dot"))
        grid = TimeGrid(0.0, 2.0 * math.pi, 700)
        psi0 = analytic_state(P11, 0.0)
        ref = integrate_schrodinger(FIELD11, psi0, grid)
        for field in (plain, wrapped.sample):
            traj = integrate_schrodinger(field, psi0, grid)
            for name in ("states", "bloch", "beta", "arc"):
                assert np.array_equal(getattr(traj, name), getattr(ref, name)), name
            assert traj.max_step_error == ref.max_step_error

    def test_rejects_unnormalized_initial_state(self):
        with pytest.raises(ContractViolationError):
            integrate_schrodinger(FIELD11, np.array([1.0, 1.0j]), TimeGrid(0, 1, 10))

    def test_flags_coarse_grid(self):
        with pytest.raises(IntegrationInstabilityError, match=r"at t = [0-9.]+[; ]"):
            integrate_schrodinger(
                tilted_field(), np.array([1.0, 0.0j]), TimeGrid(0.0, 50.0, 25)
            )


NORTH = np.array([1.0, 0.0j])  # the state whose Bloch vector is (0, 0, 1)


class TestIntegrateBloch:
    """The Bloch picture of ``integrate_schrodinger``: the rows of
    ``Trajectory.bloch``, a₀ turned by the propagators."""

    def test_tracks_analytic_solution(self):
        grid = TimeGrid(0.0, 2.0 * math.pi, 6283)
        rows = integrate_schrodinger(FIELD11, NORTH, grid).bloch
        expected = np.array(
            [np.asarray(analytic_bloch(P11, float(t))) for t in grid.times()]
        )
        assert np.max(np.abs(rows - expected)) <= 1e-6

    def test_fourth_order_convergence(self):
        # sup error ratio on step halving; 16 expected, 14 allows rounding
        def sup_error(steps):
            grid = TimeGrid(0.0, 2.0 * math.pi, steps)
            rows = integrate_schrodinger(FIELD11, NORTH, grid).bloch
            ref = np.array(
                [np.asarray(analytic_bloch(P11, float(t))) for t in grid.times()]
            )
            return float(np.max(np.abs(rows - ref)))

        assert sup_error(314) / sup_error(628) >= 14.0

    def test_agrees_with_state_integrator_on_generic_drive(self):
        field = tilted_field()
        grid = TimeGrid(0.0, 3.0, 3000)
        psi0 = np.array([math.cos(0.35), math.sin(0.35) * np.exp(0.4j)])
        traj = integrate_schrodinger(field, psi0, grid)
        # the rotated rows and the Bloch vectors of the states, 7.8e-16 apart
        assert np.max(np.abs(bloch_vector(traj.states) - traj.bloch)) <= 1e-14

    def test_precession_rate_is_twice_the_field(self):
        # one step from a = x against the rotation generated by Omega = 2h
        spec = CallableField(h=lambda t: (0.0, 0.0, 0.4), h_dot=lambda t: (0.0, 0.0, 0.0))
        dt = 1e-3
        psi0 = np.array([1.0, 1.0]) / math.sqrt(2.0)
        stepped = integrate_schrodinger(spec.sample, psi0, TimeGrid(0.0, dt, 1)).bloch[1]
        angle = 2.0 * 0.4 * dt
        expected = np.array([math.cos(angle), math.sin(angle), 0.0])
        assert np.max(np.abs(stepped - expected)) <= 1e-12

    def test_initial_vector_along_field_stays_put(self):
        spec = CallableField(h=lambda t: (0.0, 0.0, 2.0),
                             h_dot=lambda t: (0.0, 0.0, 0.0))
        rows = integrate_schrodinger(spec.sample, NORTH, TimeGrid(0.0, 4.0, 400)).bloch
        assert np.max(np.abs(rows - np.array([0.0, 0.0, 1.0]))) <= 1e-14

    def test_flags_coarse_grid(self):
        with pytest.raises(IntegrationInstabilityError, match=r"at t = [0-9.]+[; ]"):
            integrate_schrodinger(tilted_field(), NORTH, TimeGrid(0.0, 50.0, 20))


def _reference_cases():
    """(field, psi0, grid) on which the integrator must match the per-step
    loop; the step counts 1, 2, 3 and 1023–1025 sit on the seams of the
    prefix-product doubling."""
    tilted, psi0 = tilted_field_fixture()
    yield pytest.param(FIELD11, analytic_state(P11, 0.0), TimeGrid(0.0, 2.0 * math.pi, 6283),
                       id="scenario-6283")
    yield pytest.param(tilted.sample, psi0, TimeGrid(0.0, 3.0, 3000), id="tilted-3000")
    for steps in (1, 2, 3, 1023, 1024, 1025):
        yield pytest.param(tilted.sample, psi0, TimeGrid(0.0, steps / 1000.0, steps),
                           id=f"tilted-{steps}")


def _unstable_cases():
    """(field, psi0, grid, t of the first under-resolved step)."""
    tilted, psi0 = tilted_field_fixture()
    # every step is under-resolved, so the first one raises
    yield tilted.sample, psi0, TimeGrid(0.0, 5000.0, 400), 12.5
    # weak early, strong late, turning from z towards x: the first
    # under-resolved step lies mid-grid
    ramp = CallableField(h=lambda t: (0.1 * t ** 3, 0.0, 1.0),
                         h_dot=lambda t: (0.3 * t ** 2, 0.0, 0.0))
    yield ramp.sample, np.array([1.0, 1.0j]) / math.sqrt(2.0), TimeGrid(0.0, 10.0, 50), 5.2


class TestAgainstPerStepLoop:
    """The integrator's states and Bloch rows against the per-step Magnus
    loops in reference_magnus.py."""

    @pytest.mark.parametrize("field, psi0, grid", list(_reference_cases()))
    def test_states_rows_and_drift_match(self, field, psi0, grid):
        states, error = reference_magnus.schrodinger(field, psi0, grid)
        traj = integrate_schrodinger(field, psi0, grid)
        assert np.max(np.abs(traj.states - states)) <= 1e-13
        assert np.max(np.abs(traj.bloch - bloch_vector(states))) <= 1e-13
        assert abs(traj.max_step_error - error) <= 1e-15
        rows, _ = reference_magnus.bloch(field, bloch_vector(psi0), grid)
        assert np.max(np.abs(traj.bloch - rows)) <= 1e-13

    @pytest.mark.parametrize("field, psi0, grid, t", list(_unstable_cases()),
                             ids=["overflow", "mid-grid"])
    def test_instability_names_the_same_step(self, field, psi0, grid, t):
        with pytest.raises(IntegrationInstabilityError) as expected:
            reference_magnus.schrodinger(field, psi0, grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationInstabilityError) as got:
                integrate_schrodinger(field, psi0, grid)
        assert str(got.value) == str(expected.value)
        assert f"at t = {t!r} exceeds" in str(got.value)


def test_overflowing_step_raises_without_a_warning():
    # |h| ~ 1e155: dt^2 (h2 x h1) overflows, so the estimate is not finite
    spec = CallableField(h=lambda t: (1e155 * np.cos(t), 1e155 * np.sin(t), 0.0),
                         h_dot=lambda t: (-1e155 * np.sin(t), 1e155 * np.cos(t), 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationInstabilityError) as exc:
            integrate_schrodinger(spec.sample, NORTH, TimeGrid(0.0, 1.0, 4))
    assert str(exc.value) == "step error estimate is not finite at t = 0.25; reduce the step size"


def test_states_are_the_checked_pauli_product():
    # the states are c psi0 - i (v . sigma) psi0 with v . sigma written by the
    # one Pauli formula; the composed matrix gives the same bits
    field, psi0 = tilted_field(), np.array([math.cos(0.35), math.sin(0.35) * np.exp(0.4j)])
    grid = TimeGrid(0.0, 3.0, 400)
    c, v, phase, _ = dynamics_mod._propagators(field, grid.times(), grid.dt)
    states = ((c[:, None] * psi0 - 1j * (pauli_matrix(0.0, v) @ psi0))
              * np.exp(-1j * np.cumsum(np.append(0.0, phase)))[:, None])
    assert np.array_equal(integrate_schrodinger(field, psi0, grid).states, states)


def test_long_grid_keeps_unit_length():
    # nothing is renormalized, so the round-off of 62830 composed steps must
    # stay far inside the 1e-10 that Trajectory admits
    grid = TimeGrid(0.0, 2.0 * math.pi, 62830)
    traj = integrate_schrodinger(FIELD11, analytic_state(P11, 0.0), grid)
    assert np.max(np.abs(np.sum(np.abs(traj.states) ** 2, axis=1) - 1.0)) <= 1e-11
    assert np.max(np.abs(np.linalg.norm(traj.bloch, axis=1) - 1.0)) <= 1e-11


@pytest.mark.parametrize("h0", [1e2, 1e4, 1e7])
def test_energy_offset_moves_only_the_global_phase(h0):
    # h0 cancels exactly from the Bloch rows, the speed and kappa2; only the
    # accumulated energy beta keeps it
    tilted, psi0 = tilted_field_fixture()
    grid = TimeGrid(0.0, 3.0, 3000)
    k = np.arange(150, grid.steps, 300)
    runs = []
    for offset in (0.0, h0):
        spec = CallableField(h=tilted.h, h0=offset, h_dot=tilted.h_dot)
        traj = integrate_schrodinger(spec.sample, psi0, grid)
        runs.append((traj, curvature_expectation(spec.sample(traj.times[k]), traj.states[k])))
    (ref, k2_ref), (traj, k2) = runs
    assert np.max(np.abs(k2 - k2_ref) / k2_ref) <= 1e-12
    assert np.max(np.abs(traj.bloch - ref.bloch)) <= 1e-12
    assert np.max(np.abs(traj.arc - ref.arc)) <= 1e-12 * ref.arc[-1]
    assert np.max(np.abs(traj.beta - ref.beta - h0 * traj.times)) <= 1e-12 * h0 * 3.0


def test_observable_rate_identity_along_generic_drive():
    # d/dt (a . h) = a . dh/dt because the precession term is orthogonal;
    # the rate is a 5-point stencil of the trajectory's own a . h rows
    grid = TimeGrid(0.0, 3.0, 300)
    traj = integrate_schrodinger(tilted_field(), NORTH, grid)
    ah = np.einsum("nk,nk->n", traj.bloch, traj.sample.h)
    i = np.arange(30, grid.steps, 30)
    lhs = (ah[i - 2] - 8.0 * ah[i - 1] + 8.0 * ah[i + 1] - ah[i + 2]) / (12.0 * grid.dt)
    rhs = np.einsum("nk,nk->n", traj.bloch[i], traj.sample.h_dot[i])
    assert np.max(np.abs(lhs - rhs)) <= 1e-6


class TestArcLengthClosed:
    def test_zero_at_origin(self):
        assert arc_length_closed(P11, 0.0) == 0.0

    def test_linear_in_geodesic_limit(self):
        p = ScenarioParams(1.3, 0.0)
        for t in (0.5, 1.0, 3.7):
            assert arc_length_closed(p, t) == pytest.approx(1.3 * t, abs=1e-13)

    def test_full_and_half_period_values(self):
        # one drive period traces arc E(-r^2/4) * 4 / pi * ... reduced form:
        # s(pi/2w) = E(-r^2/4)/w at r = nu0/w = 1
        assert arc_length_closed(P11, math.pi / 2.0) == pytest.approx(
            elliptic_e(-0.25), abs=1e-14
        )
        assert arc_length_closed(P11, math.pi / 4.0) == pytest.approx(
            elliptic_e(-0.25) / 2.0, abs=1e-14
        )

    @pytest.mark.parametrize("w, n", [(0.7, 1.3), (1.0, 50.0), (1e-3, 1.0)])
    def test_matches_quadrature_of_the_speed(self, w, n):
        p = ScenarioParams(w, n)
        ts = np.array([0.3, 1.9, 4.4, 7.0]) * math.pi / (2.0 * w)
        closed = arc_length_closed(p, ts)
        for t, s in zip(ts.tolist(), closed.tolist()):
            quad = adaptive_simpson(lambda u: speed(p, u), 0.0, t, tol=1e-12).value
            assert abs(s - quad) <= 1e-12 * quad

    @pytest.mark.parametrize("w, n", [(1.0, 1.0), (1.0, 50.0), (1e-3, 1.0)])
    def test_nondecreasing_across_the_seams(self, w, n):
        # 2 w t crosses (k + 1/2) pi, where the elliptic reduction switches sides
        p = ScenarioParams(w, n)
        centre = (np.arange(0, 10) + 0.5) * math.pi / (2.0 * w)
        t = np.stack([centre - 1e-13 / w, centre, centre + 1e-13 / w], axis=-1).ravel()
        assert np.all(np.diff(arc_length_closed(p, t)) >= 0.0)

    @pytest.mark.parametrize("w", [1.0, 1e-150])
    def test_finite_at_the_largest_ratio_in_range(self, w):
        # m = -r**2/4 near -1.1e307: the Carlson forms converge with no overflow
        r = math.nextafter(math.sqrt(sys.float_info.max / 4.0), 0.0)
        p = ScenarioParams(w, r * w)
        t = np.linspace(0.0, 3.0, 13) * math.pi / (2.0 * w)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = arc_length_closed(p, t)
        assert np.all(np.isfinite(s)) and np.all(np.diff(s) > 0.0)
        assert s[4] == pytest.approx(elliptic_e(-0.25 * r * r), rel=1e-14)  # t = T

    def test_rejects_negative_time(self):
        with pytest.raises(InvalidArgumentError):
            arc_length_closed(P11, -1.0)
        with pytest.raises(InvalidArgumentError):
            arc_length_closed(P11, np.array([1.0, -1.0, 2.0]))


class TestSynthesizeHamiltonian:
    def test_zero_velocity_gives_zero_operator(self):
        m = np.array([1.0, 0.0j])
        h0, h = synthesize_hamiltonian(m, np.zeros(2, dtype=complex))
        assert h0 == 0.0
        assert np.max(np.abs(h)) == 0.0

    def test_pair_decomposes_the_operator(self):
        # (h0, h) against the traces of the matrix i|dm><m| - i|m><dm|
        t = RNG.uniform(0.0, 2.0 * math.pi, size=25)
        m, md = analytic_state(P11, t), analytic_state_derivative(P11, t)
        ham = 1j * (md[:, :, None] * m.conj()[:, None, :] - m[:, :, None] * md.conj()[:, None, :])
        h0_ref, h_ref = pauli_pair(ham)
        h0, h = synthesize_hamiltonian(m, md)
        assert h0.shape == (25,) and h.shape == (25, 3)
        assert np.max(np.abs(h0 - h0_ref)) <= 1e-15
        assert np.max(np.abs(h - h_ref)) <= 1e-15

    def test_reconstructs_builtin_drive_from_finite_differences(self):
        t, d = 0.3, 1e-6
        m = analytic_state(P11, t)
        md = (analytic_state(P11, t + d)
              - analytic_state(P11, t - d)) / (2.0 * d)
        h0, h = synthesize_hamiltonian(m, md)
        assert abs(h0) <= 1e-6
        assert np.max(np.abs(h - two_parameter_field(P11, t).h)) <= 1e-6

    def test_reconstructs_builtin_drive_exactly_from_analytic_velocity(self):
        for t in RNG.uniform(0.0, 2.0 * math.pi, size=25):
            m = analytic_state(P11, float(t))
            md = analytic_state_derivative(P11, float(t))
            h0, h = synthesize_hamiltonian(m, md)
            assert 2.0 * abs(h0) <= 1e-12  # |tr H|
            assert np.max(np.abs(h - two_parameter_field(P11, float(t)).h)) <= 1e-12
            # i dm/dt = H m holds at the synthesized point
            assert np.max(np.abs(1j * md - pauli_matrix(h0, h) @ m)) <= 1e-12

    def test_synthesized_drive_is_maximally_efficient(self):
        t = 1.1
        m = analytic_state(P11, t)
        md = analytic_state_derivative(P11, t)
        h0, h = synthesize_hamiltonian(m, md)
        sample = FieldSample(t, h0, h, np.zeros(3))
        assert speed_efficiency(sample, bloch_vector(m)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_rejects_gauge_violation(self):
        m = np.array([1.0, 0.0j])
        with pytest.raises(ContractViolationError):
            synthesize_hamiltonian(m, m)
