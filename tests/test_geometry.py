import dataclasses
import math
import re
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import blochcurve.fields as fields_mod
from blochcurve import (
    CallableField,
    ContractViolationError,
    DomainError,
    FieldSample,
    InvalidArgumentError,
    ScenarioParams,
    SingularityError,
    TimeGrid,
    UndefinedEfficiencyError,
    acceleration,
    analytic_bloch,
    analytic_state,
    analytic_state_derivative,
    arc_length_closed,
    bloch_vector,
    curvature_bloch,
    curvature_closed,
    curvature_expectation,
    elliptic_e,
    elliptic_e_incomplete,
    extrema_summary,
    fidelity,
    geodesic_efficiency,
    geodesic_efficiency_generic,
    integrate_schrodinger,
    parallel_transverse_ratio,
    pauli_compose,
    pauli_decompose,
    scenario_records,
    speed,
    speed_efficiency,
    synthesize_hamiltonian,
    transport_phase_closed,
    two_parameter_field,
)
from blochcurve.geometry import SERIES_COLUMNS, _scenario_columns
from blochcurve.validation import tilted_field_fixture
from reference_curvature import (
    KAPPA2_CLIP_FLOOR,
    clip_nonneg,
    three_term_curvature,
    two_fraction_curvature,
)
from reference_qubit import state_from_angles

P11 = ScenarioParams(1.0, 1.0)
FIELD11 = partial(two_parameter_field, P11)
RNG = np.random.default_rng(11)


def node(h, h_dot=(0.0, 0.0, 0.0), h0=0.0):
    """The field sample of one node at t = 0."""
    return FieldSample(0.0, h0, h, h_dot)


def constant_field(h, h0=0.0):
    hv = tuple(float(x) for x in h)
    return CallableField(h=lambda t: hv, h0=h0, h_dot=lambda t: (0.0, 0.0, 0.0))


class TestSpeed:
    def test_baseline_and_peak(self):
        assert speed(P11, 0.0) == 1.0
        assert speed(P11, math.pi / 4.0) == pytest.approx(
            math.sqrt(5.0) / 2.0, abs=1e-15
        )

    def test_matches_energy_dispersion(self):
        # v = sqrt(<H^2> - <H>^2) along the analytic path
        for t in np.linspace(0.0, 2.0, 21):
            psi = analytic_state(P11, float(t))
            ham = pauli_compose(0.0, two_parameter_field(P11, float(t)).h)
            hpsi = ham @ psi
            e = float(np.real(np.vdot(psi, hpsi)))
            h2 = float(np.real(np.vdot(hpsi, hpsi)))
            assert speed(P11, float(t)) == pytest.approx(
                math.sqrt(h2 - e * e), abs=1e-12
            )

    def test_constant_in_geodesic_limit(self):
        p = ScenarioParams(0.7, 0.0)
        for t in (0.0, 0.9, 2.5):
            assert speed(p, t) == 0.7


class TestAcceleration:
    def test_point_value(self):
        # (nu0^2/4) sin(4 w t) / v at t = pi/8
        assert acceleration(P11, math.pi / 8.0) == pytest.approx(
            0.23570226039551587, abs=1e-15
        )

    def test_zero_at_speed_extrema(self):
        assert acceleration(P11, 0.0) == 0.0
        assert abs(acceleration(P11, math.pi / 4.0)) <= 1e-15

    def test_odd_about_half_period(self):
        period = math.pi / 2.0
        for t in (0.1, 0.3, 0.7):
            assert acceleration(P11, period - t) == pytest.approx(
                -acceleration(P11, t), abs=1e-14
            )

    def test_is_speed_derivative(self):
        d = 1e-6
        for t in (0.2, 0.6, 1.1):
            fd = (speed(P11, t + d) - speed(P11, t - d)) / (2.0 * d)
            assert acceleration(P11, t) == pytest.approx(fd, abs=1e-8)


class TestCurvatureClosed:
    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
    def test_initial_value_scales_as_four_r_squared(self, r):
        p = ScenarioParams(1.0, r)
        assert curvature_closed(p, 0.0) == pytest.approx(4.0 * r * r, abs=1e-12)

    def test_pinned_interior_value(self):
        assert curvature_closed(P11, 0.3) == pytest.approx(
            2.340717947822836, abs=1e-13
        )

    def test_vanishes_at_quarter_period(self):
        assert curvature_closed(P11, math.pi / 4.0) <= 1e-30

    def test_zero_in_geodesic_limit(self):
        p = ScenarioParams(1.4, 0.0)
        for t in (0.0, 0.5, 2.0):
            assert curvature_closed(p, t) == 0.0

    @pytest.mark.parametrize("w, n", [
        (1.0, 1.0), (1.0, 50.0), (0.7, 1.3), (1e-3, 1.0), (1.0, 1e-3),
    ])
    def test_matches_the_two_fraction_display(self, w, n):
        p = ScenarioParams(w, n)
        t = np.linspace(0.0, 4.0 / w, 301)
        display = two_fraction_curvature(p, t)
        got = curvature_closed(p, t)
        assert np.max(np.abs(got - display) / np.maximum(1.0, display)) <= 2e-15

    @pytest.mark.parametrize("w, n", [(1.0, 1e-100), (1e100, 1.0), (1.0, 1e-160), (1e155, 1e100)])
    def test_finite_where_the_inverse_ratio_overflows(self, w, n):
        # (omega0/nu0)**2 and its cube overflow; rho = nu0/omega0 never does
        p = ScenarioParams(w, n)
        peak = 4.0 * (n / w) ** 2
        assert curvature_closed(p, 0.0) == pytest.approx(peak, rel=1e-15, abs=1e-320)
        t = np.linspace(0.0, 4.0 / w, 31)
        got = curvature_closed(p, t)
        assert np.all(np.isfinite(got)) and np.all((0.0 <= got) & (got <= peak))


class TestCurvatureBloch:
    def test_zero_when_orthogonal_and_derivative_collinear(self):
        val = curvature_bloch(node((1.0, 0, 0), (2.0, 0, 0)), (0, 0, 1.0))
        assert val == 0.0

    def test_stationary_field_reduces_to_alignment_term(self):
        # h_dot = 0 leaves 4 (a.h)^2 / (h^2 - (a.h)^2)
        a = np.array([0.0, 0.0, 1.0])
        h = np.array([1.0, 0.0, 1.0])
        assert curvature_bloch(node(h), a) == pytest.approx(4.0, abs=1e-13)
        for _ in range(20):
            a = RNG.normal(size=3)
            a /= np.linalg.norm(a)
            h = RNG.uniform(-2, 2, size=3)
            ah = float(a @ h)
            den = float(h @ h) - ah * ah
            if den < 1e-6:
                continue
            assert curvature_bloch(node(h), a) == pytest.approx(
                4.0 * ah * ah / den, rel=1e-10
            )

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
    def test_agrees_with_closed_form_along_scenario(self, r):
        p = ScenarioParams(1.0, r)
        for t in np.linspace(0.0, math.pi / 2.0, 200, endpoint=False):
            s = two_parameter_field(p, float(t))
            a = np.asarray(analytic_bloch(p, float(t)))
            assert abs(
                curvature_bloch(s, a) - curvature_closed(p, float(t))
            ) <= 1e-9

    def test_singular_when_state_aligned_with_field(self):
        with pytest.raises(SingularityError):
            curvature_bloch(node((0.0, 0.0, 2.0), (0.1, 0.0, 0.0)), (0.0, 0.0, 1.0))

    def test_rejects_non_unit_bloch_vector(self):
        with pytest.raises(InvalidArgumentError):
            curvature_bloch(node((1.0, 0.0, 0.0)), (0.0, 0.0, 0.9))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_field(self, bad):
        # a NaN field used to surface as "curvature nan is negative"; the
        # sample rejects it before the route can read it
        a = (0.0, 0.0, 1.0)
        with pytest.raises(InvalidArgumentError, match="finite"):
            curvature_bloch(node((bad, 0.0, 0.0), (0.0, 0.5, 0.0)), a)
        with pytest.raises(InvalidArgumentError, match="finite"):
            curvature_bloch(node((1.0, 0.0, 0.0), (0.0, bad, 0.0)), a)

    def test_matches_the_three_term_oracle_on_the_tilted_fixture(self):
        # |a.h| reaches 1.34 here, so every term of the oracle is live
        spec, psi0 = tilted_field_fixture()
        traj = integrate_schrodinger(spec.sample, psi0, TimeGrid(0.0, 3.0, 3000))
        s = spec.sample(traj.times)
        got = curvature_bloch(s, traj.bloch)
        oracle = three_term_curvature(traj.bloch, s.h, s.h_dot)
        assert np.max(np.abs(got - oracle) / np.maximum(1.0, oracle)) <= 1e-13

    @pytest.mark.parametrize("k", [-500, -1, 3, 500])
    def test_a_power_of_two_time_unit_changes_no_bit(self, k):
        # (h, h_dot) -> (2^k h, 2^2k h_dot) leaves kappa2 and eta_SE exactly,
        # also where h**2 * h_dot**2 overflows (k = 500) or underflows (k = -500)
        spec, psi0 = tilted_field_fixture()
        traj = integrate_schrodinger(spec.sample, psi0, TimeGrid(0.0, 3.0, 300))
        s = spec.sample(traj.times)
        s = FieldSample(s.t, 0.3, s.h, s.h_dot)
        scaled = FieldSample(s.t, np.ldexp(0.3, k), np.ldexp(s.h, k), np.ldexp(s.h_dot, 2 * k))
        assert np.array_equal(curvature_bloch(scaled, traj.bloch),
                              curvature_bloch(s, traj.bloch))
        assert np.array_equal(curvature_expectation(scaled, traj.states),
                              curvature_expectation(s, traj.states))
        assert np.array_equal(speed_efficiency(scaled, traj.bloch),
                              speed_efficiency(s, traj.bloch))

    def test_subnormal_field_scales_without_overflow(self):
        # 2^-1060 is below the smallest normal double; its scale stops at 2^1022
        h = (2.0**-1060, 0.0, 0.0)
        assert curvature_bloch(node(h), (0.6, 0.0, 0.8)) == pytest.approx(2.25, rel=1e-15)
        assert speed_efficiency(node(h), (0.0, 0.0, 1.0)) == 1.0

    def test_overflowing_scaled_rate_raises_on_both_routes(self):
        # lambda = 2^996 brings h into [1/2, 1); lambda^2 h_dot = 1e10 * 2^1992 is
        # not a double, so neither is kappa2
        s = FieldSample(0.0, 0.0, (1e-300, 0.0, 0.0), (0.0, 1e10, 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="not representable"):
                curvature_bloch(s, (0.0, 0.0, 1.0))
            with pytest.raises(DomainError, match="not representable"):
                curvature_expectation(s, np.array([1.0, 0.0j]))

    def test_large_scaled_rate_still_agrees_on_both_routes(self):
        # lambda^2 h_dot ~ 2^664 * 1e-150 is finite, and so is kappa2 = 1e100
        s = FieldSample(0.0, 0.0, (1e-100, 0.0, 0.0), (0.0, 1e-150, 0.0))
        assert curvature_bloch(s, (0.0, 0.0, 1.0)) == 1.0000000000000002e+100
        assert curvature_expectation(s, np.array([1.0, 0.0j])) == 1.0000000000000002e+100

    def test_nonnegative_along_generic_drive(self):
        spec = CallableField(
            h=lambda t: (0.8 + 0.3 * np.sin(1.3 * t),
                         0.5 * np.cos(0.9 * t),
                         0.6 + 0.25 * np.sin(0.7 * t)),
            h_dot=lambda t: (0.39 * np.cos(1.3 * t),
                             -0.45 * np.sin(0.9 * t),
                             0.175 * np.cos(0.7 * t)),
        )
        grid = TimeGrid(0.0, 3.0, 600)
        rows = integrate_schrodinger(spec.sample, np.array([1.0, 0.0j]), grid).bloch
        for i in range(0, 601, 40):
            s = spec.sample(float(grid.times()[i]))
            assert curvature_bloch(s, rows[i]) >= 0.0


class TestCurvatureExpectation:
    def test_zero_for_great_circle_precession(self):
        # constant field orthogonal to the Bloch vector drives a geodesic
        spec = constant_field((0.8, 0.0, 0.0))
        val = curvature_expectation(spec.sample(0.0), np.array([1.0, 0.0j]))
        assert val <= 1e-10

    def test_stationary_field_keeps_only_kurtosis_terms(self):
        h = np.array([1.0, 0.0, 0.5])
        spec = constant_field(h)
        psi = state_from_angles(0.7, 0.3)
        ah = float(bloch_vector(psi) @ h)
        v = math.sqrt(float(h @ h) - ah * ah)
        dh = (pauli_compose(0.0, h) - ah * np.eye(2)) / v
        dh2 = dh @ dh
        kurtosis = (
            float(np.real(np.vdot(psi, dh2 @ dh2 @ psi)))
            - float(np.real(np.vdot(psi, dh2 @ psi))) ** 2
        )
        assert curvature_expectation(spec.sample(0.5), psi) == pytest.approx(
            kurtosis, abs=1e-9
        )

    def test_pinned_scenario_value(self):
        psi = analytic_state(P11, 0.3)
        assert curvature_expectation(FIELD11(0.3), psi) == pytest.approx(
            2.340717947822836, abs=1e-12
        )

    def test_scalar_part_of_hamiltonian_drops_out(self):
        h = (0.9, 0.2, 0.4)
        psi = state_from_angles(1.1, -0.5)
        bare = curvature_expectation(constant_field(h).sample(0.0), psi)
        shifted = curvature_expectation(constant_field(h, h0=5.0).sample(0.0), psi)
        assert bare == pytest.approx(shifted, abs=1e-8)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ContractViolationError):
            curvature_expectation(FIELD11(0.3), np.array([1.0, 1.0j]))
        with pytest.raises(InvalidArgumentError):  # one state for two times
            curvature_expectation(FIELD11(np.array([0.3, 0.4])), analytic_state(P11, 0.3))

    def test_singular_on_field_eigenstate(self):
        spec = constant_field((0.0, 0.0, 1.0))
        with pytest.raises(SingularityError):
            curvature_expectation(spec.sample(0.0), np.array([1.0, 0.0j]))

    def test_weak_drive_is_not_an_eigenstate(self):
        # |h| ~ 1e-13 with v/|h| = 1 everywhere: an absolute speed floor of
        # 1e-12 called this singular; v^2 <= eps*h^2 does not
        p = ScenarioParams(1e-13, 1.0)
        t = np.linspace(0.0, 2.0 * math.pi, 21)
        got = curvature_expectation(two_parameter_field(p, t), analytic_state(p, t))
        closed = curvature_closed(p, t)
        assert np.max(np.abs(got - closed)) <= 1e-14 * np.max(closed)

    def test_weak_field_eigenstate_is_still_singular(self):
        spec = constant_field((0.0, 0.0, 1e-13))
        with pytest.raises(SingularityError):
            curvature_expectation(spec.sample(0.0), np.array([1.0, 0.0j]))

    def test_array_call_names_the_singular_time(self):
        # only the node at t = 1.0 holds the sigma_z eigenstate
        spec = constant_field((0.0, 0.0, 1.0))
        t = np.array([0.0, 0.5, 1.0, 1.5])
        psi = state_from_angles(np.array([0.4, 1.0, 0.0, 2.0]), 0.2)
        with pytest.raises(SingularityError) as exc:
            curvature_expectation(spec.sample(t), psi)
        assert exc.value.t == 1.0

    def test_singular_message_quotes_the_field_as_given(self):
        # 1e-7 rad off the eigenstate of h = 4 z: v = 4e-7 to the round-off
        # of v**2 = <H^2> - <H>^2, not the 5e-8 of the field scaled by 1/8
        spec = constant_field((0.0, 0.0, 4.0))
        with pytest.raises(SingularityError) as exc:
            curvature_expectation(spec.sample(0.0), state_from_angles(1e-7, 0.2))
        message = re.search(r"speed (\S+) below singular threshold 4.000e-06", str(exc.value))
        assert message and float(message[1]) == pytest.approx(4e-7, rel=1e-3)

    def test_stencil_derivative_feeds_the_route(self):
        # without an analytic h_dot the operator route runs on the stencil
        # rate and must still match the field-vector route on the exact one
        spec, psi0 = tilted_field_fixture()
        stencil_spec = dataclasses.replace(spec, h_dot=None)
        traj = integrate_schrodinger(spec.sample, psi0, TimeGrid(0.0, 3.0, 600))
        for k in range(30, 600, 60):
            t = float(traj.times[k])
            s = spec.sample(t)
            via_bloch = curvature_bloch(s, traj.bloch[k])
            via_expect = curvature_expectation(stencil_spec.sample(t), traj.states[k])
            assert abs(via_expect - via_bloch) <= 1e-9 * max(1.0, abs(via_bloch))


class TestCurvatureExpectationBlocks:
    """The operator route runs on blocks of ``_EXPECT_NODES`` nodes."""

    P = ScenarioParams(1.0, 50.0)

    def test_uneven_slices_change_no_bit(self):
        t = TimeGrid(0.0, 2.0 * math.pi, 6283).times()
        s, psi = two_parameter_field(self.P, t), analytic_state(self.P, t)
        whole = curvature_expectation(s, psi)
        cuts = np.cumsum([0, 1, 1023, 1025, len(t) - 2049])
        parts = [curvature_expectation(two_parameter_field(self.P, t[a:b]), psi[a:b])
                 for a, b in zip(cuts[:-1], cuts[1:])]
        assert np.array_equal(np.concatenate(parts), whole)
        # a scalar time is a block of one node
        assert curvature_expectation(two_parameter_field(self.P, t[7]), psi[7]) == whole[7]

    def test_two_dimensional_grid_matches_the_flat_one(self):
        t = TimeGrid(0.0, 2.0 * math.pi, 4799).times()
        flat = curvature_expectation(two_parameter_field(self.P, t), analytic_state(self.P, t))
        t2 = t.reshape(3, 1600)
        got = curvature_expectation(two_parameter_field(self.P, t2), analytic_state(self.P, t2))
        assert got.shape == (3, 1600)
        assert np.array_equal(got.ravel(), flat)

    def test_singular_node_in_a_later_block_is_named(self):
        # sigma_z eigenstates at nodes 2500 and 2900, both past the first block
        spec = constant_field((0.0, 0.0, 1.0))
        t = np.linspace(0.0, 3.0, 3000)
        theta = np.full(3000, 0.4)
        theta[[2500, 2900]] = 0.0
        with pytest.raises(SingularityError) as exc:
            curvature_expectation(spec.sample(t), state_from_angles(theta, 0.2))
        assert exc.value.t == t[2500]

    def test_peak_memory_is_bounded_by_the_block(self):
        # the whole-grid 2x2 stacks took about 680 bytes per node (40 MiB
        # here); what remains is a few grid-length arrays and one block
        t = TimeGrid(0.0, 2.0 * math.pi, 62830).times()
        s, psi = two_parameter_field(P11, t), analytic_state(P11, t)
        tracemalloc.start()
        try:
            curvature_expectation(s, psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * len(t)


@pytest.mark.parametrize("delta", [1e-11, 4e-11])
def test_routes_ignore_a_norm_deviation_the_contract_admits(delta):
    # kappa2 is projective: a state with |psi|^2 = 1 + delta (inside
    # BLOCH_NORM_ATOL) has the kappa2 of its normalized ray in both routes
    spec, psi0 = tilted_field_fixture()
    traj = integrate_schrodinger(spec.sample, psi0, TimeGrid(0.0, 3.0, 3000))
    k = np.arange(150, 3000, 300)
    t = traj.times[k]
    s = spec.sample(t)
    via_bloch = curvature_bloch(s, traj.bloch[k])
    via_expect = curvature_expectation(s, traj.states[k])
    off_bloch = curvature_bloch(s, traj.bloch[k] * (1.0 + delta))
    off_expect = curvature_expectation(s, traj.states[k] * math.sqrt(1.0 + delta))
    assert np.max(np.abs(off_bloch - via_bloch) / np.abs(via_bloch)) <= 1e-13
    assert np.max(np.abs(off_expect - via_expect) / np.abs(via_expect)) <= 1e-13
    assert np.max(np.abs(off_bloch - off_expect) / np.maximum(1.0, np.abs(off_expect))) <= 1e-12


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(log_omega0=st.floats(-8.0, 2.0), log_ratio=st.floats(-6.0, 3.0))
def test_three_curvature_routes_agree_across_the_domain(log_omega0, log_ratio):
    # nu0/omega0 over nine decades, on one period (kappa2 maximum and minimum
    # included), to round-off relative to max(1, kappa2_max)
    w = 10.0 ** log_omega0
    p = ScenarioParams(w, w * 10.0 ** log_ratio)
    t = TimeGrid(0.0, math.pi / (2.0 * w), 256).times()
    s = two_parameter_field(p, t)
    closed = curvature_closed(p, t)
    via_bloch = curvature_bloch(s, analytic_bloch(p, t))
    via_expect = curvature_expectation(s, analytic_state(p, t))
    bound = 1e-10 * max(1.0, 4.0 * (p.nu0 / w) ** 2)
    for x, y in ((closed, via_bloch), (closed, via_expect), (via_bloch, via_expect)):
        assert np.max(np.abs(x - y)) <= bound


@pytest.mark.parametrize("w, n", [
    (1.0, 1e-160), (1e155, 1.0), (1e80, 1.0), (1.0, 1e52), (1.0, 1e100), (1e-100, 1e-60),
])
def test_three_curvature_routes_agree_where_the_squares_overflow(w, n):
    # each of these once raised, warned or returned nan in some route
    p = ScenarioParams(w, n)
    cols = scenario_records(p, TimeGrid(0.0, 3.0 / w, 40))
    bound = 1e-13 * max(1.0, 4.0 * (n / w) ** 2)
    for route in ("kappa2_bloch", "kappa2_expect"):
        assert np.max(np.abs(cols[route] - cols["kappa2_closed"])) <= bound, route


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(log_omega0=st.floats(-4.0, 2.0), log_ratio=st.floats(-6.0, math.log10(50.0)))
@example(log_omega0=-4.0, log_ratio=math.log10(50.0))
@example(log_omega0=2.0, log_ratio=math.log10(50.0))
def test_integrators_track_the_closed_form_across_the_domain(log_omega0, log_ratio):
    # t up to 2*pi/omega0 at omega0*dt = 1e-3, so nu0*dt reaches 0.05 at the
    # nu0/omega0 = 50 corner (classical RK4 misses the bound there, 1.96e-6)
    w = 10.0 ** log_omega0
    p = ScenarioParams(w, w * 10.0 ** log_ratio)
    grid = TimeGrid(0.0, 2.0 * math.pi / w, 6283)
    t = grid.times()
    traj = integrate_schrodinger(partial(two_parameter_field, p), analytic_state(p, 0.0), grid)
    assert np.max(np.abs(traj.states - analytic_state(p, t))) <= 1e-6
    assert np.max(np.abs(traj.bloch - analytic_bloch(p, t))) <= 1e-6


@pytest.mark.parametrize("omega0, nu0", [(1e-4, 1.0), (1e-3, 10.0)])
def test_operator_route_holds_at_large_curvature(omega0, nu0):
    # kappa2_max = 4e8: the operator route's round-off grows with kappa2, so
    # its agreement with the closed form is judged relative to kappa2_max
    cols = scenario_records(ScenarioParams(omega0, nu0), TimeGrid(0.0, 2.0 * math.pi, 2000))
    diff = np.abs(cols["kappa2_expect"] - cols["kappa2_closed"])
    assert np.max(diff) <= 1e-10 * 4.0 * (nu0 / omega0) ** 2


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 50.0])
def test_three_curvature_routes_agree(r):
    p = ScenarioParams(1.0, r)
    for t in (0.15, 0.45, 0.8, 1.2):
        closed = curvature_closed(p, t)
        s = two_parameter_field(p, t)
        a = np.asarray(analytic_bloch(p, t))
        via_bloch = curvature_bloch(s, a)
        via_expect = curvature_expectation(s, analytic_state(p, t))
        assert abs(via_bloch - closed) <= 1e-9
        assert abs(via_expect - closed) <= 1e-9 * max(1.0, 4.0 * r * r)


class TestSpeedEfficiency:
    def test_unity_along_builtin_drive(self):
        for t in np.linspace(0.0, 3.0, 31):
            s = two_parameter_field(P11, float(t))
            a = np.asarray(analytic_bloch(P11, float(t)))
            assert speed_efficiency(s, a) == pytest.approx(1.0, abs=1e-12)

    def test_zero_when_state_aligned_with_field(self):
        assert speed_efficiency(node((0.0, 0.0, 2.0)), (0.0, 0.0, 1.0)) == 0.0

    def test_scalar_part_only_penalizes(self):
        h = (1.0, 0.5, 0.0)
        a = (0.0, 0.0, 1.0)
        assert speed_efficiency(node(h, h0=1.0), a) < speed_efficiency(node(h), a)

    def test_bounded_on_random_inputs(self):
        for _ in range(200):
            a = RNG.normal(size=3)
            a /= np.linalg.norm(a)
            h = RNG.uniform(-3, 3, size=3)
            if float(h @ h) < 1e-8:
                continue
            val = speed_efficiency(node(h, h0=float(RNG.uniform(-2, 2))), a)
            assert 0.0 <= val <= 1.0 + 1e-12

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_finite_where_the_field_squared_is_not(self, scale):
        # |h|**2 underflows to 0 or overflows to inf
        h = (4.0 * scale, 0.0, 0.0)
        eta = speed_efficiency(node(h, h0=3.0 * scale), (0.0, 0.0, 1.0))
        assert eta == pytest.approx(4.0 / 7.0, rel=1e-15)
        assert speed_efficiency(node(h), (0.0, 0.6, 0.8)) == 1.0

    @pytest.mark.parametrize("route", [curvature_bloch, speed_efficiency])
    def test_both_field_routes_reject_a_non_unit_bloch_vector(self, route):
        # speed_efficiency(s, 2*a) used to return 1.0 along the built-in drive
        t = np.linspace(0.1, 3.0, 30)
        s, a = two_parameter_field(P11, t), analytic_bloch(P11, t)
        for scale in (2.0, 1.0 + 1e-8):
            with pytest.raises(InvalidArgumentError, match="unit length"):
                route(s, scale * a)
        route(s, (1.0 + 1e-10) * a)  # |a|² within 1e-9 of 1 is unit

    def test_undefined_for_zero_hamiltonian(self):
        with pytest.raises(UndefinedEfficiencyError):
            speed_efficiency(node((0.0, 0.0, 0.0)), (0.0, 0.0, 1.0))

    @pytest.mark.parametrize("h0, h, a", [
        (math.nan, (1.0, 0.0, 0.0), (0.0, 0.0, 1.0)),
        (np.array([0.0, math.inf]), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0)),
        (0.0, (1.0, 0.0, 0.0), (math.nan, 0.0, 0.0)),
        (0.0, (math.inf, 0.0, 0.0), (0.0, 0.0, 1.0)),
    ], ids=["h0-nan", "h0-inf", "a-nan", "h-inf"])
    def test_rejects_non_finite_inputs(self, h0, h, a):
        # each of these used to return nan silently; the sample rejects a
        # non-finite field, the route a non-finite a
        t = np.zeros(np.shape(h0))
        with pytest.raises(InvalidArgumentError, match="finite"):
            speed_efficiency(FieldSample(t, h0, np.broadcast_to(h, t.shape + (3,)),
                                         np.zeros(t.shape + (3,))), a)


class TestGeodesicEfficiency:
    def test_pinned_value(self):
        assert geodesic_efficiency(P11) == pytest.approx(
            0.9435391991406721, abs=1e-12
        )

    def test_unity_in_geodesic_limit(self):
        assert geodesic_efficiency(ScenarioParams(2.0, 0.0)) == pytest.approx(
            1.0, abs=1e-15
        )

    def test_decreases_with_drive_ratio(self):
        vals = [geodesic_efficiency(ScenarioParams(1.0, r)) for r in (0.5, 1.0, 2.0)]
        assert vals[0] > vals[1] > vals[2]

    def test_closed_form_is_half_pi_over_quadrant_arc(self):
        r = 1.0
        assert geodesic_efficiency(P11) == pytest.approx(
            (math.pi / 2.0) / elliptic_e(-0.25 * r * r), abs=1e-15
        )


class TestGeodesicEfficiencyGeneric:
    def test_unity_for_great_circle(self):
        p = ScenarioParams(1.0, 0.0)
        grid = TimeGrid(0.0, math.pi / 2.0, 1571)
        traj = integrate_schrodinger(partial(two_parameter_field, p), np.array([1.0, 0.0j]), grid)
        assert geodesic_efficiency_generic(traj) == pytest.approx(1.0, abs=1e-8)

    def test_matches_closed_form_over_first_quadrant(self):
        grid = TimeGrid(0.0, math.pi / 2.0, 1571)
        traj = integrate_schrodinger(FIELD11, np.array([1.0, 0.0j]), grid)
        assert geodesic_efficiency_generic(traj) == pytest.approx(
            geodesic_efficiency(P11), abs=1e-6
        )

    def test_never_exceeds_unity(self):
        spec = CallableField(
            h=lambda t: (0.6, 0.4 * np.sin(t), 0.8),
            h_dot=lambda t: (0.0, 0.4 * np.cos(t), 0.0),
        )
        traj = integrate_schrodinger(spec.sample, np.array([1.0, 0.0j]), TimeGrid(0, 2, 2000))
        assert geodesic_efficiency_generic(traj) <= 1.0 + 1e-9

    def test_undefined_for_motionless_trajectory(self):
        spec = constant_field((0.0, 0.0, 0.0))
        traj = integrate_schrodinger(spec.sample, np.array([1.0, 0.0j]), TimeGrid(0, 1, 100))
        with pytest.raises(UndefinedEfficiencyError):
            geodesic_efficiency_generic(traj)


class TestExtremaSummary:
    def test_reference_drive_values(self):
        ext = extrema_summary(P11)
        assert ext.v_max == pytest.approx(math.sqrt(5.0) / 2.0, abs=1e-15)
        assert ext.v_min == 1.0
        assert ext.t_vmax == pytest.approx(math.pi / 4.0, abs=1e-15)
        assert ext.t_vmin == 0.0
        assert ext.acc_max == pytest.approx(math.sqrt(5.0) - 2.0, abs=1e-12)
        assert ext.acc_min == -ext.acc_max
        assert ext.t_accmax == pytest.approx(0.3787598378405762, abs=1e-12)
        assert ext.t_accmin == pytest.approx(ext.period - ext.t_accmax, abs=1e-15)
        assert ext.kappa2_max == 4.0
        assert ext.kappa2_min == 0.0
        assert ext.ratio_max == 0.25
        assert ext.period == pytest.approx(math.pi / 2.0, abs=1e-15)

    @pytest.mark.parametrize("w, n", [(1.0, 1.0), (1.0, 2.0), (0.7, 1.3)])
    def test_against_dense_grid_search(self, w, n):
        p = ScenarioParams(w, n)
        ext = extrema_summary(p)
        ts = np.linspace(0.0, ext.period, 50_001, endpoint=False)
        vs = np.array([speed(p, float(t)) for t in ts])
        accs = np.array([acceleration(p, float(t)) for t in ts])
        k2s = np.array([curvature_closed(p, float(t)) for t in ts])
        rats = np.array([parallel_transverse_ratio(p, float(t)) for t in ts])

        for value, series in [
            (ext.v_max, vs), (ext.acc_max, accs),
            (ext.kappa2_max, k2s), (ext.ratio_max, rats),
        ]:
            assert abs(value - float(series.max())) <= 1e-6
        for value, series in [(ext.v_min, vs), (ext.acc_min, accs),
                              (ext.kappa2_min, k2s), (ext.ratio_min, rats)]:
            assert abs(value - float(series.min())) <= 1e-6
        for t_claim, series, take_max in [
            (ext.t_vmax, vs, True), (ext.t_accmax, accs, True),
            (ext.t_k2max, k2s, True), (ext.t_vmin, vs, False),
            (ext.t_accmin, accs, False), (ext.t_k2min, k2s, False),
        ]:
            i = int(series.argmax() if take_max else series.argmin())
            assert abs(t_claim - float(ts[i])) <= 1e-4

    def test_times_lie_in_one_period(self):
        ext = extrema_summary(ScenarioParams(0.9, 1.7))
        for t in (ext.t_vmax, ext.t_vmin, ext.t_accmax, ext.t_accmin,
                  ext.t_k2max, ext.t_k2min):
            assert 0.0 <= t < ext.period

    def test_degenerate_geodesic_limit(self):
        ext = extrema_summary(ScenarioParams(1.5, 0.0))
        assert ext.v_max == ext.v_min == 1.5
        assert ext.acc_max == ext.acc_min == 0.0
        assert ext.kappa2_max == ext.kappa2_min == 0.0
        assert ext.ratio_max == 0.0

    def test_weak_drive_limit_of_acceleration_peak(self):
        # as r -> 0 the critical point drifts to pi/(8 w) and the peak to
        # (nu0^2/4) / sqrt(1 + r^2/8)
        p = ScenarioParams(1.0, 0.01)
        ext = extrema_summary(p)
        assert ext.t_accmax == pytest.approx(math.pi / 8.0, abs=1e-3)
        limit = 0.25 * p.nu0 ** 2 / math.sqrt(1.0 + p.nu0 ** 2 / 8.0)
        assert ext.acc_max == pytest.approx(limit, rel=1e-7)

    def test_speed_and_curvature_move_oppositely(self):
        ext = extrema_summary(P11)
        assert ext.t_vmax == ext.t_k2min
        assert ext.t_vmin == ext.t_k2max

    def test_acceleration_vanishes_at_curvature_extrema(self):
        ext = extrema_summary(P11)
        assert abs(acceleration(P11, ext.t_k2max)) <= 1e-9
        assert abs(acceleration(P11, ext.t_k2min)) <= 1e-9


def test_speed_squared_and_ratio_move_together():
    # wherever both rates are resolvable their signs agree
    ts = np.linspace(0.0, math.pi / 2.0, 2001)
    v2 = np.array([speed(P11, float(t)) ** 2 for t in ts])
    rat = np.array([parallel_transverse_ratio(P11, float(t)) for t in ts])
    dv2 = v2[2:] - v2[:-2]
    drat = rat[2:] - rat[:-2]
    mask = (np.abs(dv2) > 1e-9) & (np.abs(drat) > 1e-9)
    assert mask.any()
    assert np.all(np.sign(dv2[mask]) == np.sign(drat[mask]))


class TestScenarioRecords:
    def test_node_fields_are_consistent(self):
        grid = TimeGrid(0.0, math.pi / 2.0, 64)
        cols = scenario_records(P11, grid)
        assert tuple(cols) == SERIES_COLUMNS
        assert all(col.shape == (65,) for col in cols.values())
        assert cols["arc_length"][0] == 0.0
        a = np.column_stack([cols["ax"], cols["ay"], cols["az"]])
        h = np.column_stack([cols["hx"], cols["hy"], cols["hz"]])
        assert np.array_equal(a, analytic_bloch(P11, grid.times()))
        assert np.array_equal(h, two_parameter_field(P11, grid.times()).h)
        for k in range(0, 65, 8):
            t = float(cols["t"][k])
            assert cols["v"][k] == pytest.approx(speed(P11, t), abs=1e-15)
            assert cols["kappa2_closed"][k] == pytest.approx(
                curvature_closed(P11, t), abs=1e-15
            )
            assert cols["ratio"][k] == pytest.approx(
                parallel_transverse_ratio(P11, t), abs=1e-15
            )
            assert cols["eta_se"][k] == pytest.approx(1.0, abs=1e-12)
            assert cols["beta_phase"][k] == pytest.approx(
                -transport_phase_closed(P11, t), abs=1e-12
            )
            assert cols["arc_length"][k] == pytest.approx(arc_length_closed(P11, t), abs=1e-9)
            assert abs(cols["kappa2_bloch"][k] - cols["kappa2_closed"][k]) <= 1e-13
            assert abs(cols["kappa2_expect"][k] - cols["kappa2_closed"][k]) <= 1e-13

    def test_arc_is_nondecreasing(self):
        ss = scenario_records(P11, TimeGrid(0.0, 2.0, 50))["arc_length"]
        assert np.all(np.diff(ss) >= 0.0)

    def test_samples_the_field_once(self, monkeypatch):
        # both curvature routes read the one sample of the whole grid
        calls = []
        original = fields_mod.two_parameter_field

        def counted(params, t):
            calls.append(np.shape(t))
            return original(params, t)

        monkeypatch.setattr(fields_mod, "two_parameter_field", counted)
        scenario_records(P11, TimeGrid(0.0, 2.0, 50))
        assert calls == [(51,)]


P_GENERIC = ScenarioParams(0.7, 1.3)


def _field_pair(t):
    s = two_parameter_field(P_GENERIC, t)
    return np.concatenate([s.h, s.h_dot], axis=-1)


def _bloch_route(t):
    s = two_parameter_field(P_GENERIC, t)
    return curvature_bloch(s, analytic_bloch(P_GENERIC, t))


def _efficiency(t):
    s = two_parameter_field(P_GENERIC, t)
    # a scalar part and a tilted state make every term of the formula count
    s = FieldSample(s.t, s.h0 + 0.3, s.h, s.h_dot)
    return speed_efficiency(s, analytic_bloch(ScenarioParams(1.1, 0.4), t))


def _decomposed(t):
    h0, h = pauli_decompose(pauli_compose(0.5 * t, two_parameter_field(P_GENERIC, t).h))
    return np.concatenate([np.expand_dims(h0, -1), h], axis=-1)


def _summary_row(nu0):
    # every field of the summary, one row per drive strength
    summary = extrema_summary(ScenarioParams(0.7, nu0))
    return np.stack(np.broadcast_arrays(*dataclasses.astuple(summary)), axis=-1)


ARRAY_VALUED = {
    "two_parameter_field": _field_pair,
    "parallel_transverse_ratio": lambda t: parallel_transverse_ratio(P_GENERIC, t),
    "speed": lambda t: speed(P_GENERIC, t),
    "acceleration": lambda t: acceleration(P_GENERIC, t),
    "curvature_closed": lambda t: curvature_closed(P_GENERIC, t),
    "curvature_bloch": _bloch_route,
    "curvature_expectation": lambda t: curvature_expectation(
        two_parameter_field(P_GENERIC, t), analytic_state(P_GENERIC, t)
    ),
    "speed_efficiency": _efficiency,
    "transport_phase_closed": lambda t: transport_phase_closed(P_GENERIC, t),
    "analytic_state": lambda t: analytic_state(P_GENERIC, t),
    "analytic_state_derivative": lambda t: analytic_state_derivative(P_GENERIC, t),
    "analytic_bloch": lambda t: analytic_bloch(P_GENERIC, t),
    "pauli_compose": lambda t: pauli_compose(0.5 * t, two_parameter_field(P_GENERIC, t).h),
    "arc_length_closed": lambda t: arc_length_closed(P_GENERIC, t),
    "elliptic_e": lambda t: elliptic_e(1.0 - t),
    "elliptic_e_incomplete": lambda t: elliptic_e_incomplete(3.0 * t, 0.5 - t),
    "extrema_summary": _summary_row,
    "geodesic_efficiency": lambda t: geodesic_efficiency(ScenarioParams(0.7, t)),
    "bloch_vector": lambda t: bloch_vector(analytic_state(P_GENERIC, t)),
    "fidelity": lambda t: fidelity(
        analytic_state(P_GENERIC, t), analytic_state(ScenarioParams(1.1, 0.4), t)
    ),
    "pauli_decompose": _decomposed,
    "synthesize_hamiltonian": lambda t: synthesize_hamiltonian(
        analytic_state(P_GENERIC, t), analytic_state_derivative(P_GENERIC, t)
    ),
}


@pytest.mark.parametrize("name", sorted(ARRAY_VALUED))
def test_array_call_matches_per_node_calls(name):
    # one call on a grid gives what one call per node gives, in shape and
    # value; a scalar t keeps a scalar (or single-vector) result
    f = ARRAY_VALUED[name]
    ts = np.linspace(0.05, 5.0, 97)
    whole = f(ts)
    nodes = np.array([f(t) for t in ts.tolist()])
    assert np.ndim(f(0.3)) == nodes.ndim - 1
    assert whole.shape == nodes.shape
    scale = max(1.0, float(np.max(np.abs(nodes))))
    assert float(np.max(np.abs(whole - nodes))) <= 1e-15 * scale


def _simulate_columns(params, t):
    """The columns that ``simulate`` streams at the times t, from the function
    it streams them from, plus h_dot, the state that the operator route reads,
    and its derivative, which the battery's Hamiltonian synthesis reads."""
    cols = dict(zip(SERIES_COLUMNS, _scenario_columns(params, t, 0.0)))
    cols["h_dot"] = two_parameter_field(params, t).h_dot
    cols["state"] = analytic_state(params, t)
    cols["state_dot"] = analytic_state_derivative(params, t)
    return cols


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


class TestSimulateColumnsPerNode:
    """A node's bits do not depend on what shares its call: the whole
    62831-node grid, a block of it, or the node alone. Streaming ``simulate``
    in node blocks rests on this."""

    T = TimeGrid(0.0, 2.0 * math.pi, 62830).times()

    @pytest.fixture(scope="class", params=[1.0, 50.0])
    def whole(self, request):
        params = ScenarioParams(1.0, request.param)
        return params, _simulate_columns(params, self.T)

    @pytest.mark.parametrize("block", [4096, 16384])
    def test_blocks_join_into_the_whole_grid(self, whole, block):
        params, cols = whole
        parts = [_simulate_columns(params, self.T[a:a + block])
                 for a in range(0, len(self.T), block)]
        for name, col in cols.items():
            joined = np.concatenate([part[name] for part in parts])
            assert np.array_equal(_bits(joined), _bits(col)), name

    def test_a_scalar_call_is_its_node(self, whole):
        params, cols = whole
        nodes = [_simulate_columns(params, t) for t in self.T[::7].tolist()]
        for name, col in cols.items():
            alone = np.array([node[name] for node in nodes])
            assert np.array_equal(_bits(alone), _bits(col[::7])), name


class TestClipFloor:
    # the three-term oracle's clip; every library route is a square
    def test_passthrough_and_clip(self):
        assert clip_nonneg(2.0, KAPPA2_CLIP_FLOOR) == 2.0
        assert clip_nonneg(0.0, KAPPA2_CLIP_FLOOR) == 0.0
        assert clip_nonneg(-5e-10, KAPPA2_CLIP_FLOOR) == 0.0
        clipped = clip_nonneg(np.array([2.0, -5e-10, 0.0]), KAPPA2_CLIP_FLOOR)
        assert clipped.tolist() == [2.0, 0.0, 0.0]

    def test_raises_beyond_floor(self):
        # NaN is no round-off: it must fail, never clip to 0
        for value in (-1e-6, math.nan, np.array([1.0, math.nan, 0.5])):
            with pytest.raises(AssertionError):
                clip_nonneg(value, KAPPA2_CLIP_FLOOR)
