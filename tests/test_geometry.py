import dataclasses
import math

import numpy as np
import pytest

from blochcurve import (
    CallableField,
    InvalidArgumentError,
    NumericalConsistencyError,
    ScenarioParams,
    SingularityError,
    TimeGrid,
    TwoParameterField,
    UndefinedEfficiencyError,
    acceleration,
    analytic_bloch,
    analytic_state,
    analytic_state_derivative,
    arc_length_closed,
    curvature_bloch,
    curvature_closed,
    curvature_expectation,
    elliptic_e,
    extrema_summary,
    geodesic_efficiency,
    geodesic_efficiency_generic,
    h_parallel_sq,
    h_transverse_sq,
    integrate_schrodinger,
    pauli_compose,
    parallel_transverse_ratio,
    scenario_records,
    speed,
    speed_efficiency,
    state_from_angles,
    tilted_field_fixture,
    transport_phase_closed,
    two_parameter_field,
)
from blochcurve.geometry import KAPPA2_CLIP_FLOOR, SERIES_COLUMNS, _clip_nonneg

P11 = ScenarioParams(1.0, 1.0)
SPEC11 = TwoParameterField(P11)
RNG = np.random.default_rng(11)


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


class TestCurvatureBloch:
    def test_zero_when_orthogonal_and_derivative_collinear(self):
        val = curvature_bloch((0, 0, 1.0), (1.0, 0, 0), (2.0, 0, 0))
        assert val == 0.0

    def test_stationary_field_reduces_to_alignment_term(self):
        # h_dot = 0 leaves 4 (a.h)^2 / (h^2 - (a.h)^2)
        a = np.array([0.0, 0.0, 1.0])
        h = np.array([1.0, 0.0, 1.0])
        assert curvature_bloch(a, h, np.zeros(3)) == pytest.approx(4.0, abs=1e-13)
        for _ in range(20):
            a = RNG.normal(size=3)
            a /= np.linalg.norm(a)
            h = RNG.uniform(-2, 2, size=3)
            ah = float(a @ h)
            den = float(h @ h) - ah * ah
            if den < 1e-6:
                continue
            assert curvature_bloch(a, h, np.zeros(3)) == pytest.approx(
                4.0 * ah * ah / den, rel=1e-10
            )

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
    def test_agrees_with_closed_form_along_scenario(self, r):
        p = ScenarioParams(1.0, r)
        for t in np.linspace(0.0, math.pi / 2.0, 200, endpoint=False):
            s = two_parameter_field(p, float(t))
            a = np.asarray(analytic_bloch(p, float(t)))
            assert abs(
                curvature_bloch(a, s.h, s.h_dot) - curvature_closed(p, float(t))
            ) <= 1e-9

    def test_singular_when_state_aligned_with_field(self):
        with pytest.raises(SingularityError):
            curvature_bloch((0.0, 0.0, 1.0), (0.0, 0.0, 2.0), (0.1, 0.0, 0.0))

    def test_rejects_non_unit_bloch_vector(self):
        with pytest.raises(InvalidArgumentError):
            curvature_bloch((0.0, 0.0, 0.9), (1.0, 0.0, 0.0), np.zeros(3))

    def test_nonnegative_along_generic_drive(self):
        from blochcurve import integrate_bloch

        spec = CallableField(
            h=lambda t: (0.8 + 0.3 * math.sin(1.3 * t),
                         0.5 * math.cos(0.9 * t),
                         0.6 + 0.25 * math.sin(0.7 * t)),
            h_dot=lambda t: (0.39 * math.cos(1.3 * t),
                             -0.45 * math.sin(0.9 * t),
                             0.175 * math.cos(0.7 * t)),
        )
        grid = TimeGrid(0.0, 3.0, 600)
        rows = integrate_bloch(spec, (0.0, 0.0, 1.0), grid)
        for i in range(0, 601, 40):
            s = spec.sample(float(grid.times()[i]))
            assert curvature_bloch(rows[i], s.h, s.h_dot) >= 0.0


class TestCurvatureExpectation:
    def test_zero_for_great_circle_precession(self):
        # constant field orthogonal to the Bloch vector drives a geodesic
        spec = constant_field((0.8, 0.0, 0.0))
        val = curvature_expectation(spec, np.array([1.0, 0.0j]), 0.0)
        assert val <= 1e-10

    def test_stationary_field_keeps_only_kurtosis_terms(self):
        h = np.array([1.0, 0.0, 0.5])
        spec = constant_field(h)
        psi = state_from_angles(0.7, 0.3).vector()
        a = np.array([
            2.0 * (psi[0].conjugate() * psi[1]).real,
            2.0 * (psi[0].conjugate() * psi[1]).imag,
            abs(psi[0]) ** 2 - abs(psi[1]) ** 2,
        ])
        ah = float(a @ h)
        v = math.sqrt(float(h @ h) - ah * ah)
        dh = (pauli_compose(0.0, h) - ah * np.eye(2)) / v
        dh2 = dh @ dh
        kurtosis = (
            float(np.real(np.vdot(psi, dh2 @ dh2 @ psi)))
            - float(np.real(np.vdot(psi, dh2 @ psi))) ** 2
        )
        assert curvature_expectation(spec, psi, 0.5) == pytest.approx(
            kurtosis, abs=1e-9
        )

    def test_pinned_scenario_value(self):
        psi = analytic_state(P11, 0.3)
        assert curvature_expectation(SPEC11, psi, 0.3) == pytest.approx(
            2.340717947822836, abs=1e-12
        )

    def test_scalar_part_of_hamiltonian_drops_out(self):
        h = (0.9, 0.2, 0.4)
        psi = state_from_angles(1.1, -0.5).vector()
        bare = curvature_expectation(constant_field(h), psi, 0.0)
        shifted = curvature_expectation(constant_field(h, h0=5.0), psi, 0.0)
        assert bare == pytest.approx(shifted, abs=1e-8)

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidArgumentError):
            curvature_expectation(SPEC11, np.array([1.0, 1.0j]), 0.3)

    def test_singular_on_field_eigenstate(self):
        spec = constant_field((0.0, 0.0, 1.0))
        with pytest.raises(SingularityError):
            curvature_expectation(spec, np.array([1.0, 0.0j]), 0.0)

    def test_array_call_names_the_singular_time(self):
        # only the node at t = 1.0 holds the sigma_z eigenstate
        spec = constant_field((0.0, 0.0, 1.0))
        t = np.array([0.0, 0.5, 1.0, 1.5])
        psi = np.array([state_from_angles(th, 0.2).vector() for th in (0.4, 1.0, 0.0, 2.0)])
        with pytest.raises(SingularityError) as exc:
            curvature_expectation(spec, psi, t)
        assert exc.value.t == 1.0

    def test_stencil_derivative_feeds_the_route(self):
        # without an analytic h_dot the operator route runs on the stencil
        # rate and must still match the field-vector route on the exact one
        spec, psi0 = tilted_field_fixture()
        stencil_spec = dataclasses.replace(spec, h_dot=None)
        traj = integrate_schrodinger(spec, psi0, TimeGrid(0.0, 3.0, 600))
        for k in range(30, 600, 60):
            t = float(traj.times[k])
            s = spec.sample(t)
            via_bloch = curvature_bloch(traj.bloch[k], s.h, s.h_dot)
            via_expect = curvature_expectation(stencil_spec, traj.states[k], t)
            assert abs(via_expect - via_bloch) <= 1e-9 * max(1.0, abs(via_bloch))


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 50.0])
def test_three_curvature_routes_agree(r):
    p = ScenarioParams(1.0, r)
    spec = TwoParameterField(p)
    for t in (0.15, 0.45, 0.8, 1.2):
        closed = curvature_closed(p, t)
        s = two_parameter_field(p, t)
        a = np.asarray(analytic_bloch(p, t))
        via_bloch = curvature_bloch(a, s.h, s.h_dot)
        via_expect = curvature_expectation(spec, analytic_state(p, t), t)
        assert abs(via_bloch - closed) <= 1e-9
        assert abs(via_expect - closed) <= 1e-9 * max(1.0, 4.0 * r * r)


class TestSpeedEfficiency:
    def test_unity_along_builtin_drive(self):
        for t in np.linspace(0.0, 3.0, 31):
            s = two_parameter_field(P11, float(t))
            a = np.asarray(analytic_bloch(P11, float(t)))
            assert speed_efficiency(s.h0, s.h, a) == pytest.approx(1.0, abs=1e-12)

    def test_zero_when_state_aligned_with_field(self):
        assert speed_efficiency(0.0, (0.0, 0.0, 2.0), (0.0, 0.0, 1.0)) == 0.0

    def test_scalar_part_only_penalizes(self):
        h = (1.0, 0.5, 0.0)
        a = (0.0, 0.0, 1.0)
        assert speed_efficiency(1.0, h, a) < speed_efficiency(0.0, h, a)

    def test_bounded_on_random_inputs(self):
        for _ in range(200):
            a = RNG.normal(size=3)
            a /= np.linalg.norm(a)
            h = RNG.uniform(-3, 3, size=3)
            if float(h @ h) < 1e-8:
                continue
            val = speed_efficiency(float(RNG.uniform(-2, 2)), h, a)
            assert 0.0 <= val <= 1.0 + 1e-12

    def test_undefined_for_zero_hamiltonian(self):
        with pytest.raises(UndefinedEfficiencyError):
            speed_efficiency(0.0, (0.0, 0.0, 0.0), (0.0, 0.0, 1.0))


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
        traj = integrate_schrodinger(TwoParameterField(p), np.array([1.0, 0.0j]), grid)
        assert geodesic_efficiency_generic(traj) == pytest.approx(1.0, abs=1e-8)

    def test_matches_closed_form_over_first_quadrant(self):
        grid = TimeGrid(0.0, math.pi / 2.0, 1571)
        traj = integrate_schrodinger(SPEC11, np.array([1.0, 0.0j]), grid)
        assert geodesic_efficiency_generic(traj) == pytest.approx(
            geodesic_efficiency(P11), abs=1e-6
        )

    def test_never_exceeds_unity(self):
        spec = CallableField(
            h=lambda t: (0.6, 0.4 * math.sin(t), 0.8),
            h_dot=lambda t: (0.0, 0.4 * math.cos(t), 0.0),
        )
        traj = integrate_schrodinger(spec, np.array([1.0, 0.0j]), TimeGrid(0, 2, 2000))
        assert geodesic_efficiency_generic(traj) <= 1.0 + 1e-9

    def test_undefined_for_motionless_trajectory(self):
        spec = constant_field((0.0, 0.0, 0.0))
        traj = integrate_schrodinger(spec, np.array([1.0, 0.0j]), TimeGrid(0, 1, 100))
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
            assert abs(cols["kappa2_bloch"][k] - cols["kappa2_closed"][k]) <= 1e-9
            assert abs(cols["kappa2_expect"][k] - cols["kappa2_closed"][k]) <= 1e-4

    def test_arc_is_nondecreasing(self):
        ss = scenario_records(P11, TimeGrid(0.0, 2.0, 50))["arc_length"]
        assert np.all(np.diff(ss) >= 0.0)


P_GENERIC = ScenarioParams(0.7, 1.3)


def _field_pair(t):
    s = two_parameter_field(P_GENERIC, t)
    return np.concatenate([s.h, s.h_dot], axis=-1)


def _bloch_route(t):
    s = two_parameter_field(P_GENERIC, t)
    return curvature_bloch(analytic_bloch(P_GENERIC, t), s.h, s.h_dot)


def _efficiency(t):
    s = two_parameter_field(P_GENERIC, t)
    # a scalar part and a tilted state make every term of the formula count
    return speed_efficiency(s.h0 + 0.3, s.h, analytic_bloch(ScenarioParams(1.1, 0.4), t))


def _summary_row(nu0):
    # every field of the summary, one row per drive strength
    summary = extrema_summary(ScenarioParams(0.7, nu0))
    return np.stack(np.broadcast_arrays(*dataclasses.astuple(summary)), axis=-1)


ARRAY_VALUED = {
    "two_parameter_field": _field_pair,
    "parallel_transverse_ratio": lambda t: parallel_transverse_ratio(P_GENERIC, t),
    "h_parallel_sq": lambda t: h_parallel_sq(P_GENERIC, t),
    "h_transverse_sq": lambda t: h_transverse_sq(P_GENERIC, t),
    "speed": lambda t: speed(P_GENERIC, t),
    "acceleration": lambda t: acceleration(P_GENERIC, t),
    "curvature_closed": lambda t: curvature_closed(P_GENERIC, t),
    "curvature_bloch": _bloch_route,
    "curvature_expectation": lambda t: curvature_expectation(
        TwoParameterField(P_GENERIC), analytic_state(P_GENERIC, t), t
    ),
    "speed_efficiency": _efficiency,
    "transport_phase_closed": lambda t: transport_phase_closed(P_GENERIC, t),
    "analytic_state": lambda t: analytic_state(P_GENERIC, t),
    "analytic_state_derivative": lambda t: analytic_state_derivative(P_GENERIC, t),
    "analytic_bloch": lambda t: analytic_bloch(P_GENERIC, t),
    "pauli_compose": lambda t: pauli_compose(0.5 * t, two_parameter_field(P_GENERIC, t).h),
    "arc_length_closed": lambda t: arc_length_closed(P_GENERIC, t),
    "elliptic_e": lambda t: elliptic_e(1.0 - t),
    "extrema_summary": _summary_row,
    "geodesic_efficiency": lambda t: geodesic_efficiency(ScenarioParams(0.7, t)),
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


class TestClipFloor:
    def test_passthrough_and_clip(self):
        assert _clip_nonneg(2.0, KAPPA2_CLIP_FLOOR) == 2.0
        assert _clip_nonneg(0.0, KAPPA2_CLIP_FLOOR) == 0.0
        assert _clip_nonneg(-5e-10, KAPPA2_CLIP_FLOOR) == 0.0
        clipped = _clip_nonneg(np.array([2.0, -5e-10, 0.0]), KAPPA2_CLIP_FLOOR)
        assert clipped.tolist() == [2.0, 0.0, 0.0]

    def test_raises_beyond_floor(self):
        # NaN is no round-off: it must raise, never clip to 0
        for value in (-1e-6, math.nan, np.array([1.0, math.nan, 0.5])):
            with pytest.raises(NumericalConsistencyError):
                _clip_nonneg(value, KAPPA2_CLIP_FLOOR)
