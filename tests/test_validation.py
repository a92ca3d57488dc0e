import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

import blochcurve.dynamics as dynamics_mod
import blochcurve.fields as fields_mod
import blochcurve.geometry as geometry_mod
import blochcurve.special_functions as special_functions_mod
import blochcurve.validation as validation_mod
from blochcurve import (
    InvalidArgumentError,
    ScenarioParams,
    TimeGrid,
    bloch_vector,
    run_battery,
)
from blochcurve.validation import (
    _ELLIPTIC_M,
    _ELLIPTIC_PHI,
    _CHECKS,
    DEFAULT_TOLERANCES,
    _check_acc_at_extrema,
    _gauss_legendre,
    _legendre_e,
    _refined_extrema,
    merge_tolerances,
    tilted_field_fixture,
)
from mutants import (
    MIDPOINT_NODES,
    component,
    corrupted_field,
    corrupted_fixture,
    late_acc_max,
    no_hdot_term,
    off_axis_quaternions,
    off_gauge_derivative,
    operator_route,
    patch_everywhere,
    scaled,
    synthesized_h_z,
    two_terms_only,
)
from reference_quadrature import adaptive_simpson

P11 = ScenarioParams(1.0, 1.0)
GRID = TimeGrid(0.0, math.pi, 500)


def by_name(results):
    return {r.name: r for r in results}


class TestMergeTolerances:
    def test_defaults_pass_through(self):
        merged = merge_tolerances()
        assert merged == DEFAULT_TOLERANCES
        assert merged is not DEFAULT_TOLERANCES

    def test_override_applied(self):
        merged = merge_tolerances({"fidelity": 1e-3})
        assert merged["fidelity"] == 1e-3
        assert merged["elliptic"] == DEFAULT_TOLERANCES["elliptic"]

    def test_unknown_name_rejected_with_catalog(self):
        with pytest.raises(InvalidArgumentError, match="route_agreement"):
            merge_tolerances({"bogus": 1.0})

    def test_nonpositive_value_rejected(self):
        with pytest.raises(InvalidArgumentError):
            merge_tolerances({"fidelity": 0.0})


class TestTiltedFixture:
    def test_state_is_normalized_and_field_is_generic(self):
        spec, psi0 = tilted_field_fixture()
        assert abs(float(np.linalg.norm(psi0)) - 1.0) <= 1e-12
        s = spec.sample(0.0)
        assert s.h0 != 0.0
        assert abs(float(bloch_vector(psi0) @ s.h)) > 1e-3

    def test_supplied_derivative_matches_stencil(self):
        spec, _ = tilted_field_fixture()
        d = 1e-4
        t = 0.8
        stencil = (
            np.asarray(spec.h(t - 2 * d)) - 8.0 * np.asarray(spec.h(t - d))
            + 8.0 * np.asarray(spec.h(t + d)) - np.asarray(spec.h(t + 2 * d))
        ) / (12.0 * d)
        assert np.max(np.abs(spec.sample(t).h_dot - stencil)) <= 1e-8


def test_gauss_legendre_rule_matches_numpy():
    x, w = _gauss_legendre(16)
    ref_x, ref_w = np.polynomial.legendre.leggauss(16)
    assert np.max(np.abs(x - ref_x)) <= 1e-15
    assert np.max(np.abs(w - ref_w)) <= 1e-15


def test_gauss_legendre_reference_matches_adaptive_simpson():
    # the battery's one-shot Legendre-form reference against the adaptive rule
    ref = _legendre_e(_ELLIPTIC_PHI, _ELLIPTIC_M)
    assert ref.shape == (9,)
    for value, phi, m in zip(ref, _ELLIPTIC_PHI, _ELLIPTIC_M):
        quad = adaptive_simpson(
            lambda th: math.sqrt(1.0 - m * math.sin(th) ** 2), 0.0, float(phi), tol=1e-12)
        assert abs(value - quad.value) <= 1e-13, (phi, m)


class TestBattery:
    def test_clean_run_passes_everything(self):
        results = run_battery(P11, GRID)
        assert [r.name for r in results] == list(DEFAULT_TOLERANCES)
        assert list(DEFAULT_TOLERANCES) == [name for name, _ in _CHECKS]
        bad = [r.name for r in results if not r.passed]
        assert bad == []
        for r in results:
            assert r.residual <= r.tolerance

    def test_every_check_function_has_a_tolerance(self):
        # name N runs _check_N: a _check_ function without a DEFAULT_TOLERANCES
        # entry would never run (a name without a function fails the import)
        functions = {name[len("_check_"):] for name, value in vars(validation_mod).items()
                     if name.startswith("_check_") and callable(value)}
        assert functions == set(DEFAULT_TOLERANCES)

    @pytest.mark.parametrize("omega0, nu0", [(1e-4, 1.0), (1e-3, 10.0)])
    def test_passes_at_large_curvature(self, omega0, nu0):
        # kappa2_max = 4e8: the route-agreement residuals are relative to it
        results = run_battery(ScenarioParams(omega0, nu0), TimeGrid(0.0, 2.0 * math.pi, 2000))
        assert [r.name for r in results if not r.passed] == []

    @pytest.mark.parametrize("omega0, nu0", [(1.0, 200.0), (100.0, 100.0), (1.0, 1000.0)])
    def test_passes_at_fast_drive(self, omega0, nu0):
        # the stencil step scales with the fastest rate 4*omega0 + nu0; a fixed
        # 1e-4 fails field_derivative at all three
        results = run_battery(ScenarioParams(omega0, nu0), TimeGrid(0.0, 2.0 * math.pi, 62830))
        assert [r.name for r in results if not r.passed] == []

    def test_strong_drive_passes_everything(self):
        # at nu0 = 50 the stencil residual is relative to max|h_dot| = 626,
        # and the Magnus steps keep bloch_supnorm near 5e-8
        results = run_battery(ScenarioParams(1.0, 50.0), TimeGrid(0.0, 2.0 * math.pi, 6283))
        assert [r.name for r in results if not r.passed] == []
        assert by_name(results)["field_derivative"].residual <= 1e-10

    def test_midpoint_nodes_fail_only_the_order_sensitive_checks(self, monkeypatch):
        # the exponential midpoint rule is 2nd order (its kill set is in KILL_MATRIX)
        patch_everywhere(monkeypatch, dynamics_mod, "_STEP_POINTS", MIDPOINT_NODES)
        results = run_battery(P11, TimeGrid(0.0, 2.0 * math.pi, 6283))
        assert by_name(results)["integrator_order"].residual == pytest.approx(2.0, abs=0.01)

    def test_consistency_identity_sees_the_rotation_axis(self, monkeypatch):
        # d/dt(a·h) = a·h_dot holds because a step turns a about h; the check
        # differentiates the integrated rows, so steps about an axis turned
        # 1e-3 rad off h show as ȧ·h ≠ 0 (its kill set is in KILL_MATRIX)
        patch_everywhere(monkeypatch, dynamics_mod, "_quaternions", off_axis_quaternions(1e-3))
        results = run_battery(P11, GRID)
        assert by_name(results)["consistency_identity"].residual >= 1e-4

    def test_tightened_tolerance_fails_the_one_check(self):
        results = run_battery(P11, TimeGrid(0.0, math.pi, 300),
                              {"bloch_supnorm": 1e-30})
        res = by_name(results)
        assert not res["bloch_supnorm"].passed
        assert res["elliptic"].passed

    def test_one_propagator_scan_per_battery(self, monkeypatch):
        # the scenario is integrated once, and its trajectory carries the
        # Bloch rows; the tilted fixture once, on the finest order grid,
        # then the two coarser order grids
        lengths = []
        original = dynamics_mod._propagators

        def recording(field, times, dt):
            lengths.append(len(times))
            return original(field, times, dt)

        monkeypatch.setattr(dynamics_mod, "_propagators", recording)
        run_battery(P11, TimeGrid(0.0, 2.0 * math.pi, 6283))
        assert lengths == [6284, 401, 101, 201]

    def test_nothing_sampled_twice_per_battery(self, monkeypatch):
        # the scenario's field is sampled once on the nodes, by the
        # integrator, and the checks read the trajectory's sample; the tilted
        # field twice per integration (its Magnus steps, its nodes) on three
        # grids, and its checks read the 400-step trajectory's sample
        calls = {"grid": 0, "callable": 0}
        field = fields_mod.two_parameter_field
        sample = fields_mod.CallableField.sample

        def field_recording(params, t):
            calls["grid"] += np.shape(t) == (6284,)
            return field(params, t)

        def sample_recording(self, t):
            calls["callable"] += 1
            return sample(self, t)

        patch_everywhere(monkeypatch, fields_mod, "two_parameter_field", field_recording)
        monkeypatch.setattr(fields_mod.CallableField, "sample", sample_recording)
        run_battery(P11, TimeGrid(0.0, 2.0 * math.pi, 6283))
        assert calls == {"grid": 1, "callable": 6}

    def test_shared_artifacts_are_computed_once_per_battery(self, monkeypatch):
        # three checks read the extrema summary, two the refined extrema and
        # two the synthesized Hamiltonian; each is computed once, and each of
        # the four observables is refined once
        calls = {"summary": 0, "refined": [], "synthesis": 0}
        summary = geometry_mod.extrema_summary
        refined = validation_mod._refined_extrema
        synthesize = dynamics_mod.synthesize_hamiltonian

        def summary_recording(params):
            calls["summary"] += 1
            return summary(params)

        def refined_recording(params, f, locate=None):
            calls["refined"].append(f.__name__)
            return refined(params, f, locate)

        def synthesize_recording(m, m_dot):
            calls["synthesis"] += 1
            return synthesize(m, m_dot)

        monkeypatch.setattr(geometry_mod, "extrema_summary", summary_recording)
        monkeypatch.setattr(validation_mod, "_refined_extrema", refined_recording)
        monkeypatch.setattr(dynamics_mod, "synthesize_hamiltonian", synthesize_recording)
        run_battery(P11, TimeGrid(0.0, math.pi, 300))
        assert calls == {"summary": 1, "synthesis": 1,
                         "refined": ["speed", "acceleration", "curvature_closed",
                                     "parallel_transverse_ratio"]}

    def test_raising_check_reports_failure_instead_of_crashing(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(geometry_mod, "curvature_bloch", broken)
        res = by_name(run_battery(P11, TimeGrid(0.0, math.pi, 300)))
        assert not res["route_agreement"].passed
        assert math.isinf(res["route_agreement"].residual)

    def test_raising_extrema_summary_fails_exactly_its_three_names(self, monkeypatch):
        # every extrema check reads the summary; none may take another's name along
        def broken(params):
            raise RuntimeError("boom")

        monkeypatch.setattr(geometry_mod, "extrema_summary", broken)
        results = run_battery(P11, TimeGrid(0.0, math.pi, 300))
        assert [r.name for r in results] == list(DEFAULT_TOLERANCES)
        failed = [r for r in results if not r.passed]
        assert [r.name for r in failed] == ["extrema_value", "extrema_time", "acc_at_extrema"]
        for r in failed:
            assert math.isinf(r.residual)
            assert r.detail == "check raised RuntimeError: boom"

    def test_raising_synthesis_fails_exactly_its_three_names(self, monkeypatch):
        # synthesis, synthesis_trace and decomposition all read the one
        # synthesized pair; no other check may take their names along
        def broken(m, m_dot):
            raise RuntimeError("boom")

        monkeypatch.setattr(dynamics_mod, "synthesize_hamiltonian", broken)
        results = run_battery(P11, TimeGrid(0.0, math.pi, 300))
        assert [r.name for r in results] == list(DEFAULT_TOLERANCES)
        failed = [r for r in results if not r.passed]
        assert [r.name for r in failed] == ["decomposition", "synthesis", "synthesis_trace"]
        for r in failed:
            assert math.isinf(r.residual)
            assert r.detail == "check raised RuntimeError: boom"

    def test_a_tolerance_governs_only_its_own_name(self):
        # at nu0 = 1e-7 the curvature is flat to round-off; the flatness
        # cut of the time check does not read the value tolerance
        params = ScenarioParams(1.0, 1e-7)
        default = run_battery(params, GRID)
        tightened = run_battery(params, GRID, {"extrema_value": 1e-30})
        assert [r.name for r in tightened] == [r.name for r in default]
        assert ([(r.name, r.passed) for r in tightened if r.name != "extrema_value"]
                == [(r.name, r.passed) for r in default if r.name != "extrema_value"])


class TestExtrema:
    @pytest.mark.parametrize("omega0, nu0", [
        (1.0, 0.3), (1.0, 1.0), (1.0, 50.0), (3.0, 1.0),
        # v's top is flat to round-off over ~2e-6 of a period here; only
        # locating it by the zero of acc keeps its time inside 1e-6
        (1.0, 5e-3),
    ])
    def test_refined_extrema_match_closed_forms(self, omega0, nu0):
        params = ScenarioParams(omega0, nu0)
        ext = geometry_mod.extrema_summary(params)
        period = ext.period
        cases = [
            (geometry_mod.speed, geometry_mod.acceleration,
             (ext.v_max, ext.v_min), (ext.t_vmax, ext.t_vmin)),
            (geometry_mod.acceleration, None,
             (ext.acc_max, ext.acc_min), (ext.t_accmax, ext.t_accmin)),
            (geometry_mod.curvature_closed, None,
             (ext.kappa2_max, ext.kappa2_min), (ext.t_k2max, ext.t_k2min)),
            (fields_mod.parallel_transverse_ratio, None, (ext.ratio_max, ext.ratio_min), None),
        ]
        for f, locate, values, times in cases:
            t, y = _refined_extrema(params, f, locate)
            assert np.all(np.abs(y - values) <= 1e-13 * max(1.0, ext.kappa2_max)), f.__name__
            if times is not None:
                lag = (t - times) % period
                assert np.all(np.minimum(lag, period - lag) <= 1e-7 * period), f.__name__

        # kappa2_max sits at t = 0; its window reaches below 0, and a time a
        # hair under 0 (or a closed time of T) is the same extremum
        t, _ = _refined_extrema(params, geometry_mod.curvature_closed)
        assert -1e-7 * period <= t[0] <= 1e-7 * period

    def test_acc_at_extrema_is_relative_to_the_acc_range(self):
        # acc_max - acc_min = 1.96e8 here: |acc| = 6.1e-9 at the curvature
        # extremum times is round-off, not a misplaced extremum
        params = ScenarioParams(1e3, 1e5)
        ctx = SimpleNamespace(params=params, summary=geometry_mod.extrema_summary(params))
        residual, detail = _check_acc_at_extrema(ctx)
        assert residual <= DEFAULT_TOLERANCES["acc_at_extrema"], (residual, detail)
        assert residual <= 1e-15
        assert "1.960e+08" in detail

    def test_times_compare_modulo_the_period(self, monkeypatch):
        original = geometry_mod.extrema_summary

        def at_period(params):
            ext = original(params)
            return dataclasses.replace(ext, t_vmin=ext.period, t_k2max=ext.period)

        monkeypatch.setattr(geometry_mod, "extrema_summary", at_period)
        res = by_name(run_battery(P11, TimeGrid(0.0, math.pi, 300)))
        assert res["extrema_time"].residual <= 1e-8


def test_corrupted_field_mutates_every_node_alike():
    # a grid sample is corrupted at every node exactly as one-node samples
    # are, not in a single row
    grid = TimeGrid(0.0, math.pi, 300)
    for mutate in (component(1, h=-1.0, h_dot=-1.0), component(2, h_dot=1.01)):
        corrupted = corrupted_field(mutate)
        whole = corrupted(P11, grid.times())
        nodes = [corrupted(P11, t) for t in grid.times().tolist()]
        assert np.array_equal(whole.h, [s.h for s in nodes])
        assert np.array_equal(whole.h_dot, [s.h_dot for s in nodes])


# The battery's mutation contract. Each row is a mutant, the library object it
# replaces (through ``patch_everywhere``, so every binding of it) and the exact
# checks it fails, in report order, at both grids; a dict where the grids
# differ. Weaker detection shows up as a diff of this table.
KILL_GRIDS = {
    "defaults": TimeGrid(0.0, 2.0 * math.pi, 6283),
    "300 steps": TimeGrid(0.0, math.pi, 300),
}
H_FLIP = ["field_derivative", "route_agreement", "route_agreement_expect", "fidelity",
          "bloch_supnorm", "orthogonality", "eta_se", "synthesis", "arc_agreement"]
H_SCALE = ["field_derivative", "route_agreement", "route_agreement_expect", "bloch_supnorm",
           "orthogonality", "arc_agreement"]
RATE = ["field_derivative", "route_agreement", "route_agreement_expect", "orthogonality"]


def _field(mutate):
    return fields_mod, "two_parameter_field", corrupted_field(mutate)


def _times(module, name, factor):
    return module, name, scaled(getattr(module, name), factor)


KILL_MATRIX = [
    # the chirality term vanishes along the built-in drive (a·h = 0), so only
    # the tilted fixture sees it dropped; the h_dot term carries all of the
    # built-in drive's curvature
    ("curvature_bloch-two_terms_only", (geometry_mod, "curvature_bloch", two_terms_only),
     ["route_agreement_general"]),
    ("curvature_bloch-no_hdot_term", (geometry_mod, "curvature_bloch", no_hdot_term),
     ["route_agreement", "route_agreement_general"]),
    # along the built-in drive ⟨H⟩ = 0 makes Δh²ψ = ψ, which the projection
    # removes, so only the tilted field sees the operator route drop it
    ("operator_route-dh2", (geometry_mod, "_expectation_block", operator_route("dh2")),
     ["route_agreement_general"]),
    ("operator_route-projection",
     (geometry_mod, "_expectation_block", operator_route("projection")),
     ["route_agreement_expect", "route_agreement_general"]),
    ("operator_route-v_dot", (geometry_mod, "_expectation_block", operator_route("v_dot")),
     ["route_agreement_expect", "route_agreement_general"]),
    # the 2nd-order midpoint rule shows in the order check and the tilted
    # rows' a·h, and in the Bloch rows once dt is coarse
    ("midpoint_rule", (dynamics_mod, "_STEP_POINTS", MIDPOINT_NODES),
     {"defaults": ["consistency_identity", "integrator_order"],
      "300 steps": ["consistency_identity", "bloch_supnorm", "integrator_order"]}),
    # steps about an axis 1e-3 rad off h break d/dt(a·h) = a·h_dot
    ("quaternions-off_axis", (dynamics_mod, "_quaternions", off_axis_quaternions(1e-3)),
     {"defaults": ["consistency_identity", "bloch_supnorm", "arc_agreement"],
      "300 steps": ["consistency_identity", "bloch_supnorm"]}),
    # a field component and its rate flipped together leave the stencil right
    ("field-flip_h_y_and_h_dot_y", _field(component(1, h=-1.0, h_dot=-1.0)),
     ["route_agreement", "route_agreement_expect", "fidelity", "bloch_supnorm",
      "orthogonality", "eta_se", "synthesis", "arc_agreement"]),
    ("field-h_dot_z*1.01", _field(component(2, h_dot=1.01)), RATE),
    ("tilted_fixture-h_dot_z*1.01",
     (validation_mod, "tilted_field_fixture", corrupted_fixture(component(2, h_dot=1.01))),
     ["consistency_identity"]),
    # each of the six components alone, sign-flipped and 1e-6 too large; the
    # drift that h_z's error puts into the Bloch rows passes bloch_supnorm's
    # 1e-6 only over the longer window
    *[(f"field-flip_h_{c}", _field(component(k, h=-1.0)), H_FLIP) for k, c in enumerate("xyz")],
    ("field-h_x*(1+1e-6)", _field(component(0, h=1.0 + 1e-6)), H_SCALE),
    ("field-h_y*(1+1e-6)", _field(component(1, h=1.0 + 1e-6)), H_SCALE),
    ("field-h_z*(1+1e-6)", _field(component(2, h=1.0 + 1e-6)),
     {"defaults": ["field_derivative", "route_agreement", "route_agreement_expect",
                   "bloch_supnorm", "orthogonality"],
      "300 steps": RATE}),
    *[(f"field-flip_h_dot_{c}", _field(component(k, h_dot=-1.0)), RATE)
      for k, c in enumerate("xyz")],
    *[(f"field-h_dot_{c}*(1+1e-6)", _field(component(k, h_dot=1.0 + 1e-6)), RATE)
      for k, c in enumerate("xyz")],
    # the closed forms, each 1% off
    *[(f"{name}*1.01", _times(module, name, 1.01), caught) for module, name, caught in [
        (geometry_mod, "speed", ["extrema_value"]),
        (geometry_mod, "acceleration", ["extrema_value"]),
        (fields_mod, "parallel_transverse_ratio", ["extrema_value"]),
        (geometry_mod, "curvature_closed",
         ["route_agreement", "route_agreement_expect", "extrema_value"]),
        (geometry_mod, "speed_efficiency", ["eta_se"]),
        (dynamics_mod, "arc_length_closed", ["arc_agreement"]),
        (dynamics_mod, "analytic_bloch", ["route_agreement", "bloch_supnorm", "eta_se"]),
        (special_functions_mod, "elliptic_e", ["elliptic", "arc_agreement"]),
        (special_functions_mod, "elliptic_e_incomplete", ["elliptic", "arc_agreement"]),
        # gaps (ROADMAP item 2): no check compares η_GE or the transport
        # phase with a trajectory yet
        (geometry_mod, "geodesic_efficiency", []),
        (dynamics_mod, "transport_phase_closed", []),
    ]],
    # offsets below an absolute 1e-6 value and a 1e-4 time tolerance, which
    # the extrema checks must not loosen back to
    ("acceleration*(1+1e-7)", _times(geometry_mod, "acceleration", 1.0 + 1e-7),
     ["extrema_value"]),
    ("parallel_transverse_ratio*(1+1e-7)",
     _times(fields_mod, "parallel_transverse_ratio", 1.0 + 1e-7), ["extrema_value"]),
    ("extrema_summary-late_t_accmax", (geometry_mod, "extrema_summary", late_acc_max(1e-5)),
     ["extrema_time"]),
    # synthesis holds h to 1e-6 absolute: a synthesized h_z 1e-6 too large
    # passes it and fails only the Pauli-action round trip
    ("synthesize_hamiltonian-h_z*(1+1e-6)",
     (dynamics_mod, "synthesize_hamiltonian", synthesized_h_z(1.0 + 1e-6)), ["decomposition"]),
    # ṁ + 1e-9·i·m stays inside the 1e-8 transport gauge and synthesis's
    # 1e-6, but gives H a trace 2e-9
    ("analytic_state_derivative+1e-9i*m",
     (dynamics_mod, "analytic_state_derivative", off_gauge_derivative(1e-9)),
     ["synthesis_trace"]),
]


@pytest.mark.parametrize("grid_id", KILL_GRIDS)
@pytest.mark.parametrize("target, caught", [pytest.param(t, c, id=i) for i, t, c in KILL_MATRIX])
def test_kill_matrix(monkeypatch, target, caught, grid_id):
    patch_everywhere(monkeypatch, *target)
    failed = [r.name for r in run_battery(P11, KILL_GRIDS[grid_id]) if not r.passed]
    assert failed == (caught[grid_id] if isinstance(caught, dict) else caught)
