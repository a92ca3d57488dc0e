import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

import blochcurve.dynamics as dynamics_mod
import blochcurve.fields as fields_mod
import blochcurve.geometry as geometry_mod
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
    DEFAULT_TOLERANCES,
    _check_extrema,
    _gauss_legendre,
    _legendre_e,
    _refined_extrema,
    merge_tolerances,
    tilted_field_fixture,
)
from mutants import (
    MIDPOINT_NODES,
    corrupted_field,
    flip_h_y,
    no_hdot_term,
    scale_h_dot_z,
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
        names = {r.name for r in results}
        assert names == set(DEFAULT_TOLERANCES)
        bad = [r.name for r in results if not r.passed]
        assert bad == []
        for r in results:
            assert r.residual <= r.tolerance

    @pytest.mark.parametrize("omega0, nu0", [(1e-4, 1.0), (1e-3, 10.0)])
    def test_passes_at_large_curvature(self, omega0, nu0):
        # kappa2_max = 4e8: the operator route's imaginary residue scales with it
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

    def test_midpoint_nodes_fail_only_the_order_check(self, monkeypatch):
        # the exponential midpoint rule is unitary and accurate enough at
        # dt = 1e-3 for every other check; only its order (2, not 4) shows
        monkeypatch.setattr(dynamics_mod, "_STEP_POINTS", MIDPOINT_NODES)
        results = run_battery(P11, TimeGrid(0.0, 2.0 * math.pi, 6283))
        assert [r.name for r in results if not r.passed] == ["integrator_order"]
        assert by_name(results)["integrator_order"].residual == pytest.approx(2.0, abs=0.01)

    def test_tightened_tolerance_fails_the_one_check(self):
        results = run_battery(P11, TimeGrid(0.0, math.pi, 300),
                              {"bloch_supnorm": 1e-30})
        res = by_name(results)
        assert not res["bloch_supnorm"].passed
        assert res["elliptic"].passed

    def test_flipped_field_component_is_caught(self, monkeypatch):
        # each mutant corrupts the built-in field and names the checks that
        # must notice; both curvature routes consume h_dot, so a rate-only
        # corruption must trip the stencil and the closed-form route
        mutants = [
            (flip_h_y, ("route_agreement", "orthogonality", "eta_se")),
            (scale_h_dot_z, ("field_derivative", "route_agreement")),
        ]
        grid = TimeGrid(0.0, math.pi, 300)
        for mutate, caught in mutants:
            corrupted = corrupted_field(mutate)
            # a grid sample is corrupted at every node exactly as one-node
            # samples are, not in a single row
            whole = corrupted(P11, grid.times())
            nodes = [corrupted(P11, t) for t in grid.times().tolist()]
            assert np.array_equal(whole.h, [s.h for s in nodes]), mutate.__name__
            assert np.array_equal(whole.h_dot, [s.h_dot for s in nodes]), mutate.__name__
            monkeypatch.setattr(fields_mod, "two_parameter_field", corrupted)
            res = by_name(run_battery(P11, grid))
            for name in caught:
                assert not res[name].passed, (mutate.__name__, name)
            for name in ("elliptic", "decomposition", "extrema_value"):
                assert res[name].passed, (mutate.__name__, name)
            monkeypatch.undo()

    def test_dropped_curvature_term_is_caught_off_the_special_path(self, monkeypatch):
        # without the chirality term both routes still agree along the
        # built-in drive (a.h = 0 kills it); only the general-position
        # fixture can expose the loss
        monkeypatch.setattr(geometry_mod, "curvature_bloch", two_terms_only)
        res = by_name(run_battery(P11, TimeGrid(0.0, math.pi, 300)))
        assert res["route_agreement"].passed
        assert not res["route_agreement_general"].passed

    @pytest.mark.parametrize("grid, midpoint_caught", [
        (TimeGrid(0.0, 2.0 * math.pi, 6283), ["integrator_order"]),
        (TimeGrid(0.0, math.pi, 300), ["bloch_supnorm", "integrator_order"]),
    ], ids=["defaults", "300 steps"])
    def test_curvature_mutant_kill_sets(self, monkeypatch, grid, midpoint_caught):
        # each mutant and the exact set of checks it fails; the chirality
        # term vanishes along the built-in drive, the h_dot term carries all
        # of its curvature, and the 2nd-order midpoint rule shows in the
        # order check (and in the Bloch rows once dt is coarse)
        kill_sets = [
            (geometry_mod, "curvature_bloch", two_terms_only, ["route_agreement_general"]),
            (geometry_mod, "curvature_bloch", no_hdot_term,
             ["route_agreement", "route_agreement_general"]),
            (dynamics_mod, "_STEP_POINTS", MIDPOINT_NODES, midpoint_caught),
            (fields_mod, "two_parameter_field", corrupted_field(flip_h_y),
             ["route_agreement", "route_agreement_expect", "fidelity", "bloch_supnorm",
              "orthogonality", "eta_se", "synthesis", "arc_agreement"]),
            (fields_mod, "two_parameter_field", corrupted_field(scale_h_dot_z),
             ["field_derivative", "route_agreement", "route_agreement_expect",
              "orthogonality"]),
        ]
        for module, name, mutant, caught in kill_sets:
            with monkeypatch.context() as m:
                m.setattr(module, name, mutant)
                results = run_battery(P11, grid)
            assert [r.name for r in results if not r.passed] == caught, (name, caught)

    def test_one_propagator_scan_per_battery(self, monkeypatch):
        # the scenario is integrated once, and its trajectory carries the
        # Bloch rows; the tilted fixture once, on the finest order grid,
        # then the two coarser order grids
        lengths = []
        original = dynamics_mod._propagators

        def recording(spec, times, dt):
            lengths.append(len(times))
            return original(spec, times, dt)

        monkeypatch.setattr(dynamics_mod, "_propagators", recording)
        run_battery(P11, TimeGrid(0.0, 2.0 * math.pi, 6283))
        assert lengths == [6284, 401, 101, 201]

    def test_raising_check_reports_failure_instead_of_crashing(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(geometry_mod, "curvature_bloch", broken)
        res = by_name(run_battery(P11, TimeGrid(0.0, math.pi, 300)))
        assert not res["route_agreement"].passed
        assert math.isinf(res["route_agreement"].residual)


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
        results = by_name(_check_extrema(SimpleNamespace(params=params), merge_tolerances(None)))
        acc = results["acc_at_extrema"]
        assert acc.passed, acc
        assert acc.residual <= 1e-15
        assert "1.960e+08" in acc.detail

    def test_times_compare_modulo_the_period(self, monkeypatch):
        original = geometry_mod.extrema_summary

        def at_period(params):
            ext = original(params)
            return dataclasses.replace(ext, t_vmin=ext.period, t_k2max=ext.period)

        monkeypatch.setattr(geometry_mod, "extrema_summary", at_period)
        res = by_name(run_battery(P11, TimeGrid(0.0, math.pi, 300)))
        assert res["extrema_time"].residual <= 1e-8

    def test_mutant_kill_set(self, monkeypatch):
        # each mutant and the exact set of checks it fails
        def scaled(module, name, factor):
            original = getattr(module, name)
            return module, name, lambda params, t: factor * original(params, t)

        def late_acc_max():
            original = geometry_mod.extrema_summary

            def shifted(params):
                ext = original(params)
                return dataclasses.replace(ext, t_accmax=ext.t_accmax + 1e-5 * ext.period)

            return geometry_mod, "extrema_summary", shifted

        kill_set = [
            (scaled(geometry_mod, "acceleration", 1.01), ["extrema_value"]),
            (scaled(fields_mod, "parallel_transverse_ratio", 1.01), ["extrema_value"]),
            # passed the former absolute 1e-6 value tolerance
            (scaled(geometry_mod, "acceleration", 1.0 + 1e-7), ["extrema_value"]),
            (scaled(fields_mod, "parallel_transverse_ratio", 1.0 + 1e-7), ["extrema_value"]),
            # passed the former 1e-4 time tolerance
            (late_acc_max(), ["extrema_time"]),
        ]
        for (module, name, mutant), caught in kill_set:
            with monkeypatch.context() as m:
                m.setattr(module, name, mutant)
                results = run_battery(P11, TimeGrid(0.0, math.pi, 300))
            assert [r.name for r in results if not r.passed] == caught, name
