"""Acceptance gate: twelve end-to-end checks, one printed line each.

Every test prints ``acceptance NN PASS|FAIL`` on the real terminal (bypassing
capture) so a full run always shows the complete scoreboard.
"""

import math
import time
from functools import partial

import numpy as np
import pytest

import blochcurve.fields as fields_mod
import blochcurve.geometry as geometry_mod
from blochcurve import (
    ScenarioParams,
    TimeGrid,
    acceleration,
    analytic_bloch,
    analytic_state,
    analytic_state_derivative,
    curvature_bloch,
    curvature_closed,
    curvature_expectation,
    elliptic_e,
    extrema_summary,
    fidelity,
    geodesic_efficiency,
    integrate_schrodinger,
    parallel_transverse_ratio,
    speed,
    speed_efficiency,
    synthesize_hamiltonian,
    two_parameter_field,
)
from blochcurve.cli import main as cli_main
from mutants import component, corrupted_field, two_terms_only
from reference_quadrature import adaptive_simpson
from reference_qubit import pauli_matrix

P11 = ScenarioParams(1.0, 1.0)
FIELD11 = partial(two_parameter_field, P11)
TWO_PI = 2.0 * math.pi


def emit(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"acceptance {num:02d} {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"acceptance {num:02d}: {detail}"


def checked(capsys, num, detail_fn):
    """Run detail_fn() -> (ok, detail); print the scoreboard line either way."""
    try:
        ok, detail = detail_fn()
    except Exception as exc:
        with capsys.disabled():
            print(f"acceptance {num:02d} FAIL  raised {exc!r}")
        raise
    emit(capsys, num, ok, detail)


@pytest.fixture(scope="module")
def node_grid():
    return np.linspace(0.0, TWO_PI, 2000)


def test_criterion_01_curvature_maximum(capsys):
    def body():
        worst = max(
            abs(curvature_closed(ScenarioParams(1.0, n), 0.0) - 4.0 * n * n)
            for n in (0.5, 1.0, 2.0)
        )
        return worst <= 1e-9, f"peak curvature 4r^2 at t=0, residual {worst:.2e}"

    checked(capsys, 1, body)


def test_criterion_02_curvature_minimum(capsys):
    def body():
        worst = max(
            abs(curvature_closed(ScenarioParams(1.0, n), math.pi / 4.0))
            for n in (0.5, 1.0, 2.0)
        )
        return worst <= 1e-9, f"zero curvature at quarter period, residual {worst:.2e}"

    checked(capsys, 2, body)


def test_criterion_03_three_routes_agree(capsys, node_grid):
    def body():
        start = time.monotonic()
        worst_bloch = 0.0
        worst_expect = 0.0
        for t in node_grid:
            t = float(t)
            closed = curvature_closed(P11, t)
            s = two_parameter_field(P11, t)
            a = np.asarray(analytic_bloch(P11, t))
            worst_bloch = max(worst_bloch,
                              abs(curvature_bloch(s, a) - closed))
            psi = analytic_state(P11, t)
            worst_expect = max(
                worst_expect,
                abs(curvature_expectation(s, psi) - closed),
            )
        elapsed = time.monotonic() - start
        ok = worst_bloch <= 1e-9 and worst_expect <= 1e-9 and elapsed <= 30.0
        return ok, (f"2000 nodes: |closed-bloch| {worst_bloch:.2e}, "
                    f"|closed-expect| {worst_expect:.2e}, {elapsed:.1f}s")

    checked(capsys, 3, body)


def test_criterion_04_state_integrator_tracks_analytic(capsys):
    def body():
        grid = TimeGrid(0.0, TWO_PI, 6283)
        traj = integrate_schrodinger(FIELD11, np.array([1.0, 0.0j]), grid)
        worst = min(
            fidelity(traj.states[i], analytic_state(P11, float(t)))
            for i, t in enumerate(traj.times)
        )
        return worst >= 1.0 - 1e-6, f"worst node fidelity 1 - {1.0 - worst:.2e}"

    checked(capsys, 4, body)


def test_criterion_05_bloch_integrator_accuracy_and_order(capsys):
    def body():
        def sup_error(steps):
            grid = TimeGrid(0.0, TWO_PI, steps)
            rows = integrate_schrodinger(FIELD11, np.array([1.0, 0.0j]), grid).bloch
            ref = np.array(
                [np.asarray(analytic_bloch(P11, float(t))) for t in grid.times()]
            )
            return float(np.max(np.abs(rows - ref)))

        sup = sup_error(6283)
        # order measured where truncation dominates; at dt=1e-3 the error
        # already sits near the round-off floor (~5e-13) and halving
        # measures nothing
        coarse, fine = sup_error(314), sup_error(628)
        ratio = coarse / fine
        ok = sup <= 1e-6 and ratio >= 14.0
        return ok, f"sup error {sup:.2e} at dt=1e-3, halving ratio {ratio:.1f}x"

    checked(capsys, 5, body)


def test_criterion_06_speed_efficiency_is_unity(capsys, node_grid):
    def body():
        worst = 0.0
        for t in node_grid:
            s = two_parameter_field(P11, float(t))
            a = np.asarray(analytic_bloch(P11, float(t)))
            worst = max(worst, abs(speed_efficiency(s, a) - 1.0))
        return worst <= 1e-12, f"|eta_se - 1| {worst:.2e} over 2000 nodes"

    checked(capsys, 6, body)


def test_criterion_07_geodesic_efficiency_values(capsys):
    def body():
        e_quarter = elliptic_e(-0.25)
        quad = adaptive_simpson(
            lambda th: math.sqrt(1.0 + 0.25 * math.sin(th) ** 2),
            0.0, math.pi / 2.0, tol=1e-12,
        ).value
        eta = geodesic_efficiency(P11)
        eta_geodesic = geodesic_efficiency(ScenarioParams(1.0, 0.0))
        ok = (
            round(e_quarter, 2) == 1.66
            and abs(e_quarter - quad) <= 1e-10
            and abs(eta - (math.pi / 2.0) / e_quarter) <= 1e-15
            and eta < 1.0
            and abs(eta_geodesic - 1.0) <= 1e-12
        )
        return ok, (f"E(-1/4) = {e_quarter:.6f} (oracle gap "
                    f"{abs(e_quarter - quad):.1e}), eta_ge {eta:.6f}")

    checked(capsys, 7, body)


def test_criterion_08_extrema_closed_forms_match_grid_search(capsys):
    def body():
        ext = extrema_summary(P11)
        ts = np.linspace(0.0, ext.period, 100_000, endpoint=False)
        series = {
            "v": np.array([speed(P11, float(t)) for t in ts]),
            "acc": np.array([acceleration(P11, float(t)) for t in ts]),
            "k2": np.array([curvature_closed(P11, float(t)) for t in ts]),
            "ratio": np.array([parallel_transverse_ratio(P11, float(t)) for t in ts]),
        }
        claims = [
            (ext.v_max, ext.t_vmax, series["v"], True),
            (ext.v_min, ext.t_vmin, series["v"], False),
            (ext.acc_max, ext.t_accmax, series["acc"], True),
            (ext.acc_min, ext.t_accmin, series["acc"], False),
            (ext.kappa2_max, ext.t_k2max, series["k2"], True),
            (ext.kappa2_min, ext.t_k2min, series["k2"], False),
            (ext.ratio_max, None, series["ratio"], True),
            (ext.ratio_min, None, series["ratio"], False),
        ]
        worst_val = 0.0
        worst_time = 0.0
        for value, t_claim, data, take_max in claims:
            grid_val = float(data.max() if take_max else data.min())
            worst_val = max(worst_val, abs(value - grid_val))
            if t_claim is not None:
                i = int(data.argmax() if take_max else data.argmin())
                worst_time = max(worst_time, abs(t_claim - float(ts[i])))
        acc_residual = max(abs(acceleration(P11, ext.t_k2max)),
                           abs(acceleration(P11, ext.t_k2min)))
        ok = (worst_val <= 1e-6
              and worst_time <= ext.period * 1e-4
              and acc_residual <= 1e-9)
        return ok, (f"value gap {worst_val:.2e}, time gap {worst_time:.2e}, "
                    f"acc at curvature extrema {acc_residual:.2e}")

    checked(capsys, 8, body)


def test_criterion_09_periodicity(capsys):
    def body():
        rng = np.random.default_rng(2718)
        period = math.pi / 2.0
        worst = 0.0
        for t in rng.uniform(0.0, 10.0, size=100):
            t = float(t)
            for f in (speed, acceleration, curvature_closed,
                      parallel_transverse_ratio):
                worst = max(worst, abs(f(P11, t + period) - f(P11, t)))
        return worst <= 1e-10, f"period drift {worst:.2e} over 100 random t"

    checked(capsys, 9, body)


def test_criterion_10_state_field_orthogonality(capsys, node_grid):
    def body():
        worst = 0.0
        for t in node_grid:
            s = two_parameter_field(P11, float(t))
            a = np.asarray(analytic_bloch(P11, float(t)))
            worst = max(worst, abs(float(a @ s.h)), abs(float(a @ s.h_dot)))
        return worst <= 1e-9, f"max |a.h|, |a.h_dot| = {worst:.2e}"

    checked(capsys, 10, body)


def test_criterion_11_hamiltonian_synthesis(capsys):
    def body():
        rng = np.random.default_rng(314159)
        worst_field = 0.0
        worst_trace = 0.0
        for t in rng.uniform(0.0, TWO_PI, size=100):
            t = float(t)
            m = analytic_state(P11, t)
            md = analytic_state_derivative(P11, t)
            h0, h = synthesize_hamiltonian(m, md)
            worst_trace = max(worst_trace, abs(complex(np.trace(pauli_matrix(h0, h)))))
            target = two_parameter_field(P11, t).h
            worst_field = max(worst_field, abs(h0),
                              float(np.max(np.abs(h - target))))
        ok = worst_field <= 1e-6 and worst_trace <= 1e-12
        return ok, (f"field reconstruction gap {worst_field:.2e}, "
                    f"trace {worst_trace:.2e}")

    checked(capsys, 11, body)


def test_criterion_12_validation_cli_gate(capsys, monkeypatch):
    def body():
        clean = cli_main(["validate"])

        with monkeypatch.context() as m:
            m.setattr(fields_mod, "two_parameter_field",
                      corrupted_field(component(1, h=-1.0, h_dot=-1.0)))
            flipped = cli_main(["validate"])

        with monkeypatch.context() as m:
            m.setattr(geometry_mod, "curvature_bloch", two_terms_only)
            dropped = cli_main(["validate"])

        ok = (clean, flipped, dropped) == (0, 1, 1)
        return ok, (f"exit codes: clean {clean}, flipped field {flipped}, "
                    f"dropped curvature term {dropped}")

    checked(capsys, 12, body)
