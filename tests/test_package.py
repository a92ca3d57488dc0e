import os
import subprocess
import sys
from pathlib import Path

import blochcurve

PUBLIC_NAMES = [
    "BlochCurveError",
    "CallableField",
    "CheckResult",
    "ContractViolationError",
    "DEFAULT_TOLERANCES",
    "DomainError",
    "ExtremaSummary",
    "FieldSample",
    "FieldSpec",
    "IntegrationInstabilityError",
    "InvalidArgumentError",
    "NumericalConsistencyError",
    "ScenarioParams",
    "SingularityError",
    "TimeGrid",
    "Trajectory",
    "TwoParameterField",
    "UndefinedEfficiencyError",
    "acceleration",
    "analytic_bloch",
    "analytic_state",
    "analytic_state_derivative",
    "arc_length_closed",
    "bloch_vector",
    "curvature_bloch",
    "curvature_closed",
    "curvature_expectation",
    "elliptic_e",
    "elliptic_e_incomplete",
    "expectation",
    "extrema_summary",
    "fidelity",
    "geodesic_efficiency",
    "geodesic_efficiency_generic",
    "h_parallel_sq",
    "h_transverse_sq",
    "integrate_schrodinger",
    "parallel_transverse_ratio",
    "pauli_compose",
    "pauli_decompose",
    "run_battery",
    "scenario_records",
    "speed",
    "speed_efficiency",
    "state_from_angles",
    "synthesize_hamiltonian",
    "transport_phase_closed",
    "two_parameter_field",
]


def test_public_surface_is_pinned():
    # any change to the package's exports must show up as a diff of this list
    assert sorted(blochcurve.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(blochcurve, name), name


def test_commands_leave_numpy_random_unimported(tmp_path):
    # numpy imports numpy.random lazily, and a fresh process pays ~18 ms for
    # it; no command needs random numbers, so none may trigger that import.
    # The float renderer builds its powers of ten from plain integers, so
    # fractions and decimal (~3.5 ms) stay out as well
    script = f"""
import sys
from blochcurve.cli import main
codes = (
    main(["simulate", "--steps", "50", "--out", {str(tmp_path / "s.csv")!r}]),
    main(["validate", "--t-max", "3.141592653589793", "--steps", "300"]),
    main(["sweep", "--nu0-list", "0.5,1", "--out", {str(tmp_path / "w.csv")!r}]),
)
print(codes, [m for m in ("numpy.random", "fractions", "decimal") if m in sys.modules])
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.splitlines()[-1] == "(0, 0, 0) []"
