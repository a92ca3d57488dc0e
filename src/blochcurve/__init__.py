"""Differential geometry of driven two-level quantum dynamics.

The library evaluates the curvature coefficient of a qubit trajectory by
three independent routes (closed form, field three-vector form, operator
expectation form), integrates the Schrödinger and Bloch pictures with
cross-checks, and exposes speed, acceleration, transport phase, arc length,
and the speed/geodesic efficiencies, all behind a deterministic CLI.
"""

from .dynamics import (
    TimeGrid,
    Trajectory,
    analytic_bloch,
    analytic_state,
    analytic_state_derivative,
    arc_length_closed,
    integrate_schrodinger,
    synthesize_hamiltonian,
    transport_phase_closed,
)
from .errors import (
    BlochCurveError,
    ContractViolationError,
    DomainError,
    IntegrationInstabilityError,
    InvalidArgumentError,
    NumericalConsistencyError,
    SingularityError,
    UndefinedEfficiencyError,
)
from .fields import (
    CallableField,
    FieldSample,
    FieldSpec,
    ScenarioParams,
    TwoParameterField,
    h_parallel_sq,
    h_transverse_sq,
    parallel_transverse_ratio,
    two_parameter_field,
)
from .geometry import (
    ExtremaSummary,
    acceleration,
    curvature_bloch,
    curvature_closed,
    curvature_expectation,
    extrema_summary,
    geodesic_efficiency,
    geodesic_efficiency_generic,
    scenario_records,
    speed,
    speed_efficiency,
)
from .qubit_core import (
    bloch_vector,
    expectation,
    fidelity,
    pauli_compose,
    pauli_decompose,
    state_from_angles,
)
from .special_functions import (
    elliptic_e,
    elliptic_e_incomplete,
)
from .validation import (
    DEFAULT_TOLERANCES,
    CheckResult,
    run_battery,
)

__version__ = "0.1.0"

__all__ = [
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
