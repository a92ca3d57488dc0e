import math
from functools import partial

import numpy as np
import pytest

from blochcurve import (
    ContractViolationError,
    InvalidArgumentError,
    ScenarioParams,
    TimeGrid,
    Trajectory,
    bloch_vector,
    curvature_expectation,
    fidelity,
    integrate_schrodinger,
    synthesize_hamiltonian,
    two_parameter_field,
)
from reference_qubit import expectation, pauli_matrix, pauli_pair, state_from_angles

RNG = np.random.default_rng(42)


def random_state(rng, size=()):
    vec = rng.normal(size=size + (2,)) + 1j * rng.normal(size=size + (2,))
    return vec / np.linalg.norm(vec, axis=-1, keepdims=True)


class TestQubitState:
    # a state is a complex (..., 2) array; the functions that take one accept
    # finite normalized rows and reject every other row

    def test_accepts_normalized(self):
        state = np.array([1.0, 0.0j])
        assert np.array_equal(bloch_vector(state), [0.0, 0.0, 1.0])
        assert fidelity(state, state) == 1.0

    def test_rejects_unnormalized(self):
        rows = np.array([[1.0, 0.0], [1.0, 1.0]], dtype=complex)
        with pytest.raises(ContractViolationError, match="norm"):
            bloch_vector(rows)
        with pytest.raises(ContractViolationError):
            fidelity(rows, rows[0])

    def test_rejects_nonfinite(self):
        for bad in ([math.inf, 0.0], [math.nan, 0.0]):
            with pytest.raises(InvalidArgumentError):
                bloch_vector(bad)
            with pytest.raises(InvalidArgumentError):
                fidelity([1.0, 0.0], bad)
            with pytest.raises(InvalidArgumentError, match="finite"):
                synthesize_hamiltonian(bad, np.zeros(2, dtype=complex))

    def test_rejects_a_wrong_last_axis(self):
        message = "expected 2 amplitudes on the last axis"
        for bad in ([1.0, 0.0, 0.0], [[1.0], [0.0]]):
            with pytest.raises(InvalidArgumentError, match=message):
                bloch_vector(bad)
            with pytest.raises(InvalidArgumentError, match=message):
                synthesize_hamiltonian(bad, np.zeros_like(bad, dtype=complex))


def test_bloch_of_angle_state_matches_spherical_coordinates():
    theta = np.array([0.0, math.pi / 3, 2.2, math.pi])
    phi = np.array([0.0, 1.2, -0.7, 2.0])
    a = bloch_vector(state_from_angles(theta, phi))
    expected = np.stack(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], axis=-1
    )
    assert np.allclose(a, expected, atol=1e-12)


def test_bloch_vector_unit_norm():
    a = bloch_vector(random_state(RNG, (50,)))
    assert np.max(np.abs(np.einsum("nk,nk->n", a, a) - 1.0)) < 1e-12


def test_bloch_vector_rejects_unnormalized_sequence():
    with pytest.raises(ContractViolationError):
        bloch_vector([0.5, 0.5])


def test_unnormalized_state_is_one_error_at_every_entry_point():
    psi = np.array([1.0, 1.0j])
    field = partial(two_parameter_field, ScenarioParams(1.0, 1.0))
    grid = TimeGrid(0.0, 1.0, 1)
    entry_points = [
        lambda: bloch_vector(psi),
        lambda: fidelity(psi, [1.0, 0.0]),
        lambda: integrate_schrodinger(field, psi, grid),
        lambda: curvature_expectation(field(0.3), psi),
        lambda: synthesize_hamiltonian(psi, np.zeros(2, dtype=complex)),
        lambda: Trajectory(grid=grid, states=[psi, psi],
                           bloch=np.zeros((2, 3)), beta=np.zeros(2), arc=np.zeros(2),
                           sample=field(grid.times())),
    ]
    for call in entry_points:
        with pytest.raises(ContractViolationError, match="not normalized"):
            call()


def test_pauli_round_trip_random():
    # the test oracle's pauli_pair(pauli_matrix(...)), which the operator-route
    # mutants and the synthesis tests rest on, must be the identity well
    # below coefficient scale
    h0 = RNG.uniform(-3, 3, size=100)
    h = RNG.uniform(-3, 3, size=(100, 3))
    h0_back, h_back = pauli_pair(pauli_matrix(h0, h))
    assert np.max(np.abs(h0_back - h0)) < 1e-14
    assert np.max(np.abs(h_back - h)) < 1e-14


def test_compose_decompose_matrix_round_trip():
    mat = pauli_matrix(RNG.uniform(-2, 2, size=20), RNG.uniform(-2, 2, size=(20, 3)))
    rebuilt = pauli_matrix(*pauli_pair(mat))
    assert np.max(np.abs(rebuilt - mat)) < 1e-14


def test_expectation_equals_scalar_plus_bloch_inner_product():
    q0 = RNG.uniform(-3, 3, size=100)
    q = RNG.uniform(-3, 3, size=(100, 3))
    state = random_state(RNG, (100,))
    val = expectation(pauli_matrix(q0, q), state)
    assert np.max(np.abs(val.imag)) < 1e-12
    assert np.max(np.abs(val.real - (q0 + np.einsum("nk,nk->n", bloch_vector(state), q)))) < 1e-12


def test_fidelity_bounds_and_symmetry():
    a, b = random_state(RNG), random_state(RNG)
    f = fidelity(a, b)
    assert 0.0 <= f <= 1.0 + 1e-12
    assert f == pytest.approx(fidelity(b, a), abs=1e-15)
    assert fidelity(a, a) == pytest.approx(1.0, abs=1e-15)


def test_fidelity_ignores_global_phase():
    s = state_from_angles(0.9, 0.3)
    assert fidelity(s, np.exp(0.77j) * s) == pytest.approx(1.0, abs=1e-12)


def test_bloch_vector_accepts_plain_sequences():
    a = bloch_vector([1.0, 0.0])
    assert isinstance(a, np.ndarray)
    assert a.shape == (3,)
    assert np.allclose(a, (0.0, 0.0, 1.0))
