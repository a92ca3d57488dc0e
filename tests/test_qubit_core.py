import math

import numpy as np
import pytest

from blochcurve import (
    ContractViolationError,
    InvalidArgumentError,
    NumericalConsistencyError,
    ScenarioParams,
    TimeGrid,
    Trajectory,
    TwoParameterField,
    bloch_vector,
    curvature_expectation,
    expectation,
    fidelity,
    integrate_schrodinger,
    pauli_compose,
    pauli_decompose,
    state_from_angles,
)

RNG = np.random.default_rng(42)


def random_state(rng, size=()):
    vec = rng.normal(size=size + (2,)) + 1j * rng.normal(size=size + (2,))
    return vec / np.linalg.norm(vec, axis=-1, keepdims=True)


def random_unitary(rng):
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


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
        with pytest.raises(InvalidArgumentError):
            state_from_angles(math.inf, 0.0)


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
    spec = TwoParameterField(ScenarioParams(1.0, 1.0))
    grid = TimeGrid(0.0, 1.0, 1)
    entry_points = [
        lambda: bloch_vector(psi),
        lambda: fidelity(psi, [1.0, 0.0]),
        lambda: expectation(np.eye(2), psi),
        lambda: integrate_schrodinger(spec, psi, grid),
        lambda: curvature_expectation(spec.sample(0.3), psi),
        lambda: Trajectory(grid=grid, times=grid.times(), states=[psi, psi],
                           bloch=np.zeros((2, 3)), beta=np.zeros(2), arc=np.zeros(2)),
    ]
    for call in entry_points:
        with pytest.raises(ContractViolationError, match="not normalized"):
            call()


def test_pauli_round_trip_random():
    # decompose(compose(...)) must be the identity well below coefficient scale
    h0 = RNG.uniform(-3, 3, size=100)
    h = RNG.uniform(-3, 3, size=(100, 3))
    h0_back, h_back = pauli_decompose(pauli_compose(h0, h))
    assert np.max(np.abs(h0_back - h0)) < 1e-14
    assert np.max(np.abs(h_back - h)) < 1e-14


def test_compose_decompose_matrix_round_trip():
    mat = pauli_compose(RNG.uniform(-2, 2, size=20), RNG.uniform(-2, 2, size=(20, 3)))
    rebuilt = pauli_compose(*pauli_decompose(mat))
    assert np.max(np.abs(rebuilt - mat)) < 1e-14


def test_decompose_rejects_non_hermitian():
    with pytest.raises(ContractViolationError):
        pauli_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_decompose_rejects_wrong_shape():
    with pytest.raises(InvalidArgumentError):
        pauli_decompose(np.eye(3))


def test_expectation_equals_scalar_plus_bloch_inner_product():
    q0 = RNG.uniform(-3, 3, size=100)
    q = RNG.uniform(-3, 3, size=(100, 3))
    state = random_state(RNG, (100,))
    val = expectation(pauli_compose(q0, q), state)
    assert np.max(np.abs(val - (q0 + np.einsum("nk,nk->n", bloch_vector(state), q)))) < 1e-12


def test_expectation_rejects_imaginary_residue():
    antihermitian = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    with pytest.raises(NumericalConsistencyError):
        expectation(antihermitian, np.array([1.0, 1.0j]) / math.sqrt(2.0))


def test_hermiticity_bounds_scale_with_the_operator():
    # a large Hermitian operator leaves round-off proportional to its entries
    # in U M U† and in Im<psi|M|psi>; neither may be mistaken for a defect
    n = 200
    h = RNG.uniform(-1e5, 1e5, size=(n, 3))
    mat = pauli_compose(0.0, h)
    u = np.array([random_unitary(RNG) for _ in range(n)])
    rotated = u @ mat @ np.swapaxes(u, -1, -2).conj()
    h0_back, h_back = pauli_decompose(rotated)
    assert np.max(np.abs(h0_back)) <= 1e-9
    assert np.allclose(np.linalg.norm(h_back, axis=-1), np.linalg.norm(h, axis=-1), rtol=1e-12)
    state = random_state(RNG, (n,))
    a = bloch_vector(state)
    assert np.allclose(expectation(mat, state), np.einsum("nk,nk->n", a, h), rtol=0, atol=1e-9)
    # at unit scale the bounds stay absolute 1e-12
    off = pauli_compose(0.3, (0.5, -0.2, 0.8))
    off[0, 1] += 1e-11j
    with pytest.raises(ContractViolationError):
        pauli_decompose(off)
    with pytest.raises(NumericalConsistencyError):
        expectation(off, np.array([1.0, 1.0]) / math.sqrt(2.0))


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
