"""State, operator and expectation-value formulas kept as test oracles; the
library itself builds states from closed forms, applies an operator h₀·I + h·σ
to states by its Pauli action and reads ⟨ψ|M|ψ⟩ as h₀ + a·h."""

import numpy as np


def state_from_angles(theta, phi):
    """cos(θ/2)|0⟩ + e^{iφ} sin(θ/2)|1⟩, the state at polar angle θ and
    azimuth φ on the Bloch sphere, shape (..., 2) for broadcast θ, φ."""
    half = np.asarray(theta, dtype=float) / 2.0
    phi = np.asarray(phi, dtype=float)
    return np.stack(np.broadcast_arrays(np.cos(half), np.exp(1j * phi) * np.sin(half)), axis=-1)


def pauli_matrix(h0, h):
    """The matrix h₀·I + h·σ = [[h₀ + h_z, h_x − ih_y], [h_x + ih_y, h₀ − h_z]],
    a stack (..., 2, 2) for h₀ broadcast against h (..., 3)."""
    hx, hy, hz = np.moveaxis(np.asarray(h, dtype=float), -1, 0)
    h0 = np.asarray(h0, dtype=float)
    m = np.empty(np.broadcast_shapes(h0.shape, hx.shape) + (2, 2), dtype=complex)
    m[..., 0, 0] = h0 + hz
    m[..., 0, 1] = hx - 1j * hy
    m[..., 1, 0] = hx + 1j * hy
    m[..., 1, 1] = h0 - hz
    return m


def pauli_pair(matrix):
    """Invert ``pauli_matrix`` by h₀ = tr(M)/2 and h_k = tr(Mσ_k)/2: the pair
    (h₀ of shape (...), h of shape (..., 3)) of a stack (..., 2, 2), which is
    read as Hermitian (its anti-Hermitian part is dropped)."""
    m = np.asarray(matrix, dtype=complex)
    m00, m01, m10, m11 = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    h0 = 0.5 * (m00.real + m11.real)
    h = 0.5 * np.stack([m01.real + m10.real, m10.imag - m01.imag, m00.real - m11.real], axis=-1)
    return h0[()], h


def expectation(matrix, state):
    """⟨ψ|M|ψ⟩ of each 2x2 matrix (..., 2, 2) in each state (..., 2), complex,
    so a caller can bound the imaginary part a Hermitian M leaves."""
    psi = np.asarray(state, dtype=complex)
    return np.sum(psi.conj() * (np.asarray(matrix, dtype=complex) @ psi[..., None])[..., 0],
                  axis=-1)
