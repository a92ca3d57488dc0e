"""State and expectation-value formulas kept as test oracles; the library
itself builds states from closed forms and reads ⟨ψ|M|ψ⟩ as h₀ + a·h."""

import numpy as np


def state_from_angles(theta, phi):
    """cos(θ/2)|0⟩ + e^{iφ} sin(θ/2)|1⟩, the state at polar angle θ and
    azimuth φ on the Bloch sphere, shape (..., 2) for broadcast θ, φ."""
    half = np.asarray(theta, dtype=float) / 2.0
    phi = np.asarray(phi, dtype=float)
    return np.stack(np.broadcast_arrays(np.cos(half), np.exp(1j * phi) * np.sin(half)), axis=-1)


def expectation(matrix, state):
    """⟨ψ|M|ψ⟩ of each 2x2 matrix (..., 2, 2) in each state (..., 2), complex,
    so a caller can bound the imaginary part a Hermitian M leaves."""
    psi = np.asarray(state, dtype=complex)
    return np.sum(psi.conj() * (np.asarray(matrix, dtype=complex) @ psi[..., None])[..., 0],
                  axis=-1)
