"""Array-valued state, Bloch-vector and Pauli primitives for a single qubit.

Conventions: ℏ = 1; a 2x2 Hermitian operator is stored as the pair (h0, h)
with M = h0·I + h·σ; a pure state is its amplitude pair (α, β) on the last
axis of a complex array, a Bloch vector its three components on the last axis
of a real one. Leading axes (a time grid) broadcast, so one call serves one
state or a whole trajectory. Global phase is never canonicalized, state
comparisons go through ``fidelity``. No 2x2 matrix is formed: an operator
acts on states through ``_pauli_apply``.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolationError, InvalidArgumentError

BLOCH_NORM_ATOL = 1e-10   # unit-length tolerance for pure states


def _pure_states(state) -> np.ndarray:
    """``state`` as a complex (..., 2) array of finite, normalized rows."""
    psi = np.asarray(state, dtype=complex)
    if psi.shape[-1:] != (2,):
        raise InvalidArgumentError(f"expected 2 amplitudes on the last axis, got shape {psi.shape}")
    if not np.all(np.isfinite(psi)):
        raise InvalidArgumentError("state amplitudes must be finite")
    norm_sq = np.abs(psi[..., 0]) ** 2 + np.abs(psi[..., 1]) ** 2
    off = ~(np.abs(norm_sq - 1.0) <= BLOCH_NORM_ATOL)
    if np.any(off):
        bad = float(norm_sq.flat[int(np.argmax(off))])
        raise ContractViolationError(f"state not normalized: norm^2 = {bad!r}")
    return psi


def bloch_vector(state) -> np.ndarray:
    """Bloch vector a = (⟨σx⟩, ⟨σy⟩, ⟨σz⟩) = (2 Re ᾱβ, 2 Im ᾱβ, |α|² − |β|²)
    of each pure state (..., 2), shape (..., 3). Every row must be normalized
    within ``BLOCH_NORM_ATOL``.
    """
    psi = _pure_states(state)
    cross = np.conjugate(psi[..., 0]) * psi[..., 1]
    return np.stack(
        [2.0 * cross.real, 2.0 * cross.imag, np.abs(psi[..., 0]) ** 2 - np.abs(psi[..., 1]) ** 2],
        axis=-1,
    )


def _pauli_apply(hx, hy, hz, psi) -> np.ndarray:
    """(h·σ)ψ = (hz ψ₀ + (hx − i hy) ψ₁, (hx + i hy) ψ₀ − hz ψ₁) for states
    shaped (2, ...), with no checks: the one Pauli action, for callers whose
    field is checked. The components broadcast against ψ₀ and ψ₁."""
    return np.stack((hz * psi[0] + (hx - 1j * hy) * psi[1],
                     (hx + 1j * hy) * psi[0] - hz * psi[1]))


def _braket(x: np.ndarray, y: np.ndarray):
    """⟨x|y⟩ of time-last states (2, ...), per trailing index."""
    return x[0].conj() * y[0] + x[1].conj() * y[1]


def fidelity(state_a, state_b):
    """|⟨a|b⟩| between pure states, reduced over the last axis; 1 iff equal
    up to global phase."""
    va, vb = _pure_states(state_a), _pure_states(state_b)
    return np.abs(np.sum(va.conj() * vb, axis=-1))[()]
