"""Array-valued state, Bloch-vector and Pauli primitives for a single qubit.

Conventions: ℏ = 1; a 2x2 Hermitian operator is stored as the pair (h0, h)
with M = h0·I + h·σ; a pure state is its amplitude pair (α, β) on the last
axis of a complex array, a Bloch vector its three components on the last axis
of a real one. Leading axes (a time grid) broadcast, so one call serves one
state or a whole trajectory. Global phase is never canonicalized, state
comparisons go through ``fidelity``.

Tolerances that compare operator entries are relative to max(1, max|M_ij|),
so a Hermitian operator is accepted whatever its scale.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolationError, InvalidArgumentError

BLOCH_NORM_ATOL = 1e-10   # unit-length tolerance for pure states
HERMITICITY_RTOL = 1e-12  # max|M − M†| over max(1, max|M_ij|)


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


def pauli_compose(h0, h) -> np.ndarray:
    """Assemble the Hermitian matrix h0·I + h·σ.

    Returns [[h0+hz, hx-i hy], [hx+i hy, h0-hz]]. ``h`` carries its three
    components on the last axis; leading axes (a time grid) broadcast against
    ``h0`` and give a stack of 2x2 matrices.
    """
    hv = np.asarray(h, dtype=float)
    h0 = np.asarray(h0, dtype=float)
    if hv.shape[-1:] != (3,):
        raise InvalidArgumentError(f"field vector needs 3 components, got shape {hv.shape}")
    if not (np.all(np.isfinite(h0)) and np.all(np.isfinite(hv))):
        raise InvalidArgumentError("field components must be finite")
    hx, hy, hz = np.moveaxis(hv, -1, 0)
    m = np.empty(np.broadcast_shapes(h0.shape, hx.shape) + (2, 2), dtype=complex)
    m[..., 0, 0] = h0 + hz
    m[..., 0, 1] = hx - 1j * hy
    m[..., 1, 0] = hx + 1j * hy
    m[..., 1, 1] = h0 - hz
    return m


def _pauli_apply(hx, hy, hz, psi) -> np.ndarray:
    """(h·σ)ψ = (hz ψ₀ + (hx − i hy) ψ₁, (hx + i hy) ψ₀ − hz ψ₁) for states
    shaped (2, ...), with no checks: the one Pauli action, for callers whose
    field is checked. The components broadcast against ψ₀ and ψ₁."""
    return np.stack((hz * psi[0] + (hx - 1j * hy) * psi[1],
                     (hx + 1j * hy) * psi[0] - hz * psi[1]))


def _operator_scale(m: np.ndarray) -> np.ndarray:
    """max(1, max|M_ij|) of each 2x2 matrix in the stack."""
    return np.maximum(1.0, np.max(np.abs(m), axis=(-2, -1)))


def pauli_decompose(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Invert ``pauli_compose``: h0 = tr(M)/2, h_k = tr(M σ_k)/2.

    Maps a stack (..., 2, 2) to the pair (h0 of shape (...), h of shape
    (..., 3)). Raises ContractViolationError if a matrix is not Hermitian
    within ``HERMITICITY_RTOL`` relative to its scale.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.shape[-2:] != (2, 2):
        raise InvalidArgumentError(f"expected 2x2 matrices, got shape {m.shape}")
    skew = np.max(np.abs(m - np.swapaxes(m, -1, -2).conj()), axis=(-2, -1))
    if np.any(~(skew <= HERMITICITY_RTOL * _operator_scale(m))):
        raise ContractViolationError("matrix is not Hermitian within tolerance")
    m00, m01, m10, m11 = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    h0 = 0.5 * (m00.real + m11.real)
    h = 0.5 * np.stack([m01.real + m10.real, m10.imag - m01.imag, m00.real - m11.real], axis=-1)
    return h0[()], h


def fidelity(state_a, state_b):
    """|⟨a|b⟩| between pure states, reduced over the last axis; 1 iff equal
    up to global phase."""
    va, vb = _pure_states(state_a), _pure_states(state_b)
    return np.abs(np.sum(va.conj() * vb, axis=-1))[()]
