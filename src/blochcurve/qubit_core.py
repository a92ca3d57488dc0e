"""Pure-state and Pauli-algebra primitives for a single qubit.

Conventions: ℏ = 1; a 2x2 Hermitian operator is stored as the pair (h0, h)
with M = h0·I + h·σ; pure states live on the unit Bloch sphere. Global phase
is never canonicalized, state comparisons go through ``fidelity``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, InvalidArgumentError, NumericalConsistencyError

IDENTITY = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)

STATE_NORM_ATOL = 1e-12   # construction-time normalization tolerance
BLOCH_NORM_ATOL = 1e-10   # unit-length tolerance for pure-state Bloch vectors
HERMITICITY_ATOL = 1e-12
EXPECTATION_IMAG_ATOL = 1e-12


@dataclass(frozen=True)
class QubitState:
    """Normalized pure state α|0⟩ + β|1⟩.

    Construction asserts |α|² + |β|² = 1 within ``STATE_NORM_ATOL``;
    renormalization is the caller's job (integrators renormalize per step).
    """

    alpha: complex
    beta: complex

    def __post_init__(self):
        a, b = complex(self.alpha), complex(self.beta)
        if not (cmath.isfinite(a) and cmath.isfinite(b)):
            raise InvalidArgumentError("state amplitudes must be finite")
        norm_sq = abs(a) ** 2 + abs(b) ** 2
        if abs(norm_sq - 1.0) > STATE_NORM_ATOL:
            raise ContractViolationError(
                f"state not normalized: |alpha|^2+|beta|^2 = {norm_sq!r}"
            )
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)

    @classmethod
    def from_vector(cls, vec, renormalize: bool = False) -> "QubitState":
        v = np.asarray(vec, dtype=complex).reshape(2)
        if renormalize:
            n = np.linalg.norm(v)
            if n == 0.0:
                raise InvalidArgumentError("cannot renormalize the zero vector")
            v = v / n
        return cls(complex(v[0]), complex(v[1]))

    def vector(self) -> np.ndarray:
        return np.array([self.alpha, self.beta], dtype=complex)

    def __array__(self, dtype=None, copy=None):
        return np.array([self.alpha, self.beta], dtype=dtype or complex)


@dataclass(frozen=True)
class BlochVector:
    """Real 3-vector a with ρ = (I + a·σ)/2; unit length for pure states."""

    x: float
    y: float
    z: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    def __array__(self, dtype=None, copy=None):
        return np.array([self.x, self.y, self.z], dtype=dtype or float)

    def __iter__(self):
        return iter((self.x, self.y, self.z))


@dataclass(frozen=True)
class PauliDecomp:
    """Coefficients (h0, h) of M = h0·I + h·σ. Unpacks as ``h0, h = decomp``."""

    h0: float
    h: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "h", np.asarray(self.h, dtype=float).reshape(3))

    def __iter__(self):
        return iter((self.h0, self.h))


def state_from_angles(theta: float, phi: float) -> QubitState:
    """State at polar angle θ and azimuth φ on the Bloch sphere:
    cos(θ/2)|0⟩ + e^{iφ} sin(θ/2)|1⟩.
    """
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise InvalidArgumentError("angles must be finite")
    return QubitState(
        complex(math.cos(theta / 2.0)),
        cmath.exp(1j * phi) * math.sin(theta / 2.0),
    )


def _state_vector(state) -> np.ndarray:
    if isinstance(state, QubitState):
        return state.vector()
    v = np.asarray(state, dtype=complex).reshape(2)
    if not np.all(np.isfinite(v.view(float))):
        raise InvalidArgumentError("state amplitudes must be finite")
    return v


def bloch_vector(state) -> BlochVector:
    """Bloch vector a = (⟨σx⟩, ⟨σy⟩, ⟨σz⟩) of a pure state.

    Accepts a QubitState or a length-2 complex sequence; raw sequences must
    be normalized within ``BLOCH_NORM_ATOL``.
    """
    v = _state_vector(state)
    norm_sq = float(np.real(np.vdot(v, v)))
    if abs(norm_sq - 1.0) > BLOCH_NORM_ATOL:
        raise ContractViolationError(f"state not normalized: norm^2 = {norm_sq!r}")
    cross = np.conjugate(v[0]) * v[1]
    return BlochVector(
        2.0 * cross.real,
        2.0 * cross.imag,
        abs(v[0]) ** 2 - abs(v[1]) ** 2,
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


def pauli_decompose(matrix, atol: float = HERMITICITY_ATOL) -> PauliDecomp:
    """Invert ``pauli_compose``: h0 = tr(M)/2, h_k = tr(M σ_k)/2.

    Raises ContractViolationError if M is not Hermitian within ``atol``.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (2, 2):
        raise InvalidArgumentError(f"expected a 2x2 matrix, got shape {m.shape}")
    if np.max(np.abs(m - m.conj().T)) > atol:
        raise ContractViolationError("matrix is not Hermitian within tolerance")
    h0 = 0.5 * np.trace(m).real
    h = np.array([0.5 * np.trace(m @ s).real for s in PAULI])
    return PauliDecomp(h0, h)


def expectation(matrix, state, imag_atol: float = EXPECTATION_IMAG_ATOL) -> float:
    """Real expectation value ⟨ψ|M|ψ⟩ of a Hermitian M.

    The imaginary part must vanish within ``imag_atol``; a larger residue
    means M was not Hermitian (or the caller fed garbage) and raises
    NumericalConsistencyError.
    """
    m = np.asarray(matrix, dtype=complex)
    v = _state_vector(state)
    val = complex(np.vdot(v, m @ v))
    if abs(val.imag) > imag_atol:
        raise NumericalConsistencyError(
            f"expectation has imaginary residue {val.imag!r}"
        )
    return val.real


def fidelity(state_a, state_b) -> float:
    """|⟨a|b⟩| between two pure states; 1 iff equal up to global phase."""
    va, vb = _state_vector(state_a), _state_vector(state_b)
    return abs(complex(np.vdot(va, vb)))
