"""The per-step Magnus-4 loop, kept as an independent oracle for the states
and the Bloch rows of the batched integrator in ``blochcurve.dynamics``.

The field is sampled at every step's two Gauss points and midpoint; then
each step forms its exponent, checks the embedded error estimate and applies
the step to the current state, so the first under-resolved step stops the
loop before any later step is taken. The exponentials come from
``np.linalg.eigh`` of the Hermitian exponent, not from the closed cos/sinc
forms the library uses.
"""

import math

import numpy as np

from blochcurve import IntegrationInstabilityError
from blochcurve.dynamics import STEP_ERROR_LIMIT

_C1, _C2 = 0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0
_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _exp_minus_i(k):
    """exp(−iK) of a Hermitian matrix K by its eigendecomposition."""
    lam, vec = np.linalg.eigh(k)
    return (vec * np.exp(-1j * lam)) @ vec.conj().T


def _loop(step, field, y0, grid):
    times, dt = grid.times(), grid.dt
    out = np.empty((len(times),) + y0.shape, dtype=y0.dtype)
    out[0] = y = y0
    max_error = 0.0
    s1, sm, s2 = (field(times[:-1] + c * dt) for c in (_C1, 0.5, _C2))
    for i in range(len(times) - 1):
        h1, h2 = s1.h[i], s2.h[i]
        omega = 0.5 * dt * (h1 + h2) + math.sqrt(3.0) / 6.0 * dt * dt * np.cross(h2, h1)
        error = float(np.linalg.norm(omega - dt * sm.h[i]))
        if error > STEP_ERROR_LIMIT:
            raise IntegrationInstabilityError(
                f"step error estimate {error:.3e} at t = {float(times[i + 1])!r} exceeds "
                f"{STEP_ERROR_LIMIT:.1e}; reduce the step size"
            )
        max_error = max(max_error, error)
        y = step(omega, 0.5 * dt * (float(s1.h0[i]) + float(s2.h0[i])), y)
        out[i + 1] = y
    return out, max_error


def _state_step(omega, phase, psi):
    return _exp_minus_i(phase * np.eye(2) + np.einsum("k,kij->ij", omega, _PAULI)) @ psi


def _bloch_step(omega, phase, a):
    # exp(2[ω]×) = exp(−iK) with the Hermitian K = 2i[ω]×, [ω]× a = ω × a
    cross = np.cross(np.eye(3), omega)
    return (_exp_minus_i(2j * cross) @ a).real


def schrodinger(field, psi0, grid):
    """States (steps+1, 2) of i dψ/dt = Hψ and the largest step error estimate."""
    return _loop(_state_step, field, np.asarray(psi0, dtype=complex), grid)


def bloch(field, a0, grid):
    """Bloch vectors (steps+1, 3) of ȧ = 2 h × a and the largest step error estimate."""
    return _loop(_bloch_step, field, np.asarray(a0, dtype=float), grid)
