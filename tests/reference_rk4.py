"""The per-step RK4 loop, kept as an independent oracle for the batched
integrators in ``blochcurve.dynamics``.

Each step applies the four RK4 stages to the current state, checks the norm
drift of the result, renormalizes it and moves on, so the first unstable step
stops the loop before any later step is taken. The right-hand sides are
written out as −iHψ and 2 h × a rather than as generator matrices.
"""

import numpy as np

from blochcurve import IntegrationInstabilityError
from blochcurve.dynamics import DRIFT_LIMIT, hamiltonian_at


def _loop(rhs, nodes, half, y0, times, dt):
    out = np.empty((len(times),) + y0.shape, dtype=y0.dtype)
    out[0] = y = y0
    max_drift = 0.0
    for i in range(len(times) - 1):
        k1 = rhs(nodes[i], y)
        k2 = rhs(half[i], y + 0.5 * dt * k1)
        k3 = rhs(half[i], y + 0.5 * dt * k2)
        k4 = rhs(nodes[i + 1], y + dt * k3)
        raw = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        norm = float(np.linalg.norm(raw))
        drift = abs(norm - 1.0)
        if drift > DRIFT_LIMIT:
            raise IntegrationInstabilityError(
                f"norm drift {drift:.3e} at t = {float(times[i + 1])!r} exceeds "
                f"{DRIFT_LIMIT:.1e}; reduce the step size"
            )
        max_drift = max(max_drift, drift)
        y = raw / norm
        out[i + 1] = y
    return out, max_drift


def schrodinger(spec, psi0, grid):
    """Unit states (steps+1, 2) of i dψ/dt = Hψ and the largest step drift."""
    times, dt = grid.times(), grid.dt
    return _loop(lambda h, psi: -1j * (h @ psi),
                 hamiltonian_at(spec, times), hamiltonian_at(spec, times[:-1] + 0.5 * dt),
                 np.asarray(psi0, dtype=complex), times, dt)


def bloch(spec, a0, grid):
    """Unit Bloch vectors (steps+1, 3) of ȧ = 2 h × a and the largest step drift."""
    times, dt = grid.times(), grid.dt
    return _loop(lambda h, a: 2.0 * np.cross(h, a),
                 spec.sample(times).h, spec.sample(times[:-1] + 0.5 * dt).h,
                 np.asarray(a0, dtype=float), times, dt)
