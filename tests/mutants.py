"""Deliberately broken library functions for the kill matrix in
``test_validation.py``, which pins the exact checks each one fails; an empty
list there is a gap of the battery. The field mutants, of the built-in field or
of the battery's tilted fixture, work on one node or on a whole grid alike:
vector components sit on the last axis, so ``h[..., 1]`` is the y component of
every node.
"""

import dataclasses
import math
import sys
from types import SimpleNamespace

import numpy as np

import blochcurve.dynamics as dynamics_mod
import blochcurve.fields as fields_mod
import blochcurve.geometry as geometry_mod
import blochcurve.validation as validation_mod
from blochcurve import FieldSample
from reference_qubit import pauli_matrix


def patch_everywhere(monkeypatch, module, name, new):
    """Rebind ``module.name`` and every other ``blochcurve`` binding of the
    same object, so callers that imported it by name see ``new`` as well."""
    target = getattr(module, name)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "blochcurve":
            for attr, value in list(vars(mod).items()):
                if value is target:
                    monkeypatch.setattr(mod, attr, new)


def scaled(original, factor):
    """``original`` with its result multiplied by ``factor``."""
    return lambda *args: factor * original(*args)


def component(k, h=1.0, h_dot=1.0):
    """Multiply component ``k`` (0, 1, 2 for x, y, z) of the field by ``h``
    and of its rate by ``h_dot``, in place."""

    def mutate(hv, hd):
        hv[..., k] *= h
        hd[..., k] *= h_dot

    return mutate


def _mutated(s, mutate):
    h = s.h.copy()
    hd = s.h_dot.copy()
    mutate(h, hd)
    return FieldSample(s.t, s.h0, h, hd)


def corrupted_field(mutate):
    """``fields.two_parameter_field`` with ``mutate(h, h_dot)`` applied in
    place to every sample."""
    original = fields_mod.two_parameter_field

    def corrupted(params, t):
        return _mutated(original(params, t), mutate)

    return corrupted


def corrupted_fixture(mutate):
    """``validation.tilted_field_fixture`` whose field applies
    ``mutate(h, h_dot)`` to every sample."""
    original = validation_mod.tilted_field_fixture

    def corrupted():
        spec, psi0 = original()
        return SimpleNamespace(sample=lambda t: _mutated(spec.sample(t), mutate)), psi0

    return corrupted


def two_terms_only(sample, a):
    """``curvature_bloch`` without its chirality term 4(a·h)[a·(h×ḣ)]/D²."""
    av, hv, hd = np.asarray(a, dtype=float), sample.h, sample.h_dot

    def dot(x, y):
        return np.sum(x * y, axis=-1)

    h2 = dot(hv, hv)
    ah = dot(av, hv)
    den = h2 - ah * ah
    w = dot(av, hd)[..., None] * hv - ah[..., None] * hd
    num2 = (h2 * dot(hd, hd) - dot(hv, hd) ** 2) - dot(w, w)
    return 4.0 * ah * ah / den + num2 / den ** 3


def no_hdot_term(sample, a):
    """``curvature_bloch`` as 4[a·(ȧ × ä)]²/|ȧ|⁶ with ȧ = 2h × a, but with
    the 2ḣ × a term dropped from ä = 2ḣ × a + 2h × ȧ."""
    av, hv = np.asarray(a, dtype=float), sample.h
    a_dot = 2.0 * np.cross(hv, av)
    a_ddot = 2.0 * np.cross(hv, a_dot)
    speed2 = np.sum(a_dot * a_dot, axis=-1)
    return 4.0 * np.sum(av * np.cross(a_dot, a_ddot), axis=-1) ** 2 / speed2 ** 3


def operator_route(drop):
    """``geometry._expectation_block`` (κ² = ‖q − ψ⟨ψ|q⟩‖², q = Δh′ψ − iΔh²ψ)
    with one piece dropped: the −iΔh²ψ part of q (``"dh2"``), the projection
    off ψ (``"projection"``) or the v̇ term of Δh′ψ (``"v_dot"``). Unscaled and
    with no singular test."""

    def ket(op, x):
        return np.einsum("ijn,jn->in", op, x)

    def bra(x, y):
        return np.sum(x.conj() * y, axis=0)

    def block(t, h, h_dot, psi):
        psi = psi.T / np.linalg.norm(psi, axis=-1)
        hop, hdop = (np.moveaxis(pauli_matrix(0.0, x), 0, -1) for x in (h, h_dot))
        hpsi, hdpsi = ket(hop, psi), ket(hdop, psi)
        e, e_dot = bra(psi, hpsi).real, bra(psi, hdpsi).real
        v = np.sqrt(bra(hpsi, hpsi).real - e * e)
        v_dot = 0.0 if drop == "v_dot" else (bra(hpsi, hdpsi).real - e * e_dot) / v
        u = (hpsi - e * psi) / v
        q = ((hdpsi - e_dot * psi) / v - u * (v_dot / v)) / v
        if drop != "dh2":
            q = q - 1j * (ket(hop, u) - e * u) / v
        if drop != "projection":
            q = q - psi * bra(psi, q)
        return bra(q, q).real

    return block


def synthesized_h_z(factor):
    """``dynamics.synthesize_hamiltonian`` with the z component of h
    multiplied by ``factor``."""
    original = dynamics_mod.synthesize_hamiltonian

    def scaled_z(m, m_dot):
        h0, h = original(m, m_dot)
        return h0, h * np.array([1.0, 1.0, factor])

    return scaled_z


def off_gauge_derivative(eps):
    """``dynamics.analytic_state_derivative`` plus eps·i·m, which puts
    ⟨m|ṁ⟩ = i·eps off the transport gauge."""
    state, original = dynamics_mod.analytic_state, dynamics_mod.analytic_state_derivative

    def shifted(params, t):
        return original(params, t) + 1j * eps * state(params, t)

    return shifted


def off_axis_quaternions(angle):
    """``dynamics._quaternions`` with the rotation axis turned ``angle`` rad about z."""
    original = dynamics_mod._quaternions
    c, s = math.cos(angle), math.sin(angle)
    turn = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])

    def off_axis(omega):
        cos_part, v = original(omega)
        return cos_part, v @ turn.T

    return off_axis


def late_acc_max(fraction):
    """``geometry.extrema_summary`` with t_accmax ``fraction`` of a period late."""
    original = geometry_mod.extrema_summary

    def shifted(params):
        ext = original(params)
        return dataclasses.replace(ext, t_accmax=ext.t_accmax + fraction * ext.period)

    return shifted


# Both Gauss points of the Magnus step moved onto the midpoint (to replace
# ``dynamics._STEP_POINTS``): the exponential midpoint rule, still exactly
# unitary but only 2nd order.
MIDPOINT_NODES = np.array([0.5, 0.5, 0.5])
