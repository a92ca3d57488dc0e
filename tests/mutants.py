"""Deliberately broken library functions for the mutation tests.

Each mutant must be caught by the validation battery. The field mutants
work on one node or on a whole grid alike: vector components sit on the last
axis, so ``h[..., 1]`` is the y component of every node.
"""

import numpy as np

import blochcurve.fields as fields_mod
from blochcurve import FieldSample


def flip_h_y(h, hd):
    """Reverse the y component of the field and of its rate."""
    h[..., 1] = -h[..., 1]
    hd[..., 1] = -hd[..., 1]


def scale_h_dot_z(h, hd):
    """Make the z rate 1% too large; the field itself stays right."""
    hd[..., 2] *= 1.01


def corrupted_field(mutate):
    """``two_parameter_field`` with ``mutate(h, h_dot)`` applied in place to
    every sample; to be monkeypatched over ``blochcurve.fields``."""
    original = fields_mod.two_parameter_field

    def corrupted(params, t):
        s = original(params, t)
        h = s.h.copy()
        hd = s.h_dot.copy()
        mutate(h, hd)
        return FieldSample(s.t, s.h0, h, hd)

    return corrupted


def two_terms_only(a, h, h_dot):
    """``curvature_bloch`` without its chirality term 4(a·h)[a·(h×ḣ)]/D²."""
    av, hv, hd = (np.asarray(x, dtype=float) for x in (a, h, h_dot))

    def dot(x, y):
        return np.sum(x * y, axis=-1)

    h2 = dot(hv, hv)
    ah = dot(av, hv)
    den = h2 - ah * ah
    w = dot(av, hd)[..., None] * hv - ah[..., None] * hd
    num2 = (h2 * dot(hd, hd) - dot(hv, hd) ** 2) - dot(w, w)
    return 4.0 * ah * ah / den + num2 / den ** 3


def no_hdot_term(a, h, h_dot):
    """``curvature_bloch`` as 4[a·(ȧ × ä)]²/|ȧ|⁶ with ȧ = 2h × a, but with
    the 2ḣ × a term dropped from ä = 2ḣ × a + 2h × ȧ."""
    av, hv = (np.asarray(x, dtype=float) for x in (a, h))
    a_dot = 2.0 * np.cross(hv, av)
    a_ddot = 2.0 * np.cross(hv, a_dot)
    speed2 = np.sum(a_dot * a_dot, axis=-1)
    return 4.0 * np.sum(av * np.cross(a_dot, a_ddot), axis=-1) ** 2 / speed2 ** 3


# Both Gauss points of the Magnus step moved onto the midpoint (monkeypatched
# over ``blochcurve.dynamics._STEP_POINTS``): the exponential midpoint rule,
# still exactly unitary but only 2nd order.
MIDPOINT_NODES = np.array([0.5, 0.5, 0.5])
