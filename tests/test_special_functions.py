import math
import tracemalloc
import warnings

import numpy as np
import pytest

import blochcurve.special_functions as special_functions_mod
from blochcurve import (
    DomainError,
    InvalidArgumentError,
    elliptic_e,
    elliptic_e_incomplete,
)
from blochcurve.errors import ConvergenceError
from blochcurve.special_functions import _carlson_rf_rd
from reference_quadrature import QuadratureResult, adaptive_simpson

SCENARIO_PARAMETERS = (-2.5e5, -625.0, -1.0, -0.25, 0.0, 0.5, 0.99)


def legendre_quadrature(phi, m):
    def integrand(theta):
        return math.sqrt(1.0 - m * math.sin(theta) ** 2)

    return adaptive_simpson(integrand, 0.0, phi, tol=1e-12).value


# the kernel's two outputs, one form at a time
def carlson_rf(x, y, z):
    return _carlson_rf_rd(x, y, z)[0]


def carlson_rd(x, y, z):
    return _carlson_rf_rd(x, y, z)[1]


class TestCarlson:
    def test_rf_equal_arguments(self):
        # R_F(x,x,x) = x^{-1/2}
        for x in (0.25, 1.0, 2.0, 9.0):
            assert carlson_rf(x, x, x) == pytest.approx(1.0 / math.sqrt(x), rel=1e-14)

    def test_rf_degenerate_zero(self):
        # R_F(0,y,y) = pi / (2 sqrt(y))
        assert carlson_rf(0.0, 1.0, 1.0) == pytest.approx(math.pi / 2.0, rel=1e-14)
        assert carlson_rf(0.0, 4.0, 4.0) == pytest.approx(math.pi / 4.0, rel=1e-14)

    def test_rd_equal_arguments(self):
        # R_D(x,x,x) = x^{-3/2}
        assert carlson_rd(4.0, 4.0, 4.0) == pytest.approx(0.125, rel=1e-14)
        assert carlson_rd(1.0, 1.0, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_rf_symmetric_in_all_arguments(self):
        vals = {carlson_rf(*perm) for perm in
                [(1.0, 2.0, 3.0), (2.0, 1.0, 3.0), (3.0, 2.0, 1.0),
                 (1.0, 3.0, 2.0), (2.0, 3.0, 1.0), (3.0, 1.0, 2.0)]}
        assert max(vals) - min(vals) < 1e-15

    def test_rd_symmetric_in_first_two(self):
        assert carlson_rd(1.0, 2.0, 3.0) == pytest.approx(
            carlson_rd(2.0, 1.0, 3.0), rel=1e-15
        )

    def test_homogeneity(self):
        # R_F scales as k^{-1/2}, R_D as k^{-3/2}
        x, y, z, k = 0.7, 1.9, 3.2, 5.0
        assert carlson_rf(k * x, k * y, k * z) == pytest.approx(
            carlson_rf(x, y, z) / math.sqrt(k), rel=1e-13
        )
        assert carlson_rd(k * x, k * y, k * z) == pytest.approx(
            carlson_rd(x, y, z) / k ** 1.5, rel=1e-13
        )

    @pytest.mark.parametrize("j", [1, 150, 300])
    def test_scaled_entries_are_exact_powers_of_two(self, j):
        # an argument set times 4**j beyond the scaling threshold gives the
        # unscaled value times 2**-j (R_F) or 8**-j (R_D) bit for bit
        x = np.array([1e-30, 0.0, 2.5, 7.0]) * 1e125
        y = np.array([3.0, 1.0, 2.5, 1e-20]) * 1e125
        z = np.array([1.0, 4.0, 2.5, 1.0]) * 1e125
        up = 4.0 ** j
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(carlson_rf(x * up, y * up, z * up), carlson_rf(x, y, z) / 2.0 ** j)
            assert np.array_equal(carlson_rd(x * up, y * up, z * up), carlson_rd(x, y, z) / 8.0 ** j)

    def test_rf_domain(self):
        with pytest.raises(DomainError):
            carlson_rf(-1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            carlson_rf(0.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            carlson_rf(np.array([1.0, 0.0]), np.array([1.0, 0.0]), 1.0)

    @pytest.mark.parametrize("args", [(0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 0.0),
                                      (1.0, 2.0, -0.5), (2.0, -0.5, 1.0)])
    def test_rf_domain_in_every_position(self, args):
        with pytest.raises(DomainError):
            carlson_rf(*args)

    def test_array_arguments_broadcast(self):
        # one call over an array gives each entry's value and keeps the
        # domain checks entry by entry
        y = np.array([0.5, 1.0, 4.0, 2.5e5])
        rf = carlson_rf(0.0, y, 1.0)
        rd = carlson_rd(0.0, y, 1.0)
        assert rf.shape == rd.shape == (4,)
        for k, yk in enumerate(y.tolist()):
            assert rf[k] == pytest.approx(carlson_rf(0.0, yk, 1.0), rel=1e-15)
            assert rd[k] == pytest.approx(carlson_rd(0.0, yk, 1.0), rel=1e-15)

    def test_rd_domain(self):
        with pytest.raises(DomainError):
            carlson_rd(1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            carlson_rd(0.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            carlson_rd(-0.5, 1.0, 1.0)
        with pytest.raises(DomainError):
            carlson_rd(np.array([1.0, -1.0]), 1.0, 1.0)

    @pytest.mark.parametrize("nu0", [1.0, 50.0, 1000.0, 1e100])
    def test_arc_length_arguments_match_mpmath(self, nu0):
        # the arguments (cos²r, 1 − m·sin²r, 1) of the arc length s(t) at
        # m = −ν₀²/4; R_F and R_D stop after different numbers of steps at
        # ν₀ = 1000 and 1e100, and each form is checked where it is summed
        mpmath = pytest.importorskip("mpmath")
        r, m = np.linspace(-math.pi / 2.0, math.pi / 2.0, 301), -0.25 * nu0 ** 2
        x, y = np.cos(r) ** 2, 1.0 - m * np.sin(r) ** 2
        rf, rd = _carlson_rf_rd(x, y, 1.0)
        with mpmath.workdps(40):
            ref_f = np.array([float(mpmath.elliprf(a, b, 1)) for a, b in zip(x, y)])
            ref_d = np.array([float(mpmath.elliprd(a, b, 1)) for a, b in zip(x, y)])
        assert np.max(np.abs(rf - ref_f) / ref_f) <= 1e-15
        assert np.max(np.abs(rd - ref_d) / ref_d) <= 1e-15

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(special_functions_mod, "_MAX_DUPLICATIONS", 1)
        with pytest.raises(ConvergenceError):
            _carlson_rf_rd(0.5, 2.0, 1.0)

    def test_rd_sums_after_seven_duplications(self, monkeypatch):
        # the arguments of the arc length at ν₀ = 1000 on the 62830-step grid
        # over [0, 2π]: R_D's stopping rule first holds after 7 duplications
        # (R_F's sooner), so it returns within 8 passes and not within 7, where
        # a rule relaxed by 4x would already return
        phi = 2.0 * np.linspace(0.0, 2.0 * math.pi, 62831)
        r = phi - np.rint(phi / math.pi) * math.pi
        x, y = np.cos(r) ** 2, 1.0 + 0.25e6 * np.sin(r) ** 2
        monkeypatch.setattr(special_functions_mod, "_MAX_DUPLICATIONS", 8)
        _carlson_rf_rd(x, y, 1.0)
        monkeypatch.setattr(special_functions_mod, "_MAX_DUPLICATIONS", 7)
        with pytest.raises(ConvergenceError):
            _carlson_rf_rd(x, y, 1.0)


class TestEllipticE:
    def test_endpoint_values(self):
        assert elliptic_e(0.0) == pytest.approx(math.pi / 2.0, abs=1e-15)
        assert elliptic_e(1.0) == 1.0
        # exact inside arrays too: a far entry keeps every entry iterating,
        # and a Carlson value at m = 0 would then miss pi/2
        vals = elliptic_e(np.array([-3.0, 0.0, 0.5, 1.0, -1e30]))
        assert vals[1] == math.pi / 2.0
        assert vals[3] == 1.0
        assert vals[0] == pytest.approx(elliptic_e(-3.0), rel=1e-15)

    def test_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        m = np.concatenate([-np.logspace(30.0, -20.0, 301),
                            np.linspace(0.0, 1.0, 200, endpoint=False),
                            1.0 - 10.0 ** -np.arange(1.0, 16.0), [1.0 - 2.0 ** -52]])
        with mpmath.workdps(40):
            ref = np.array([float(mpmath.ellipe(x)) for x in m.tolist()])
        assert np.max(np.abs(elliptic_e(m) - ref) / ref) <= 1e-14

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(special_functions_mod, "_MAX_AGM_STEPS", 1)
        with pytest.raises(ConvergenceError):
            elliptic_e(-1.0)

    def test_peak_memory_is_a_few_arrays(self):
        # the sweep's parameters: m = -(nu0/omega0)^2/4 over six decades of nu0
        m = -0.25 * np.logspace(-3.0, 3.0, 100_000) ** 2
        tracemalloc.start()
        try:
            elliptic_e(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * m.nbytes

    def test_pinned_negative_parameters(self):
        assert elliptic_e(-0.25) == pytest.approx(1.6647918053913379, abs=1e-13)
        assert elliptic_e(-1.0) == pytest.approx(1.910098894513856, abs=1e-13)

    @pytest.mark.parametrize("m", [-4.0, -1.0, -0.25, 0.0, 0.5, 0.99])
    def test_matches_legendre_integral(self, m):
        def integrand(theta):
            return math.sqrt(1.0 - m * math.sin(theta) ** 2)

        quad = adaptive_simpson(integrand, 0.0, math.pi / 2.0, tol=1e-12)
        assert abs(elliptic_e(m) - quad.value) <= 1e-10

    def test_monotone_decreasing(self):
        grid = np.linspace(-4.0, 1.0, 101)
        vals = [elliptic_e(float(m)) for m in grid]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_lower_bound_one(self):
        for m in np.linspace(-4.0, 0.999, 57):
            assert elliptic_e(float(m)) > 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            elliptic_e(1.5)
        with pytest.raises(InvalidArgumentError):
            elliptic_e(math.inf)
        with pytest.raises(DomainError, match="1.5"):
            elliptic_e(np.array([0.5, 1.5]))
        with pytest.raises(InvalidArgumentError):
            elliptic_e(np.array([0.5, math.nan]))


class TestEllipticEIncomplete:
    @pytest.mark.parametrize("m", SCENARIO_PARAMETERS)
    def test_matches_scipy(self, m):
        special = pytest.importorskip("scipy.special")
        phi = np.linspace(0.0, 60.0, 2401)
        got = elliptic_e_incomplete(phi, m)
        ref = special.ellipeinc(phi, m)
        assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))

    @pytest.mark.parametrize("phi, m", [
        (0.3, -4.0), (1.2, 0.5), (3.5, -4.0), (7.9, -0.25), (12.0, 0.5),
        (20.0, 0.99), (5.0, -625.0),
    ])
    def test_matches_legendre_integral(self, phi, m):
        value = elliptic_e_incomplete(phi, m)
        assert abs(value - legendre_quadrature(phi, m)) <= 1e-10 * max(1.0, value)

    @pytest.mark.parametrize("m", SCENARIO_PARAMETERS)
    def test_odd_in_phi_and_zero_at_origin(self, m):
        phi = np.array([0.4, 2.0, 9.3])
        assert np.array_equal(elliptic_e_incomplete(-phi, m), -elliptic_e_incomplete(phi, m))
        assert elliptic_e_incomplete(0.0, m) == 0.0

    @pytest.mark.parametrize("m", SCENARIO_PARAMETERS)
    def test_nondecreasing_across_the_seams(self, m):
        # the reduction switches from r = +pi/2 to r = -pi/2 (and k by one) at
        # phi = (k + 1/2) pi; the two sides must still be ordered
        centre = (np.arange(0, 19) + 0.5) * math.pi
        phi = np.stack([centre - 1e-13, centre, centre + 1e-13], axis=-1).ravel()
        assert np.all(np.diff(elliptic_e_incomplete(phi, m)) >= 0.0)

    @pytest.mark.parametrize("phi, m", [
        (1.0, -1e307), (2.5, -1e307), (0.3, -1e306), (100.0, -1e307), (1.0, -1.7e308),
        (-7.0, -3e250), (1.0, -1e210),
    ])
    def test_huge_parameters_match_mpmath(self, phi, m):
        # the Carlson kernel sees arguments near 1e307: the homogeneity scaling
        # keeps its stopping bounds and R_D's 3/2 powers finite
        mpmath = pytest.importorskip("mpmath")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = elliptic_e_incomplete(phi, m)
        with mpmath.workdps(40):
            ref = float(mpmath.ellipe(phi, m))
        assert abs(value - ref) <= 1e-14 * abs(ref)

    def test_domain(self):
        with pytest.raises(DomainError):
            elliptic_e_incomplete(1.0, 1.5)
        with pytest.raises(InvalidArgumentError):
            elliptic_e_incomplete(math.inf, 0.5)
        with pytest.raises(InvalidArgumentError):
            elliptic_e_incomplete(1.0, math.nan)


class TestAdaptiveSimpson:
    def test_exact_on_cubic(self):
        res = adaptive_simpson(lambda x: x ** 3 - 2 * x ** 2 + 3 * x - 1, 0.0, 1.0)
        assert res.value == pytest.approx(1.0 / 12.0, abs=1e-14)
        # Simpson is exact on cubics, so both top panels accept immediately
        assert res.evaluations <= 15

    def test_smooth_integral(self):
        res = adaptive_simpson(math.sin, 0.0, math.pi, tol=1e-12)
        assert res.value == pytest.approx(2.0, abs=1e-12)
        assert res.error_estimate <= 1e-12

    def test_result_type_and_counting(self):
        calls = 0

        def f(x):
            nonlocal calls
            calls += 1
            return math.exp(-x * x)

        res = adaptive_simpson(f, 0.0, 2.0, tol=1e-9)
        assert isinstance(res, QuadratureResult)
        assert res.evaluations == calls

    def test_tighter_tolerance_costs_more(self):
        loose = adaptive_simpson(math.cos, 0.0, 3.0, tol=1e-6)
        tight = adaptive_simpson(math.cos, 0.0, 3.0, tol=1e-13)
        assert tight.evaluations > loose.evaluations
        assert tight.value == pytest.approx(math.sin(3.0), abs=1e-13)

    def test_periodic_integrand_not_aliased(self):
        # speed of the built-in drive has period pi/2; a bisection-only
        # sampler sees the same phase at every node over [0, 2*pi] and
        # accepts 2*pi. The true value is 4*E(-1/4).
        def speed(t):
            return math.sqrt(1.0 + 0.25 * math.sin(2.0 * t) ** 2)

        res = adaptive_simpson(speed, 0.0, 2.0 * math.pi, tol=1e-10)
        expected = 4.0 * elliptic_e(-0.25)
        assert abs(res.value - expected) <= 1e-9
        assert abs(res.value - 2.0 * math.pi) > 0.3

    def test_depth_limit_raises(self):
        # unresolvable oscillation near the left endpoint
        with pytest.raises(ConvergenceError):
            adaptive_simpson(lambda x: math.sin(1.0 / x), 1e-15, 1.0, tol=1e-10)

    def test_validates_bounds_and_tolerance(self):
        with pytest.raises(InvalidArgumentError):
            adaptive_simpson(math.sin, 1.0, 0.0)
        with pytest.raises(InvalidArgumentError):
            adaptive_simpson(math.sin, 0.0, 1.0, tol=0.0)

    def test_rejects_nonfinite_integrand(self):
        with pytest.raises(InvalidArgumentError):
            adaptive_simpson(lambda x: math.nan, 0.0, 1.0)
