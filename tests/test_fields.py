import math
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochcurve import (
    CallableField,
    FieldSample,
    InvalidArgumentError,
    ScenarioParams,
    TimeGrid,
    integrate_schrodinger,
    parallel_transverse_ratio,
    two_parameter_field,
)

P11 = ScenarioParams(1.0, 1.0)


def domain_edges(w):
    """Where ν₀², 4(ν₀/ω₀)², 2ν₀ω₀ and ν₀²/4 first overflow at ω₀ = w, each
    with its two neighbours, and the values at the ends of the doubles."""
    big = sys.float_info.max
    edges = [math.sqrt(big), math.sqrt(big / 4.0) * w, big / (2.0 * w), 2.0 * math.sqrt(big)]
    return [f(e) for e in edges for f in (lambda x: math.nextafter(x, 0.0), lambda x: x,
                                          lambda x: math.nextafter(x, math.inf))] + [
        math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, sys.float_info.min, big]


def h_parallel_sq(params, t):
    """Oracle: squared component of h along the precession axis,
    (ν₀²/4) sin⁴(2ω₀t)."""
    s2 = np.sin(2.0 * params.omega0 * t)
    return 0.25 * params.nu0**2 * s2**4


def h_transverse_sq(params, t):
    """Oracle: squared transverse component, (ν₀²/16) sin²(4ω₀t) + ω₀²."""
    s4 = np.sin(4.0 * params.omega0 * t)
    return params.nu0**2 / 16.0 * s4 * s4 + params.omega0**2


class TestScenarioParams:
    def test_accepts_geodesic_limit(self):
        assert ScenarioParams(2.0, 0.0).nu0 == 0.0

    @pytest.mark.parametrize("w, n", [(0.0, 1.0), (-1.0, 1.0), (1.0, -0.1)])
    def test_rejects_bad_rates(self, w, n):
        with pytest.raises(InvalidArgumentError):
            ScenarioParams(w, n)

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidArgumentError):
            ScenarioParams(math.inf, 1.0)

    def test_accepts_an_array_of_drive_strengths(self):
        p = ScenarioParams(1.0, [0.0, 0.5, 2.0])
        assert isinstance(p.nu0, np.ndarray)
        assert p.nu0.tolist() == [0.0, 0.5, 2.0]
        assert ScenarioParams(1.0, np.float64(0.5)).nu0 == 0.5

    @pytest.mark.parametrize("bad", [-0.1, math.nan, math.inf])
    def test_array_error_names_the_offending_entry(self, bad):
        with pytest.raises(InvalidArgumentError, match=rf"nu0\[2\] .*{bad!r}"):
            ScenarioParams(1.0, np.array([0.5, 1.0, bad, 3.0]))

    def test_rejects_arrays_beyond_one_dimension(self):
        with pytest.raises(InvalidArgumentError):
            ScenarioParams(1.0, np.ones((2, 2)))

    @pytest.mark.parametrize("w, n, message", [
        (5e-324, 0.0, r"omega0 = 5e-324 .*pi/\(2\*omega0\)"),
        (5e307, 0.0, r"omega0 = 5e\+307 .*4\*omega0 must be finite"),
        (1e-310, 1e-310, r"omega0 = 1e-310 "),
        (1e200, 1e200, r"nu0 = 1e\+200 .*nu0\*\*2"),
        (1e-10, 1e160, r"nu0 = 1e\+160 "),
        (1e-160, 1.0, r"nu0 = 1.0 .*4\*\(nu0/omega0\)\*\*2"),
        (1e300, 1e10, r"nu0 = 10000000000.0 .*nu0\*\(2\*omega0 \+ nu0/4\)"),
    ])
    def test_rejects_what_a_closed_form_would_overflow(self, w, n, message):
        # pi/(2 omega0), 4 omega0, nu0**2, 4 (nu0/omega0)**2 and the field rate
        # nu0 (2 omega0 + nu0/4) must be finite doubles
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError, match=message):
                ScenarioParams(w, n)
            with pytest.raises(InvalidArgumentError, match=r"nu0\[3\] = "):
                ScenarioParams(1.0, [0.0, 1.0, 2.0, 1e155, 3.0, 1e160])

    def test_accepts_the_largest_ratio_in_range(self):
        # 4 r**2 at the largest r with a finite square is the largest double
        for w in (1.0, 1e-150):
            r = math.nextafter(math.sqrt(sys.float_info.max / 4.0), 0.0)
            p = ScenarioParams(w, np.array([0.0, r * w]))
            assert math.isfinite(4.0 * (p.nu0[1] / w) ** 2)
            with pytest.raises(InvalidArgumentError):
                ScenarioParams(w, 2.0 * r * w)

    def test_domain_check_memory_is_bounded_by_the_list(self):
        # an in-range list is checked at its min and max: nothing grows with it
        nu0 = np.geomspace(1e-3, 1e3, 10**6)
        tracemalloc.start()
        try:
            ScenarioParams(1.0, nu0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.01 * nu0.nbytes

    @pytest.mark.parametrize("w", [1.0, 1e-150, 1e300, 4e307])
    def test_verdicts_match_the_whole_array_expressions(self, w):
        # entries on both sides of every overflow edge, each half of the list
        # holding some; the check must reject exactly where these reject
        edges = [math.sqrt(sys.float_info.max), math.sqrt(sys.float_info.max / 4.0) * w,
                 sys.float_info.max / (2.0 * w), 2.0 * math.sqrt(sys.float_info.max)]
        nu0 = np.array([f(e) for e in edges
                        for f in (lambda x: math.nextafter(x, 0.0), lambda x: x,
                                  lambda x: math.nextafter(x, math.inf))] + [0.0, 1.0])
        nu0 = nu0[np.isfinite(nu0)]
        with np.errstate(over="ignore", invalid="ignore"):
            k = (nu0 / w) * (4.0 * (nu0 / w))
            ok = (np.isfinite(nu0 * nu0) & np.isfinite(k)
                  & np.isfinite(2.0 * (nu0 * w) + 0.25 * (nu0 * nu0)))
        for x, accepted in zip(nu0.tolist(), ok.tolist()):
            if accepted:
                assert ScenarioParams(w, x).nu0 == x
            else:
                with pytest.raises(InvalidArgumentError, match="out of range"):
                    ScenarioParams(w, x)
        for i in np.flatnonzero(~ok).tolist():
            with pytest.raises(InvalidArgumentError, match=rf"nu0\[{i}\] = "):
                ScenarioParams(w, np.concatenate([np.ones(i), nu0[i:]]))

    @pytest.mark.parametrize("w", [1.0, 1e-150, 1e300, 4e307])
    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_accepts_exactly_when_every_entry_passes(self, w, data):
        # the check reads only the largest entry unless it fails; it must still
        # accept exactly the lists whose every entry passes the elementwise
        # expressions, and otherwise name the first entry that does not
        values = data.draw(st.lists(st.one_of(st.floats(), st.sampled_from(domain_edges(w))),
                                    max_size=12))
        nu0 = np.array(values, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            k = (nu0 / w) * (4.0 * (nu0 / w))
            ok = (np.isfinite(nu0 * nu0) & np.isfinite(k) & (nu0 >= 0.0)
                  & np.isfinite(2.0 * (nu0 * w) + 0.25 * (nu0 * nu0)))
        if ok.all():
            assert np.array_equal(ScenarioParams(w, nu0).nu0, nu0)
        else:
            i = int(np.argmin(ok))
            value = re.escape(repr(values[i]))
            with pytest.raises(InvalidArgumentError,
                               match=rf"^nu0\[{i}\] (= {value} is out of range|"
                                     rf"must be finite and >= 0, got {value})"):
                ScenarioParams(w, nu0)


class TestBuiltinField:
    def test_value_at_origin(self):
        s = two_parameter_field(P11, 0.0)
        assert s.h0 == 0.0
        assert np.allclose(s.h, (0.0, 1.0, 0.0), atol=1e-15)

    def test_z_component_peak(self):
        # h_z = (nu0/2) sin^2(2 w t) peaks at t = pi/(4 w)
        s = two_parameter_field(P11, math.pi / 4.0)
        assert s.h[2] == pytest.approx(0.5, abs=1e-15)

    def test_traceless(self):
        for t in np.linspace(0.0, 7.0, 23):
            assert two_parameter_field(P11, float(t)).h0 == 0.0

    @pytest.mark.parametrize("params", [P11, ScenarioParams(2.0, 0.7)])
    def test_hand_derivative_matches_stencil(self, params):
        # chain-rule derivative against a 4th-order central stencil
        dt = 1e-4
        for t in (0.1, 0.55, 1.3, 2.9):
            def h_of(u, p=params):
                return two_parameter_field(p, u).h

            stencil = (
                h_of(t - 2 * dt) - 8.0 * h_of(t - dt)
                + 8.0 * h_of(t + dt) - h_of(t + 2 * dt)
            ) / (12.0 * dt)
            analytic = two_parameter_field(params, t).h_dot
            assert np.max(np.abs(analytic - stencil)) <= 1e-10

    def test_rejects_nonfinite_time(self):
        with pytest.raises(InvalidArgumentError):
            two_parameter_field(P11, math.nan)


class TestFieldSample:
    def test_rejects_nonfinite_components(self):
        with pytest.raises(InvalidArgumentError):
            FieldSample(0.0, 0.0, (math.inf, 0.0, 0.0), (0.0, 0.0, 0.0))

    def test_rejects_vectors_not_matching_the_times(self):
        with pytest.raises(InvalidArgumentError):
            FieldSample(np.zeros(4), 0.0, np.zeros((3, 3)), np.zeros((3, 3)))
        with pytest.raises(InvalidArgumentError):
            FieldSample(0.0, 0.0, (1.0, 0.0), (0.0, 0.0))
        with pytest.raises(InvalidArgumentError, match=r"h0 of shape \(2,\) .* shape \(\)"):
            FieldSample(0.0, [1.0, 2.0], (1, 0, 0), (0, 0, 0))

    def test_coerces_to_arrays(self):
        s = FieldSample(0.0, 0.5, [1, 2, 3], [0, 0, 0])
        assert s.h.dtype == float
        assert s.h.shape == (3,)


class TestCallableField:
    def test_constant_field_has_zero_derivative(self):
        spec = CallableField(h=lambda t: (0.3, -1.0, 2.0))
        assert np.max(np.abs(spec.sample(1.7).h_dot)) <= 1e-12

    def test_linear_field_derivative(self):
        spec = CallableField(h=lambda t: (t, 0.0, 0.0))
        assert np.allclose(spec.sample(0.9).h_dot, (1.0, 0.0, 0.0), atol=1e-10)

    def test_stencil_accuracy_on_smooth_field(self):
        spec = CallableField(h=lambda t: (np.sin(t), t * t, 1.0))
        for t in (0.2, 1.0, 2.5):
            expected = (math.cos(t), 2.0 * t, 0.0)
            assert np.max(np.abs(spec.sample(t).h_dot - expected)) <= 1e-8

    def test_analytic_derivative_wins_when_given(self):
        spec = CallableField(
            h=lambda t: (np.sin(t), 0.0, 0.0),
            h_dot=lambda t: (np.cos(t), 0.0, 0.0),
        )
        assert spec.sample(0.4).h_dot[0] == np.cos(0.4)

    def test_scalar_part_constant_or_callable(self):
        assert CallableField(h=lambda t: (1, 0, 0), h0=0.7).sample(2.0).h0 == 0.7
        varying = CallableField(h=lambda t: (1, 0, 0), h0=lambda t: 2.0 * t)
        assert varying.sample(3.0).h0 == 6.0

    def test_array_of_times_matches_per_point_samples(self):
        # stencil derivative and callable h0, on a 2-D grid of times
        spec = CallableField(h=lambda t: (np.sin(t), t * t, 1.0), h0=lambda t: 2.0 * t)
        t = np.array([[0.2, 1.0, 2.5], [-0.7, 0.0, 3.1]])
        whole = spec.sample(t)
        assert whole.h.shape == whole.h_dot.shape == (2, 3, 3)
        assert whole.h0.shape == (2, 3)
        for idx in np.ndindex(t.shape):
            one = spec.sample(float(t[idx]))
            assert whole.h0[idx] == one.h0
            assert np.array_equal(whole.h[idx], one.h)
            assert np.array_equal(whole.h_dot[idx], one.h_dot)

    def test_sample_calls_each_callable_once_per_grid(self):
        calls = {"h": [], "h_dot": [], "h0": []}

        def counted(name, fn):
            def wrapped(t):
                calls[name].append(np.shape(t))
                return fn(t)
            return wrapped

        t = np.linspace(0.0, 2.0, 101)
        spec = CallableField(h=counted("h", lambda t: (np.sin(t), t, 1.0)),
                             h_dot=counted("h_dot", lambda t: (np.cos(t), 1.0, 0.0)),
                             h0=counted("h0", lambda t: 0.5 * t))
        spec.sample(t)
        assert calls == {"h": [(101,)], "h_dot": [(101,)], "h0": [(101,)]}
        # without h_dot the stencil points ride along in the one call of h
        calls["h"].clear()
        CallableField(h=counted("h", lambda t: (np.sin(t), t, 1.0))).sample(t)
        assert calls["h"] == [(5, 101)]

    def test_rejects_malformed_components(self):
        t = np.linspace(0.0, 1.0, 4)
        with pytest.raises(InvalidArgumentError, match="3 components"):
            CallableField(h=lambda t: (t, t), h_dot=lambda t: (0, 0, 0)).sample(t)
        with pytest.raises(InvalidArgumentError, match="broadcast"):
            CallableField(h=lambda t: (t, np.zeros(3), 0.0),
                          h_dot=lambda t: (0, 0, 0)).sample(t)
        with pytest.raises(InvalidArgumentError, match=r"h0 of shape \(3,\) .* shape \(11,\)"):
            integrate_schrodinger(CallableField(h=lambda t: (1.0, 0.0, 0.0),
                                                h0=lambda t: np.zeros(3)).sample,
                                  [1.0, 0.0], TimeGrid(0.0, 1.0, 10))


class TestParallelTransverseSplit:
    def test_decomposition_identity(self):
        # parallel + transverse squares must rebuild |h|^2
        for t in np.linspace(0.0, 3.0, 61):
            h = two_parameter_field(P11, float(t)).h
            total = h_parallel_sq(P11, float(t)) + h_transverse_sq(P11, float(t))
            assert abs(total - float(h @ h)) <= 1e-12

    def test_ratio_vanishes_at_half_period_multiples(self):
        for k in range(5):
            t = k * math.pi / 2.0
            assert parallel_transverse_ratio(P11, t) <= 1e-30

    def test_ratio_peak_value(self):
        # max r^2/4 at t = pi/(4 w)
        for w, n in [(1.0, 1.0), (1.0, 2.0), (0.5, 1.5)]:
            p = ScenarioParams(w, n)
            peak = parallel_transverse_ratio(p, math.pi / (4.0 * w))
            assert peak == pytest.approx(0.25 * (n / w) ** 2, abs=1e-12)

    def test_ratio_pinned_sample(self):
        assert parallel_transverse_ratio(P11, 0.3) == pytest.approx(
            0.024103084945102568, abs=1e-15
        )

    @pytest.mark.parametrize("w, n", [(1.0, 1.0), (1.0, 50.0), (0.7, 1.3), (1e-3, 1.0)])
    def test_ratio_is_the_quotient_of_the_squares(self, w, n):
        p = ScenarioParams(w, n)
        t = np.linspace(0.0, 4.0 / w, 301)
        quotient = h_parallel_sq(p, t) / h_transverse_sq(p, t)
        ratio = parallel_transverse_ratio(p, t)
        assert np.max(np.abs(ratio - quotient) / np.maximum(1.0, quotient)) <= 1e-15

    @pytest.mark.parametrize("w, n", [
        (1e155, 1.0), (1e155, 1e100), (1e-300, 1e-300), (1e-200, 1e-199),
    ])
    def test_ratio_is_finite_where_the_squares_are_not(self, w, n):
        # omega0**2 overflows, or both squares underflow to 0/0
        p = ScenarioParams(w, n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            peak = parallel_transverse_ratio(p, math.pi / (4.0 * w))
        assert peak == pytest.approx(0.25 * (n / w) ** 2, rel=1e-15)

    def test_ratio_zero_in_geodesic_limit(self):
        p = ScenarioParams(1.3, 0.0)
        assert parallel_transverse_ratio(p, 0.77) == 0.0

    def test_periodicity(self):
        period = math.pi / 2.0
        for t in (0.1, 0.6, 1.2):
            assert parallel_transverse_ratio(P11, t) == pytest.approx(
                parallel_transverse_ratio(P11, t + 3 * period), abs=1e-10
            )
            assert h_parallel_sq(P11, t) == pytest.approx(
                h_parallel_sq(P11, t + period), abs=1e-10
            )
