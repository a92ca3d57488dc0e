import math

import numpy as np
import pytest

import blochcurve._floattext as floattext
from blochcurve._floattext import g17_words, table_chunks
from reference_render import reference_render


def kernel_lines(values):
    """The kernel's text of each value, one per line."""
    words = g17_words(np.asarray(values, dtype=np.float64))
    words[:, 3] |= ord("\n") << 56
    return words.astype("<u8").tobytes().translate(None, b"\0").decode("ascii")


def assert_matches_percent_format(values):
    values = np.asarray(values, dtype=np.float64).ravel()
    got = kernel_lines(values)
    expected = "".join("%.17g\n" % v for v in values.tolist())
    if got != expected:
        for v, g, e in zip(values.tolist(), got.split("\n"), expected.split("\n")):
            assert g == e, repr(v)
        raise AssertionError("line counts differ")


def with_neighbours(values, ulps=2):
    values = np.asarray(values, dtype=np.float64)
    out = [values]
    below = above = values
    for _ in range(ulps):
        below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
        out += [below, above]
    return np.concatenate(out)


class TestG17Words:
    def test_random_bit_patterns(self):
        bits = np.random.default_rng(20261018).integers(0, 2**64, size=200_000, dtype=np.uint64)
        assert_matches_percent_format(bits.view(np.float64))

    def test_every_power_of_ten_and_its_neighbours(self):
        # 1e-323 is subnormal and 1e308 near the top; the double nearest
        # 10^E can lie just below it (1e-240 prints 9.9999999999999997e-241)
        powers = [float(10**e) if e >= 0 else 1 / 10**-e for e in range(-323, 309)]
        values = with_neighbours(powers)
        assert_matches_percent_format(np.concatenate([values, -values]))

    def test_seventeen_digit_carry_boundaries(self):
        # the 17-digit rounding carries into a new decade, or just fails to
        mantissas = ["9.9999999999999995", "9.9999999999999994", "9.99999999999999985",
                     "1.9999999999999999", "1.00000000000000005", "5.0000000000000005",
                     "9.9999999999999999", "9.999999999999999"]
        values = [float(f"{m}e{e}") for m in mantissas for e in range(-300, 301, 7)]
        assert_matches_percent_format(with_neighbours(values))

    @pytest.mark.parametrize("switch", [1e-4, 1e17, 1e-250, 1e250])
    def test_fixed_and_exponent_switch(self, switch):
        # %.17g changes notation at 1e-4 and 1e17; the fast path ends at
        # 1e-250 and 1e250
        values = with_neighbours([switch], ulps=40)
        assert_matches_percent_format(np.concatenate([values, -values]))

    def test_zeros_and_non_finite_values(self):
        assert kernel_lines([0.0, -0.0, math.inf, -math.inf, math.nan]) == "0\n-0\ninf\n-inf\nnan\n"

    def test_values_across_the_decades(self):
        rng = np.random.default_rng(7)
        scaled = rng.standard_normal(50_000) * 10.0 ** rng.integers(-320, 300, 50_000)
        short = np.round(rng.uniform(-1e6, 1e6, 20_000), 3)   # few digits: trailing zeros
        integers = rng.integers(-2**62, 2**62, 20_000).astype(np.float64)
        eighths = np.arange(-999, 1000) / 8
        assert_matches_percent_format(np.concatenate([scaled, short, integers, eighths]))

    def test_zeros_stay_on_the_fast_path(self, exact_path):
        # whole columns of zeros (simulate --nu0 0) must not be formatted one
        # value at a time; a value just off a power of ten must be
        assert kernel_lines(np.array([0.0, -0.0, 0.0])) == "0\n-0\n0\n"
        assert kernel_lines(np.array([1.0, 1e22, 0.001, 1e-240])) == (
            "1\n1e+22\n0.001\n9.9999999999999997e-241\n")
        assert exact_path == [0.001, 1e-240]

    def test_near_ties_take_the_exact_path(self, exact_path):
        # x·10^(16−E) lies 2.1e-16 from N + 1/2 for each of these doubles (no
        # double is an exact tie at 17 digits), far inside the remainder's
        # error bound, so Python's own formatting must settle them
        near_ties = [1.1473543192139844e38, 1.597714281951034e38,
                     4.750234021110381e38, 6.058405084578809e38]
        assert_matches_percent_format(near_ties)
        assert exact_path == near_ties


@pytest.fixture
def exact_path(monkeypatch):
    """The values the kernel sends to ``'%.17g' %`` one at a time."""
    sent = []
    original = floattext._exact_words

    def spy(values):
        sent.extend(values.tolist())
        return original(values)

    monkeypatch.setattr(floattext, "_exact_words", spy)
    return sent


def broadcast(columns):
    return np.broadcast_arrays(*columns)


class TestTableChunks:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("layout", ["vvv", "svv", "vvs", "svsvs", "v"])
    @pytest.mark.parametrize("rows", [0, 1, 2, 5, 13])
    def test_matches_the_reference_across_chunk_seams(self, monkeypatch, fmt, layout, rows):
        # 0-d columns first, last and in between; chunks of 1 to a few rows
        monkeypatch.setattr(floattext, "_CHUNK_VALUES", 7)
        rng = np.random.default_rng(rows)
        columns = [rng.standard_normal(rows) * 10.0 ** rng.integers(-20, 20, rows)
                   if kind == "v" else float(rng.standard_normal()) for kind in layout]
        names = tuple(f"c{i}" for i in range(len(layout)))
        text = "".join(table_chunks(columns, names, fmt))
        assert text == reference_render(columns, names, fmt)
        assert text == reference_render(broadcast(columns), names, fmt)

    @pytest.mark.parametrize("columns", [
        [1.0, 2.0], [np.zeros(3), np.zeros(4)], [np.zeros(10), np.zeros(14)], [np.zeros((2, 2))],
    ])
    def test_rejects_columns_that_do_not_make_a_table(self, columns):
        with pytest.raises(ValueError):
            list(table_chunks(columns, tuple("ab"[:len(columns)]), "csv"))

    def test_yields_bounded_chunks(self):
        columns = [np.arange(100_000.0), np.full(100_000, math.pi)]
        chunks = list(table_chunks(columns, ("a", "b"), "csv"))
        assert max(map(len, chunks)) <= floattext._CHUNK_VALUES * 40
        assert "".join(chunks) == reference_render(columns, ("a", "b"), "csv")
