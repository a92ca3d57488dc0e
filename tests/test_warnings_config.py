"""The repository's own ``filterwarnings`` keep a failing run whole.

Warnings are errors, except the DeprecationWarning that hypothesis's pytest
plugin raises while it reports a falsified example, which would otherwise
abort the session and hide every later result. Each test runs pytest in a
subprocess under a copy of ``pyproject.toml``.
"""

from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _run(pytester, source):
    pytester.makepyprojecttoml(PYPROJECT.read_text(encoding="utf-8"))
    pytester.makepyfile(test_inner=source)
    return pytester.runpytest_subprocess("test_inner.py")


def test_a_failing_property_reports_every_later_test(pytester):
    result = _run(pytester, """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_property_fails(x):
            assert x < 0

        def test_after_it():
            pass
    """)
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()


def test_a_deprecation_warning_of_a_test_still_fails_it(pytester):
    result = _run(pytester, """
        import warnings

        def test_warns():
            warnings.warn("deprecated here", DeprecationWarning)
    """)
    result.assert_outcomes(failed=1)
