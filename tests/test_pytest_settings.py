"""The repo's own pytest settings list a failing test as a failure."""

from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0
'''


def test_a_failing_hypothesis_test_is_listed(pytester):
    # The run uses the repo's filterwarnings, under which a warning raised
    # while hypothesis reports a failure must not end it (pyproject.toml).
    pytester.makefile(".toml", pyproject=PYPROJECT.read_text())
    pytester.mkdir("tests")
    (pytester.path / "tests" / "test_fails.py").write_text(FAILING)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
    result.assert_outcomes(failed=1)
