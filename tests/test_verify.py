import warnings

import pytest

from qlocc.verify import SUITES, SuiteResult


@pytest.mark.parametrize("name", sorted(set(SUITES) - {"oracle"}))
def test_suite_raises_no_warning(name):
    # the family suites cover lam1 = 1/2, where generate_eq1 warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert SUITES[name](3, 5).ok


def test_failures_counted_and_first_three_noted():
    res = SuiteResult("demo", 5, 0)
    for note in ("seed 1", "seed 2", "seed 3", "seed 4"):
        res.fail(note)
    assert not res.ok
    assert res.summary() == "[FAIL] demo: 1/5 | seed 1; seed 2; seed 3"
