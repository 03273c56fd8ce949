import warnings

import pytest

from qlocc.verify import SUITES


@pytest.mark.parametrize("name", sorted(set(SUITES) - {"oracle"}))
def test_suite_raises_no_warning(name):
    # the family suites cover lam1 = 1/2, where generate_eq1 warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert SUITES[name](3, 5).ok
