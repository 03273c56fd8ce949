import math
import sys

import numpy as np
import pytest

from qlocc import OrthogonalSet, PureState, Tolerances, make_state
from qlocc.errors import BadTolerance, InvalidSet, QloccError
from qlocc.ueb import GeneratorParams, generate_eq1, generate_eq2

BELL = [make_state(v) for v in ([1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0])]


class TestNonFiniteMembers:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, complex(0, math.nan)], ids=["nan", "inf", "nanj"]
    )
    def test_rejected(self, n, bad):
        # built directly, so make_state's norm check never sees it
        member = PureState([0, 1, bad, 0])
        with pytest.raises(InvalidSet, match="not finite"):
            OrthogonalSet(tuple(BELL[: n - 1]) + (member,))


class TestTolerances:
    @pytest.mark.parametrize("key", ["eps_orth", "eps_zero", "tau_overlap"])
    @pytest.mark.parametrize(
        "value",
        [True, False, 0, 0.0, -1e-9, math.nan, math.inf, -math.inf, "1e-9", None,
         pytest.param(10**400, id="int-overflow")],
    )
    def test_bad_value_rejected(self, key, value):
        with pytest.raises(BadTolerance, match=key) as info:
            Tolerances(**{key: value})
        assert isinstance(info.value, QloccError) and isinstance(info.value, ValueError)

    @pytest.mark.parametrize("value", [1, 1e-6, np.float64(1e-12), sys.float_info.max])
    def test_positive_finite_value_accepted(self, value):
        assert Tolerances(eps_zero=value).eps_zero == value

    def test_default_is_shared(self):
        sets = [
            OrthogonalSet(tuple(BELL[:2])),
            OrthogonalSet(tuple(BELL)),
            generate_eq1(GeneratorParams(0.3, 0.4)),
            generate_eq2(0.2),
        ]
        assert all(s.tolerances is sets[0].tolerances for s in sets)
        assert sets[0].tolerances == Tolerances()
