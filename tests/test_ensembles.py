import math
import sys

import numpy as np
import pytest

from qlocc import OrthogonalSet, PureState, Tolerances, make_state, random_orthogonal_set
from qlocc.ensembles import _haar_rows
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

    @pytest.mark.parametrize("value", [2, 1e-6, np.float64(1e-12), sys.float_info.max])
    def test_positive_finite_value_accepted(self, value):
        assert Tolerances(eps_zero=value).eps_zero == value

    @pytest.mark.parametrize(
        "eps_zero, tau",
        [(1e-9, 3.2e-5), (1e-12, 1e-6), (0.9999999999, 1e-4), (1, 1e-7), (1.0, 0.75),
         (0.5, 0.9)],
    )
    def test_tau_too_large_for_eps_zero_rejected(self, eps_zero, tau):
        # a bound of the no-three-hidden-members proof fails; at eps_zero = 1 a
        # complement concurrence rounding below 1 hides all three members
        with pytest.raises(BadTolerance, match="tau_overlap"):
            Tolerances(eps_zero=eps_zero, tau_overlap=tau)

    @pytest.mark.parametrize(
        "eps_zero, tau", [(1e-9, 3e-5), (1e-12, 9e-7), (0.5, 0.4), (1.5, 0.7), (2.0, 0.8)]
    )
    def test_tau_within_bound_accepted(self, eps_zero, tau):
        assert Tolerances(eps_zero=eps_zero, tau_overlap=tau).tau_overlap == tau

    def test_default_is_shared(self):
        sets = [
            OrthogonalSet(tuple(BELL[:2])),
            OrthogonalSet(tuple(BELL)),
            generate_eq1(GeneratorParams(0.3, 0.4)),
            generate_eq2(0.2),
        ]
        assert all(s.tolerances is sets[0].tolerances for s in sets)
        assert sets[0].tolerances == Tolerances()


class TestSeededDraw:
    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_rows_pinned_and_stacked(self, size):
        # the per-seed construction random_orthogonal_set has always used, written out
        seeds = [0, 1, 7, 2024, 20240901, 2**32 + 5]
        stacked = _haar_rows(seeds, size)
        assert stacked.shape == (len(seeds), size, 4)
        for seed, rows in zip(seeds, stacked):
            rng = np.random.default_rng(seed)
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            q, r = np.linalg.qr(g)
            q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
            expected = np.array([make_state(q[:, k]).amps for k in range(size)])
            got = random_orthogonal_set(seed, size)._rows
            assert got.tobytes() == expected.tobytes() == rows.tobytes()
