import math
import sys

import numpy as np
import pytest

from qlocc import OrthogonalSet, PureState, Tolerances, make_state, random_orthogonal_set
from qlocc.ensembles import _check_orthogonal, _gram_bounds, _haar_rows
from qlocc.errors import BadTolerance, InvalidSet, QloccError
from qlocc.ueb import GeneratorParams, generate_eq1, generate_eq2

BELL = [make_state(v) for v in ([1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0])]


class TestNonFiniteMembers:
    """Members that are not finite unit vectors, built directly so make_state never sees them."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize(
        "bad, match",
        [
            pytest.param(lambda n: [0, 1, math.nan, 0], "not finite", id="nan"),
            pytest.param(lambda n: [0, 1, math.inf, 0], "not finite", id="inf"),
            pytest.param(lambda n: [0, 1, complex(0, math.nan), 0], "not finite", id="nanj"),
            pytest.param(lambda n: 1e-5 * BELL[n - 1].amps, "state {} is not a unit", id="1e-5"),
            pytest.param(lambda n: 1.5 * BELL[n - 1].amps, "state {} is not a unit", id="1.5"),
        ],
    )
    def test_rejected(self, n, bad, match):
        with pytest.raises(InvalidSet, match=match.format(n - 1)):
            OrthogonalSet(tuple(BELL[: n - 1]) + (PureState(bad(n)),))

    def test_shrunk_bell_triple_rejected(self):
        # concurrence scales with norm^2: unchecked, this set reads PerfectLocc with one
        # entangled member where the unit triple is ConclusiveOnly with three
        shrunk = tuple(PureState(1e-5 * s.amps) for s in BELL[:2]) + (BELL[2],)
        with pytest.raises(InvalidSet, match="state 0 is not a unit vector"):
            OrthogonalSet(shrunk)

    def test_block_names_the_failing_pair(self):
        rows = _haar_rows(range(8), 3)
        _check_orthogonal(rows, 1e-9)
        rows[5, 2] = (rows[5, 1] + rows[5, 2]) / math.sqrt(2)  # unit, but not orthogonal to 1
        with pytest.raises(InvalidSet, match=r"states 1 and 2 are not orthogonal .*7\.071e-01"):
            _check_orthogonal(rows, 1e-9)

    def test_shared_bounds_read_only(self):
        for shared in _gram_bounds(3, 1e-9):
            with pytest.raises(ValueError, match="read-only"):
                shared[0, 0] = 0


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
        "tau",
        [1, 1.0, 2.0, 1e200, pytest.param(np.float64(1e200), id="float64-1e200"),
         sys.float_info.max, pytest.param(10**300, id="int-1e300")],
    )
    @pytest.mark.parametrize("eps_zero", [1e-9, 2.0])
    def test_tau_of_one_or_more_rejected_before_squaring(self, eps_zero, tau):
        # an overlap never exceeds 1; squaring 1e200 would raise OverflowError
        with pytest.raises(BadTolerance, match="tau_overlap: .* too large for eps_zero"):
            Tolerances(eps_zero=eps_zero, tau_overlap=tau)

    @pytest.mark.parametrize(
        "eps_zero, tau", [(1e-9, 3e-5), (1e-12, 9e-7), (0.5, 0.4), (1.5, 0.7), (2.0, 0.8)]
    )
    def test_tau_within_bound_accepted(self, eps_zero, tau):
        assert Tolerances(eps_zero=eps_zero, tau_overlap=tau).tau_overlap == tau

    def test_tiny_eps_orth_keeps_the_norm_bound(self):
        # the second member's squared norm rounds to 1 - 2.2e-16, which eps_orth would reject
        pair = (make_state([1, 0, 0, 0]), make_state([0, 1, 1, 0]))
        assert abs(np.vdot(pair[1].amps, pair[1].amps) - 1.0) > 1e-300
        assert len(OrthogonalSet(pair, Tolerances(eps_orth=1e-300))) == 2

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
        # the per-seed reference: one QR per seed, then make_state on each column
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

    @pytest.mark.parametrize("size", [5, -1, 2.5, True, 1], ids=repr)
    def test_size_outside_two_to_four_is_invalid(self, size):
        # unchecked, 5 gives 4 members, -1 three (a [:-1] slice) and 2.5 a TypeError
        with pytest.raises(InvalidSet, match=rf"cardinality must be 2, 3, or 4, got {size!r}$"):
            random_orthogonal_set(1, size)
