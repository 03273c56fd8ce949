import warnings

import numpy as np
import pytest

from qlocc import (
    OrthogonalSet,
    average_entanglement,
    concurrence,
    entanglement_profile,
    is_product,
    make_state,
    product_state,
    random_orthogonal_set,
    states_equal_up_to_phase,
)
from qlocc.errors import NonFiniteNorm, ZeroVector
from qlocc.states import _concurrences, _dets, _entropies, _unit_rows

from conftest import SQ2, random_states


def schmidt_oracle(state):
    """Independent Schmidt decomposition via SVD of the coefficient matrix."""
    s = np.linalg.svd(state.amps.reshape(2, 2), compute_uv=False)
    return s**2  # Schmidt coefficients, descending


def entropy_oracle(state):
    """Entropy from the eigenvalues of the reduced density matrix."""
    m = state.amps.reshape(2, 2)
    evals = np.linalg.eigvalsh(m @ m.conj().T)
    return float(-sum(p * np.log2(p) for p in evals if p > 1e-15))


class TestMakeState:
    def test_already_normalized(self):
        s = make_state([1, 0, 0, 0])
        np.testing.assert_allclose(s.amps, [1, 0, 0, 0])

    def test_normalization(self):
        s = make_state([2, 0, 0, 2])
        np.testing.assert_allclose(s.amps, [SQ2, 0, 0, SQ2], atol=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            make_state([0, 0, 0, 0])

    @pytest.mark.parametrize(
        "amps",
        [[0, 0, 1e308, 1e308], [0, np.nan, 1, 0], [np.inf, 0, 0, 0]],
        ids=["overflow", "nan", "inf"],
    )
    def test_non_finite_norm_rejected_without_warning(self, amps):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteNorm):
                make_state(amps)

    def test_norm_matches_numpy(self):
        rng = np.random.default_rng(12)
        for scale in (1e-6, 1.0, 1e6):
            for row in scale * (rng.normal(size=(200, 4)) + 1j * rng.normal(size=(200, 4))):
                s = make_state(row)
                ref = row / np.linalg.norm(row)
                assert abs(abs(np.vdot(ref, s.amps)) - 1.0) < 1e-15

    def test_phase_canonicalized(self):
        s = make_state([0, 1j, -1j, 0])
        # first nonzero amplitude becomes real nonnegative
        assert s.amps[1].imag == pytest.approx(0.0, abs=1e-15)
        assert s.amps[1].real > 0

    def test_phase_equality(self):
        a = make_state([1, 1j, 0, 1])
        b = make_state([1j * 1, 1j * 1j, 0, 1j])
        assert states_equal_up_to_phase(a, b)


class TestConcurrence:
    def test_product_state_zero(self):
        assert concurrence(make_state([1, 0, 0, 0])) == pytest.approx(0.0, abs=1e-15)

    def test_bell_state_one(self):
        assert concurrence(make_state([1, 0, 0, 1])) == pytest.approx(1.0, abs=1e-12)

    def test_partial_entanglement(self):
        s = make_state([0, np.sqrt(0.2), np.sqrt(0.8), 0])
        assert concurrence(s) == pytest.approx(0.8, abs=1e-12)
        # agrees with 2*sqrt(l1*l2) from the Schmidt oracle
        l1, l2 = schmidt_oracle(s)
        assert concurrence(s) == pytest.approx(2.0 * np.sqrt(l1 * l2), abs=1e-12)

    def test_range_and_local_unitary_invariance(self):
        rng = np.random.default_rng(11)
        for s in random_states(10_000, seed=3):
            c = concurrence(s)
            assert 0.0 <= c <= 1.0
        for s in random_states(200, seed=4):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            u, _ = np.linalg.qr(g)
            for side in (np.kron(u, np.eye(2)), np.kron(np.eye(2), u)):
                rotated = make_state(side @ s.amps)
                assert abs(concurrence(rotated) - concurrence(s)) < 1e-8


    def test_closed_form_matches_numpy_det(self):
        for s in random_states(1000, seed=13):
            assert abs(concurrence(s) - 2.0 * abs(np.linalg.det(s.matrix))) <= 1e-15


def _mixed_rows(seed, n=2000):
    """Complex rows at several scales, plus rows whose leading amplitudes sit
    below eps_zero or are real, negative or purely imaginary."""
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
    rows *= 10.0 ** rng.uniform(-4, 4, size=(n, 1))
    rows[: n // 8, 0] = 1e-10 * rows[: n // 8, 1]
    rows[n // 8 : n // 4, 0] = -rng.uniform(size=n // 8)
    rows[n // 4 : 3 * n // 8, 0] = 1j * rng.uniform(size=n // 8)
    return rows


class TestStackedKernelsBitIdentical:
    """The stacked kernels repeat the scalar arithmetic exactly, so sweep CSVs
    (12 significant digits) match the per-point path byte for byte."""

    def test_unit_rows_is_make_state(self):
        rows = _mixed_rows(21)
        stacked = _unit_rows(rows.reshape(-1, 2, 4)).reshape(-1, 4)
        for row, got in zip(rows, stacked):
            np.testing.assert_array_equal(got, make_state(row).amps)

    @pytest.mark.parametrize(
        "amps, error",
        [([0, 0, 0, 0], ZeroVector), ([0, np.nan, 1, 0], NonFiniteNorm),
         ([0, 0, 1e308, 1e308], NonFiniteNorm)],
        ids=["zero", "nan", "overflow"],
    )
    def test_unit_rows_checks(self, amps, error):
        rows = np.array([[1, 0, 0, 0], amps], dtype=np.complex128)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error):
                _unit_rows(rows)

    def test_concurrences_and_dets(self):
        states = random_states(3000, seed=22) + [make_state(r) for r in _mixed_rows(23, 800)]
        amps = np.array([s.amps for s in states]).reshape(-1, 2, 4)
        conc = _concurrences(amps).reshape(-1)
        dets = _dets(amps).reshape(-1)
        for s, c, d in zip(states, conc, dets):
            assert c == concurrence(s)
            assert c == min(1.0, 2.0 * abs(complex(d)))

    def test_entropies_and_average(self):
        def scalar_entropy(c):
            # the per-state formula the stacked kernel replaced
            p = (1.0 + np.sqrt(max(0.0, 1.0 - c * c))) / 2.0
            if p >= 1.0:
                return 0.0
            return float(-p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p))

        states = random_states(3000, seed=24) + [make_state([0, 1, 0, 0]), make_state([1, 0, 0, 1])]
        conc = [concurrence(s) for s in states]
        for s, c, h in zip(states, conc, _entropies(np.array(conc))):
            assert h == scalar_entropy(c) == entanglement_profile(s).entropy
        for k in range(300):
            ens = random_orthogonal_set(25_000 + k, size=2 + k % 3)
            ref = float(np.mean([scalar_entropy(concurrence(s)) for s in ens.states]))
            assert average_entanglement(ens) == ref


class TestCoefficientMatrix:
    def test_reshape_round_trip(self):
        for s in random_states(100, seed=5):
            np.testing.assert_array_equal(s.matrix.reshape(4), s.amps)


class TestEntanglementProfile:
    def test_product(self):
        p = entanglement_profile(make_state([0, 1, 0, 0]))
        assert p.concurrence == pytest.approx(0.0, abs=1e-15)
        assert p.entropy == 0.0

    def test_singlet(self):
        p = entanglement_profile(make_state([0, 1, -1, 0]))
        assert p.concurrence == pytest.approx(1.0, abs=1e-12)
        assert p.entropy == pytest.approx(1.0, abs=1e-9)

    def test_partial(self):
        s = make_state([0, np.sqrt(0.2), np.sqrt(0.8), 0])
        p = entanglement_profile(s)
        assert sorted(p.schmidt_coefficients) == pytest.approx([0.2, 0.8], abs=1e-12)
        assert p.entropy == pytest.approx(0.7219280948873623, abs=1e-12)
        assert p.entropy == pytest.approx(entropy_oracle(s), abs=1e-12)

    def test_schmidt_sums_to_one(self):
        for s in random_states(200, seed=6):
            p = entanglement_profile(s)
            assert sum(p.schmidt_coefficients) == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(
                sorted(p.schmidt_coefficients), sorted(schmidt_oracle(s)), atol=1e-10
            )

    def test_entropy_monotone_in_concurrence(self):
        states = random_states(500, seed=7)
        pairs = zip(states[::2], states[1::2])
        for a, b in pairs:
            ca, cb = concurrence(a), concurrence(b)
            if ca < cb - 1e-9:
                ea = entanglement_profile(a).entropy
                eb = entanglement_profile(b).entropy
                assert ea <= eb + 1e-9


class TestIsProduct:
    def test_basis_state(self):
        ok, (left, right) = is_product(make_state([0, 0, 0, 1]))
        assert ok
        np.testing.assert_allclose(left, [0, 1], atol=1e-12)
        np.testing.assert_allclose(right, [0, 1], atol=1e-12)

    def test_entangled(self):
        ok, factors = is_product(make_state([1, 0, 0, 1]))
        assert not ok and factors is None

    def test_complex_product(self):
        s = product_state([1, -1j], [1, 1j])
        ok, (left, right) = is_product(s)
        assert ok
        # factors reconstruct the state
        assert states_equal_up_to_phase(s, product_state(left, right))

    def test_agrees_with_schmidt(self):
        for s in random_states(2000, seed=8):
            ok, _ = is_product(s)
            assert ok == (min(schmidt_oracle(s)) < 1e-9)


class TestAverageEntanglement:
    def test_bell_triple(self, bell_triple):
        assert average_entanglement(bell_triple) == pytest.approx(1.0, abs=1e-9)

    def test_one_product_family(self):
        from qlocc import generate_eq2

        # one product member plus two states with Schmidt spectrum {0.2, 0.8}
        avg = average_entanglement(generate_eq2(0.2))
        assert avg == pytest.approx(2 * 0.7219280948873623 / 3, abs=1e-12)
