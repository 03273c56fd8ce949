import sys
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
    random_orthogonal_set,
)
from qlocc.discrimination import _decide
from qlocc.ensembles import _DEFAULT_TOLERANCES, _haar_unitaries
from qlocc.errors import NonFiniteNorm, ZeroVector
from qlocc.states import (
    _STACK_MIN,
    EPS_ZERO,
    _concurrences,
    _dets,
    _entropies,
    _phase_factors,
    _unit_rows,
)
from qlocc.ueb import _family_rows

from conftest import (
    SQ2,
    product_state,
    random_states,
    scalar_concurrence,
    states_equal_up_to_phase,
)


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
    k = n // 8
    rows[:k, 0] = 1e-10 * rows[:k, 1]
    rows[k : 2 * k, 0] = -rng.uniform(size=k)
    rows[2 * k : 3 * k, 0] = 1j * rng.uniform(size=k)
    return rows


class TestStackedKernelsBitIdentical:
    """The stacked kernels repeat the scalar arithmetic exactly, so sweep CSVs
    (12 significant digits) match the per-point path byte for byte."""

    @pytest.mark.parametrize("make", [
        lambda: _mixed_rows(21),
        lambda: _edge_rows(33, 3999),
        lambda: _haar_unitaries(range(2000)).reshape(-1, 4),
    ], ids=["mixed", "edge", "haar"])
    def test_unit_rows_is_make_state(self, make):
        rows = make()
        stacked = _unit_rows(rows.reshape(-1, 2, 4)).reshape(-1, 4)
        _assert_same_bits(stacked, np.array([make_state(row).amps for row in rows]))

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
            assert c == concurrence(s) == scalar_concurrence(s.amps)
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


def _edge_parts():
    """Signed zeros, equal moduli and values on either side of EPS_ZERO: the parts where a
    zero's sign or the cutoff could go either way."""
    below, above = np.nextafter(EPS_ZERO, 0.0), np.nextafter(EPS_ZERO, 1.0)
    return np.array([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, below, EPS_ZERO, above, -above, 3e-5])


def _edge_leads():
    """Every complex number whose real and imaginary parts are both edge parts."""
    parts = _edge_parts()
    leads = np.empty((len(parts), len(parts)), dtype=np.complex128)
    leads.real, leads.imag = parts[:, None], parts[None, :]
    return leads.reshape(-1)


def _edge_rows(seed, n=4000):
    """Unit rows led by each edge lead (then 1, so that the lead is not rescaled), and rows
    whose eight parts are all edge parts."""
    leads = _edge_leads()
    led = np.zeros((len(leads), 4), dtype=np.complex128)
    led[:, 0], led[:, 1] = leads, 1.0
    parts = np.random.default_rng(seed).choice(_edge_parts(), size=(n, 8))
    return np.concatenate([led, parts.view(np.complex128)])


def _phase_factor_loop(z):
    """_canonical_phase's rule conj(w) / |w| per lead, kept as _phase_factors' reference."""
    factor = [complex(w.real / abs(w), -w.imag / abs(w)) if abs(w) > EPS_ZERO else 1.0
              for w in z.tolist()]
    return np.array(factor, dtype=np.complex128)


def _both_forms(monkeypatch, kernel, *args):
    """kernel(*args) through the per-row forms (_dets' loop, and _phase_factor_loop in
    place of _phase_factors) and through the column forms, at any size."""
    monkeypatch.setattr("qlocc.states._STACK_MIN", sys.maxsize)
    monkeypatch.setattr("qlocc.states._phase_factors", _phase_factor_loop)
    per_row = kernel(*args)
    monkeypatch.undo()
    monkeypatch.setattr("qlocc.states._STACK_MIN", 0)
    return per_row, kernel(*args)


def _assert_same_bits(a, b):
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.filterwarnings("error")  # the column form divides no lead below the cutoff
class TestKernelFormsBitIdentical:
    """The column forms of the stacked kernels give the per-row forms' bits, so the
    stack size that picks a form can never move a verdict or a sweep CSV digit."""

    @pytest.mark.parametrize("kernel", [_dets, _concurrences, _unit_rows])
    @pytest.mark.parametrize("n", [_STACK_MIN - 1, _STACK_MIN, 200_000])
    def test_mixed_rows(self, monkeypatch, kernel, n):
        rows = _mixed_rows(31, n)
        per_row, columns = _both_forms(monkeypatch, kernel, rows)
        _assert_same_bits(per_row, columns)
        monkeypatch.undo()
        _assert_same_bits(kernel(rows), per_row)

    @pytest.mark.parametrize("kernel", [_dets, _concurrences, _unit_rows])
    def test_edge_rows(self, monkeypatch, kernel):
        _assert_same_bits(*_both_forms(monkeypatch, kernel, _edge_rows(32)))

    def test_nan_concurrence_is_one(self, monkeypatch):
        """min(1.0, nan) is 1.0 in Python, where np.minimum would give nan."""
        rows = np.ones((_STACK_MIN, 4), dtype=np.complex128)
        rows[:, 1] = np.nan
        per_row, columns = _both_forms(monkeypatch, _concurrences, rows)
        _assert_same_bits(per_row, columns)
        assert (columns == 1.0).all()

    @pytest.mark.parametrize("leads", [
        _edge_leads(), _mixed_rows(34, 1)[0], _mixed_rows(34, 50_000).reshape(-1),
    ], ids=["edge", "one-row", "mixed"])
    def test_phase_factors(self, leads):
        factors = _phase_factors(leads)
        _assert_same_bits(factors, _phase_factor_loop(leads))
        assert (factors[np.abs(leads) <= EPS_ZERO] == 1.0).all()

    @pytest.mark.parametrize("kernel", [_dets, _concurrences, _unit_rows])
    def test_haar_bases(self, monkeypatch, kernel):
        bases = _haar_unitaries(range(5000))  # (5000, 4, 4): 20,000 rows
        _assert_same_bits(*_both_forms(monkeypatch, kernel, bases))

    def test_eq1_grid_blocks(self, monkeypatch):
        """The eq1 400x400 grid in the sweep's 4,096-point blocks: the rows, and every
        array _decide returns (member and complement dets and concurrences inside)."""
        lam = np.linspace(0.001, 0.999, 400)
        for start in range(0, 400 * 400, 4096):
            k = np.arange(start, min(start + 4096, 400 * 400))
            per_row, columns = _both_forms(monkeypatch, _family_rows, lam[k // 400], lam[k % 400])
            _assert_same_bits(per_row, columns)
            verdicts = _both_forms(monkeypatch, _decide, per_row, _DEFAULT_TOLERANCES)
            for a, b in zip(*verdicts):
                for x, y in zip(a, b) if isinstance(a, tuple) else [(a, b)]:
                    np.testing.assert_array_equal(x, y)  # labels, masks and counts
                    if x.dtype.kind in "fc":
                        _assert_same_bits(x, y)


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

    def test_tolerance_leaves_the_factors_phases(self):
        # eps_zero is a concurrence; the phases are fixed at make_state's amplitude cutoff,
        # so a leading amplitude of 1e-5 is made real whatever eps_zero is
        s = product_state([1e-5, 1j], [1, 1])
        ok, factors = is_product(s, eps_zero=1e-3)
        assert ok
        for got, ref in zip(factors, is_product(s)[1]):
            np.testing.assert_array_equal(got, ref)
        assert factors[0][0].imag == 0.0 and factors[0][0].real > 0.0

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
