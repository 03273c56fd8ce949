import numpy as np
import pytest

from qlocc import (
    OrthogonalSet,
    concurrence,
    make_state,
    orthocomplement,
    ueb_check,
    ueb_spanning_check,
)
from qlocc.errors import BadCardinality, BadParam
from qlocc.ueb import (
    MAGIC_BASIS,
    GeneratorParams,
    MaximalEntanglementWarning,
    generate_eq1,
    generate_eq2,
    random_max_entangled_triple,
)

from conftest import product_state, states_equal_up_to_phase, svd_orthocomplement


class TestGeneratorParams:
    def test_derived_values(self):
        p = GeneratorParams(0.3, 0.4)
        assert p.lam2 == pytest.approx(0.7)
        assert p.lam4 == pytest.approx(0.6)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.2])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(BadParam):
            GeneratorParams(bad)
        with pytest.raises(BadParam):
            GeneratorParams(0.5, bad)


class TestGenerateEq1:
    def test_explicit_amplitudes(self):
        ens = generate_eq1(GeneratorParams(0.3, 0.4))
        # psi2 = sqrt(0.4)|00> + sqrt(0.6)(sqrt(0.7)|01> - sqrt(0.3)|10>)
        expected = make_state(
            [
                np.sqrt(0.4),
                np.sqrt(0.6) * np.sqrt(0.7),
                -np.sqrt(0.6) * np.sqrt(0.3),
                0,
            ]
        )
        assert states_equal_up_to_phase(ens[1], expected)

    def test_all_entangled_and_orthogonal(self):
        ens = generate_eq1(GeneratorParams(0.25, 0.65))
        for s in ens.states:
            assert concurrence(s) > 1e-6

    @pytest.mark.filterwarnings("ignore::qlocc.ueb.MaximalEntanglementWarning")  # lam1 = 1/2
    def test_complement_is_11(self):
        for l1, l3 in [(0.1, 0.8), (0.5, 0.3), (0.9, 0.9)]:
            ens = generate_eq1(GeneratorParams(l1, l3))
            comp = orthocomplement(ens).basis[0]
            assert states_equal_up_to_phase(comp, make_state([0, 0, 0, 1]))

    def test_maximal_member_warns(self):
        with pytest.warns(MaximalEntanglementWarning):
            ens = generate_eq1(GeneratorParams(0.5, 0.5))
        assert concurrence(ens[0]) == pytest.approx(1.0, abs=1e-12)

    def test_needs_both_parameters(self):
        with pytest.raises(BadParam):
            generate_eq1(GeneratorParams(0.3))


class TestGenerateEq2:
    def test_explicit_amplitudes(self):
        ens = generate_eq2(0.2)
        assert states_equal_up_to_phase(ens[0], make_state([1, 0, 0, 0]))
        expected = make_state([0, np.sqrt(0.8), -np.sqrt(0.2), 0])
        assert states_equal_up_to_phase(ens[2], expected)

    def test_exactly_one_product_member(self):
        ens = generate_eq2(0.37)
        flags = [concurrence(s) < 1e-9 for s in ens.states]
        assert flags == [True, False, False]

    def test_half_gives_bell_partners(self):
        ens = generate_eq2(0.5)
        assert concurrence(ens[1]) == pytest.approx(1.0, abs=1e-12)
        assert concurrence(ens[2]) == pytest.approx(1.0, abs=1e-12)

    def test_same_span_as_eq1(self):
        p2 = generate_eq2(0.2).span_projector()
        for l3 in (0.15, 0.5, 0.85):
            p1 = generate_eq1(GeneratorParams(0.7, l3)).span_projector()
            np.testing.assert_allclose(p1, p2, atol=1e-9)


class TestMagicBasis:
    def test_orthonormal(self):
        gram = MAGIC_BASIS.conj() @ MAGIC_BASIS.T
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)

    def test_real_combinations_maximally_entangled(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            c = rng.normal(size=4)
            c /= np.linalg.norm(c)
            s = make_state(c @ MAGIC_BASIS)
            assert concurrence(s) == pytest.approx(1.0, abs=1e-12)


class TestRandomMaxEntangledTriple:
    def test_members_maximally_entangled(self):
        for seed in range(20):
            triple = random_max_entangled_triple(seed)
            for s in triple.states:
                assert concurrence(s) == pytest.approx(1.0, abs=1e-9)

    def test_complement_maximally_entangled(self):
        for seed in range(20):
            triple = random_max_entangled_triple(seed)
            comp = orthocomplement(triple).basis[0]
            assert concurrence(comp) == pytest.approx(1.0, abs=1e-9)

    def test_deterministic(self):
        a = random_max_entangled_triple(123)
        b = random_max_entangled_triple(123)
        for x, y in zip(a.states, b.states):
            np.testing.assert_array_equal(x.amps, y.amps)
        c = random_max_entangled_triple(124)
        assert not states_equal_up_to_phase(a[0], c[0], tol=1e-6)


class TestUebCheck:
    def test_entangled_family_is_ueb(self):
        verdict = ueb_check(generate_eq1(GeneratorParams(0.3, 0.4)))
        assert verdict.is_ueb
        assert states_equal_up_to_phase(verdict.complement_state, make_state([0, 0, 0, 1]))
        assert verdict.complement_concurrence < 1e-12

    def test_bell_triple_not_ueb(self, bell_triple, bell):
        verdict = ueb_check(bell_triple)
        assert not verdict.is_ueb
        assert verdict.reason == "EntangledComplement"
        assert states_equal_up_to_phase(verdict.complement_state, bell["psi-"])
        assert verdict.complement_concurrence == pytest.approx(1.0, abs=1e-12)

    def test_one_product_family_not_ueb(self):
        verdict = ueb_check(generate_eq2(0.2))
        assert not verdict.is_ueb
        assert verdict.reason == "NotAllEntangled"

    def test_permutation_invariant(self):
        ens = generate_eq1(GeneratorParams(0.3, 0.4))
        for perm in [(1, 0, 2), (2, 1, 0), (1, 2, 0)]:
            shuffled = OrthogonalSet(tuple(ens.states[i] for i in perm))
            assert ueb_check(shuffled).is_ueb == ueb_check(ens).is_ueb

    def test_wrong_cardinality(self, bell_basis, bell):
        with pytest.raises(BadCardinality):
            ueb_check(bell_basis)
        with pytest.raises(BadCardinality):
            ueb_check(OrthogonalSet((bell["phi+"], bell["phi-"])))


class TestUebSpanningCheck:
    def test_one_product_family_spanned_by_ueb(self):
        verdict = ueb_spanning_check(generate_eq2(0.2))
        assert verdict.spans_ueb
        witness = verdict.witness_ueb
        assert witness is not None
        assert ueb_check(witness).is_ueb
        # witness UEB spans the same subspace
        np.testing.assert_allclose(
            witness.span_projector(), generate_eq2(0.2).span_projector(), atol=1e-9
        )

    def test_bell_triple_not_spanned(self, bell_triple):
        verdict = ueb_spanning_check(bell_triple)
        assert not verdict.spans_ueb and verdict.witness_ueb is None

    def test_product_triple_spanned(self):
        ens = OrthogonalSet(
            (make_state([1, 0, 0, 0]), make_state([0, 1, 0, 0]), make_state([0, 0, 1, 0]))
        )
        verdict = ueb_spanning_check(ens)
        assert verdict.spans_ueb
        assert states_equal_up_to_phase(verdict.complement_state, make_state([0, 0, 0, 1]))

    def test_rotated_complement_certificate(self):
        # complement a product state with nontrivial factors on both sides
        comp = product_state([0.6, 0.8j], [1, -1])
        full = svd_orthocomplement(Subspace_of(comp))
        ens = OrthogonalSet(tuple(full.basis))
        verdict = ueb_spanning_check(ens)
        assert verdict.spans_ueb
        assert states_equal_up_to_phase(verdict.complement_state, comp)
        assert ueb_check(verdict.witness_ueb).is_ueb
        np.testing.assert_allclose(
            verdict.witness_ueb.span_projector(), ens.span_projector(), atol=1e-9
        )

    def test_wrong_cardinality(self, bell):
        with pytest.raises(BadCardinality):
            ueb_spanning_check(OrthogonalSet((bell["phi+"], bell["phi-"])))


def Subspace_of(state):
    from qlocc import Subspace

    return Subspace((state,))
