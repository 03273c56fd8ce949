import itertools

import numpy as np
import pytest

from qlocc import (
    HierarchyLabel,
    OrthogonalSet,
    Subspace,
    Tolerances,
    classify,
    concurrence,
    conclusively_identifiable,
    identifiability_report,
    make_state,
    orthocomplement,
    perfectly_distinguishable,
    random_orthogonal_set,
    states_equal_up_to_phase,
)
from qlocc.errors import IndexOutOfRange
from qlocc.ueb import GeneratorParams, generate_eq1, generate_eq2, random_max_entangled_triple


def assert_chefles(ensemble, i, witness, eps_orth=1e-9, tau=1e-7):
    """Direct inner-product verification of the witness conditions."""
    from qlocc import concurrence

    assert concurrence(witness) < 1e-9
    for j, s in enumerate(ensemble.states):
        ov = abs(witness.overlap(s))
        if j == i:
            assert ov > tau
        else:
            assert ov < eps_orth


class TestConclusivelyIdentifiable:
    def test_bell_triple_all_identifiable(self, bell_triple):
        for i in range(3):
            ok, witness = conclusively_identifiable(bell_triple, i)
            assert ok
            assert_chefles(bell_triple, i, witness)

    def test_bell_triple_first_witness(self, bell_triple):
        from qlocc import product_state

        ok, witness = conclusively_identifiable(bell_triple, 0)
        assert ok
        candidates = [
            product_state([1, -1j], [1, 1j]),
            product_state([1, 1j], [1, -1j]),
        ]
        assert any(states_equal_up_to_phase(witness, c) for c in candidates)

    def test_entangled_family_first_member_hidden(self):
        ens = generate_eq1(GeneratorParams(0.3, 0.4))
        ok, witness = conclusively_identifiable(ens, 0)
        assert not ok and witness is None

    def test_entangled_family_second_member(self):
        l1, l3 = 0.3, 0.4
        ens = generate_eq1(GeneratorParams(l1, l3))
        ok, witness = conclusively_identifiable(ens, 1)
        assert ok
        assert_chefles(ens, 1, witness)
        # witness = a*psi2 + b*|11>, b/a = -lam4*sqrt(lam1*lam2)/sqrt(lam3)
        l2, l4 = 1 - l1, 1 - l3
        ratio = l4 * np.sqrt(l1 * l2) / np.sqrt(l3)
        expected = make_state(ens[1].amps - ratio * np.array([0, 0, 0, 1.0]))
        assert states_equal_up_to_phase(witness, expected)

    def test_one_product_family(self):
        ens = generate_eq2(0.2)
        ok, witness = conclusively_identifiable(ens, 0)
        assert ok
        assert states_equal_up_to_phase(witness, make_state([1, 0, 0, 0]))
        for i in (1, 2):
            ok, _ = conclusively_identifiable(ens, i)
            assert not ok

    def test_bell_basis_never(self, bell_basis):
        for i in range(4):
            ok, _ = conclusively_identifiable(bell_basis, i)
            assert not ok

    def test_product_basis_member(self):
        basis = OrthogonalSet(
            tuple(make_state(row) for row in np.eye(4))
        )
        for i in range(4):
            ok, witness = conclusively_identifiable(basis, i)
            assert ok
            assert states_equal_up_to_phase(witness, basis[i])

    def test_cardinality_two_by_rule(self, bell):
        pair = OrthogonalSet((bell["phi+"], bell["phi-"]))
        ok, _ = conclusively_identifiable(pair, 0)
        assert ok

    def test_index_out_of_range(self, bell_triple):
        with pytest.raises(IndexOutOfRange):
            conclusively_identifiable(bell_triple, 3)


class TestPerfectlyDistinguishable:
    def test_all_product_triple(self):
        ens = OrthogonalSet(
            (make_state([1, 0, 0, 0]), make_state([0, 1, 0, 0]), make_state([0, 0, 1, 0]))
        )
        assert perfectly_distinguishable(ens)

    def test_bell_triple(self, bell_triple):
        assert not perfectly_distinguishable(bell_triple)

    def test_one_product_family(self):
        assert not perfectly_distinguishable(generate_eq2(0.2))

    def test_any_pair(self, bell):
        assert perfectly_distinguishable(OrthogonalSet((bell["phi+"], bell["psi-"])))

    def test_complete_bases(self, bell_basis):
        assert not perfectly_distinguishable(bell_basis)
        computational = OrthogonalSet(tuple(make_state(row) for row in np.eye(4)))
        assert perfectly_distinguishable(computational)


class TestClassify:
    def test_bell_triple(self, bell_triple):
        cls, report = classify(bell_triple)
        assert cls.label is HierarchyLabel.CONCLUSIVE_ONLY
        assert report.conclusively_distinguishable
        assert not report.perfectly_distinguishable
        assert cls.ueb_span is False  # complement is the fourth Bell state

    def test_entangled_family(self):
        cls, report = classify(generate_eq1(GeneratorParams(0.3, 0.4)))
        assert cls.label is HierarchyLabel.ONE_UNIDENTIFIABLE
        assert cls.ueb_span is True
        assert [v.identifiable for v in report.per_state] == [False, True, True]

    def test_one_product_family(self):
        cls, report = classify(generate_eq2(0.2))
        assert cls.label is HierarchyLabel.TWO_UNIDENTIFIABLE
        assert [v.identifiable for v in report.per_state] == [True, False, False]

    def test_bell_basis(self, bell_basis):
        cls, report = classify(bell_basis)
        assert cls.label is HierarchyLabel.COMPLETE_BASIS
        assert cls.entangled_count == 4
        assert cls.describe() == "CompleteBasis(4)"
        assert not report.conclusively_distinguishable

    def test_perfect_triple(self):
        ens = OrthogonalSet(
            (make_state([1, 0, 0, 0]), make_state([0, 1, 0, 0]), make_state([0, 0, 1, 0]))
        )
        cls, report = classify(ens)
        assert cls.label is HierarchyLabel.PERFECT_LOCC
        # perfect implies conclusive
        assert report.conclusively_distinguishable

    def test_labels_ordered(self):
        assert (
            HierarchyLabel.PERFECT_LOCC
            < HierarchyLabel.CONCLUSIVE_ONLY
            < HierarchyLabel.ONE_UNIDENTIFIABLE
            < HierarchyLabel.TWO_UNIDENTIFIABLE
        )

    def test_witnesses_valid_everywhere(self):
        for k in range(50):
            ens = random_orthogonal_set(60_000 + k, size=3)
            report = identifiability_report(ens)
            for v in report.per_state:
                if v.witness is not None:
                    assert_chefles(ens, v.index, v.witness)

    def test_no_contradiction_on_random_triples(self):
        # sampled version of the no-triple-fully-hidden law
        for k in range(500):
            classify(random_orthogonal_set(70_000 + k, size=3))

    def test_max_entangled_triples_conclusive_only(self):
        for k in range(50):
            cls, _ = classify(random_max_entangled_triple(80_000 + k))
            assert cls.label is HierarchyLabel.CONCLUSIVE_ONLY

    def test_family_grids(self):
        for l1 in np.linspace(0.1, 0.9, 5):
            for l3 in np.linspace(0.1, 0.9, 5):
                cls, report = classify(generate_eq1(GeneratorParams(float(l1), float(l3))))
                assert cls.label is HierarchyLabel.ONE_UNIDENTIFIABLE
                assert not report.per_state[0].identifiable
            cls, report = classify(generate_eq2(float(l1)))
            assert cls.label is HierarchyLabel.TWO_UNIDENTIFIABLE


class TestToleranceEdges:
    @pytest.mark.parametrize("x", [7e-10, 9e-10])
    def test_near_product_triple_classifies(self, x):
        # member 0's witness plane has a determinant quadratic of scale x,
        # between eps_zero/2 and eps_zero; this used to raise TypeError
        ens = OrthogonalSet(
            (make_state([1, 0, 0, x]), make_state([0, 0, 1, 0]), make_state([x, 0, 0, -1]))
        )
        cls, report = classify(ens)
        assert ens.entangled_count() == 2
        assert cls.label is HierarchyLabel.TWO_UNIDENTIFIABLE
        assert [v.identifiable for v in report.per_state] == [False, True, False]

    def test_set_eps_zero_reaches_witness_search(self):
        # at eps_zero = 1e-6 every member is product, so perfect implies
        # conclusive; with the default eps_zero in the witness search two
        # members came back unidentifiable
        ens = OrthogonalSet(
            (make_state([1, 0, 0, 1e-7]), make_state([0, 0, 1, 0]), make_state([1e-7, 0, 0, -1])),
            tolerances=Tolerances(eps_zero=1e-6),
        )
        cls, report = classify(ens)
        assert cls.label is HierarchyLabel.PERFECT_LOCC
        assert report.perfectly_distinguishable and report.conclusively_distinguishable
        for v in report.per_state:
            assert concurrence(v.witness) < 1e-6
            for j, s in enumerate(ens.states):
                ov = abs(v.witness.overlap(s))
                assert ov > 1e-7 if j == v.index else ov < 1e-9


def _haar_family_bell_triples(bell_triple, haar=20):
    triples = [random_orthogonal_set(90_000 + k, size=3) for k in range(haar)]
    triples += [generate_eq1(GeneratorParams(l1, l3)) for l1, l3 in [(0.3, 0.4), (0.75, 0.15)]]
    triples += [generate_eq2(l1) for l1 in (0.2, 0.65)]
    return triples + [bell_triple]


class TestOneComplementPerTriple:
    def test_classify_computes_one_complement(self, monkeypatch):
        import qlocc.discrimination as disc
        import qlocc.ueb as ueb

        calls = []

        def counting(source):
            calls.append(source)
            return orthocomplement(source)

        def forbidden(*args, **kwargs):
            raise AssertionError("classify must not build a witness UEB")

        monkeypatch.setattr(disc, "orthocomplement", counting)
        monkeypatch.setattr(ueb, "ueb_spanning_check", forbidden)
        monkeypatch.setattr(ueb, "generate_eq1", forbidden)
        for ens in (random_orthogonal_set(5, size=3), generate_eq2(0.2)):
            calls.clear()
            cls, _ = classify(ens)
            assert len(calls) == 1
            assert cls.ueb_span is not None

    def test_witness_plane_is_complement_of_others(self, bell_triple):
        # reference: the complement of the other two members, one SVD each
        cases = _haar_family_bell_triples(bell_triple, haar=200)
        cases += [random_max_entangled_triple(91_000 + k) for k in range(20)]
        for ens in cases:
            d = orthocomplement(ens).basis[0]
            for i in range(3):
                others = OrthogonalSet(tuple(s for j, s in enumerate(ens.states) if j != i))
                ref = orthocomplement(others).matrix()
                plane = Subspace((ens[i], d)).matrix()
                np.testing.assert_allclose(
                    plane @ plane.conj().T, ref @ ref.conj().T, atol=1e-9
                )

    def test_member_order_invariance(self, bell_triple):
        for ens in _haar_family_bell_triples(bell_triple):
            cls, report = classify(ens)
            verdicts = [v.identifiable for v in report.per_state]
            for perm in itertools.permutations(range(3)):
                shuffled = OrthogonalSet(tuple(ens.states[p] for p in perm))
                cls_p, report_p = classify(shuffled)
                assert cls_p.label is cls.label
                assert cls_p.ueb_span == cls.ueb_span
                assert [v.identifiable for v in report_p.per_state] == [
                    verdicts[p] for p in perm
                ]
