import itertools
import json
import sys

import mpmath
import numpy as np
import pytest
from click.testing import CliRunner

import qlocc.products
import qlocc.states
from qlocc import (
    EnumerationKind,
    HierarchyLabel,
    OrthogonalSet,
    PureState,
    Subspace,
    Tolerances,
    classify,
    concurrence,
    conclusively_identifiable,
    make_state,
    orthocomplement,
    perfectly_distinguishable,
    product_states_in_2d,
    random_orthogonal_set,
)
from qlocc.cli import main
from qlocc.discrimination import _decide
from qlocc.ensembles import _DEFAULT_TOLERANCES, _haar_rows, _row_set
from qlocc.errors import IndexOutOfRange
from qlocc.io import emit_document
from qlocc.states import _unit_rows
from qlocc.ueb import (
    GeneratorParams,
    _family_rows,
    generate_eq1,
    generate_eq2,
    random_max_entangled_triple,
    ueb_check,
)

from conftest import (
    SQ2,
    haar_unitary,
    product_state,
    scalar_concurrence,
    states_equal_up_to_phase,
    svd_orthocomplement,
)


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

    def test_max_entangled_witness_law(self):
        """G is diagonal for these triples, so the two roots tie in modulus and rounding picks
        one; either is a witness with overlap 1/sqrt(2) that the other members do not see."""
        for seed in range(1, 201):
            triple = random_max_entangled_triple(seed)
            for i in range(3):
                ok, witness = conclusively_identifiable(triple, i)
                assert ok and concurrence(witness) < 1e-12, (seed, i)
                assert abs(witness.overlap(triple[i])) == pytest.approx(SQ2, abs=1e-12)
                leak = sum(abs(witness.overlap(triple[j])) ** 2 for j in range(3) if j != i)
                assert leak < 1e-12, (seed, i)

    def test_bell_triple_first_witness(self, bell_triple):
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
            report = classify(ens)[1]
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

    @pytest.mark.filterwarnings("ignore::qlocc.ueb.MaximalEntanglementWarning")  # lam1 = 1/2
    def test_family_grids(self):
        for l1 in np.linspace(0.1, 0.9, 5):
            for l3 in np.linspace(0.1, 0.9, 5):
                cls, report = classify(generate_eq1(GeneratorParams(float(l1), float(l3))))
                assert cls.label is HierarchyLabel.ONE_UNIDENTIFIABLE
                assert not report.per_state[0].identifiable
            cls, report = classify(generate_eq2(float(l1)))
            assert cls.label is HierarchyLabel.TWO_UNIDENTIFIABLE


class TestToleranceEdges:
    @pytest.mark.parametrize(
        "members, identifiable",
        [
            # member 0's witness plane has a determinant quadratic of scale x,
            # between eps_zero/2 and eps_zero; this used to raise TypeError
            *(
                pytest.param(([1, 0, 0, x], [0, 0, 1, 0], [x, 0, 0, -1]), [False, True, False],
                             id=str(x))
                for x in (7e-10, 9e-10)
            ),
            # member 0 (C = 1.5e-9) decides on the root a psi_0 + b d of norm 7.6e-10, below
            # make_state's zero cutoff; classify and the CLI used to raise ZeroVector
            pytest.param(([1e-10, 1, 7.5e-10, 0], [1, -1e-10, 0, 0], [0, 7.5e-10, -1, 0]),
                         [True, True, False], id="tiny-root"),
        ],
    )
    def test_near_product_triple_classifies(self, tmp_path, members, identifiable):
        ens = OrthogonalSet(tuple(map(make_state, members)))
        cls, report = classify(ens)
        assert ens.entangled_count() == 2
        assert cls.label is HierarchyLabel(1 + identifiable.count(False))
        assert [v.identifiable for v in report.per_state] == identifiable
        for i, v in enumerate(report.per_state):
            assert conclusively_identifiable(ens, i)[0] == v.identifiable
            if v.identifiable:
                assert_chefles(ens, i, v.witness)
        doc = tmp_path / "edge.json"
        doc.write_text(json.dumps({"states": [[[x, 0] for x in m] for m in members]}))
        res = CliRunner().invoke(main, ["classify", str(doc), "--json", "-"])
        assert res.exit_code == 0, res.output

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


def _all_product_triple():
    """{f(x)t, f'(x)a, f'(x)a'} with complex factors, f' and a' the orthogonal ones.

    Member 0's witness plane span{f(x)t, f(x)t'} is all product.
    """
    rng = np.random.default_rng(93_000)
    g = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    f, t, a = g / np.linalg.norm(g, axis=1, keepdims=True)

    def perp(v):
        return np.array([-np.conj(v[1]), np.conj(v[0])])

    members = (np.kron(f, t), np.kron(perp(f), a), np.kron(perp(f), perp(a)))
    return OrthogonalSet(tuple(make_state(m) for m in members))


def _haar_family_bell_triples(bell_triple, haar=20):
    triples = [random_orthogonal_set(90_000 + k, size=3) for k in range(haar)]
    triples += [generate_eq1(GeneratorParams(l1, l3)) for l1, l3 in [(0.3, 0.4), (0.75, 0.15)]]
    triples += [generate_eq2(l1) for l1 in (0.2, 0.65)]
    return triples + [bell_triple, _all_product_triple()]


def _count_calls(monkeypatch, original, record):
    """Record record(*args) for each call of a qlocc function, under every qlocc module
    that binds it."""
    calls = []

    def counting(*args):
        calls.append(record(*args))
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "qlocc":
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


def _count_complements(monkeypatch):
    """Record the number of triple complements each call of the stacked complement
    kernel computes, under every qlocc module that binds it."""
    return _count_calls(monkeypatch, qlocc.products._complements, len)


class TestOneComplementPerTriple:
    def test_classify_computes_one_complement(self, monkeypatch, tmp_path):
        import qlocc.ueb as ueb

        calls = _count_complements(monkeypatch)

        def forbidden(*args, **kwargs):
            raise AssertionError("classify must not build a witness UEB")

        monkeypatch.setattr(ueb, "ueb_spanning_check", forbidden)
        monkeypatch.setattr(ueb, "generate_eq1", forbidden)
        for ens in (random_orthogonal_set(5, size=3), generate_eq2(0.2)):
            calls.clear()
            cls, _ = classify(ens)
            assert sum(calls) == 1
            assert cls.ueb_span is not None

        calls.clear()
        doc = tmp_path / "met.json"
        doc.write_text(emit_document(random_max_entangled_triple(7)))
        res = CliRunner().invoke(main, ["classify", str(doc), "--json", "-"])
        assert res.exit_code == 0, res.output
        assert sum(calls) == 1
        for family, points in (("eq1", 9), ("eq2", 3)):
            calls.clear()
            out = tmp_path / f"{family}.csv"
            res = CliRunner().invoke(
                main, ["sweep", family, "--grid", "0.1:0.9:3", "--out", str(out)]
            )
            assert res.exit_code == 0, res.output
            assert sum(calls) == points

    def test_classify_carries_ueb_check_verdict(self, bell_triple, bell_basis):
        cases = _haar_family_bell_triples(bell_triple)
        cases += [random_max_entangled_triple(92_000 + k) for k in range(10)]
        cases.append(OrthogonalSet(tuple(make_state(np.eye(4)[k]) for k in range(3))))
        reasons = set()
        for ens in cases:
            carried, ref = classify(ens)[0].ueb, ueb_check(ens)
            assert (carried.is_ueb, carried.reason) == (ref.is_ueb, ref.reason)
            assert carried.complement_concurrence == pytest.approx(
                ref.complement_concurrence, abs=1e-12
            )
            assert states_equal_up_to_phase(carried.complement_state, ref.complement_state)
            reasons.add(carried.reason)
        assert reasons == {None, "NotAllEntangled", "EntangledComplement"}
        assert classify(bell_basis)[0].ueb is None
        assert classify(random_orthogonal_set(6, size=2))[0].ueb is None

    def test_all_product_plane_witness_is_target(self):
        ens = _all_product_triple()
        plane = Subspace((ens[0], orthocomplement(ens).basis[0]))
        assert product_states_in_2d(plane).kind is EnumerationKind.ALL_PRODUCT
        _, report = classify(ens)
        assert abs(report.per_state[0].witness_overlap - 1.0) < 1e-12

    def test_witness_plane_is_complement_of_others(self, bell_triple):
        # reference: the complement of the other two members, one SVD each
        cases = _haar_family_bell_triples(bell_triple, haar=200)
        cases += [random_max_entangled_triple(91_000 + k) for k in range(20)]
        for ens in cases:
            d = orthocomplement(ens).basis[0]
            for i in range(3):
                others = OrthogonalSet(tuple(s for j, s in enumerate(ens.states) if j != i))
                ref = svd_orthocomplement(others).matrix()
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


EPS_ZERO, TAU = Tolerances().eps_zero, Tolerances().tau_overlap
BAND = (0.5, 1 - 1e-4, 1 + 1e-4, 2.0)  # multiples of the threshold a crafted margin sits at


def _band_triple(d, e, lam1=0.3, lam3=0.4, tilt=0.0):
    """Orthonormal members of the complement of unit d: psi_0 = cos(tilt) phi +
    sin(tilt) e, with phi = sqrt(lam1)|01> + sqrt(lam2)|10> and e the unit state
    of d's plane orthogonal to d, and two mixes of psi_0's partner in span{phi, e}
    with phi's partner."""
    phi = np.array([0, np.sqrt(lam1), np.sqrt(1 - lam1), 0])
    phi_perp = np.array([0, np.sqrt(1 - lam1), -np.sqrt(lam1), 0])
    psi0 = np.cos(tilt) * phi + np.sin(tilt) * e
    g = -np.sin(tilt) * phi + np.cos(tilt) * e
    psi1 = np.sqrt(lam3) * g + np.sqrt(1 - lam3) * phi_perp
    psi2 = np.sqrt(1 - lam3) * g - np.sqrt(lam3) * phi_perp
    return np.array([psi0, psi1, psi2]), d


def _complement_band(f):
    """C(d) = f * eps_zero; member 0 has c_0 = 0, so it is hidden exactly when d
    counts as product (f < 1)."""
    t = 0.5 * np.arcsin(f * EPS_ZERO)
    d = np.array([np.sin(t), 0, 0, np.cos(t)])
    return _band_triple(d, np.array([np.cos(t), 0, 0, -np.sin(t)]))


def _overlap_band(f, lam1=0.3):
    """d = |11>; member 0's root besides d has target overlap f * tau_overlap."""
    r = np.sqrt(lam1 * (1 - lam1))
    x = f * TAU * r / np.sqrt(1 - (f * TAU) ** 2)  # sin(tilt), with cos(tilt)^2 = 1 - 1e-14
    return _band_triple(np.array([0, 0, 0, 1.0]), np.array([1.0, 0, 0, 0]), lam1, tilt=np.arcsin(x))


def _rule_overlap(psi, d):
    """The best root overlap the module rule assigns, in 50-digit arithmetic."""
    with mpmath.workdps(50):
        p = [mpmath.mpc(complex(x)) for x in psi]
        q = [mpmath.mpc(complex(x)) for x in d]
        det_p, det_d = p[0] * p[3] - p[1] * p[2], q[0] * q[3] - q[1] * q[2]
        c = p[0] * q[3] + p[3] * q[0] - p[1] * q[2] - p[2] * q[1]
        if 2 * abs(det_p) < EPS_ZERO:
            return 1.0
        if 2 * abs(det_d) < EPS_ZERO:
            return float(abs(c) / mpmath.sqrt(abs(c) ** 2 + abs(det_p) ** 2))
        x = max(abs(r) for r in mpmath.polyroots([det_p, c, det_d], maxsteps=200))
        return float(x / mpmath.sqrt(1 + x**2))


def _local_rotations(seed, count=4):
    rng = np.random.default_rng(seed)
    out = [np.eye(4)]
    for _ in range(count):
        g = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
        ua, ub = (np.linalg.qr(m)[0] for m in g)
        out.append(np.exp(2j * np.pi * rng.uniform()) * np.kron(ua, ub))
    return out


class TestToleranceBand:
    @pytest.mark.parametrize("f", BAND)
    @pytest.mark.parametrize("make", [_complement_band, _overlap_band], ids=["C(d)", "overlap"])
    def test_verdicts_and_witnesses_at_the_thresholds(self, make, f):
        members, d = make(f)
        for k, u in enumerate(_local_rotations(int(1e6 * f))):
            perm = list(itertools.permutations(range(3)))[k % 6]
            ens = OrthogonalSet(tuple(make_state(u @ members[p]) for p in perm))
            cls, report = classify(ens)
            comp = orthocomplement(ens).basis[0].amps
            assert cls.ueb_span == (2 * abs(comp[0] * comp[3] - comp[1] * comp[2]) < EPS_ZERO)
            for v in report.per_state:
                if v.identifiable:
                    assert v.witness_overlap > TAU
                    assert concurrence(v.witness) < EPS_ZERO
                    for j, s in enumerate(ens.states):
                        if j != v.index:
                            assert abs(v.witness.overlap(s)) < ens.tolerances.eps_orth
                else:
                    assert _rule_overlap(ens[v.index].amps, comp) <= TAU
            hidden = [not v.identifiable for v in report.per_state]
            assert hidden[perm.index(0)] == (f < 1)


def _one_entangled_triples(seed=94_000, count=5):
    """{|00>, |11>, (|01>+|10>)/sqrt(2)} and seeded U_A x U_B images of it, each with
    its members permuted and a global phase on every member."""
    members = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 2**-0.5, 2**-0.5, 0]])
    rng = np.random.default_rng(seed)
    perms = list(itertools.permutations(range(3)))
    triples = [OrthogonalSet(tuple(make_state(m) for m in members))]
    for k, u in enumerate(_local_rotations(seed, count)[1:], start=1):
        phases = np.exp(2j * np.pi * rng.uniform(size=3))
        rows = [phase * (u @ members[p]) for phase, p in zip(phases, perms[k % 6])]
        triples.append(OrthogonalSet(tuple(make_state(r) for r in rows)))
    return triples


class TestPerfectLoccRule:
    def test_one_entangled_triple_is_perfect(self):
        triples = _one_entangled_triples()
        assert len(triples) == 6
        for ens in triples:
            cls, report = classify(ens)
            assert ens.entangled_count() == cls.entangled_count == 1
            assert cls.label is HierarchyLabel.PERFECT_LOCC
            assert report.perfectly_distinguishable and report.conclusively_distinguishable
            assert perfectly_distinguishable(ens)

    def test_label_report_and_rule_agree(self, bell_triple):
        cases = _haar_family_bell_triples(bell_triple) + _one_entangled_triples()
        for ens in cases:
            cls, report = classify(ens)
            perfect = cls.label is HierarchyLabel.PERFECT_LOCC
            assert perfect == report.perfectly_distinguishable == perfectly_distinguishable(ens)


def _near_threshold_triple(delta):
    """{c|00> - delta|11>, sqrt(0.3)|01> + sqrt(0.7)|10>, sqrt(0.7)|01> - sqrt(0.3)|10>},
    c = sqrt(1 - delta^2): members 1 and 2 have witness overlap ~ 1.48 sqrt(delta)."""
    c, a, b = np.sqrt(1 - delta**2), np.sqrt(0.3), np.sqrt(0.7)
    rows = [c, 0, 0, -delta], [0, a, b, 0], [0, b, -a, 0]
    return OrthogonalSet(tuple(make_state(r) for r in rows))


class TestNearThreshold:
    @pytest.mark.parametrize(
        "delta, overlap, flagged", [(1e-9, 4.7e-5, True), (5e-9, 1.04e-4, False)]
    )
    def test_witness_band_flag(self, tmp_path, delta, overlap, flagged):
        # flagged: target overlap in [tau, WARN_BAND_FACTOR * tau] = [1e-7, 1e-4]
        ens = _near_threshold_triple(delta)
        _, report = classify(ens)
        assert [v.identifiable for v in report.per_state] == [True, True, True]
        assert report.per_state[0].witness_overlap == pytest.approx(1.0)
        assert not report.per_state[0].near_threshold
        for v in report.per_state[1:]:
            assert v.witness_overlap == pytest.approx(overlap, rel=1e-2)
            assert v.near_threshold == flagged
        doc = tmp_path / "band.json"
        doc.write_text(emit_document(ens, ["a", "b", "c"]))
        res = CliRunner().invoke(main, ["classify", str(doc), "--json", "-"])
        assert res.exit_code == 0, res.output
        payload = json.loads(res.output[res.output.index("{"):])
        flags = [s.get("near_threshold", False) for s in payload["states"]]
        assert flags == [False, flagged, flagged]


_SYSY = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])  # sy x sy


def _g(members, v):
    """G = U^T (sy x sy) U of each triple (N, 4, 4), U's columns the members and v.comp."""
    rows = np.concatenate([members, v.comp[:, None]], axis=1)
    return rows @ _SYSY @ rows.mT


def _haar_and_family_triples():
    """200 Haar triples, an eq1 grid and an eq2 grid, as one stack (N, 3, 4)."""
    lam = np.linspace(0.05, 0.95, 7)
    eq1 = _family_rows(np.repeat(lam, 7), np.tile(lam, 7))
    return np.concatenate([_haar_rows(range(96_000, 96_200), 3), eq1, _family_rows(lam)])


def _near_product_rotations(count=200, seed=96_500):
    """eq1(0.3, 0.4) with every member rotated by e in the |00>,|11> plane, C(d) = sin 2e
    log-uniform in [1e-14, 1e-2]; every other one under a seeded U_A x U_B too."""
    rng = np.random.default_rng(seed)
    base = _family_rows(np.array(0.3), np.array(0.4))
    stacks = []
    for k in range(count):
        e = 0.5 * np.arcsin(10 ** rng.uniform(-14, -2))
        r = np.eye(4)
        r[0, 0], r[0, 3], r[3, 0], r[3, 3] = np.cos(e), -np.sin(e), np.sin(e), np.cos(e)
        w = np.kron(haar_unitary(rng), haar_unitary(rng)) if k % 2 else np.eye(4)
        stacks.append(base @ (w @ r).T)
    return _unit_rows(np.array(stacks))


class TestDecideReadsG:
    """_decide's readings are entries of G = U^T (sy x sy) U, the matrix of the module
    docstring's proof, and G obeys the laws that make the verdicts invariant."""

    @pytest.mark.parametrize("make", [_haar_and_family_triples, _near_product_rotations])
    def test_readings_are_entries_of_g(self, make):
        members = make()
        v = _decide(members, _DEFAULT_TOLERANCES)
        g = _g(members, v)
        diag = np.diagonal(g, axis1=1, axis2=2)
        np.testing.assert_allclose(v.conc, np.abs(diag[:, :3]), rtol=0, atol=1e-14)
        np.testing.assert_allclose(v.comp_conc, np.abs(diag[:, 3]), rtol=0, atol=1e-14)
        ent = v.conc >= EPS_ZERO
        a, b = v.roots
        np.testing.assert_allclose(b[ent], -diag[:, :3][ent] / 2, rtol=0, atol=1e-14)
        # with d product, the root besides d is (-c_i, det psi_i) and -c_i = G_id
        span = ent & v.ueb_span[:, None]
        assert span.any()
        np.testing.assert_allclose(a[span], g[:, :3, 3][span], rtol=0, atol=1e-14)

    def test_g_is_symmetric_and_unitary(self):
        members = np.concatenate([_haar_and_family_triples(), _near_product_rotations()])
        g = _g(members, _decide(members, _DEFAULT_TOLERANCES))
        np.testing.assert_allclose(g, g.mT, rtol=0, atol=1e-14)
        np.testing.assert_allclose(g @ g.conj().mT, np.broadcast_to(np.eye(4), g.shape),
                                   rtol=0, atol=1e-14)

    @pytest.mark.parametrize("perm", list(itertools.permutations(range(3))))
    def test_laws_under_local_unitaries_phases_and_permutations(self, perm):
        members = _haar_and_family_triples()
        rng = np.random.default_rng(96_900 + 10 * perm[0] + perm[1])
        ua = np.array([haar_unitary(rng) for _ in members])
        ub = np.array([haar_unitary(rng) for _ in members])
        w = np.einsum("nac,nbd->nabcd", ua, ub).reshape(-1, 4, 4)  # U_A x U_B
        phases = np.exp(2j * np.pi * rng.uniform(size=(len(members), 3)))
        moved = phases[..., None] * (members[:, list(perm)] @ w.mT)
        v, v2 = _decide(members, _DEFAULT_TOLERANCES), _decide(moved, _DEFAULT_TOLERANCES)
        g, g2 = _g(members, v), _g(moved, v2)
        # d is unique up to a phase, read off the moved complement
        d_phase = np.sum((w @ v.comp[..., None])[..., 0].conj() * v2.comp, axis=-1)
        np.testing.assert_allclose(np.abs(d_phase), 1.0, rtol=0, atol=1e-12)
        dg = np.concatenate([phases, d_phase[:, None]], axis=1)  # D's diagonal
        p = [*perm, 3]
        law = (np.linalg.det(ua) * np.linalg.det(ub))[:, None, None] * g[:, p][:, :, p]
        np.testing.assert_allclose(g2, dg[:, :, None] * law * dg[:, None, :], rtol=0, atol=1e-13)
        # so the verdicts follow: the hidden mask moves with the members, the rest stays
        np.testing.assert_array_equal(v2.hidden, v.hidden[:, list(perm)])
        for field in ("entangled", "labels", "ueb_span", "ueb"):
            np.testing.assert_array_equal(getattr(v2, field), getattr(v, field))
        assert v.hidden.any() and not v.hidden.all()


class TestDecideConcurrenceBits:
    """_decide clips its concurrences from G's diagonal; they keep the bits of Python's
    per-row rule in either kernel form (np.abs in place of hypot would move some of them)."""

    @staticmethod
    def _assert_pinned(members, v):
        for row, c in zip(members.reshape(-1, 4), v.conc.reshape(-1).tolist()):
            assert c == scalar_concurrence(row) == concurrence(PureState(row))
        for row, c in zip(v.comp, v.comp_conc.tolist()):
            assert c == scalar_concurrence(row)

    def test_haar_triples_as_one_stack_and_as_stacks_of_one(self):
        members = _haar_rows(range(97_000, 99_000), 3)
        self._assert_pinned(members, _decide(members, _DEFAULT_TOLERANCES))
        for triple in members[:300, None]:
            self._assert_pinned(triple, _decide(triple, _DEFAULT_TOLERANCES))

    def test_eq1_grid_block(self):
        lam = np.linspace(0.001, 0.999, 400)
        k = np.arange(4096, 2 * 4096)  # the sweep's second block
        members = _family_rows(lam[k // 400], lam[k % 400])
        self._assert_pinned(members, _decide(members, _DEFAULT_TOLERANCES))


def _assert_same_verdicts(v, w):
    for x, y in zip(v, w):
        assert (x is None) == (y is None)
        for a, b in zip(x, y) if isinstance(x, tuple) else [(x, y)] if x is not None else []:
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def _joined(chunks):
    """The _Verdicts fields of consecutive stacks, joined as one stack's."""
    fields = []
    for x in zip(*chunks):
        if x[0] is None:
            fields.append(None)
        elif isinstance(x[0], tuple):  # roots
            fields.append(tuple(np.concatenate(part) for part in zip(*x)))
        else:
            fields.append(np.concatenate(x))
    return fields


class TestDecideBitsAreReproducible:
    """A verdict near tau_overlap is decided on the overlap that Python's abs gives, and on
    the same bits whatever the memory layout of the stack that carries the members."""

    @staticmethod
    def _overlap(a, b):
        """|a| / |(|a|, |b|)| with Python's complex abs, libm's hypot (math.hypot is not)."""
        return abs(a) / abs(complex(abs(a), abs(b)))

    def test_the_overlap_rounds_as_pythons_abs(self):
        tol = Tolerances(eps_zero=0.5, tau_overlap=0.42256267815457565)
        ens = OrthogonalSet(random_orthogonal_set(0).states, tolerances=tol)
        a, b = (complex(x[0, 1]) for x in _decide(ens._rows[None], tol).roots)
        assert self._overlap(a, b) == tol.tau_overlap  # not above it: hidden
        assert conclusively_identifiable(ens, 1) == (False, None)

    def test_every_member_at_its_own_overlap_is_hidden(self):
        # tau set to a member's scalar overlap, the knife edge, hides exactly that member
        members = np.ascontiguousarray(_haar_rows(range(2000), 3))
        v = _decide(members, Tolerances(eps_zero=0.5))
        edges = 0
        for k, i in zip(*np.nonzero(v.conc >= 0.5)):
            overlap = self._overlap(complex(v.roots[0][k, i]), complex(v.roots[1][k, i]))
            if 0.0 < overlap < 0.57:  # Tolerances admits tau_overlap below 1/sqrt(3) here
                edges += 1
                tol = Tolerances(eps_zero=0.5, tau_overlap=overlap)
                assert _decide(members[k : k + 1], tol).hidden[0, i], (k, i)
        assert edges > 300

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_a_strided_stack_decides_as_its_contiguous_copy(self, n):
        members = _haar_rows(range(2000), n)  # a transposed view: strides (192, 16, 48)
        assert not members.flags.c_contiguous
        for stack in (members, np.asfortranarray(members)):
            copy = np.ascontiguousarray(stack)
            _assert_same_verdicts(_decide(stack, _DEFAULT_TOLERANCES),
                                  _decide(copy, _DEFAULT_TOLERANCES))
        # and as strided chunks of a few members: neither layout nor size moves a bit
        whole = _decide(members[:210], _DEFAULT_TOLERANCES)
        for size in (1, 7):
            chunks = [_decide(members[k : k + size], _DEFAULT_TOLERANCES)
                      for k in range(0, 210, size)]
            _assert_same_verdicts(whole, _joined(chunks))


class TestOneDeterminantPass:
    @pytest.mark.parametrize("count", [1, 64])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_decide_reads_g_from_one_dets_call(self, monkeypatch, n, count):
        members = _haar_rows(range(count), n)
        dets = _count_calls(monkeypatch, qlocc.states._dets, lambda amps: amps.shape)
        concs = [_count_calls(monkeypatch, f, lambda *args: 1) for f in (
            qlocc.states._concurrences, qlocc.states.concurrence)]
        _decide(members, _DEFAULT_TOLERANCES)
        assert dets == [(count, 4 if n == 3 else n, 4)]  # a triple's U adds d
        dets.clear()
        classify(_row_set(members[0]))
        assert len(dets) == 1
        assert concs == [[], []]
