import numpy as np
import pytest

import qlocc.products
from qlocc import (
    EnumerationKind,
    GridSpec,
    OrthogonalSet,
    PureState,
    Subspace,
    concurrence,
    is_product,
    make_state,
    oracle_product_scan,
    orthocomplement,
    product_states_in_2d,
    quadratic_roots,
    random_orthogonal_set,
)
from qlocc.errors import BadDimension, FullSpace
from qlocc.ueb import GeneratorParams, generate_eq1, generate_eq2, random_max_entangled_triple
from qlocc.verify import _FAMILY_GRID, _family_rows

from conftest import (
    haar_unitary,
    product_state,
    random_states,
    states_equal_up_to_phase,
    svd_orthocomplement,
)


def assert_common_factor(enum, side, factor):
    """Every representative factors with `factor` on `side`, up to phase."""
    k = 0 if side == "left" else 1
    for s in enum.states:
        prod, factors = is_product(s)
        assert prod
        assert abs(abs(np.vdot(factors[k], factor)) - 1.0) < 1e-12


def root_ratios(roots):
    """Projective roots as ratios a/b (inf encoded as None)."""
    out = []
    for (a, b), _ in roots:
        out.append(None if abs(b) < 1e-12 else a / b)
    return out


class TestQuadraticRoots:
    def test_sum_of_squares(self):
        roots = quadratic_roots(1, 0, 1)
        assert len(roots) == 2
        ratios = sorted(root_ratios(roots), key=lambda z: z.imag)
        np.testing.assert_allclose(ratios[0], -1j, atol=1e-12)
        np.testing.assert_allclose(ratios[1], 1j, atol=1e-12)

    def test_product_of_axes(self):
        roots = quadratic_roots(0, 1, 0)
        assert len(roots) == 2
        ratios = root_ratios(roots)
        assert None in ratios  # b = 0 root
        assert any(r == 0 for r in ratios if r is not None)  # a = 0 root

    def test_perfect_square(self):
        roots = quadratic_roots(1, -2, 1)
        assert len(roots) == 1 and roots[0][1] == 2
        (a, b), _ = roots[0]
        np.testing.assert_allclose(a / b, 1.0, atol=1e-6)

    def test_identically_zero(self):
        assert quadratic_roots(0, 0, 0) == []  # identically zero

    def test_degenerate_leading_coefficient(self):
        # c2 = 0 with double root at b = 0
        roots = quadratic_roots(0, 0, 3.7)
        assert roots == [((1.0 + 0j, 0j), 2)]

    def test_roots_satisfy_quadratic(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            c2, c1, c0 = rng.normal(size=3) + 1j * rng.normal(size=3)
            roots = quadratic_roots(c2, c1, c0)
            for (a, b), _ in roots:
                val = c2 * a * a + c1 * a * b + c0 * b * b
                assert abs(val) < 1e-9


class TestOrthocomplement:
    def test_computational_triple(self):
        triple = OrthogonalSet(
            (make_state([1, 0, 0, 0]), make_state([0, 1, 0, 0]), make_state([0, 0, 1, 0]))
        )
        comp = orthocomplement(triple)
        assert comp.dim == 1
        assert states_equal_up_to_phase(comp.basis[0], make_state([0, 0, 0, 1]))

    def test_entangled_family_complement_is_11(self):
        ens = generate_eq1(GeneratorParams(0.35, 0.6))
        comp = orthocomplement(ens)
        assert states_equal_up_to_phase(comp.basis[0], make_state([0, 0, 0, 1]))

    def test_bell_triple_complement(self, bell_triple, bell):
        comp = orthocomplement(bell_triple)
        assert states_equal_up_to_phase(comp.basis[0], bell["psi-"])
        assert concurrence(comp.basis[0]) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_counts(self):
        pair = random_orthogonal_set(2, size=2)
        comp = svd_orthocomplement(pair)
        assert comp.dim == 2
        for c in comp.basis:
            for s in pair.states:
                assert abs(c.overlap(s)) < 1e-9
        for fewer in (pair, Subspace(pair.states[:1])):
            with pytest.raises(BadDimension):
                orthocomplement(fewer)

    def test_full_space_rejected(self, bell_basis):
        with pytest.raises(FullSpace):
            orthocomplement(bell_basis)


class TestProductStatesIn2d:
    def test_bell_span_two_roots(self, bell):
        sub = Subspace((bell["phi+"], bell["psi-"]))
        enum = product_states_in_2d(sub)
        assert enum.kind is EnumerationKind.FINITE
        assert len(enum.states) == 2
        expected = [
            product_state([1, -1j], [1, 1j]),
            product_state([1, 1j], [1, -1j]),
        ]
        for s in enum.states:
            assert any(states_equal_up_to_phase(s, e) for e in expected)
            assert concurrence(s) < 1e-12
            assert sub.projection_norm(s) > 1 - 1e-12

    def test_single_product_subspace(self):
        psi1 = make_state([0, np.sqrt(0.3), np.sqrt(0.7), 0])
        sub = Subspace((psi1, make_state([0, 0, 0, 1])))
        enum = product_states_in_2d(sub)
        assert enum.kind is EnumerationKind.FINITE
        assert len(enum.states) == 1
        assert enum.multiplicities == (2,)
        assert states_equal_up_to_phase(enum.states[0], make_state([0, 0, 0, 1]))

    def test_all_product_subspace(self):
        sub = Subspace((make_state([1, 0, 0, 0]), make_state([0, 1, 0, 0])))
        enum = product_states_in_2d(sub)
        assert enum.kind is EnumerationKind.ALL_PRODUCT
        assert_common_factor(enum, "left", [1, 0])
        assert len(enum.states) == 3
        for s in enum.states:
            assert concurrence(s) < 1e-12

    def test_all_product_right_factor(self):
        sub = Subspace((make_state([1, 0, 0, 0]), make_state([0, 0, 1, 0])))
        enum = product_states_in_2d(sub)
        assert enum.kind is EnumerationKind.ALL_PRODUCT
        assert_common_factor(enum, "right", [1, 0])

    def test_diagonal_span(self):
        sub = Subspace((make_state([1, 0, 0, 0]), make_state([0, 0, 0, 1])))
        enum = product_states_in_2d(sub)
        assert len(enum.states) == 2
        found = {tuple(np.round(np.abs(s.amps), 6)) for s in enum.states}
        assert found == {(1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0)}

    def test_wrong_dimension(self):
        sub = Subspace((make_state([1, 0, 0, 0]),))
        with pytest.raises(BadDimension):
            product_states_in_2d(sub)

    @pytest.mark.parametrize("x", [4e-10, 7e-10, 9e-10, 3e-9])
    def test_near_product_plane_factors_under_one_threshold(self, x):
        # det quadratic of span{|00> + x|11>, |01>} has scale x: between
        # eps_zero/2 and eps_zero the plane used to be called all-product
        # while its basis state failed is_product, raising TypeError
        u = make_state([1, 0, 0, x])
        enum = product_states_in_2d(Subspace((u, make_state([0, 1, 0, 0]))))
        if enum.kind is EnumerationKind.ALL_PRODUCT:
            assert is_product(u)[0]
        else:
            assert not is_product(u)[0]
            assert all(concurrence(s) < 1e-9 for s in enum.states)

    def test_never_empty_and_sound(self):
        # existence of a product state in every 2-D subspace
        for k in range(1000):
            pair = random_orthogonal_set(40_000 + k, size=2)
            sub = Subspace(pair.states)
            enum = product_states_in_2d(sub)
            assert enum.states
            for s in enum.states:
                assert concurrence(s) < 1e-9
                assert sub.projection_norm(s) > 1 - 1e-9


class TestDeterminantQuadraticIdentity:
    def test_identity(self):
        rng = np.random.default_rng(10)
        for _ in range(500):
            u = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            v = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
            du, dv = np.linalg.det(u), np.linalg.det(v)
            cross = np.linalg.det(u + v) - du - dv
            lhs = np.linalg.det(a * u + b * v)
            rhs = a * a * du + a * b * cross + b * b * dv
            assert abs(lhs - rhs) < 1e-8


def _kernel_triples(bell):
    triples = [random_orthogonal_set(91_000 + k, size=3) for k in range(300)]
    triples += [random_max_entangled_triple(k) for k in range(100)]
    triples += [generate_eq1(GeneratorParams(l1, l3)) for l1, l3 in [(0.3, 0.4), (0.75, 0.15)]]
    triples += [generate_eq2(l1) for l1 in (0.2, 0.65)]
    f, fp = np.array([1, 2j]), np.array([2j, 1])
    t, a = np.array([0.6, 0.8j]), np.array([1, 1 + 1j])
    ap = np.array([-np.conj(a[1]), np.conj(a[0])])
    triples += [
        OrthogonalSet(tuple(product_state(x, y) for x, y in [(f, t), (fp, a), (fp, ap)])),
        OrthogonalSet(tuple(make_state(np.eye(4)[k]) for k in (0, 1, 2))),
        OrthogonalSet(tuple(make_state(np.eye(4)[k]) for k in (0, 2, 3))),
        OrthogonalSet((bell["phi+"], bell["phi-"], bell["psi+"])),
    ]
    return triples


class TestClosedFormKernels:
    """Each closed-form kernel against the numpy computation it replaced."""

    def test_cofactor_complement_matches_svd(self, bell):
        for ens in _kernel_triples(bell):
            d = orthocomplement(ens).basis[0].amps
            _, _, vh = np.linalg.svd(ens.matrix().conj().T, full_matrices=True)
            assert abs(abs(np.vdot(vh[3].conj(), d)) - 1.0) < 1e-12
            assert max(abs(np.vdot(s.amps, d)) for s in ens) < 1e-14

    def test_determinant_coefficients_match_numpy(self, bell, monkeypatch):
        seen = []
        original = qlocc.products.quadratic_roots

        def recording(c2, c1, c0):
            seen.append((c2, c1, c0))
            return original(c2, c1, c0)

        monkeypatch.setattr(qlocc.products, "quadratic_roots", recording)
        planes = [Subspace(random_orthogonal_set(92_000 + k, size=2).states) for k in range(300)]
        planes += [Subspace((bell["phi+"], bell["psi-"])), Subspace((bell["phi+"], bell["phi-"]))]
        for ens in _kernel_triples(bell):
            planes.append(Subspace((ens[0], orthocomplement(ens).basis[0])))
        for sub in planes:
            product_states_in_2d(sub)
            c2, c1, c0 = seen.pop()
            mu, mv = (s.matrix for s in sub.basis)
            du, dv = np.linalg.det(mu), np.linalg.det(mv)
            cross = np.linalg.det(mu + mv) - du - dv
            assert abs(c2 - du) < 1e-15 and abs(c0 - dv) < 1e-15
            assert abs(c1 - cross) < 1e-14

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "delta, ok",
        [(1e-5 + 9e-9, True), (-1e-5 - 9e-9, True), (1e-5 + 1.1e-8, False), (-1e-5 - 1.1e-8, False)],
    )
    def test_gram_diagonal_check_is_allclose(self, k, delta, ok):
        basis = [PureState(np.eye(4)[j]) for j in range(k - 1)]
        basis.append(PureState(np.sqrt(1.0 + delta) * np.eye(4)[k - 1]))
        self._check_gram(basis, ok)

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("phase", [1, 1j])
    @pytest.mark.parametrize("x, ok", [(9e-9, True), (1.1e-8, False)])
    def test_gram_off_diagonal_check_is_allclose(self, k, phase, x, ok):
        basis = [PureState(np.eye(4)[0]), PureState([phase * x, np.sqrt(1.0 - x * x), 0, 0])]
        basis += [PureState(np.eye(4)[j]) for j in range(2, k)]
        self._check_gram(basis, ok)

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_gram_check_fails_on_nan(self, k):
        basis = [PureState(np.eye(4)[j]) for j in range(k - 1)]
        basis.append(PureState([0, 0, 0, np.nan]))
        self._check_gram(basis, False)

    @staticmethod
    def _check_gram(basis, ok):
        m = np.column_stack([s.amps for s in basis])
        assert np.allclose(m.conj().T @ m, np.eye(len(basis)), atol=1e-8) is ok
        if ok:
            Subspace(tuple(basis))
        else:
            with pytest.raises(BadDimension):
                Subspace(tuple(basis))


_SCAN_GRID = GridSpec(resolution=32)


def _local(rng, sub):
    """sub under a seeded U_A x U_B."""
    local = np.kron(haar_unitary(rng), haar_unitary(rng))
    return Subspace(tuple(make_state(local @ s.amps) for s in sub.basis))


def _double_root_planes():
    """span{psi1, |11>} of eq1 over the family grid: det = -sqrt(lam1 lam2) a^2."""
    ket11 = make_state([0, 0, 0, 1])
    psi1 = _family_rows(_FAMILY_GRID, _FAMILY_GRID)[:, 0]
    return [Subspace((make_state(row), ket11)) for row in psi1]


def assert_scan_matches_analytic(sub, grid=_SCAN_GRID):
    enum = product_states_in_2d(sub)
    scan = oracle_product_scan(sub, grid)
    assert not scan.all_product_suspect
    assert len(scan.states) == len(enum.states)
    for s in scan.states:
        assert any(states_equal_up_to_phase(s, e, tol=1e-6) for e in enum.states)


class TestGridScanAgreement:
    def test_haar_planes(self):
        for k in range(50):
            assert_scan_matches_analytic(Subspace(random_orthogonal_set(93_000 + k, size=2).states))

    def test_double_root_planes(self):
        rng = np.random.default_rng(94)
        for sub in _double_root_planes():
            assert product_states_in_2d(sub).multiplicities == (2,)
            assert_scan_matches_analytic(sub)
            assert_scan_matches_analytic(_local(rng, sub))

    def test_all_product_planes_under_local_unitaries(self):
        rng = np.random.default_rng(95)
        ket00, ket01, ket10 = (make_state(np.eye(4)[k]) for k in range(3))
        for k in range(10):
            # |0> x C^2 and C^2 x |0>, alternately
            sub = _local(rng, Subspace((ket00, ket01 if k % 2 else ket10)))
            assert product_states_in_2d(sub).kind is EnumerationKind.ALL_PRODUCT
            assert oracle_product_scan(sub, _SCAN_GRID).all_product_suspect

    def test_counts_match_analytic(self, bell):
        cases = [
            Subspace((bell["phi+"], bell["psi-"])),
            Subspace((make_state([0, np.sqrt(0.3), np.sqrt(0.7), 0]), make_state([0, 0, 0, 1]))),
            Subspace(random_orthogonal_set(77, size=2).states),
        ]
        for sub in cases:
            assert_scan_matches_analytic(sub, GridSpec(resolution=48))

    def test_all_product_detected(self):
        sub = Subspace((make_state([1, 0, 0, 0]), make_state([0, 1, 0, 0])))
        assert oracle_product_scan(sub, GridSpec(resolution=48)).all_product_suspect
