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
    random_orthogonal_set,
)
from qlocc.errors import BadDimension, FullSpace
from qlocc.products import EPS_DISC, _pencil_root
from qlocc.states import EPS_ZERO
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


class TestPencilRoot:
    """_pencil_root's law on coefficient stacks; the planes below check each case of the
    quadratic through product_states_in_2d: sum of squares (Bell span), product of axes
    (diagonal span), perfect square (single product), c2 = c1 = 0 and identically zero."""

    @staticmethod
    def _coefficients():
        rng = np.random.default_rng(9)
        c2, c1, c0 = rng.normal(size=(3, 240)) + 1j * rng.normal(size=(3, 240))
        c2[:40] = 0  # the root b = 0
        c1[40:80], c2[40:60], c0[60:80] = 0, 0, 0  # c1 = 0 and c2 c0 = 0: a double root
        return c2, c1, c0

    def test_roots_satisfy_the_quadratic_larger_first(self):
        c2, c1, c0 = self._coefficients()
        q, disc = _pencil_root(c2, c1, c0)
        scale = np.maximum.reduce([abs(c2), abs(c1), abs(c0)])
        for a, b in ((q, c2), (c0, q)):
            m = np.maximum(abs(a), abs(b))
            null = m == 0  # one representative of a double root when q = 0
            assert (disc[null] == 0).all()
            a, b = a[~null] / m[~null], b[~null] / m[~null]
            val = c2[~null] * a * a + c1[~null] * a * b + c0[~null] * b * b
            assert (abs(val) < 1e-12 * scale[~null]).all()
        # (q, c2) has the larger |a/b|: |q / c2| >= |c0 / q|
        assert (abs(q) ** 2 >= abs(c2 * c0) * (1 - 1e-12)).all()
        assert (q[:40] != 0).all() and (q[40:80] == 0).all()

    def test_each_row_is_its_stack_of_one(self):
        c2, c1, c0 = self._coefficients()
        q, disc = _pencil_root(c2, c1, c0)
        for k in range(len(q)):
            qk, dk = _pencil_root(c2[k:k + 1], c1[k:k + 1], c0[k:k + 1])
            assert qk.tobytes() == q[k:k + 1].tobytes() and dk.tobytes() == disc[k:k + 1].tobytes()

    def test_python_complex_scalars_keep_the_law(self):
        # product_states_in_2d's call: numpy's complex product may fuse a multiply-add
        # that Python's does not, so the bits may differ from a stack row; the law holds
        for c2, c1, c0 in zip(*(x.tolist() for x in self._coefficients())):
            q, disc = _pencil_root(c2, c1, c0)
            scale = max(abs(c2), abs(c1), abs(c0))
            for a, b in ((q, c2), (c0, q)):
                m = max(abs(a), abs(b))
                if m == 0:
                    assert disc == 0
                    continue
                a, b = a / m, b / m
                assert abs(c2 * a * a + c1 * a * b + c0 * b * b) < 1e-12 * scale
            assert abs(q) ** 2 >= abs(c2 * c0) * (1 - 1e-12)


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

    def test_c2_and_c1_zero(self):
        # det = c0 b^2: a double root at b = 0, the first basis state
        sub = Subspace((make_state([1, 0, 0, 0]), make_state([0, 1, 1, 0])))
        enum = product_states_in_2d(sub)
        assert enum.kind is EnumerationKind.FINITE and enum.multiplicities == (2,)
        assert states_equal_up_to_phase(enum.states[0], make_state([1, 0, 0, 0]), tol=1e-15)

    @pytest.mark.parametrize("lam1", [0.1, 0.3, 0.45])
    def test_merged_double_root_is_a_root(self, lam1):
        # span{sqrt(lam1)|01> + sqrt(1 - lam1)|10>, sin e|00> + cos e|11>}: c1 = 0, so
        # disc = -4 c2 c0 = 4 sqrt(lam1 lam2) sin e cos e, below EPS_DISC c2^2 for small e;
        # the merged representative used to be v itself, of concurrence 2 sin e cos e
        c2 = -np.sqrt(lam1 * (1 - lam1))
        u = make_state([0, np.sqrt(lam1), np.sqrt(1 - lam1), 0])
        merged = 0
        for e in np.logspace(-12, -3, 61):
            sub = Subspace((u, make_state([np.sin(e), 0, 0, np.cos(e)])))
            enum = product_states_in_2d(sub)
            double = 4 * abs(c2) * np.sin(e) * np.cos(e) < EPS_DISC * c2 * c2
            assert enum.multiplicities == ((2,) if double else (1, 1)), e
            merged += double
            for s in enum.states:
                assert is_product(s)[0] and concurrence(s) < 1e-15, e
                assert sub.projection_norm(s) > 1 - 1e-12
        assert merged >= 20

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
        original = qlocc.products._pencil_root

        def recording(c2, c1, c0):
            seen.append((c2, c1, c0))
            return original(c2, c1, c0)

        monkeypatch.setattr(qlocc.products, "_pencil_root", recording)
        planes = [Subspace(random_orthogonal_set(92_000 + k, size=2).states) for k in range(300)]
        planes += [Subspace((bell["phi+"], bell["psi-"])), Subspace((bell["phi+"], bell["phi-"]))]
        for ens in _kernel_triples(bell):
            planes.append(Subspace((ens[0], orthocomplement(ens).basis[0])))
        for sub in planes:
            all_product = product_states_in_2d(sub).kind is EnumerationKind.ALL_PRODUCT
            mu, mv = (s.matrix for s in sub.basis)
            du, dv = np.linalg.det(mu), np.linalg.det(mv)
            cross = np.linalg.det(mu + mv) - du - dv
            if all_product:  # decided before any root is taken
                assert not seen and 2 * max(abs(du), abs(dv), abs(cross)) < EPS_ZERO
                continue
            c2, c1, c0 = seen.pop()
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
