import numpy as np
import pytest

from qlocc import (
    EnumerationKind,
    OrthogonalSet,
    Subspace,
    concurrence,
    is_product,
    make_state,
    orthocomplement,
    product_state,
    product_states_in_2d,
    quadratic_roots,
    random_orthogonal_set,
    states_equal_up_to_phase,
)
from qlocc.errors import BadDimension, FullSpace
from qlocc.products import ProjectiveRoots
from qlocc.ueb import GeneratorParams, generate_eq1

from conftest import random_states


def assert_common_factor(enum, side, factor, eps_zero=1e-9):
    """Every representative factors with `factor` on `side`, up to phase."""
    k = 0 if side == "left" else 1
    for s in enum.states:
        prod, factors = is_product(s, eps_zero)
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
        kind, roots = quadratic_roots(1, 0, 1)
        assert kind is ProjectiveRoots.ROOTS
        ratios = sorted(root_ratios(roots), key=lambda z: z.imag)
        np.testing.assert_allclose(ratios[0], -1j, atol=1e-12)
        np.testing.assert_allclose(ratios[1], 1j, atol=1e-12)

    def test_product_of_axes(self):
        kind, roots = quadratic_roots(0, 1, 0)
        assert kind is ProjectiveRoots.ROOTS
        ratios = root_ratios(roots)
        assert None in ratios  # b = 0 root
        assert any(r == 0 for r in ratios if r is not None)  # a = 0 root

    def test_perfect_square(self):
        kind, roots = quadratic_roots(1, -2, 1)
        assert kind is ProjectiveRoots.ROOTS
        assert len(roots) == 1 and roots[0][1] == 2
        (a, b), _ = roots[0]
        np.testing.assert_allclose(a / b, 1.0, atol=1e-6)

    def test_identically_zero(self):
        kind, roots = quadratic_roots(0, 0, 0)
        assert kind is ProjectiveRoots.IDENTICALLY_ZERO and roots == []

    def test_degenerate_leading_coefficient(self):
        # c2 = 0 with double root at b = 0
        kind, roots = quadratic_roots(0, 0, 3.7)
        assert roots == [((1.0 + 0j, 0j), 2)]

    def test_roots_satisfy_quadratic(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            c2, c1, c0 = rng.normal(size=3) + 1j * rng.normal(size=3)
            _, roots = quadratic_roots(c2, c1, c0)
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
        comp = orthocomplement(pair)
        assert comp.dim == 2
        for c in comp.basis:
            for s in pair.states:
                assert abs(c.overlap(s)) < 1e-9

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

    def test_all_product_plane_uses_given_eps_zero(self):
        u = make_state([1, 0, 0, 1e-7])
        sub = Subspace((u, make_state([0, 1, 0, 0])))
        enum = product_states_in_2d(sub, eps_zero=1e-6)
        assert enum.kind is EnumerationKind.ALL_PRODUCT
        assert_common_factor(enum, "left", [1, 0], eps_zero=1e-6)

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


class TestGridScanAgreement:
    def test_counts_match_analytic(self, bell):
        from qlocc import GridSpec, oracle_product_scan

        grid = GridSpec(resolution=48)
        cases = [
            Subspace((bell["phi+"], bell["psi-"])),
            Subspace((make_state([0, np.sqrt(0.3), np.sqrt(0.7), 0]), make_state([0, 0, 0, 1]))),
            Subspace(random_orthogonal_set(77, size=2).states),
        ]
        for sub in cases:
            enum = product_states_in_2d(sub)
            scan = oracle_product_scan(sub, grid)
            assert not scan.all_product_suspect
            assert len(scan.states) == len(enum.states)
            for s in scan.states:
                assert any(states_equal_up_to_phase(s, e, tol=1e-6) for e in enum.states)

    def test_all_product_detected(self):
        from qlocc import GridSpec, oracle_product_scan

        sub = Subspace((make_state([1, 0, 0, 0]), make_state([0, 1, 0, 0])))
        assert oracle_product_scan(sub, GridSpec(resolution=48)).all_product_suspect
