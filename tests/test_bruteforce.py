import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qlocc
from qlocc import (
    GridSpec,
    OrthogonalSet,
    Subspace,
    conclusively_identifiable,
    concurrence,
    make_state,
    oracle_identifiable,
    oracle_product_scan,
    random_orthogonal_set,
)
from qlocc import bruteforce
from qlocc.bruteforce import (
    _TOP_K,
    _best_right_score,
    _bloch,
    _coarse_candidates,
    _coarse_grid,
    _lm_root,
    _mesh,
    _pencil_det,
    _refine,
    _separated_picks,
)
from qlocc.ensembles import _haar_rows
from qlocc.errors import BadCardinality, BadGrid, IndexOutOfRange, QloccError
from qlocc.ueb import GeneratorParams, generate_eq1, generate_eq2
from qlocc.verify import DEFAULT_SEED, _EQ1_LAMS, _EQ1_POINTS, _FAMILY_GRID, _family_rows, _sets

GRID = GridSpec(resolution=32)


class TestGridSpec:
    def test_defaults(self):
        assert GridSpec().resolution == 64
        assert qlocc.bruteforce.ROUNDS == 3 and qlocc.bruteforce.THRESHOLD == 1e-6

    def test_rejects_tiny_resolution(self):
        with pytest.raises(ValueError):
            GridSpec(resolution=4)

    def test_errors_are_qlocc_errors(self):
        with pytest.raises(BadGrid):
            GridSpec(resolution=4)
        with pytest.raises(QloccError):
            GridSpec(resolution=7)

    @pytest.mark.parametrize("resolution", [8.5, 32.0, math.nan, math.inf, "64", True])
    def test_rejects_a_resolution_that_is_not_an_integer(self, resolution):
        # 32.0 hashes equal to 32, so it would otherwise share 32's calibration and grid
        with pytest.raises(BadGrid):
            GridSpec(resolution=resolution)

    def test_accepts_numpy_integers(self, bell_triple):
        grid = GridSpec(resolution=np.int64(32))
        assert grid == GRID
        assert oracle_identifiable(bell_triple, 0, grid).identifiable


class TestOracleIdentifiable:
    def test_bell_triple_positive(self, bell_triple):
        verdict = oracle_identifiable(bell_triple, 0, GRID)
        assert verdict.identifiable
        assert verdict.residual < 1e-12
        assert verdict.overlap == pytest.approx(1 / np.sqrt(2), abs=1e-6)

    def test_entangled_family_negative(self):
        ens = generate_eq1(GeneratorParams(0.3, 0.4))
        assert not oracle_identifiable(ens, 0, GRID).identifiable
        assert oracle_identifiable(ens, 1, GRID).identifiable
        assert oracle_identifiable(ens, 2, GRID).identifiable

    def test_one_product_family(self):
        ens = generate_eq2(0.2)
        assert oracle_identifiable(ens, 0, GRID).identifiable
        assert not oracle_identifiable(ens, 1, GRID).identifiable
        assert not oracle_identifiable(ens, 2, GRID).identifiable

    def test_witness_passes_exact_checks(self, bell_triple):
        verdict = oracle_identifiable(bell_triple, 1, GRID)
        w = verdict.witness
        assert concurrence(w) < 1e-9
        assert abs(w.overlap(bell_triple[0])) < 1e-9
        assert abs(w.overlap(bell_triple[2])) < 1e-9
        assert abs(w.overlap(bell_triple[1])) > 1e-7

    def test_deterministic(self):
        ens = random_orthogonal_set(31337, size=3)
        a = oracle_identifiable(ens, 0, GRID)
        b = oracle_identifiable(ens, 0, GRID)
        assert a.identifiable == b.identifiable
        np.testing.assert_array_equal(a.witness.amps, b.witness.amps)

    def test_wrong_cardinality(self, bell_basis):
        with pytest.raises(BadCardinality):
            oracle_identifiable(bell_basis, 0, GRID)

    @pytest.mark.parametrize("i", [-1, 3])
    def test_index_out_of_range(self, bell_triple, i):
        # the analytic engine raises the same error for the same index
        with pytest.raises(IndexOutOfRange):
            conclusively_identifiable(bell_triple, i)
        with pytest.raises(IndexOutOfRange):
            oracle_identifiable(bell_triple, i, GRID)

    def test_agreement_sample(self):
        for k in range(25):
            ens = random_orthogonal_set(90_000 + k, size=3)
            for i in range(3):
                analytic, _ = conclusively_identifiable(ens, i)
                assert oracle_identifiable(ens, i, GRID).identifiable == analytic

    def test_all_product_complement_triple(self):
        # the complement of |10>, |11> is |0> x C^2: at a = |0> the constraints
        # on the right factor vanish, and the witness must be chosen in that
        # whole null space for its overlap with |00>
        ens = _basis_triple()
        for i in range(3):
            analytic, _ = conclusively_identifiable(ens, i)
            assert oracle_identifiable(ens, i, GRID).identifiable == analytic
        verdict = oracle_identifiable(ens, 0, GRID)
        assert verdict.overlap == pytest.approx(1.0, abs=1e-9)

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(2718)
        sets = [generate_eq1(GeneratorParams(0.3, 0.4)), generate_eq2(0.2), _basis_triple()]
        sets += [random_orthogonal_set(60_000 + k, size=3) for k in range(5)]
        for ens in sets:
            analytic = [conclusively_identifiable(ens, i)[0] for i in range(3)]
            for _ in range(4):
                local = np.kron(_haar_unitary(rng), _haar_unitary(rng))
                rotated = OrthogonalSet(tuple(make_state(local @ s.amps) for s in ens.states))
                for i in range(3):
                    assert conclusively_identifiable(rotated, i)[0] == analytic[i]
                    assert oracle_identifiable(rotated, i, GRID).identifiable == analytic[i]


def test_polish_converges_on_the_family_grids():
    # the hidden members of both families: their best candidate's witness is
    # orthogonal to the member itself only once its polish has reached the root
    # (a double root for eq1), so an under-converged polish leaves overlap behind
    eq1, eq2 = _sets(_family_rows(*_EQ1_LAMS)), _sets(_family_rows(_FAMILY_GRID))
    cases = [(f"eq1 {point}", ens, 0) for point, ens in zip(_EQ1_POINTS, eq1)]
    cases += [(f"eq2 {l1:.2f}", ens, i) for l1, ens in zip(_FAMILY_GRID, eq2) for i in (1, 2)]
    for name, ens, i in cases:
        verdict = oracle_identifiable(ens, i, GRID)
        if verdict.identifiable:
            assert verdict.residual < 1e-24, (name, i, verdict.residual)
        else:
            assert verdict.overlap < 1e-9, (name, i, verdict.overlap)


class TestLmRoot:
    def test_simple_root(self):
        t0, p0 = 0.7, 2.1
        target = cmath.exp(1j * p0) * math.sin(t0)

        def f_and_grad(t, p):
            e = cmath.exp(1j * p)
            return e * math.sin(t) - target, e * math.cos(t), 1j * e * math.sin(t)

        t, p = _lm_root(f_and_grad, (0.9, 1.8))
        assert math.hypot(t - t0, p - p0) < 1e-14

    def test_double_root(self):
        # |f| is quadratic in the distance, so the steps shrink only linearly:
        # a solver that stops on a loose step or |f| bound ends far above 1e-24
        t0, p0 = 1.3, 0.4

        def f_and_grad(t, p):
            z = (t - t0) + 1j * (p - p0)
            return z * z, 2 * z, 2j * z

        t, p = _lm_root(f_and_grad, (t0 + 6e-3, p0 - 8e-3))
        assert abs(f_and_grad(t, p)[0]) <= 1e-24

    def test_pencil_gradient_matches_central_differences(self):
        rng = np.random.default_rng(4)
        a, b = ((rng.normal(size=4) + 1j * rng.normal(size=4)).tolist() for _ in range(2))
        t, p, h = 0.8, 2.5, 1e-6
        _, dt, dp = _pencil_det(a, b, t, p)
        for analytic, step in ((dt, (h, 0.0)), (dp, (0.0, h))):
            hi = _pencil_det(a, b, t + step[0], p + step[1])[0]
            lo = _pencil_det(a, b, t - step[0], p - step[1])[0]
            assert abs(analytic - (hi - lo) / (2 * h)) < 1e-8


# The loop forms that the grid stages' array forms replaced, kept as their
# reference: the array forms must reproduce them bit for bit.
def _score_loop(lefts, conj_mats, i, others):
    q00 = np.zeros(lefts.shape[0])
    q11 = np.zeros(lefts.shape[0])
    q01 = np.zeros(lefts.shape[0], dtype=complex)
    for j in (i, *others):
        w = 1.0 if j == i else -bruteforce.SEED_PENALTY
        h = lefts @ conj_mats[j]
        q00 += w * np.abs(h[:, 0]) ** 2
        q11 += w * np.abs(h[:, 1]) ** 2
        q01 += w * h[:, 0].conj() * h[:, 1]
    half_gap = (q00 - q11) / 2.0
    return (q00 + q11) / 2.0 + np.sqrt(half_gap**2 + np.abs(q01) ** 2)


def _pick_loop(scores, vectors, min_cos):
    picked = []
    for k in np.argsort(-scores, kind="stable"):
        if all(vectors[k] @ vectors[m] < min_cos for m in picked):
            picked.append(k)
            if len(picked) == _TOP_K:
                break
    return picked


def _coarse_loop(conj_mats, i, others, resolution):
    theta = np.linspace(0.0, np.pi, resolution)
    phi = np.linspace(0.0, 2.0 * np.pi, resolution, endpoint=False)
    t, p = _mesh(theta, phi)
    scores = _score_loop(_bloch(t, p), conj_mats, i, others)
    vectors = np.stack([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)], axis=-1)
    picked = _pick_loop(scores, vectors, np.cos(4.0 * np.pi / resolution))
    return [np.array([t[k], p[k]]) for k in picked]


def _refine_loop(conj_mats, i, others, angles, resolution):
    """The best angles and every round's 81 left factors, from np.linspace axes."""
    width = 2.0 * np.pi / (resolution - 1)
    best = np.asarray(angles, dtype=float)
    meshes = []
    for _ in range(bruteforce.ROUNDS):
        gt, gp = _mesh(*(np.linspace(a - width, a + width, 9) for a in best))
        meshes.append(_bloch(gt, gp))
        k = int(np.argmax(_score_loop(meshes[-1], conj_mats, i, others)))
        best = np.array([gt[k], gp[k]])
        width /= 4.0
    return best, meshes


def _pin_cases():
    """(name, conj_mats, i, others, mats) for every member of the Bell triple, the eq1
    points, eq2 over _FAMILY_GRID and 50 Haar triples; mats as the oracle stacks them."""
    bell = OrthogonalSet(tuple(make_state(a) for a in bruteforce._BELL_TRIPLE_AMPS))
    sets = [("bell", bell)]
    sets += [(f"eq1 {point}", ens) for point, ens in zip(_EQ1_POINTS, _sets(_family_rows(*_EQ1_LAMS)))]
    sets += [(f"eq2 {l1:.2f}", ens) for l1, ens in zip(_FAMILY_GRID, _sets(_family_rows(_FAMILY_GRID)))]
    haar = _sets(_haar_rows(range(DEFAULT_SEED, DEFAULT_SEED + 50), 3))
    sets += [(f"haar {k}", ens) for k, ens in enumerate(haar)]
    for name, ens in sets:
        conj_mats = [s.matrix.conj() for s in ens.states]
        for i in range(3):
            others = [j for j in range(3) if j != i]
            yield name, conj_mats, i, others, np.stack([conj_mats[j] for j in (i, *others)])


def _raw(arrays):
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


@pytest.mark.filterwarnings("error")
class TestGridStagesMatchLoopForms:
    def test_score_matches_the_member_loop(self):
        lefts = _coarse_grid(GRID.resolution)[2]
        for name, conj_mats, i, others, mats in _pin_cases():
            expected = _score_loop(lefts, conj_mats, i, others)
            assert _raw([_best_right_score(lefts, mats)]) == _raw([expected]), (name, i)

    def test_coarse_candidates_match_the_greedy_loop(self):
        for name, conj_mats, i, others, mats in _pin_cases():
            expected = _coarse_loop(conj_mats, i, others, GRID.resolution)
            assert _raw(_coarse_candidates(mats, GRID)) == _raw(expected), (name, i)

    def test_refine_meshes_match_linspace_meshes(self, monkeypatch):
        meshes = []

        def recording_score(lefts, mats):
            meshes.append(lefts)
            return _best_right_score(lefts, mats)

        monkeypatch.setattr(bruteforce, "_best_right_score", recording_score)
        for name, conj_mats, i, others, mats in _pin_cases():
            for cand in _coarse_loop(conj_mats, i, others, GRID.resolution)[:2]:
                meshes.clear()
                best = _refine(mats, cand, GRID)
                expected, expected_meshes = _refine_loop(conj_mats, i, others, cand, GRID.resolution)
                assert _raw(meshes) == _raw(expected_meshes), (name, i)
                assert _raw([best]) == _raw([expected]), (name, i)

    def test_pick_breaks_ties_to_the_lower_index(self):
        _, _, _, vectors, min_cos = _coarse_grid(GRID.resolution)
        rng = np.random.default_rng(5)
        for scores in (np.zeros(len(vectors)), np.round(rng.random(len(vectors)), 1)):
            picks = _separated_picks(scores, vectors, min_cos)
            assert len(picks) == _TOP_K and picks == _pick_loop(scores, vectors, min_cos)
        assert _separated_picks(np.zeros(len(vectors)), vectors, min_cos)[0] == 0

    def test_pick_clears_dots_at_the_bound(self):
        # (1, 0, 0) . (0.5, y, 0) is exactly 0.5: a dot equal to min_cos is not separated
        vectors = np.array([[1.0, 0.0, 0.0], [0.5, math.sqrt(0.75), 0.0]])
        scores = np.array([1.0, 0.0])
        for min_cos, expected in ((0.5, [0]), (np.nextafter(0.5, 1.0), [0, 1])):
            assert _separated_picks(scores, vectors, min_cos) == expected
            assert _pick_loop(scores, vectors, min_cos) == expected

    def test_pick_with_fewer_than_top_k_separated_points(self):
        # at resolution 8 the separation is 90 degrees, and at most 4 unit
        # vectors in 3-D have pairwise negative dots
        _, _, _, vectors, min_cos = _coarse_grid(8)
        scores = np.random.default_rng(6).random(len(vectors))
        picks = _separated_picks(scores, vectors, min_cos)
        assert 1 < len(picks) < _TOP_K and picks == _pick_loop(scores, vectors, min_cos)
        same = np.tile([0.0, 0.0, 1.0], (6, 1))
        assert _separated_picks(np.arange(6.0), same, min_cos) == [5] == _pick_loop(
            np.arange(6.0), same, min_cos
        )


class TestCoarseGridCache:
    def test_two_verdicts_build_the_grid_once(self, bell_triple):
        _coarse_grid.cache_clear()
        oracle_identifiable(bell_triple, 0, GRID)
        oracle_identifiable(bell_triple, 1, GRID)
        info = _coarse_grid.cache_info()
        assert (info.misses, info.currsize) == (1, 1) and info.hits >= 1

    def test_cached_arrays_are_read_only(self):
        t, p, lefts, vectors, _ = _coarse_grid(GRID.resolution)
        for arr in (t, p, lefts, vectors):
            with pytest.raises(ValueError):
                arr[0] = 0


def _basis_triple():
    return OrthogonalSet(tuple(make_state(a) for a in ([1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1])))


def _haar_unitary(rng):
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestOracleProductScan:
    def test_two_cluster_case(self, bell):
        scan = oracle_product_scan(Subspace((bell["phi+"], bell["psi-"])), GRID)
        assert not scan.all_product_suspect
        assert len(scan.states) == 2

    def test_single_cluster_case(self):
        sub = Subspace(
            (make_state([0, np.sqrt(0.3), np.sqrt(0.7), 0]), make_state([0, 0, 0, 1]))
        )
        scan = oracle_product_scan(sub, GRID)
        assert len(scan.states) == 1
        np.testing.assert_allclose(np.abs(scan.states[0].amps), [0, 0, 0, 1], atol=1e-6)

    def test_saturated_detection(self):
        sub = Subspace((make_state([1, 0, 0, 0]), make_state([0, 1, 0, 0])))
        assert oracle_product_scan(sub, GRID).all_product_suspect


# Runs in a fresh interpreter, so that nothing the test process imported counts.
_COLD_START = """
import sys
from pathlib import Path

from click.testing import CliRunner

import qlocc
import qlocc.cli

tmp = Path(sys.argv[1])
doc = str(tmp / "eq1.json")
for args in (
    ["generate", "eq1", "--out", doc],
    ["classify", doc, "--json", str(tmp / "report.json")],
    ["sweep", "eq1", "--grid", "0.1:0.9:3", "--out", str(tmp / "sweep.csv")],
    ["demo-trit", "--lam1", "0.3", "--lam3", "0.4"],
    ["verify", "--suite", "prop1", "--count", "5"],
):
    res = CliRunner().invoke(qlocc.cli.main, args)
    assert res.exit_code == 0, (args, res.output)

phi_plus, phi_minus, psi_plus = (
    qlocc.make_state(a) for a in ((1, 0, 0, 1), (1, 0, 0, -1), (0, 1, 1, 0))
)
grid = qlocc.GridSpec(resolution=32)
triple = qlocc.OrthogonalSet((phi_plus, phi_minus, psi_plus))
assert qlocc.oracle_identifiable(triple, 0, grid).identifiable
assert len(qlocc.oracle_product_scan(qlocc.Subspace((phi_plus, psi_plus)), grid).states) == 2
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
"""


def _fresh_interpreter(*args):
    """Run python with args in a new process that imports this checkout's qlocc."""
    src = str(Path(qlocc.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=300
    )


def test_scipy_never_loads(tmp_path):
    proc = _fresh_interpreter("-c", _COLD_START, str(tmp_path))
    assert proc.returncode == 0, proc.stderr


def test_imports_print_and_warn_nothing():
    # a benchmark's last stdout line is its JSON result: importing qlocc must not print,
    # and any warning, at import or at exit, is an error here
    proc = _fresh_interpreter("-W", "error", "-c", "import qlocc, qlocc.cli, qlocc.verify, qlocc.io")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


def test_imports_build_no_grid():
    code = "import qlocc, qlocc.cli, qlocc.verify, qlocc.io\n"
    code += "assert qlocc.bruteforce._coarse_grid.cache_info().currsize == 0"
    proc = _fresh_interpreter("-c", code)
    assert proc.returncode == 0, proc.stderr
