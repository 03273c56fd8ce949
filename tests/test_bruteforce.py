import cmath
import functools
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
    OracleVerdict,
    _best_right_score,
    _bloch,
    _chefles_check,
    _coarse_candidates,
    _coarse_grid,
    _lm_root,
    _mesh,
    _pencil_det,
    _polish,
    _refine,
    _search,
    _separated_picks,
)
from qlocc.ensembles import _haar_rows
from qlocc.errors import BadCardinality, BadGrid, IndexOutOfRange, QloccError, ResolutionTooCoarse
from qlocc.ueb import GeneratorParams, generate_eq1, generate_eq2
from qlocc.verify import DEFAULT_SEED, _EQ1_LAMS, _EQ1_POINTS, _FAMILY_GRID, _family_rows, _sets

from conftest import haar_unitary

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

    def test_failed_calibration_is_retried(self, monkeypatch, bell_triple):
        grid = GridSpec(resolution=12)  # no other test uses it, so it is not calibrated yet
        rejected = OracleVerdict(False, None, np.inf, 0.0)
        monkeypatch.setattr(bruteforce, "_search", lambda ensemble, i, grid: rejected)
        with pytest.raises(ResolutionTooCoarse):
            oracle_identifiable(bell_triple, 0, grid)
        monkeypatch.undo()
        calls = []

        def counting(ensemble, i, grid):
            calls.append(i)
            return _search(ensemble, i, grid)

        monkeypatch.setattr(bruteforce, "_search", counting)
        assert oracle_identifiable(bell_triple, 0, grid).identifiable
        assert oracle_identifiable(bell_triple, 1, grid).identifiable
        assert calls == [0, 1, 2, 0, 1]  # the three calibration searches, on first use only


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

    @pytest.mark.parametrize("i", [-1, 3, 1.5, 2.0, True])
    def test_index_out_of_range(self, bell_triple, i):
        # the analytic engine raises the same error for the same index; an index must be a
        # numbers.Integral other than bool, as GridSpec's resolution
        with pytest.raises(IndexOutOfRange):
            conclusively_identifiable(bell_triple, i)
        with pytest.raises(IndexOutOfRange):
            oracle_identifiable(bell_triple, i, GRID)

    def test_numpy_integer_index(self, bell_triple):
        (ok, w), (ok1, w1) = (conclusively_identifiable(bell_triple, i) for i in (np.int64(1), 1))
        assert ok and ok1 and w.amps.tobytes() == w1.amps.tobytes()
        a, b = (oracle_identifiable(bell_triple, i, GRID) for i in (np.int64(1), 1))
        assert a.identifiable and b.identifiable
        assert a.witness.amps.tobytes() == b.witness.amps.tobytes()

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
                local = np.kron(haar_unitary(rng), haar_unitary(rng))
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


def _family_members():
    """(name, ensemble, i) for every member of the eq1 and eq2 family grids."""
    eq1, eq2 = _sets(_family_rows(*_EQ1_LAMS)), _sets(_family_rows(_FAMILY_GRID))
    sets = [(f"eq1 {point}", ens) for point, ens in zip(_EQ1_POINTS, eq1)]
    sets += [(f"eq2 {l1:.2f}", ens) for l1, ens in zip(_FAMILY_GRID, eq2)]
    return [(name, ens, i) for name, ens in sets for i in range(3)]


def test_polish_traffic_on_the_family_grids(monkeypatch):
    # every hidden family member's polish lands on a double root of the constraint
    # determinant, where plain Gauss-Newton steps take about 49 evaluations; an
    # identifiable member's polish never enters the doubled mode, so it evaluates
    # the determinant exactly as often as the plain loop and returns the same bits
    calls = {"det": 0, "polish": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(bruteforce, "_pencil_det", counting("det", _pencil_det))
    monkeypatch.setattr(bruteforce, "_polish", counting("polish", _polish))

    def traffic(ens, i, root_finder):
        monkeypatch.setattr(bruteforce, "_lm_root", root_finder)
        calls.update(det=0, polish=0)
        verdict = _search(ens, i, GRID)
        return verdict, calls["det"], calls["polish"]

    hidden_evals = hidden_polishes = identifiable = 0
    for name, ens, i in _family_members():
        verdict, evals, polishes = traffic(ens, i, _lm_root)
        if verdict.identifiable:
            identifiable += 1
            plain, plain_evals, plain_polishes = traffic(ens, i, _plain_lm_root)
            assert (evals, polishes) == (plain_evals, plain_polishes), (name, i)
            assert _verdict_bits(verdict) == _verdict_bits(plain), (name, i)
        else:
            hidden_evals += evals
            hidden_polishes += polishes
    assert hidden_polishes > 0 and identifiable > 0
    assert hidden_evals / hidden_polishes <= 12, hidden_evals / hidden_polishes


# The plain Levenberg-Marquardt loop that _lm_root's doubled step extends, kept as its
# reference: off the doubled mode, _lm_root must reproduce it bit for bit.
def _plain_lm_root(f_and_grad, x0):
    t, p = float(x0[0]), float(x0[1])
    f, ft, fp = f_and_grad(t, p)
    lam = 1e-3
    for _ in range(bruteforce._MAX_EVALS - 1):
        a, b, c = abs(ft) ** 2, (ft.conjugate() * fp).real, abs(fp) ** 2
        damp = lam * (a + c)
        det = (a + damp) * (c + damp) - b * b
        if f == 0 or det == 0:
            break
        gt, gp = (ft.conjugate() * f).real, (fp.conjugate() * f).real
        dt = (b * gp - (c + damp) * gt) / det
        dp = (b * gt - (a + damp) * gp) / det
        trial = f_and_grad(t + dt, p + dp)
        if abs(trial[0]) < abs(f):
            t, p = t + dt, p + dp
            f, ft, fp = trial
            lam /= 4.0
        else:
            lam *= 4.0
        if math.hypot(dt, dp) <= bruteforce._XTOL * (bruteforce._XTOL + math.hypot(t, p)):
            break
    return t, p


def _counted(f_and_grad):
    """f_and_grad and a one-item list that counts its evaluations."""
    count = [0]

    def counting(t, p):
        count[0] += 1
        return f_and_grad(t, p)

    return counting, count


def _power_root(k, t0=1.3, p0=0.4, split=0.0):
    """z**k - split**2 with z = (t - t0) + i (p - p0); split only for k = 2."""

    def f_and_grad(t, p):
        z = (t - t0) + 1j * (p - p0)
        return z**k - split**2, k * z ** (k - 1), 1j * k * z ** (k - 1)

    return f_and_grad


class TestLmRoot:
    def test_simple_root(self):
        t0, p0 = 0.7, 2.1
        target = cmath.exp(1j * p0) * math.sin(t0)

        def f_and_grad(t, p):
            e = cmath.exp(1j * p)
            return e * math.sin(t) - target, e * math.cos(t), 1j * e * math.sin(t)

        f, count = _counted(f_and_grad)
        t, p = _lm_root(f, (0.9, 1.8))
        assert math.hypot(t - t0, p - p0) < 1e-14
        # quadratic convergence never cuts |f| about 4x twice in a row, so the step is
        # never doubled: the same bits in as many evaluations as the plain loop
        plain, plain_count = _counted(f_and_grad)
        assert (t, p) == _plain_lm_root(plain, (0.9, 1.8))
        assert count[0] == plain_count[0] > 2

    def test_double_root(self):
        # |f| is quadratic in the distance, so a solver that stops on a loose step
        # or |f| bound ends far above 1e-24; plain Gauss-Newton steps only halve the
        # distance (44 evaluations here), the doubled step lands in a few
        f_and_grad = _power_root(2)
        f, count = _counted(f_and_grad)
        t, p = _lm_root(f, (1.3 + 6e-3, 0.4 - 8e-3))
        assert abs(f_and_grad(t, p)[0]) <= 1e-24
        assert count[0] <= 10

    @pytest.mark.parametrize("x0", [(1.4, 0.3), (1.2, 2.0), (1.7, 5.0), (1.0, 0.0)])
    def test_double_root_at_the_pole(self, x0):
        # det(cos t I + e^{ip} sin t [[0, 1], [0, 0]]) = cos^2 t: a double root at
        # t = pi/2, where x = e^{ip} tan t is infinite, and no dependence on p
        a, b = [1, 0, 0, 1], [0, 1, 0, 0]
        f, count = _counted(functools.partial(_pencil_det, a, b))
        t, _ = _lm_root(f, x0)
        assert abs(t - math.pi / 2) <= 1e-15
        assert count[0] <= 10

    def test_triple_root(self):
        # each plain step keeps 2/3 of the distance and |f| falls by (2/3)^3 ~ 0.3,
        # in the doubled band: the doubled step keeps 1/3
        f_and_grad = _power_root(3)
        t, p = _lm_root(f_and_grad, (1.3 + 6e-3, 0.4 - 8e-3))
        assert abs(f_and_grad(t, p)[0]) <= 1e-40

    @pytest.mark.parametrize("split", [1e-8, 1e-5, 1e-3])
    def test_split_pair_lands_on_the_plain_root(self, split):
        # z^2 - s^2 looks like a double root from far away, so the doubled step starts;
        # near the pair it overshoots, is rejected, and plain steps finish on a simple root
        f_and_grad = _power_root(2, split=split)
        t, p = _lm_root(f_and_grad, (1.3 + 6e-3, 0.4 - 8e-3))
        t_ref, p_ref = _plain_lm_root(f_and_grad, (1.3 + 6e-3, 0.4 - 8e-3))
        assert math.hypot(t - t_ref, p - p_ref) <= 1e-3 * split
        assert math.hypot(t - 1.3 - split, p - 0.4) <= 1e-3 * split

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


def _search_loop(ensemble, i, mats, refined):
    """The per-candidate search: each coarse candidate refined alone (refined, in score
    order), then polished and checked in that order until one is accepted; else the
    best-overlap rejected one."""
    best = OracleVerdict(False, None, np.inf, 0.0)
    for angles, _ in refined:
        witness = _polish(mats, angles)
        ok, leak, overlap = _chefles_check(ensemble, i, witness)
        if ok:
            return OracleVerdict(True, witness, leak, overlap)
        if overlap > best.overlap:
            best = OracleVerdict(False, witness, leak, overlap)
    return best


def _pin_sets():
    """(name, ensemble) for the Bell triple, the eq1 points, eq2 over _FAMILY_GRID and
    50 Haar triples."""
    bell = OrthogonalSet(tuple(make_state(a) for a in bruteforce._BELL_TRIPLE_AMPS))
    sets = [("bell", bell)]
    sets += [(f"eq1 {point}", ens) for point, ens in zip(_EQ1_POINTS, _sets(_family_rows(*_EQ1_LAMS)))]
    sets += [(f"eq2 {l1:.2f}", ens) for l1, ens in zip(_FAMILY_GRID, _sets(_family_rows(_FAMILY_GRID)))]
    haar = _sets(_haar_rows(range(DEFAULT_SEED, DEFAULT_SEED + 50), 3))
    return sets + [(f"haar {k}", ens) for k, ens in enumerate(haar)]


@functools.cache
def _pin_cases():
    """(name, ens, conj_mats, i, others, mats) for every member of the _pin_sets ensembles;
    mats as the oracle stacks them."""
    cases = []
    for name, ens in _pin_sets():
        conj_mats = [s.matrix.conj() for s in ens.states]
        for i in range(3):
            others = [j for j in range(3) if j != i]
            mats = np.stack([conj_mats[j] for j in (i, *others)])
            cases.append((name, ens, conj_mats, i, others, mats))
    return tuple(cases)


# The loop references of a _pin_cases case at a resolution, computed once per session:
# three tests read them, and the picks are read-only.
@functools.cache
def _coarse_reference(case, resolution):
    _, _, conj_mats, i, others, _ = _pin_cases()[case]
    picks = np.array(_coarse_loop(conj_mats, i, others, resolution))
    picks.flags.writeable = False
    return picks


@functools.cache
def _refine_reference(case, resolution):
    """(angles, meshes) of _refine_loop on each of the case's coarse picks."""
    _, _, conj_mats, i, others, _ = _pin_cases()[case]
    picks = _coarse_reference(case, resolution)
    return [_refine_loop(conj_mats, i, others, c, resolution) for c in picks]


def _raw(arrays):
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


def _verdict_bits(verdict):
    return verdict.identifiable, verdict.residual, verdict.overlap, _raw([verdict.witness.amps])


@pytest.mark.filterwarnings("error")
class TestGridStagesMatchLoopForms:
    def test_score_matches_the_member_loop(self):
        lefts = _coarse_grid(GRID.resolution)[2]
        for name, _, conj_mats, i, others, mats in _pin_cases():
            expected = _score_loop(lefts, conj_mats, i, others)
            assert _raw([_best_right_score(lefts, mats)]) == _raw([expected]), (name, i)

    def test_coarse_candidates_match_the_greedy_loop(self):
        for case, (name, _, _, i, _, mats) in enumerate(_pin_cases()):
            expected = list(_coarse_reference(case, GRID.resolution))
            assert _raw(_coarse_candidates(mats, GRID)) == _raw(expected), (name, i)

    def test_refine_meshes_match_linspace_meshes(self, monkeypatch):
        meshes = []

        def recording_score(lefts, mats):
            meshes.append(lefts)
            return _best_right_score(lefts, mats)

        monkeypatch.setattr(bruteforce, "_best_right_score", recording_score)
        coarse8 = GridSpec(resolution=8)
        fewer = 0
        for case, (name, _, _, i, _, mats) in enumerate(_pin_cases()):
            # all of a verdict's coarse picks, the best alone and the rest (the two
            # stacks _search refines); on the Bell and Haar members also resolution 8's
            # picks, of which there are at most 4 (see
            # test_pick_with_fewer_than_top_k_separated_points)
            grids = [GRID] + ([] if name.startswith("eq") else [coarse8])
            fewer += len(grids) > 1 and len(_coarse_reference(case, 8)) < _TOP_K
            for grid in grids:
                stack = _coarse_reference(case, grid.resolution)
                expected = _refine_reference(case, grid.resolution)
                for part in (slice(None), slice(1), slice(1, None)):
                    meshes.clear()
                    best = _refine(mats, stack[part], grid)
                    # one score call per round, on the candidates' 81-row meshes in stack order
                    assert [m.shape for m in meshes] == [(81 * len(best), 2)] * bruteforce.ROUNDS
                    assert best.shape == stack[part].shape
                    for k, (angles, loop_meshes) in enumerate(expected[part]):
                        own = [m[81 * k : 81 * (k + 1)] for m in meshes]
                        assert _raw(own) == _raw(loop_meshes), (name, i, grid, k)
                        assert _raw([best[k]]) == _raw([angles]), (name, i, grid, k)
        assert fewer > 0

    def test_search_matches_the_per_candidate_loop(self):
        # the best candidate refined alone and the rest in one stacked pass, polished in
        # score order: the early exit on the first accepted witness and the best-overlap
        # rejected one must both survive
        kinds = set()
        for case, (name, ens, _, i, _, mats) in enumerate(_pin_cases()):
            expected = _search_loop(ens, i, mats, _refine_reference(case, GRID.resolution))
            kinds.add(expected.identifiable)
            assert _verdict_bits(_search(ens, i, GRID)) == _verdict_bits(expected), (name, i)
        assert kinds == {True, False}

    def test_pick_breaks_ties_to_the_lower_index(self):
        _, _, _, vectors, min_cos = _coarse_grid(GRID.resolution)
        rng = np.random.default_rng(5)
        for scores in (np.zeros(len(vectors)), np.round(rng.random(len(vectors)), 1)):
            picks = _separated_picks(scores, vectors, min_cos)
            assert len(picks) == _TOP_K and picks == _pick_loop(scores, vectors, min_cos)
        assert _separated_picks(np.zeros(len(vectors)), vectors, min_cos)[0] == 0

    def test_pick_never_writes_its_scores(self):
        _, _, _, vectors, min_cos = _coarse_grid(GRID.resolution)
        scores = np.random.default_rng(7).random(len(vectors))
        scores.flags.writeable = False  # a write would raise
        before = scores.copy()
        picks = _separated_picks(scores, vectors, min_cos)
        assert picks == _pick_loop(scores, vectors, min_cos)
        assert _raw([scores]) == _raw([before])

    def test_pick_matches_the_loop_on_product_scan_dets(self, monkeypatch):
        # the product scan picks from -|det|: every score is <= 0, and -0.0 ties
        # where det vanishes exactly (the pole row of |00>, (|01> + |10>)/sqrt2)
        calls = []

        def recording_picks(scores, vectors, min_cos):
            calls.append((scores, vectors, min_cos))
            return _separated_picks(scores, vectors, min_cos)

        monkeypatch.setattr(bruteforce, "_separated_picks", recording_picks)
        h = 1 / math.sqrt(2)
        subs = [Subspace((make_state([1, 0, 0, 0]), make_state([0, h, h, 0])))]
        subs += [Subspace((make_state(a), make_state(b))) for a, b in (
            ([1, 0, 0, 1], [0, 1, -1, 0]),
            ([0, math.sqrt(0.3), math.sqrt(0.7), 0], [0, 0, 0, 1]),
        )]
        subs += [Subspace(ens.states) for ens in _sets(_haar_rows(range(40), 2))]
        for sub in subs:
            oracle_product_scan(sub, GRID)
        assert len(calls) == len(subs)
        assert any((scores == 0).sum() > 1 for scores, _, _ in calls)
        for scores, vectors, min_cos in calls:
            assert scores.max() <= 0
            assert _separated_picks(scores, vectors, min_cos) == _pick_loop(scores, vectors, min_cos)

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

    def test_verdict_and_product_scan_share_the_grid(self, bell, bell_triple):
        _coarse_grid.cache_clear()
        oracle_identifiable(bell_triple, 0, GRID)
        before = _coarse_grid.cache_info()
        oracle_product_scan(Subspace((bell["phi+"], bell["psi-"])), GRID)
        info = _coarse_grid.cache_info()
        assert (info.misses, info.currsize, info.hits) == (1, 1, before.hits + 1)

    def test_cached_arrays_are_read_only(self):
        t, p, lefts, vectors, _ = _coarse_grid(GRID.resolution)
        for arr in (t, p, lefts, vectors):
            with pytest.raises(ValueError):
                arr[0] = 0


def _basis_triple():
    return OrthogonalSet(tuple(make_state(a) for a in ([1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1])))


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
