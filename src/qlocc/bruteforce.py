"""Brute-force numerical cross-checks for witnesses and product enumeration.

Independent of the algebraic engine.  Identifiability is decided by a scan of
the left qubit's Bloch sphere: once the left factor a is fixed, every overlap
<psi_j|a⊗b> = (a M_j^*)·b is linear in the right factor b, so a product state
orthogonal to the other members exists over a exactly where their stacked
constraints have a nonzero null vector (the existence law of Sanpera, Tarrach
and Vidal, PRA 58, 826 (1998)).  The scan therefore covers the left sphere
only: at each left grid point the best right factor is scored exactly, as the
largest eigenvalue of a 2x2 Hermitian score form.  The best left points are
refined locally and polished by a root find of the constraint determinant,
and the right factor is then read off the constraints' null space.  Product
enumeration scans |det| of the coefficient matrix, built point by point,
over the projective parameterization of a 2-D subspace.
Built to over- rather than under-report disagreement: grids are calibrated on
certified-positive cases and abort when too coarse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensembles import OrthogonalSet
from .errors import BadCardinality, BadDimension, BadGrid, IndexOutOfRange, ResolutionTooCoarse
from .products import Subspace
from .states import PureState, make_state

PENALTY = 1e3
ROUNDS = 3  # local refinement rounds per candidate, each shrinking the window 4x
THRESHOLD = 1e-6  # numerical zero of singular values, |det| and a witness's leak
# Seeding uses a much gentler penalty: at coarse-cell distance from a true
# witness the squared orthogonality leak is O(cell^2), and the full penalty
# would bury the basin below witness-free zeros of the constraint determinant.
SEED_PENALTY = 10.0
_TOP_K = 5


@dataclass(frozen=True)
class GridSpec:
    """Resolution of the angle grids.

    The identifiability oracle scans resolution**2 left-qubit Bloch angles per
    verdict (resolution polar by resolution azimuthal) and solves for the
    right factor exactly at each; the product scan uses the same resolution
    on each of its two angles.
    """

    resolution: int = 64

    def __post_init__(self):
        if self.resolution < 8:
            raise BadGrid(f"resolution must be >= 8, got {self.resolution}")


@dataclass(frozen=True)
class OracleVerdict:
    identifiable: bool
    witness: PureState | None
    residual: float
    overlap: float


@dataclass(frozen=True)
class ProductScanResult:
    all_product_suspect: bool
    states: tuple[PureState, ...]


def _bloch(theta, phi):
    """Single-qubit states for arrays of angles; shape (..., 2)."""
    theta = np.asarray(theta)
    phi = np.asarray(phi)
    return np.stack(
        [np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)], axis=-1
    )


def _mesh(ax0, ax1):
    """The grid ax0 x ax1 as two raveled angle arrays, ax0 varying slowest."""
    return (g.ravel() for g in np.meshgrid(ax0, ax1, indexing="ij"))


def _lm_root(f, x0, grad=None):
    """Angles near x0 where the complex f vanishes: scipy's LM least squares on [Re f, Im f],
    with the gradient of f as its Jacobian when given, else finite differences."""
    from scipy.optimize import least_squares

    def parts(z):
        return [z.real, z.imag]

    jac = "2-point" if grad is None else lambda x: parts(grad(x))
    sol = least_squares(lambda x: parts(f(x)), x0=x0, jac=jac, method="lm", xtol=1e-15, ftol=1e-15)
    return sol.x


def _best_right_score(lefts, conj_mats, i, others):
    """max over unit b of |h_i.b|^2 - P * sum_j |h_j.b|^2, per left factor.

    With h_j = a M_j^* the score is the Hermitian form b^H Q b,
    Q = conj(h_i) h_i^T - P * sum_j conj(h_j) h_j^T with P = SEED_PENALTY,
    whose maximum over unit b is its largest eigenvalue, taken here in closed
    form for the whole (N, 2) stack of left factors at once.
    """
    q00 = np.zeros(lefts.shape[0])
    q11 = np.zeros(lefts.shape[0])
    q01 = np.zeros(lefts.shape[0], dtype=complex)
    for j in (i, *others):
        w = 1.0 if j == i else -SEED_PENALTY
        h = lefts @ conj_mats[j]
        q00 += w * np.abs(h[:, 0]) ** 2
        q11 += w * np.abs(h[:, 1]) ** 2
        q01 += w * h[:, 0].conj() * h[:, 1]
    half_gap = (q00 - q11) / 2.0
    return (q00 + q11) / 2.0 + np.sqrt(half_gap**2 + np.abs(q01) ** 2)


def _coarse_candidates(conj_mats, i, others, grid):
    """Top scoring, mutually separated left-qubit angle pairs on the sphere."""
    theta = np.linspace(0.0, np.pi, grid.resolution)
    phi = np.linspace(0.0, 2.0 * np.pi, grid.resolution, endpoint=False)
    t, p = _mesh(theta, phi)
    scores = _best_right_score(_bloch(t, p), conj_mats, i, others)

    # separation is measured between Bloch vectors, so the duplicated poles
    # and the azimuthal wrap-around do not count as distinct candidates
    bloch_vectors = np.stack([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)], axis=-1)
    min_cos = np.cos(4.0 * np.pi / grid.resolution)
    picked = []
    for k in np.argsort(-scores, kind="stable"):
        if all(bloch_vectors[k] @ bloch_vectors[m] < min_cos for m in picked):
            picked.append(k)
            if len(picked) == _TOP_K:
                break
    return [np.array([t[k], p[k]]) for k in picked]


def _refine(conj_mats, i, others, angles, grid):
    """Local grid refinement around one left angle pair, shrinking 4x per round."""
    width = 2.0 * np.pi / (grid.resolution - 1)  # two polar steps of the coarse grid
    best = np.asarray(angles, dtype=float)
    sub = 9
    for _ in range(ROUNDS):
        axes = [np.linspace(a - width, a + width, sub) for a in best]
        gt, gp = _mesh(*axes)
        score = _best_right_score(_bloch(gt, gp), conj_mats, i, others)
        k = int(np.argmax(score))
        best = np.array([gt[k], gp[k]])
        width /= 4.0
    return best


def _polish(conj_mats, i, others, angles):
    """Drive the orthogonality residual to machine precision.

    For a fixed left factor a the two orthogonality constraints on the right
    factor are linear, so a nonzero solution exists exactly where the 2x2
    determinant of the stacked constraints vanishes; that determinant is
    root-found over the left-qubit angles.  The right factor is the unit
    vector of the constraints' numerical null space (singular values below
    THRESHOLD, at least one direction) with the largest target overlap:
    where the stack vanishes it is the normalized conj(a M_i^*).
    """
    mj, mk = conj_mats[others[0]], conj_mats[others[1]]

    def det_and_grad(x):
        # rows of p and q: the two constraints at a, then their derivatives
        # in theta and phi (the determinant is bilinear in its two rows)
        c, s, e = np.cos(x[0] / 2.0), np.sin(x[0] / 2.0), np.exp(1j * x[1])
        rows = np.array([[c, e * s], [-s / 2.0, e * c / 2.0], [0.0, 1j * e * s]])
        p, q = rows @ mj, rows @ mk
        det = p[0, 0] * q[0, 1] - p[0, 1] * q[0, 0]
        grad = p[1:, 0] * q[0, 1] - p[1:, 1] * q[0, 0] + p[0, 0] * q[1:, 1] - p[0, 1] * q[1:, 0]
        return det, grad

    x = _lm_root(lambda x: det_and_grad(x)[0], angles, lambda x: det_and_grad(x)[1])
    a = _bloch(x[0], x[1])
    _, sing, vh = np.linalg.svd(np.stack([a @ mj, a @ mk]))
    dim = max(1, int(np.sum(sing < THRESHOLD)))
    null = vh[-dim:].conj().T  # columns span the null space
    target = (a @ conj_mats[i]) @ null
    norm = np.linalg.norm(target)
    coeffs = target.conj() / norm if norm > 0.0 else np.eye(dim)[-1]
    return make_state(np.outer(a, null @ coeffs).reshape(4))


def _chefles_check(ensemble, i, witness):
    others = [j for j in range(len(ensemble)) if j != i]
    leak = sum(abs(witness.overlap(ensemble[j])) ** 2 for j in others)
    overlap = abs(witness.overlap(ensemble[i]))
    ok = leak < THRESHOLD**2 and overlap > PENALTY * THRESHOLD
    return ok, leak, overlap


def _search(ensemble, i, grid):
    conj_mats = [s.matrix.conj() for s in ensemble.states]
    others = [j for j in range(len(ensemble)) if j != i]
    best = OracleVerdict(False, None, np.inf, 0.0)
    for cand in _coarse_candidates(conj_mats, i, others, grid):
        refined = _refine(conj_mats, i, others, cand, grid)
        witness = _polish(conj_mats, i, others, refined)
        ok, leak, overlap = _chefles_check(ensemble, i, witness)
        if ok:
            return OracleVerdict(True, witness, leak, overlap)
        if overlap > best.overlap:
            best = OracleVerdict(False, witness, leak, overlap)
    return best


_BELL_TRIPLE_AMPS = (
    (1, 0, 0, 1),
    (1, 0, 0, -1),
    (0, 1, 1, 0),
)
_calibrated: set[GridSpec] = set()


def _calibrate(grid: GridSpec):
    """Fail loudly if a certified-positive case is not found at this grid.

    A grid oracle can only under-detect, so the schedule is validated on a
    triple of Bell states, where every member is known identifiable.
    """
    if grid in _calibrated:
        return
    triple = OrthogonalSet(tuple(make_state(a) for a in _BELL_TRIPLE_AMPS))
    for i in range(3):
        if not _search(triple, i, grid).identifiable:
            raise ResolutionTooCoarse(
                f"grid {grid} missed a certified witness (state {i} of a Bell triple)"
            )
    _calibrated.add(grid)


def oracle_identifiable(
    ensemble: OrthogonalSet, i: int, grid: GridSpec | None = None
) -> OracleVerdict:
    """Grid-search version of the product-witness test for cardinality-3 sets."""
    if len(ensemble) != 3:
        raise BadCardinality(f"oracle needs cardinality 3, got {len(ensemble)}")
    if not 0 <= i < 3:
        raise IndexOutOfRange(f"index {i} outside ensemble of size 3")
    grid = grid or GridSpec()
    _calibrate(grid)
    return _search(ensemble, i, grid)


def _det_on_circle(sub: Subspace, t, phi):
    """det of cos(t) u + e^{i phi} sin(t) v over angle arrays (complex).

    Each point's 2x2 coefficient matrix is built and its determinant taken
    directly, as one batched (..., 2, 2) stack.
    """
    u, v = sub.basis
    t = np.asarray(t)[..., None, None]
    phi = np.asarray(phi)[..., None, None]
    mats = np.cos(t) * u.matrix + np.exp(1j * phi) * np.sin(t) * v.matrix
    return np.linalg.det(mats)


def _projective_angle(w1, w2):
    ip = abs(np.vdot(w1, w2))
    return float(np.arccos(min(1.0, ip)))


def oracle_product_scan(sub: Subspace, grid: GridSpec | None = None) -> ProductScanResult:
    """Scan the projective line of a 2-D subspace for product states.

    Local |det| minima are polished to machine precision and clustered; a
    subspace where |det| is negligible everywhere is flagged AllProduct-
    suspect instead of enumerated.
    """
    if sub.dim != 2:
        raise BadDimension(f"expected dim 2, got {sub.dim}")
    grid = grid or GridSpec()
    t_ax = np.linspace(0.0, np.pi / 2.0, grid.resolution)
    p_ax = np.linspace(0.0, 2.0 * np.pi, grid.resolution, endpoint=False)
    t, p = _mesh(t_ax, p_ax)
    dets = np.abs(_det_on_circle(sub, t, p))

    if float(dets.max()) < THRESHOLD:
        return ProductScanResult(all_product_suspect=True, states=())

    u, v = sub.basis
    coords = np.stack([np.cos(t) * np.ones_like(p), np.exp(1j * p) * np.sin(t)], axis=-1)
    found = []  # (projective coord 2-vector, state)
    masked = np.array(dets)
    for _ in range(3):  # a quadratic has at most two roots; third pass is slack
        k = int(np.argmin(masked))
        if not np.isfinite(masked[k]):
            break
        tk, pk = _lm_root(lambda x: _det_on_circle(sub, x[0], x[1]), [t[k], p[k]])
        a = np.cos(tk)
        b = np.exp(1j * pk) * np.sin(tk)
        if abs(_det_on_circle(sub, tk, pk)) < THRESHOLD:
            w = np.array([a, b])
            w = w / np.linalg.norm(w)
            if all(_projective_angle(w, w0) > 1e-4 for w0, _ in found):
                found.append((w, make_state(a * u.amps + b * v.amps)))
        # mask out the basin of this minimum before the next pass
        ips = np.abs(coords @ np.array([a, b]).conj())
        masked[ips > 0.95] = np.inf
    return ProductScanResult(all_product_suspect=False, states=tuple(s for _, s in found))
