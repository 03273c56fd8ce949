"""Brute-force numerical cross-checks for witnesses and product enumeration.

Independent of the algebraic engine.  Identifiability is decided by a scan of
the left qubit's Bloch sphere: once the left factor a is fixed, every overlap
<psi_j|a⊗b> = (a M_j^*)·b is linear in the right factor b, so a product state
orthogonal to the other members exists over a exactly where their stacked
constraints have a nonzero null vector (the existence law of Sanpera, Tarrach
and Vidal, PRA 58, 826 (1998)).  The scan therefore covers the left sphere
only: at each left grid point the best right factor is scored exactly, as the
largest eigenvalue of a 2x2 Hermitian score form.  The best left points are
refined locally, several candidates in one stacked pass per round, and
polished in score order by a Levenberg-Marquardt root find of the constraint
determinant, with its analytic gradient; the right factor is then read off
the constraints' null space.  The first accepted witness ends the search, so
the best candidate is refined alone and the rest only if it is rejected.
Product enumeration shares the cached grid, the separated picks and the root
finder: a 2-D subspace's projective line is the left sphere at half the polar
angle, so |det| of its coefficient matrix is scanned there and its smallest
values seed the polish.
Built to over- rather than under-report disagreement: grids are calibrated on
certified-positive cases and abort when too coarse.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache, partial

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
_XTOL = 1e-15  # _lm_root stops on a step at most _XTOL (_XTOL + |x|)
_MAX_EVALS = 200  # evaluations per root find: 100 per unknown


@dataclass(frozen=True)
class GridSpec:
    """Resolution of the angle grids.

    The identifiability oracle scans resolution**2 left-qubit Bloch angles per
    verdict (resolution polar by resolution azimuthal) and solves for the
    right factor exactly at each; the product scan reads the same grid.
    """

    resolution: int = 64

    def __post_init__(self):
        res = self.resolution
        if isinstance(res, bool) or not isinstance(res, numbers.Integral) or res < 8:
            raise BadGrid(f"resolution must be an integer >= 8, got {res!r}")


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
    return np.repeat(ax0, len(ax1)), np.tile(ax1, len(ax0))


def _pencil_det(a, b, t, ph):
    """det(cos t A + e^{i ph} sin t B) and its derivatives in t and ph.

    A and B are 2x2 complex matrices given as flat (m00, m01, m10, m11)
    sequences of Python scalars.  The determinant is bilinear in the two rows,
    so along a change dX of the matrix M it changes by
    dX00 M11 + M00 dX11 - dX01 M10 - M01 dX10; M's derivatives are
    -sin t A + e^{i ph} cos t B and i e^{i ph} sin t B.
    """
    c, s, e = math.cos(t), math.sin(t), complex(math.cos(ph), math.sin(ph))
    es = e * s
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    m00, m01 = c * a00 + es * b00, c * a01 + es * b01
    m10, m11 = c * a10 + es * b10, c * a11 + es * b11
    along_a = a00 * m11 + m00 * a11 - a01 * m10 - m01 * a10
    along_b = b00 * m11 + m00 * b11 - b01 * m10 - m01 * b10
    return m00 * m11 - m01 * m10, e * c * along_b - s * along_a, 1j * es * along_b


def _lm_root(f_and_grad, x0):
    """Angles (t, p) near x0 where a complex f vanishes: Levenberg-Marquardt on [Re f, Im f].

    f_and_grad(t, p) returns f and its derivatives in t and p, so each trial
    point costs one evaluation.  Each step solves the 2x2 damped normal
    equations (J^T J + lam tr(J^T J) I) dx = -J^T [Re f, Im f] in closed
    form.  A step is taken only if it lowers |f|, and lam then falls 4x;
    otherwise lam rises 4x.  The search stops only when f is exactly 0, when
    a step, taken or not, is at most _XTOL (_XTOL + |x|), or after
    _MAX_EVALS evaluations; never on a bound on |f|.  At a double root |f|
    is quadratic in the distance and the steps shrink only linearly, so a
    bound on |f| would stop short of the root.
    """
    t, p = float(x0[0]), float(x0[1])
    f, ft, fp = f_and_grad(t, p)
    lam = 1e-3
    for _ in range(_MAX_EVALS - 1):
        a, b, c = abs(ft) ** 2, (ft.conjugate() * fp).real, abs(fp) ** 2
        damp = lam * (a + c)
        det = (a + damp) * (c + damp) - b * b
        if f == 0 or det == 0:  # a root, or no direction that lowers |f|
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
        if math.hypot(dt, dp) <= _XTOL * (_XTOL + math.hypot(t, p)):
            break
    return t, p


def _best_right_score(lefts, mats):
    """max over unit b of |h_i.b|^2 - P * sum_j |h_j.b|^2, per left factor.

    mats stacks the members' conjugated coefficient matrices M^*, the target
    member i first.  With h_j = a M_j^* the score is the Hermitian form
    b^H Q b, Q = conj(h_i) h_i^T - P * sum_j conj(h_j) h_j^T with
    P = SEED_PENALTY, whose maximum over unit b is its largest eigenvalue,
    taken here in closed form for the whole (N, 2) stack of left factors at
    once.  Summing over the members' axis adds their terms in mats' order.
    """
    h = lefts @ mats  # (members, N, 2)
    w = np.array([[1.0], [-SEED_PENALTY], [-SEED_PENALTY]])
    q00 = (w * np.abs(h[..., 0]) ** 2).sum(axis=0)
    q11 = (w * np.abs(h[..., 1]) ** 2).sum(axis=0)
    q01 = (w * h[..., 0].conj() * h[..., 1]).sum(axis=0)
    half_gap = (q00 - q11) / 2.0
    return (q00 + q11) / 2.0 + np.sqrt(half_gap**2 + np.abs(q01) ** 2)


@lru_cache(maxsize=4)
def _coarse_grid(resolution):
    """The coarse left sphere, built once per resolution and read-only: raveled
    angles t and p, left factors, Bloch vectors and the separation's cosine."""
    theta = np.linspace(0.0, np.pi, resolution)
    phi = np.linspace(0.0, 2.0 * np.pi, resolution, endpoint=False)
    t, p = _mesh(theta, phi)
    lefts = _bloch(t, p)
    vectors = np.stack([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)], axis=-1)
    for arr in (t, p, lefts, vectors):
        arr.flags.writeable = False
    return t, p, lefts, vectors, np.cos(4.0 * np.pi / resolution)


def _separated_picks(scores, vectors, min_cos):
    """Up to _TOP_K indices, greedy in score order (ties to the lower index):
    each pick is the best point whose dot with every earlier pick is below min_cos."""
    left = np.array(scores, dtype=float)  # a copy: the caller's scores stay as they are
    picked = []
    while len(picked) < _TOP_K:
        n = int(np.argmax(left))  # the best point still free
        if left[n] == -np.inf:
            break
        picked.append(n)
        left[vectors @ vectors[n] >= min_cos] = -np.inf  # clears the pick itself too
    return picked


def _coarse_candidates(mats, grid):
    """Top scoring, mutually separated left-qubit angle pairs on the sphere, as a
    (K, 2) stack in score order.

    Separated as Bloch vectors, so the duplicated poles and the azimuthal
    wrap-around do not count as distinct candidates.
    """
    t, p, lefts, vectors, min_cos = _coarse_grid(grid.resolution)
    picked = _separated_picks(_best_right_score(lefts, mats), vectors, min_cos)
    return np.stack([t[picked], p[picked]], axis=-1)


def _refine(mats, angles, grid):
    """Local grid refinement around a (K, 2) stack of left angle pairs, shrinking 4x
    per round; one score call per round covers every candidate's 9 x 9 mesh."""
    width = 2.0 * np.pi / (grid.resolution - 1)  # two polar steps of the coarse grid
    best = np.asarray(angles, dtype=float)
    n = len(best)
    steps = np.arange(9.0)[:, None]
    # best's (theta, phi) as flat offsets into axes: candidate k's block starts at 18 k
    offsets = np.arange(0, 18 * n, 18)[:, None] + np.array([0, 1])
    for _ in range(ROUNDS):
        # per candidate, theta and phi axes as the columns of a 9 x 2 block,
        # np.linspace(lo, hi, 9) bit for bit; then _bloch on each block's 9 x 9
        # mesh, theta varying slowest, from 9 values per axis
        lo, hi = best - width, best + width
        axes = steps * ((hi - lo) / 8)[:, None] + lo[:, None]
        axes[:, -1] = hi
        half = axes[..., 0] / 2.0
        lefts = np.empty((n, 9, 9, 2), dtype=complex)  # candidate, theta, phi, factor
        lefts[..., 0] = np.cos(half)[..., None]
        np.multiply(np.exp(1j * axes[:, None, :, 1]), np.sin(half)[..., None], out=lefts[..., 1])
        k = np.argmax(_best_right_score(lefts.reshape(-1, 2), mats).reshape(n, 81), axis=1)
        row, col = np.divmod(k, 9)  # the best point's theta and phi indices
        best = axes.reshape(-1)[offsets + np.stack([2 * row, 2 * col], axis=-1)]
        width /= 4.0
    return best


def _polish(mats, angles):
    """Drive the orthogonality residual to machine precision.

    For a fixed left factor a the two orthogonality constraints on the right
    factor are linear, so a nonzero solution exists exactly where the 2x2
    determinant of the stacked constraints vanishes; that determinant is
    root-found over the left-qubit angles by _lm_root, with its analytic
    gradient.  The root find stops only when the determinant is exactly 0,
    when a step is at most _XTOL (_XTOL + |angles|), or after _MAX_EVALS
    evaluations, never on a bound on |det|.  The right factor is the unit
    vector of the constraints' numerical null space (singular values below
    THRESHOLD, at least one direction) with the largest target overlap:
    where the stack vanishes it is the normalized conj(a M_i^*).
    """
    mj, mk = mats[1], mats[2]
    # the stacked constraints (a M_j^*, a M_k^*) at a = (cos theta/2, e^{i phi} sin theta/2)
    # are cos(theta/2) A + e^{i phi} sin(theta/2) B, with A and B the first and
    # second rows of M_j^* and M_k^*
    (j0, j1), (k0, k1) = mj.tolist(), mk.tolist()
    first, second = j0 + k0, j1 + k1

    def det_and_grad(theta, phi):
        det, d_half, d_phi = _pencil_det(first, second, theta / 2.0, phi)
        return det, d_half / 2.0, d_phi

    x = _lm_root(det_and_grad, angles)
    a = _bloch(x[0], x[1])
    _, sing, vh = np.linalg.svd(np.stack([a @ mj, a @ mk]))
    dim = max(1, int(np.sum(sing < THRESHOLD)))
    null = vh[-dim:].conj().T  # columns span the null space
    target = (a @ mats[0]) @ null
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
    """Polish the refined coarse candidates in score order: the first accepted witness
    decides, else the best-overlap rejected one.  The best candidate decides most
    verdicts, so it is refined alone; the rest only once it is rejected, in one
    stacked pass."""
    others = [j for j in range(len(ensemble)) if j != i]
    mats = np.stack([ensemble[j].matrix.conj() for j in (i, *others)])
    candidates = _coarse_candidates(mats, grid)
    best = OracleVerdict(False, None, np.inf, 0.0)
    for stack in (candidates[:1], candidates[1:]):
        for angles in _refine(mats, stack, grid):
            witness = _polish(mats, angles)
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


def oracle_product_scan(sub: Subspace, grid: GridSpec | None = None) -> ProductScanResult:
    """Scan the projective line of a 2-D subspace for product states.

    The line's points (cos t, e^{ip} sin t) are the coarse sphere's left
    factors with t = theta/2, so the scan reads the identifiability oracle's
    cached grid, seeds from its separated picks of the smallest |det|, and
    polishes each seed with its root finder.  A subspace where |det| is
    negligible everywhere is flagged AllProduct-suspect instead of enumerated.
    """
    if sub.dim != 2:
        raise BadDimension(f"expected dim 2, got {sub.dim}")
    grid = grid or GridSpec()
    t, p, lefts, vectors, min_cos = _coarse_grid(grid.resolution)
    u, v = sub.basis
    pencils = lefts[:, 0, None, None] * u.matrix + lefts[:, 1, None, None] * v.matrix
    dets = np.abs(np.linalg.det(pencils))
    if float(dets.max()) < THRESHOLD:
        return ProductScanResult(all_product_suspect=True, states=())

    det_and_grad = partial(_pencil_det, u.amps.tolist(), v.amps.tolist())
    roots = []  # distinct projective points (a, b), unit norm
    for k in _separated_picks(-dets, vectors, min_cos):
        tk, pk = _lm_root(det_and_grad, (t[k] / 2.0, p[k]))
        w = np.array([math.cos(tk), complex(math.cos(pk), math.sin(pk)) * math.sin(tk)])
        if abs(det_and_grad(tk, pk)[0]) < THRESHOLD and all(
            abs(np.vdot(w, w0)) < math.cos(1e-4) for w0 in roots
        ):
            roots.append(w)
    states = tuple(make_state(a * u.amps + b * v.amps) for a, b in roots)
    return ProductScanResult(all_product_suspect=False, states=states)
