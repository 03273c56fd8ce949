"""Two-qubit pure states: representation, validation, entanglement measures.

Amplitudes are ordered by the computational basis |00>, |01>, |10>, |11>.
The 2x2 coefficient matrix M with M[r, c] = amplitude of |rc> is the
workhorse: twice the modulus of its determinant is the concurrence, and its
rank decides the product/entangled dichotomy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteNorm, ZeroVector

EPS_ZERO = 1e-9
EPS_ORTH = 1e-9


def _canonical_phase(amps: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the first amplitude above EPS_ZERO is real >= 0."""
    for a in amps.tolist():
        if abs(a) > EPS_ZERO:
            return amps * (abs(a) / a)
    return amps


@dataclass(frozen=True)
class PureState:
    """A two-qubit pure state's four amplitudes, stored as given: make_state normalises and
    phase-canonicalises them, and OrthogonalSet rejects a member that is not a unit vector."""

    amps: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amps, dtype=np.complex128).reshape(4).copy()
        a.setflags(write=False)
        object.__setattr__(self, "amps", a)

    @property
    def matrix(self) -> np.ndarray:
        """Coefficient matrix: amps reshaped to 2x2, M[r, c] = <rc|state>."""
        return self.amps.reshape(2, 2)

    def overlap(self, other: "PureState") -> complex:
        """Inner product <self|other>."""
        return complex(np.vdot(self.amps, other.amps))

    def __repr__(self):
        terms = ", ".join(f"{a:.6g}" for a in self.amps)
        return f"PureState([{terms}])"


def make_state(amplitudes) -> PureState:
    """Normalize and phase-canonicalize four complex amplitudes.

    Raises ZeroVector when the input norm is at most EPS_ZERO, NonFiniteNorm
    when it is NaN or overflows to infinity.  The cutoff is in amplitude units,
    not a verdict tolerance: a document's eps_zero, a concurrence, never reaches it.
    """
    a = np.asarray(amplitudes, dtype=np.complex128).reshape(4)
    # vdot, unlike np.linalg.norm, overflows to inf without a RuntimeWarning
    norm = math.sqrt(np.vdot(a, a).real)
    if not math.isfinite(norm):
        raise NonFiniteNorm(f"amplitude vector norm {norm} is not finite")
    if norm <= EPS_ZERO:
        raise ZeroVector(f"amplitude vector norm {norm:.3g} is numerically zero")
    return PureState(_canonical_phase(a / norm))


def _unit_rows(amps: np.ndarray) -> np.ndarray:
    """make_state over a stack of amplitude rows (..., 4): the same checks, and the same bits
    (matmul's dot is vdot's, hypot is complex abs, and _phase_factors divides as Python does)."""
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.sqrt(np.matmul(amps.conj()[..., None, :], amps[..., :, None]).real[..., 0, 0])
    if not np.isfinite(norm).all():
        raise NonFiniteNorm("an amplitude vector norm is not finite")
    if (norm <= EPS_ZERO).any():
        raise ZeroVector(f"amplitude vector norm {norm.min():.3g} is numerically zero")
    a = amps / norm[..., None]
    first = (np.hypot(a.real, a.imag) > EPS_ZERO).argmax(axis=-1)[..., None]
    lead = np.take_along_axis(a, first, axis=-1)
    return a * _phase_factors(lead.reshape(-1)).reshape(lead.shape)


def _phase_factors(z: np.ndarray) -> np.ndarray:
    """_canonical_phase's factor |z| / z of each lead z (N,), or 1 where |z| <= EPS_ZERO."""
    # CPython's _Py_c_quot of (r, 0.0) by (br, bi), both branches, with its exact operations
    r, br, bi = np.hypot(z.real, z.imag), z.real, z.imag
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = bi / br  # |br| >= |bi|
        denom = br + bi * ratio
        re1, im1 = (r + 0.0 * ratio) / denom, (0.0 - r * ratio) / denom
        ratio = br / bi  # |bi| > |br|
        denom = br * ratio + bi
        re2, im2 = (r * ratio + 0.0) / denom, (0.0 * ratio - r) / denom
    by_real = np.abs(br) >= np.abs(bi)
    keep = r > EPS_ZERO
    factor = np.empty(z.shape, dtype=np.complex128)
    factor.real = np.where(keep, np.where(by_real, re1, re2), 1.0)
    factor.imag = np.where(keep, np.where(by_real, im1, im2), 0.0)
    return factor


# From this many rows on, _dets takes its column form; smaller stacks, such as classify's
# stack of one, loop over Python complex numbers, which costs less there. Both forms give
# the same bits.
_STACK_MIN = 32


def _dets(amps: np.ndarray) -> np.ndarray:
    """det M = ad - bc of each row of a stack (..., 4): Python complex numbers below
    _STACK_MIN rows, then CPython's complex product and difference in separate float64
    operations, with the same bits (numpy's may fuse them, FMA)."""
    rows = amps.reshape(-1, 4)
    if len(rows) < _STACK_MIN:
        dets = [a * d - b * c for a, b, c, d in rows.tolist()]
        return np.array(dets, dtype=np.complex128).reshape(amps.shape[:-1])
    ar, ai, br, bi, cr, ci, dr, di = np.ascontiguousarray(rows).view(np.float64).T
    dets = np.empty(len(rows), dtype=np.complex128)
    dets.real = (ar * dr - ai * di) - (br * cr - bi * ci)
    dets.imag = (ar * di + ai * dr) - (br * ci + bi * cr)
    return dets.reshape(amps.shape[:-1])


def _det_concurrences(dets: np.ndarray) -> np.ndarray:
    """Concurrence min(1, 2|det|) of each det (any shape): the modulus is hypot, as Python's
    complex abs is (np.abs may differ in the last bit), and fmin, like min(1.0, nan), gives 1."""
    return np.fmin(2.0 * np.hypot(dets.real, dets.imag), 1.0)


def _concurrences(amps: np.ndarray) -> np.ndarray:
    """Concurrence of each row of a stack (..., 4); concurrence is its stack of one."""
    return _det_concurrences(_dets(amps))


def concurrence(s: PureState) -> float:
    """Concurrence 2|det M| = 2|ad - bc|: 0 for product states, 1 for maximally entangled."""
    return float(_concurrences(s.amps))


@dataclass(frozen=True)
class EntanglementProfile:
    """Concurrence, Schmidt coefficients, and base-2 entanglement entropy (ebits)."""

    concurrence: float
    schmidt_coefficients: tuple[float, float]
    entropy: float


def _entropies(conc: np.ndarray) -> np.ndarray:
    """Base-2 entanglement entropy of states with the given concurrences (any shape)."""
    p = (1.0 + np.sqrt(np.maximum(0.0, 1.0 - conc * conc))) / 2.0
    inner = (p > 0.0) & (p < 1.0)  # 0*log 0 = 0 convention at the endpoints
    p = np.where(inner, p, 0.5)
    return np.where(inner, -p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p), 0.0)


def entanglement_profile(s: PureState) -> EntanglementProfile:
    """Schmidt spectrum (1 +- sqrt(1 - C^2))/2 and its binary entropy."""
    c = concurrence(s)
    root = np.sqrt(max(0.0, 1.0 - c * c))
    lam_hi = (1.0 + root) / 2.0
    lam_lo = (1.0 - root) / 2.0
    return EntanglementProfile(
        concurrence=c,
        schmidt_coefficients=(lam_hi, lam_lo),
        entropy=float(_entropies(np.float64(c))),
    )


def is_product(s: PureState, eps_zero: float = EPS_ZERO):
    """Decide whether a state factors, returning single-qubit factors when it does.

    Returns (True, (left, right)) with normalized single-qubit factor vectors,
    or (False, None).  eps_zero is a concurrence tolerance; the factors' phases
    are fixed as make_state fixes them, at its amplitude cutoff EPS_ZERO.
    """
    if concurrence(s) >= eps_zero:
        return False, None
    u, sv, vh = np.linalg.svd(s.matrix)
    left = _canonical_phase(u[:, 0])
    right = _canonical_phase(sv[0] * vh[0, :])
    right = right / np.linalg.norm(right)
    return True, (left, right)
