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


def _canonical_phase(amps: np.ndarray, eps_zero: float = EPS_ZERO) -> np.ndarray:
    """Rotate the global phase so the first non-negligible amplitude is real >= 0."""
    for a in amps.tolist():
        if abs(a) > eps_zero:
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
    (matmul's dot is vdot's, hypot is complex abs, and the phase is the scalar division)."""
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.sqrt(np.matmul(amps.conj()[..., None, :], amps[..., :, None]).real[..., 0, 0])
    if not np.isfinite(norm).all():
        raise NonFiniteNorm("an amplitude vector norm is not finite")
    if (norm <= EPS_ZERO).any():
        raise ZeroVector(f"amplitude vector norm {norm.min():.3g} is numerically zero")
    a = amps / norm[..., None]
    first = (np.hypot(a.real, a.imag) > EPS_ZERO).argmax(axis=-1)[..., None]
    lead = np.take_along_axis(a, first, axis=-1)
    factor = [abs(z) / z if abs(z) > EPS_ZERO else 1.0 for z in lead.reshape(-1).tolist()]
    return a * np.array(factor, dtype=np.complex128).reshape(lead.shape)


def states_equal_up_to_phase(a: PureState, b: PureState, tol: float = 1e-9) -> bool:
    """Whether two states coincide up to a global phase."""
    return abs(abs(a.overlap(b)) - 1.0) < tol


def _concurrence(a: complex, b: complex, c: complex, d: complex) -> float:
    """min(1, 2|ad - bc|) of one row of amplitudes: every concurrence is computed here."""
    return min(1.0, 2.0 * abs(a * d - b * c))


def concurrence(s: PureState) -> float:
    """Concurrence 2|det M| = 2|ad - bc|: 0 for product states, 1 for maximally entangled."""
    return _concurrence(*s.amps.tolist())


def _dets(amps: np.ndarray) -> np.ndarray:
    """det M = ad - bc of each row of a stack (..., 4), in concurrence's arithmetic."""
    dets = [a * d - b * c for a, b, c, d in amps.reshape(-1, 4).tolist()]
    return np.array(dets, dtype=np.complex128).reshape(amps.shape[:-1])


def _concurrences(amps: np.ndarray) -> np.ndarray:
    """concurrence of each row of a stack (..., 4), bit for bit."""
    conc = [_concurrence(*row) for row in amps.reshape(-1, 4).tolist()]
    return np.array(conc).reshape(amps.shape[:-1])


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
    or (False, None).
    """
    if concurrence(s) >= eps_zero:
        return False, None
    u, sv, vh = np.linalg.svd(s.matrix)
    left = _canonical_phase(u[:, 0], eps_zero)
    right = _canonical_phase(sv[0] * vh[0, :], eps_zero)
    right = right / np.linalg.norm(right)
    return True, (left, right)


def product_state(left, right) -> PureState:
    """Tensor product of two single-qubit amplitude pairs."""
    return make_state(np.outer(np.asarray(left), np.asarray(right)).reshape(4))
