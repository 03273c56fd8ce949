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

EPS_NORM = 1e-12
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
    """A normalized, phase-canonicalized two-qubit pure state."""

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


def make_state(amplitudes, eps_zero: float = EPS_ZERO) -> PureState:
    """Normalize and phase-canonicalize four complex amplitudes.

    Raises ZeroVector when the input norm is numerically zero, NonFiniteNorm
    when it is NaN or overflows to infinity.
    """
    a = np.asarray(amplitudes, dtype=np.complex128).reshape(4)
    # vdot, unlike np.linalg.norm, overflows to inf without a RuntimeWarning
    norm = math.sqrt(np.vdot(a, a).real)
    if not math.isfinite(norm):
        raise NonFiniteNorm(f"amplitude vector norm {norm} is not finite")
    if norm <= eps_zero:
        raise ZeroVector(f"amplitude vector norm {norm:.3g} is numerically zero")
    return PureState(_canonical_phase(a / norm, eps_zero))


def states_equal_up_to_phase(a: PureState, b: PureState, tol: float = 1e-9) -> bool:
    """Whether two states coincide up to a global phase."""
    return abs(abs(a.overlap(b)) - 1.0) < tol


def concurrence(s: PureState) -> float:
    """Concurrence 2|det M| = 2|ad - bc|: 0 for product states, 1 for maximally entangled."""
    a, b, c, d = s.amps.tolist()
    return min(1.0, 2.0 * abs(a * d - b * c))


@dataclass(frozen=True)
class EntanglementProfile:
    """Concurrence, Schmidt coefficients, and base-2 entanglement entropy (ebits)."""

    concurrence: float
    schmidt_coefficients: tuple[float, float]
    entropy: float


def _binary_entropy(p: float) -> float:
    # 0*log 0 = 0 convention at the endpoints
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return float(-p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p))


def entanglement_profile(s: PureState) -> EntanglementProfile:
    """Schmidt spectrum (1 +- sqrt(1 - C^2))/2 and its binary entropy."""
    c = concurrence(s)
    root = np.sqrt(max(0.0, 1.0 - c * c))
    lam_hi = (1.0 + root) / 2.0
    lam_lo = (1.0 - root) / 2.0
    return EntanglementProfile(
        concurrence=c,
        schmidt_coefficients=(lam_hi, lam_lo),
        entropy=_binary_entropy(lam_hi),
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
