"""Exact enumeration of product states inside two-qubit subspaces.

A general element a*u + b*v of a 2-D subspace is product exactly when the
determinant of its coefficient matrix vanishes.  That determinant is a
homogeneous quadratic in (a, b), so the product states in the subspace are
either the (one or two) projective roots of the quadratic, or the whole
subspace when the quadratic vanishes identically.  _pencil_root is the one
root formula: product_states_in_2d applies it to one plane in Python complex
numbers, and discrimination._decide to whole stacks of planes span{psi_i, d}.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .ensembles import OrthogonalSet
from .errors import BadDimension, FullSpace
from .states import EPS_ORTH, EPS_ZERO, PureState, make_state

EPS_DISC = 1e-8

# np.allclose(gram, eye(k), atol=10 * EPS_ORTH) as one comparison: atol off the
# diagonal, atol + rtol (1e-5) on it; NaN compares false, as in allclose.
_EYE = {k: np.eye(k) for k in range(1, 5)}
_GRAM_TOL = {k: 10 * EPS_ORTH + 1e-5 * _EYE[k] for k in range(1, 5)}


@dataclass(frozen=True)
class Subspace:
    """An orthonormal basis of a subspace of the two-qubit space."""

    basis: tuple[PureState, ...]

    def __post_init__(self):
        object.__setattr__(self, "basis", tuple(self.basis))
        if not 1 <= len(self.basis) <= 4:
            raise BadDimension(f"basis length must be 1..4, got {len(self.basis)}")
        k = len(self.basis)
        m = self.matrix()
        if not (abs(m.conj().T @ m - _EYE[k]) <= _GRAM_TOL[k]).all():
            raise BadDimension("basis is not orthonormal")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def matrix(self) -> np.ndarray:
        return np.column_stack([s.amps for s in self.basis])

    def projection_norm(self, s: PureState) -> float:
        """Norm of the projection of a unit state onto this subspace."""
        return float(np.linalg.norm(self.matrix().conj().T @ s.amps))


class EnumerationKind(Enum):
    FINITE = "finite"
    ALL_PRODUCT = "all_product"


@dataclass(frozen=True)
class ProductStateEnumeration:
    """All product states in a 2-D subspace.

    Either a finite list of one or two states (with root multiplicities), or
    the whole subspace, in which case `states` holds three distinct
    representatives of the family: the two basis states and their
    normalized sum.
    """

    kind: EnumerationKind
    states: tuple[PureState, ...]
    multiplicities: tuple[int, ...] = ()


def _pencil_root(c2, c1, c0):
    """q and the discriminant of c2 a^2 + c1 ab + c0 b^2, on scalars or stacks alike.

    Its projective roots are (q, c2), the one of larger |a/b| (in a/b they multiply to
    c0 / c2), and (c0, q).  q's sign avoids cancellation in -c1 -+ sqrt(disc), so no case
    needs a branch: c2 = 0 gives the root b = 0, and q = 0 only when disc = 0, where one
    representative is (0, 0) and the other the double root.
    """
    disc = c1 * c1 - 4.0 * c2 * c0
    sq = np.sqrt(disc)
    q = -(c1 + np.where(abs(c1 + sq) > abs(c1 - sq), sq, -sq)) / 2.0
    return q, disc


# cof_r = sum_t sign * member0[row] * minor; minors of members 1, 2 on pairs 01 02 03 12 13 23
_MINOR_PQ = np.array([0, 0, 0, 1, 1, 2, 1, 2, 3, 2, 3, 3])
_COF_ROW = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])
_COF_MINOR = np.array([[5, 4, 3], [5, 2, 1], [4, 2, 0], [3, 1, 0]])
_COF_SIGN = np.array([[1, -1, 1], [-1, 1, -1], [1, -1, 1], [-1, 1, -1]])


def _complements(amps: np.ndarray) -> np.ndarray:
    """Conjugated cofactor vectors d (N, 4) of triples (N, 3, 4): with B the members as
    columns, <psi_k|d> = conj(det[psi_k | B]) = 0, and |d| = 1 for orthonormal members."""
    g = amps[:, 1:].take(_MINOR_PQ, axis=-1)
    minors = g[:, 0, :6] * g[:, 1, 6:] - g[:, 1, :6] * g[:, 0, 6:]
    terms = amps[:, 0].take(_COF_ROW, axis=-1) * minors.take(_COF_MINOR, axis=-1)
    return (terms * _COF_SIGN).sum(axis=-1).conj()


def orthocomplement(source: OrthogonalSet | Subspace) -> Subspace:
    """The one state orthogonal to three members: their conjugated cofactor vector
    (_complements).  Four members raise FullSpace, fewer than three BadDimension."""
    b = source.matrix()
    if b.shape[1] == 4:
        raise FullSpace("input spans the whole two-qubit space")
    if b.shape[1] != 3:
        raise BadDimension(f"expected 3 members, got {b.shape[1]}")
    return Subspace((make_state(_complements(b.T[None])[0]),))


def product_states_in_2d(sub: Subspace) -> ProductStateEnumeration:
    """Enumerate the product states in a 2-D subspace span{u, v}.

    a u + b v is product at the roots of det(a M_u + b M_v) = c2 a^2 + c1 ab + c0 b^2,
    (q, c2) and (c0, q) by _pencil_root, each scaled to max(|a|, |b|) = 1.  Roots with
    |disc| < EPS_DISC scale^2 merge into one double root, represented by the larger of the
    two, a root itself.  The plane is all product when 2|c| < EPS_ZERO for every
    coefficient (is_product's default threshold on 2|det M|), so both basis states factor.
    A Finite result is never empty: a nonzero quadratic has a projective root.
    """
    if sub.dim != 2:
        raise BadDimension(f"expected a 2-D subspace, got dim {sub.dim}")
    u, v = sub.basis
    # Python complex numbers: numpy on a plane of one costs more here
    au, bu, cu, du = u.amps.tolist()
    av, bv, cv, dv = v.amps.tolist()
    c2 = au * du - bu * cu
    c0 = av * dv - bv * cv
    c1 = au * dv + du * av - bu * cv - cu * bv
    scale = max(abs(c2), abs(c1), abs(c0))
    if 2.0 * scale < EPS_ZERO:
        return ProductStateEnumeration(
            EnumerationKind.ALL_PRODUCT, (u, v, make_state(u.amps + v.amps))
        )
    q, disc = _pencil_root(c2, c1, c0)
    roots, mults = [(a, b, max(abs(a), abs(b))) for a, b in ((q, c2), (c0, q))], (1, 1)
    if abs(disc) < EPS_DISC * scale * scale:  # one of the two is (0, 0) when q = 0
        roots, mults = [max(roots, key=lambda r: r[2])], (2,)
    states = tuple(make_state(a / m * u.amps + b / m * v.amps) for a, b, m in roots)
    return ProductStateEnumeration(EnumerationKind.FINITE, states, mults)
