"""Exact enumeration of product states inside two-qubit subspaces.

A general element a*u + b*v of a 2-D subspace is product exactly when the
determinant of its coefficient matrix vanishes.  That determinant is a
homogeneous quadratic in (a, b), so the product states in the subspace are
either the (one or two) projective roots of the quadratic, or the whole
subspace when the quadratic vanishes identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .ensembles import OrthogonalSet
from .errors import BadDimension, FullSpace
from .states import EPS_ORTH, EPS_ZERO, PureState, make_state

EPS_DISC = 1e-8


@dataclass(frozen=True)
class Subspace:
    """An orthonormal basis of a subspace of the two-qubit space."""

    basis: tuple[PureState, ...]

    def __post_init__(self):
        object.__setattr__(self, "basis", tuple(self.basis))
        if not 1 <= len(self.basis) <= 4:
            raise BadDimension(f"basis length must be 1..4, got {len(self.basis)}")
        gram = self.matrix().conj().T @ self.matrix()
        if not np.allclose(gram, np.eye(len(self.basis)), atol=10 * EPS_ORTH):
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


class ProjectiveRoots(Enum):
    IDENTICALLY_ZERO = "identically_zero"
    ROOTS = "roots"


def quadratic_roots(c2: complex, c1: complex, c0: complex, eps_zero: float = EPS_ZERO):
    """Projective roots of c2*a^2 + c1*a*b + c0*b^2 on the complex line.

    Returns (kind, roots) where roots is a list of ((a, b), multiplicity)
    with the representative scaled so max(|a|, |b|) = 1.  kind is
    IDENTICALLY_ZERO when every coefficient is negligible in concurrence
    units (2|c| < eps_zero), the threshold is_product applies to 2|det M|,
    so both basis states of an identically-zero determinant plane factor.
    """
    scale = max(abs(c2), abs(c1), abs(c0))
    if 2.0 * scale < eps_zero:
        return ProjectiveRoots.IDENTICALLY_ZERO, []

    def norm_root(a, b):
        m = max(abs(a), abs(b))
        return (a / m, b / m)

    if abs(c2) < eps_zero * scale:
        # c1*a*b + c0*b^2 = b*(c1*a + c0*b)
        if abs(c1) < eps_zero * scale:
            # c0*b^2: double root at b = 0
            return ProjectiveRoots.ROOTS, [((1.0 + 0j, 0j), 2)]
        roots = [((1.0 + 0j, 0j), 1), (norm_root(-c0, c1), 1)]
        return ProjectiveRoots.ROOTS, roots

    disc = complex(c1 * c1 - 4.0 * c2 * c0)
    if abs(disc) < EPS_DISC * scale * scale:
        return ProjectiveRoots.ROOTS, [(norm_root(-c1, 2.0 * c2), 2)]

    sq = np.sqrt(disc)
    # pick the sign that avoids cancellation in -c1 -+ sq
    if abs(-c1 - sq) > abs(-c1 + sq):
        q = (-c1 - sq) / 2.0
    else:
        q = (-c1 + sq) / 2.0
    # roots of c2 x^2 + c1 x + c0 in x = a/b: q/c2 and c0/q
    r1 = norm_root(q, c2)
    r2 = norm_root(c0, q) if abs(q) > 0 else (0j, 1.0 + 0j)
    return ProjectiveRoots.ROOTS, [(r1, 1), (r2, 1)]


def orthocomplement(source: OrthogonalSet | Subspace) -> Subspace:
    """Orthonormal basis of the orthogonal complement of the input's span."""
    b = source.matrix()
    if b.shape[1] >= 4:
        raise FullSpace("input spans the whole two-qubit space")
    _, _, vh = np.linalg.svd(b.conj().T, full_matrices=True)
    comp = vh[b.shape[1]:].conj()
    return Subspace(tuple(make_state(comp[k]) for k in range(comp.shape[0])))


def product_states_in_2d(sub: Subspace, eps_zero: float = EPS_ZERO) -> ProductStateEnumeration:
    """Enumerate the product states in a 2-D subspace.

    A nonzero homogeneous quadratic on the complex projective line always has
    a root, so a Finite result is never empty.
    """
    if sub.dim != 2:
        raise BadDimension(f"expected a 2-D subspace, got dim {sub.dim}")
    u, v = sub.basis
    mu, mv = u.matrix, v.matrix
    det_u = np.linalg.det(mu)
    det_v = np.linalg.det(mv)
    cross = np.linalg.det(mu + mv) - det_u - det_v
    kind, roots = quadratic_roots(det_u, cross, det_v, eps_zero)

    if kind is ProjectiveRoots.IDENTICALLY_ZERO:
        return ProductStateEnumeration(
            kind=EnumerationKind.ALL_PRODUCT,
            states=(u, v, make_state(u.amps + v.amps)),
        )

    states = []
    mults = []
    for (a, b), mult in roots:
        states.append(make_state(a * u.amps + b * v.amps))
        mults.append(mult)
    return ProductStateEnumeration(
        kind=EnumerationKind.FINITE,
        states=tuple(states),
        multiplicities=tuple(mults),
    )
