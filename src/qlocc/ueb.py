"""Unextendible entangled bases: verification and ensemble generators.

A two-qubit UEB is a set of three orthogonal entangled states whose 1-D
orthocomplement holds a product state (three is the only possible
cardinality).  The parametric families built here are the workhorses of the
nonlocality hierarchy: an all-entangled family whose complement is |11>, and
a sibling family spanning the same subspace with one member replaced by the
product state |00>.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .discrimination import UebVerdict, _decide, _ueb_verdict
from .ensembles import OrthogonalSet, _row_set
from .errors import BadCardinality, BadParam
from .states import PureState, _unit_rows, concurrence, is_product, make_state

# Maximally entangled basis closed under real linear combinations: any real
# unit combination of these four states has concurrence exactly 1.
MAGIC_BASIS = np.array(
    [
        [1, 0, 0, 1],
        [1j, 0, 0, -1j],
        [0, 1j, 1j, 0],
        [0, 1, -1, 0],
    ],
    dtype=np.complex128,
) / np.sqrt(2.0)

_CONDITION_LIMIT = 1e6



class MaximalEntanglementWarning(UserWarning):
    """A nominally nonmaximally-entangled family member reached concurrence 1."""


@dataclass(frozen=True)
class GeneratorParams:
    """Parameters of the entangled families: lam1 (+ lam3 for the 3-entangled one)."""

    lam1: float
    lam3: float | None = None

    def __post_init__(self):
        if not 0.0 < self.lam1 < 1.0:
            raise BadParam(f"lam1 must lie in (0, 1), got {self.lam1}")
        if self.lam3 is not None and not 0.0 < self.lam3 < 1.0:
            raise BadParam(f"lam3 must lie in (0, 1), got {self.lam3}")

    @property
    def lam2(self) -> float:
        return 1.0 - self.lam1

    @property
    def lam4(self) -> float:
        return 1.0 - self.lam3


@dataclass(frozen=True)
class SpanningVerdict:
    """Whether a 3-state span is also spanned by some UEB, with a certificate."""

    spans_ueb: bool
    complement_state: PureState
    witness_ueb: OrthogonalSet | None


def _family_rows(lam1: np.ndarray, lam3: np.ndarray | None = None) -> np.ndarray:
    """Unit members (N, 3, 4) of eq1 at (lam1, lam3), or of eq2 when lam3 is None."""
    s1, s2 = np.sqrt(lam1), np.sqrt(1.0 - lam1)
    rows = np.zeros(np.shape(lam1) + (3, 4), dtype=np.complex128)
    if lam3 is None:
        rows[..., 0, 0] = 1.0
        rows[..., 1, 1], rows[..., 1, 2] = s1, s2
        rows[..., 2, 1], rows[..., 2, 2] = s2, -s1
    else:
        s3, s4 = np.sqrt(lam3), np.sqrt(1.0 - lam3)
        rows[..., 0, 1], rows[..., 0, 2] = s1, s2
        rows[..., 1, 0], rows[..., 1, 1], rows[..., 1, 2] = s3, s4 * s2, -(s4 * s1)
        rows[..., 2, 0], rows[..., 2, 1], rows[..., 2, 2] = s4, -(s3 * s2), s3 * s1
    return _unit_rows(rows)


def generate_eq1(params: GeneratorParams) -> OrthogonalSet:
    """Three orthogonal entangled states whose only orthogonal state is |11>.

    psi1 = sqrt(lam1)|01> + sqrt(lam2)|10>, and psi2/psi3 mix |00> with the
    state orthogonal to psi1 in the |01>,|10> plane, weighted by lam3/lam4.
    Warns when lam1 = 1/2 makes psi1 maximally entangled.
    """
    if params.lam3 is None:
        raise BadParam("this family needs both lam1 and lam3")
    rows = _family_rows(np.array(params.lam1), np.array(params.lam3))
    ens = _row_set(rows)
    if abs(concurrence(ens[0]) - 1.0) < 1e-9:
        warnings.warn(
            "lam1 = 1/2 makes the first member maximally entangled; the "
            "family is nominally nonmaximally entangled",
            MaximalEntanglementWarning,
        )
    return ens


def generate_eq2(lam1: float) -> OrthogonalSet:
    """The sibling family: |00> plus two entangled states in the |01>,|10> plane."""
    params = GeneratorParams(lam1)  # validates the range
    return _row_set(_family_rows(np.array(params.lam1)))


def _random_orthogonal_matrix(rng: np.random.Generator) -> np.ndarray:
    while True:
        g = rng.normal(size=(4, 4))
        if np.linalg.cond(g) > _CONDITION_LIMIT:
            continue
        q, r = np.linalg.qr(g)
        return q * np.sign(np.diagonal(r))


def random_max_entangled_triple(seed: int) -> OrthogonalSet:
    """Seeded random triple of orthogonal maximally entangled states.

    Rows of a random real orthogonal matrix are read as coordinates in the
    magic basis, so every output state (and the complement of the triple) has
    concurrence 1.
    """
    coords = _random_orthogonal_matrix(np.random.default_rng(seed))[:3]
    states = tuple(make_state(row @ MAGIC_BASIS) for row in coords)
    return OrthogonalSet(states)


def ueb_check(ensemble: OrthogonalSet) -> UebVerdict:
    """Verify the UEB conditions: all members entangled, complement product.

    classify carries the same verdict for a triple as its `ueb` field.
    """
    if len(ensemble) != 3:
        raise BadCardinality(
            f"two-qubit UEBs have cardinality exactly 3, got {len(ensemble)}"
        )
    return _ueb_verdict(_decide(ensemble._rows[None], ensemble.tolerances))


def _unitary_sending_one_to(factor: np.ndarray) -> np.ndarray:
    """Single-qubit unitary whose second column is the given unit vector."""
    other = np.array([np.conj(factor[1]), -np.conj(factor[0])])
    return np.column_stack([other, factor])


def ueb_spanning_check(ensemble: OrthogonalSet) -> SpanningVerdict:
    """Whether the span of three orthogonal states is also spanned by a UEB.

    True exactly when the 1-D orthocomplement is a product state; in that
    case a witness UEB is constructed by rotating the canonical entangled
    family so its complement |11> lands on the actual complement's factors.
    """
    comp = ueb_check(ensemble).complement_state
    prod, factors = is_product(comp, ensemble.tolerances.eps_zero)
    if not prod:
        return SpanningVerdict(False, comp, None)
    left, right = factors
    rot = np.kron(_unitary_sending_one_to(left), _unitary_sending_one_to(right))
    canonical = generate_eq1(GeneratorParams(lam1=0.3, lam3=0.4))
    witness = OrthogonalSet(
        tuple(make_state(rot @ s.amps) for s in canonical.states),
        tolerances=ensemble.tolerances,
    )
    return SpanningVerdict(True, comp, witness)
