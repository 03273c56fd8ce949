"""Conclusive-identifiability tests and the nonlocality-hierarchy classifier.

A state of an orthogonal ensemble is conclusively identifiable under LOCC
exactly when some product state has nonzero overlap with it and zero overlap
with every other member (a product witness; Chefles, PRA 69, 050307(R)
(2004)).  All witness searches reduce to product-state enumeration in the
orthocomplement of the other members.  A triple needs only one complement:
with d its 1-D orthocomplement, the states orthogonal to the other two
members are exactly span{psi_i, d}, and d being product is the UEB-span bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .ensembles import OrthogonalSet
from .errors import IndexOutOfRange, InternalContradiction
from .products import (
    EnumerationKind,
    Subspace,
    orthocomplement,
    product_states_in_2d,
)
from .states import PureState, is_product, make_state

# Witnesses with target overlap inside [tau, WARN_BAND_FACTOR * tau] are
# numerically suspect; reports carry a warning flag for them.
WARN_BAND_FACTOR = 1e3


@dataclass(frozen=True)
class StateVerdict:
    index: int
    identifiable: bool
    witness: PureState | None
    witness_overlap: float
    near_threshold: bool = False


@dataclass(frozen=True)
class IdentifiabilityReport:
    per_state: tuple[StateVerdict, ...]
    conclusively_distinguishable: bool
    perfectly_distinguishable: bool


class HierarchyLabel(IntEnum):
    """Nonlocality levels, ordered from least to most nonlocal."""

    PERFECT_LOCC = 0
    CONCLUSIVE_ONLY = 1
    ONE_UNIDENTIFIABLE = 2
    TWO_UNIDENTIFIABLE = 3
    COMPLETE_BASIS = 4  # cardinality 4; graded separately by entangled count


@dataclass(frozen=True)
class NonlocalityClass:
    label: HierarchyLabel
    entangled_count: int
    ueb_span: bool | None = None  # cardinality-3 only

    def describe(self) -> str:
        if self.label is HierarchyLabel.COMPLETE_BASIS:
            return f"CompleteBasis({self.entangled_count})"
        return self.label.name.title().replace("_", "")


def _witness_candidates(plane: Subspace, target: PureState, eps_zero: float):
    """Product states in a 2-D witness plane, as witness candidates for target.

    For an all-product plane the family representatives are augmented with
    the overlap-maximizing member: with the left factor f fixed, the best
    right factor is the conjugate of f^H M, M the target's coefficient matrix
    (and symmetrically for a fixed right factor).
    """
    enum = product_states_in_2d(plane, eps_zero)
    candidates = list(enum.states)
    if enum.kind is EnumerationKind.ALL_PRODUCT:
        m = target.matrix
        f = enum.fixed_factor
        if enum.fixed_side == "left":
            g = f.conj() @ m
        else:
            g = m @ f.conj()
        if np.linalg.norm(g) > 0:
            chi = g.conj() / np.linalg.norm(g)
            if enum.fixed_side == "left":
                best = np.outer(f, chi)
            else:
                best = np.outer(chi, f)
            candidates.append(make_state(best.reshape(4)))
    return candidates


def _triple_complement(ensemble: OrthogonalSet) -> PureState | None:
    """The 1-D orthocomplement d of a triple; None for 2 or 4 members."""
    return orthocomplement(ensemble).basis[0] if len(ensemble) == 3 else None


def _member_verdict(ensemble: OrthogonalSet, i: int, d: PureState | None):
    """conclusively_identifiable for member i, given _triple_complement's d.

    For a triple, {psi_0, psi_1, psi_2, d} is an orthonormal basis, so the
    states orthogonal to the other two members are exactly the plane
    span{psi_i, d}.  A witness a*psi_i + b*d leaks onto another member psi_j
    by at most |<psi_j|psi_i>|, which OrthogonalSet bounds by the set's
    eps_orth.
    """
    tol = ensemble.tolerances
    target = ensemble[i]
    if d is None:
        if len(ensemble) == 2:
            return True, None
        prod, _ = is_product(target, tol.eps_zero)
        return (True, target) if prod else (False, None)

    best = None
    best_overlap = 0.0
    for cand in _witness_candidates(Subspace((target, d)), target, tol.eps_zero):
        ov = abs(cand.overlap(target))
        if ov > tol.tau_overlap and ov > best_overlap:
            best, best_overlap = cand, ov
    return best is not None, best


def _report(ensemble: OrthogonalSet, d: PureState | None) -> IdentifiabilityReport:
    tol = ensemble.tolerances
    verdicts = []
    for i in range(len(ensemble)):
        ok, witness = _member_verdict(ensemble, i, d)
        ov = abs(witness.overlap(ensemble[i])) if witness is not None else 0.0
        verdicts.append(
            StateVerdict(
                index=i,
                identifiable=ok,
                witness=witness,
                witness_overlap=ov,
                near_threshold=witness is not None
                and ov <= WARN_BAND_FACTOR * tol.tau_overlap,
            )
        )
    return IdentifiabilityReport(
        per_state=tuple(verdicts),
        conclusively_distinguishable=all(v.identifiable for v in verdicts),
        perfectly_distinguishable=perfectly_distinguishable(ensemble),
    )


def conclusively_identifiable(ensemble: OrthogonalSet, i: int):
    """Whether member i admits a product witness, and the best such witness.

    Returns (identifiable, witness or None).  Cardinality 2 is decided by
    rule (two orthogonal states are always perfectly distinguishable by
    LOCC); cardinality 4 reduces to member i itself being product.
    """
    n = len(ensemble)
    if not 0 <= i < n:
        raise IndexOutOfRange(f"index {i} outside ensemble of size {n}")
    return _member_verdict(ensemble, i, _triple_complement(ensemble))


def perfectly_distinguishable(ensemble: OrthogonalSet) -> bool:
    """Rule-based perfect LOCC distinguishability.

    Two orthogonal states: always.  Three: exactly when at most one member is
    entangled.  A complete basis: exactly when every member is product.
    """
    n = len(ensemble)
    ec = ensemble.entangled_count()
    if n == 2:
        return True
    if n == 3:
        return ec <= 1
    return ec == 0


def identifiability_report(ensemble: OrthogonalSet) -> IdentifiabilityReport:
    """Per-member conclusive-identifiability verdicts with witnesses."""
    return _report(ensemble, _triple_complement(ensemble))


def classify(ensemble: OrthogonalSet):
    """Assign the nonlocality-hierarchy label to an orthogonal ensemble.

    Returns (NonlocalityClass, IdentifiabilityReport).  Raises
    InternalContradiction if a cardinality-3 ensemble comes back with all
    three members unidentifiable, which theory rules out.  A triple's
    ueb_span is whether its complement is product, i.e. whether some UEB
    spans the same subspace.
    """
    d = _triple_complement(ensemble)
    report = _report(ensemble, d)
    ec = ensemble.entangled_count()
    if len(ensemble) == 4:
        return NonlocalityClass(HierarchyLabel.COMPLETE_BASIS, entangled_count=ec), report

    bad = sum(1 for v in report.per_state if not v.identifiable)
    if bad == 3:
        raise InternalContradiction(
            "three unidentifiable states in a cardinality-3 set: "
            "numerical tolerance failure"
        )
    if report.perfectly_distinguishable:
        label = HierarchyLabel.PERFECT_LOCC
    elif bad == 0:
        label = HierarchyLabel.CONCLUSIVE_ONLY
    elif bad == 1:
        label = HierarchyLabel.ONE_UNIDENTIFIABLE
    else:
        label = HierarchyLabel.TWO_UNIDENTIFIABLE
    ueb_span = None if d is None else is_product(d, ensemble.tolerances.eps_zero)[0]
    return NonlocalityClass(label, entangled_count=ec, ueb_span=ueb_span), report
