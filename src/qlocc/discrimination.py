"""Conclusive-identifiability tests and the nonlocality-hierarchy classifier.

A member of an orthogonal ensemble is conclusively identifiable under LOCC
exactly when some product state overlaps it and no other member (a product
witness; Chefles, PRA 69, 050307(R) (2004)).  Two members are always
perfectly distinguishable; a member of a basis has a witness iff it is product.

In a triple with unit complement d the states orthogonal to the other
members form span{psi_i, d}, and det(x psi_i + d) = det(psi_i) x^2 + c_i x +
det(d) with c_i = -<d~|psi_i>, d~ = (sy x sy) d* the spin flip (Wootters, PRL
80, 2245 (1998)).  Root x gives the witness x psi_i + d of target overlap
|x| / sqrt(1 + |x|^2), and member i is identifiable when the best overlap
exceeds tau_overlap: 1 if C(psi_i) < eps_zero (psi_i is its own witness);
else, if C(d) < eps_zero, |c_i| / hypot(|c_i|, |det psi_i|) from the root
(-c_i, det psi_i) besides d; else that of the root of larger modulus.  So a
member is hidden when it is entangled, d is product and d~ is (nearly)
orthogonal to it.  _decide evaluates this on whole stacks (N, n, 4).

No triple has three hidden members if tau^2 (1 + eps_zero) < eps_zero and,
unless eps_zero > 1, 3 tau^2 <= 4 (1 - tau^2)(1 - eps_zero^2), as Tolerances
enforces.  Proof in exact arithmetic: G = U^T (sy x sy) U, U the unitary of
columns psi_0, psi_1, psi_2, d, is unitary and symmetric with |G_kk| the
concurrences and |G_id| = |c_i|.  If C(d) >= eps_zero the roots multiply to
det(d) / det(psi_i), so one has |x|^2 >= C(d) / C(psi_i) >= eps_zero and
overlap >= sqrt(eps_zero / (1 + eps_zero)) > tau: none is hidden.  If
C(d) < eps_zero, row d gives sum_i |c_i|^2 = 1 - C(d)^2 > 1 - eps_zero^2,
while a hidden member (C(psi_i) >= eps_zero, overlap <= tau) has |c_i|^2 <=
1 - eps_zero^2 by row i and, as |det psi_i| <= 1/2, |c_i|^2 <= tau^2 / (4 (1 -
tau^2)); three contradict the condition below eps_zero = 1; above 1 none is
entangled.
At exactly 1, a complement concurrence rounding below 1 defeats the argument
(so 1 is left out).  The defaults meet both bounds by five orders of magnitude.

Each rule is written once.  _decide holds the witness rule and the UEB rule (all
three members entangled, d product); every entry point and the sweep read its
_Verdicts.  It reads G's diagonal from one states._dets call on U's columns (the
members, and d for a triple): det = -G_kk / 2 and C = min(1, |G_kk|) by
states._det_concurrences, which concurrence and OrthogonalSet.entangled_count run too,
and counts a member entangled when C >= eps_zero; column d is c_i = -G_id, read from a
C-contiguous copy (matmul's bits follow the layout), and overlaps take hypot moduli.
_PERFECT_MAX holds the perfect-LOCC rule (triple label, report, perfectly_distinguishable).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple

import numpy as np

from .ensembles import OrthogonalSet, Tolerances
from .errors import IndexOutOfRange
from .products import _complements
from .states import PureState, _det_concurrences, _dets, make_state

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
class UebVerdict:
    is_ueb: bool
    complement_state: PureState
    complement_concurrence: float
    reason: str | None = None


@dataclass(frozen=True)
class NonlocalityClass:
    label: HierarchyLabel
    entangled_count: int
    ueb_span: bool | None = None  # cardinality-3 only
    ueb: UebVerdict | None = None  # cardinality-3 only

    def describe(self) -> str:
        if self.label is HierarchyLabel.COMPLETE_BASIS:
            return f"CompleteBasis({self.entangled_count})"
        return self.label.name.title().replace("_", "")


class _Verdicts(NamedTuple):
    """_decide's output for N ensembles of n members; fields after hidden: triples only."""

    conc: np.ndarray  # (N, n) member concurrences
    entangled: np.ndarray  # (N,) members with concurrence >= eps_zero
    hidden: np.ndarray  # (N, n) members without a product witness
    labels: np.ndarray | None = None  # (N,) HierarchyLabel values
    comp: np.ndarray | None = None  # (N, 4) unit complement d
    comp_conc: np.ndarray | None = None  # (N,) C(d)
    ueb_span: np.ndarray | None = None  # (N,) d is product
    ueb: np.ndarray | None = None  # (N,) ueb_span with every member entangled
    roots: tuple | None = None  # (a, b), each (N, 3): the deciding root a psi_i + b d


# The most entangled members a perfectly LOCC-distinguishable set of n members has: two
# orthogonal states always are, a triple when at most one is entangled, a basis when none is.
_PERFECT_MAX = {2: 2, 3: 1, 4: 0}

# c_i = psi_i . (d3, -d2, -d1, d0) = psi0 d3 + psi3 d0 - psi1 d2 - psi2 d1
_FLIP = np.array([1.0, -1.0, -1.0, 1.0])


def _decide(amps: np.ndarray, tol: Tolerances) -> _Verdicts:
    """The module docstring's rule on a stack (N, n, 4) of orthonormal members."""
    amps = np.ascontiguousarray(amps)  # no copy for classify's stack of one
    n = amps.shape[1]
    if n == 3:  # a triple's U has a fourth column, its unit complement d
        d = _complements(amps)
        d /= np.sqrt(np.square(np.abs(d)).sum(axis=-1, keepdims=True))
    dets = _dets(np.concatenate([amps, d[:, None]], axis=1) if n == 3 else amps)  # -G_kk / 2
    concs = _det_concurrences(dets)  # |G_kk|, at most 1
    conc = concs[:, :n]
    ent = conc >= tol.eps_zero
    entangled = np.add.reduce(ent, axis=1)
    if n != 3:  # a basis member is hidden iff entangled; a pair hides nothing
        return _Verdicts(conc, entangled, ent if n == 4 else ent & False)

    det, det_d, comp_conc = dets[:, :3], dets[:, 3], concs[:, 3]
    span = comp_conc < tol.eps_zero
    c1 = np.matmul(amps, (d[:, ::-1] * _FLIP)[..., None])[..., 0]  # -G_id
    sq = np.sqrt(c1 * c1 - 4.0 * det * det_d[:, None])
    # q / det is the root of larger modulus (the roots multiply to det_d / det), so the
    # better one; choosing q's sign as quadratic_roots does avoids cancellation
    q = -(c1 + np.where(abs(c1 + sq) > abs(c1 - sq), sq, -sq)) / 2.0
    a = np.where(ent, np.where(span[:, None], -c1, q), 1.0)
    b = np.where(ent, det, 0.0)
    mod_a, mod_b = np.hypot(a.real, a.imag), np.hypot(b.real, b.imag)
    hidden = ~(mod_a / np.hypot(mod_a, mod_b) > tol.tau_overlap)  # the overlap
    labels = np.where(entangled <= _PERFECT_MAX[3], 0, 1 + hidden.sum(1))  # 0: PERFECT_LOCC
    ueb = span & (entangled == 3)
    return _Verdicts(conc, entangled, hidden, labels, d, comp_conc, span, ueb, (a, b))


def _witness(ensemble: OrthogonalSet, v: _Verdicts, i: int) -> PureState | None:
    """The product state whose overlap decided identifiable member i; None for n = 2."""
    if len(ensemble) == 2:
        return None
    if v.conc[0, i] < ensemble.tolerances.eps_zero:
        return ensemble[i]
    a, b = (complex(x[0, i]) for x in v.roots)
    # scaled by a power of two so that max(|a|, |b|) lies in [1/2, 1): exact, and a root of
    # tiny norm (a nearly product member nearly orthogonal to d~) clears make_state's cutoff
    e = -math.frexp(max(abs(a), abs(b)))[1]
    a, b = (complex(math.ldexp(z.real, e), math.ldexp(z.imag, e)) for z in (a, b))
    return make_state(a * ensemble[i].amps + b * v.comp[0])


def _report(ensemble: OrthogonalSet, v: _Verdicts) -> IdentifiabilityReport:
    band = WARN_BAND_FACTOR * ensemble.tolerances.tau_overlap
    hidden = v.hidden[0].tolist()
    verdicts = []
    for i, target in enumerate(ensemble.states):
        witness = None if hidden[i] else _witness(ensemble, v, i)
        ov = abs(witness.overlap(target)) if witness is not None else 0.0
        near = witness is not None and ov <= band
        verdicts.append(StateVerdict(i, not hidden[i], witness, ov, near))
    perfect = int(v.entangled[0]) <= _PERFECT_MAX[len(ensemble)]
    return IdentifiabilityReport(tuple(verdicts), not any(hidden), perfect)


def _ueb_verdict(v: _Verdicts) -> UebVerdict:
    """The UEB verdict (_Verdicts.ueb) on the triple of a stack of one, and why it fails."""
    d, comp_c = make_state(v.comp[0]), float(v.comp_conc[0])
    if v.ueb[0]:
        return UebVerdict(True, d, comp_c)
    reason = "NotAllEntangled" if v.entangled[0] < 3 else "EntangledComplement"
    return UebVerdict(False, d, comp_c, reason=reason)


def conclusively_identifiable(ensemble: OrthogonalSet, i: int):
    """Whether member i admits a product witness, and the witness that decided it.

    Returns (identifiable, witness or None).  Cardinality 2 is decided by
    rule (two orthogonal states are always perfectly distinguishable by
    LOCC); cardinality 4 reduces to member i itself being product.
    """
    n = len(ensemble)
    if not 0 <= i < n:
        raise IndexOutOfRange(f"index {i} outside ensemble of size {n}")
    v = _decide(ensemble._rows[None], ensemble.tolerances)
    ok = not v.hidden[0, i]
    return ok, _witness(ensemble, v, i) if ok else None


def perfectly_distinguishable(ensemble: OrthogonalSet) -> bool:
    """Rule-based perfect LOCC distinguishability: at most _PERFECT_MAX[n] entangled members."""
    return ensemble.entangled_count() <= _PERFECT_MAX[len(ensemble)]


def classify(ensemble: OrthogonalSet):
    """Assign the nonlocality-hierarchy label to an orthogonal ensemble.

    Returns (NonlocalityClass, IdentifiabilityReport).  A triple also gets
    its UebVerdict (`ueb`) and `ueb_span`: whether its complement is
    product, i.e. whether some UEB spans the same subspace.
    """
    v, n = _decide(ensemble._rows[None], ensemble.tolerances), len(ensemble)
    ec = int(v.entangled[0])
    if n != 3:
        label = HierarchyLabel.COMPLETE_BASIS if n == 4 else HierarchyLabel.PERFECT_LOCC
        return NonlocalityClass(label, ec), _report(ensemble, v)
    label = HierarchyLabel(int(v.labels[0]))
    cls = NonlocalityClass(label, ec, bool(v.ueb_span[0]), _ueb_verdict(v))
    return cls, _report(ensemble, v)
