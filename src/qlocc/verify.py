"""Seeded property suites: the library checking itself at scale.

Each suite runs one of the theory-level laws over many random or gridded
instances and reports counts plus the worst tolerance observed.  The CLI
`verify` subcommand and the acceptance tests both drive these.

Every suite takes (count, seed).  Set k of a Haar suite is row k of one
ensembles._haar_rows call over seeds seed + k: random_orthogonal_set(seed + k)
bit for bit.  The family suites run over a fixed grid, and build only the
families they read, each with one ueb._family_rows call: generate_eq1's and
generate_eq2's sets, without generate_eq1's lam1 = 1/2 warning.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bruteforce import GridSpec, oracle_identifiable
from .discrimination import HierarchyLabel, _decide, classify, conclusively_identifiable
from .ensembles import OrthogonalSet, Tolerances, _haar_rows, _row_set, average_entanglement
from .products import Subspace, orthocomplement, product_states_in_2d
from .states import concurrence, make_state
from .ueb import _family_rows, random_max_entangled_triple

DEFAULT_SEED = 20240901
_FAMILY_GRID = np.linspace(0.05, 0.95, 19)  # lam1 (and lam3) values of the family suites
_EQ1_POINTS = [(l1, l3) for l1 in _FAMILY_GRID.tolist() for l3 in _FAMILY_GRID.tolist()]
_EQ1_LAMS = np.array(_EQ1_POINTS).T  # the lam1 and lam3 arguments of _family_rows
_ORACLE_GRID = GridSpec(resolution=32)


@dataclass
class SuiteResult:
    name: str
    checked: int
    failures: int
    worst: float = 0.0
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def summary(self) -> str:
        status = "pass" if self.ok else "FAIL"
        line = f"[{status}] {self.name}: {self.checked - self.failures}/{self.checked}"
        if self.worst:
            line += f" (worst tolerance {self.worst:.3e})"
        if self.notes:
            line += " | " + "; ".join(self.notes[:3])
        return line


def _sets(rows: np.ndarray) -> list[OrthogonalSet]:
    return list(map(_row_set, rows))


def _witness_tolerances(ensemble, report):
    """Worst Chefles residuals over all witnesses in a report.

    Returns (max orthogonal leak, min target overlap) across identifiable
    members that carry a witness.
    """
    leak, target = 0.0, np.inf
    for v in report.per_state:
        if v.witness is None:
            continue
        for j, s in enumerate(ensemble.states):
            ov = abs(v.witness.overlap(s))
            if j == v.index:
                target = min(target, ov)
            else:
                leak = max(leak, ov)
    return leak, target


def suite_prop1(count: int = 1000, seed: int = DEFAULT_SEED) -> SuiteResult:
    """Random maximally entangled triples are conclusively distinguishable."""
    res = SuiteResult("prop1-max-entangled-triples", count, 0)
    for k in range(count):
        triple = random_max_entangled_triple(seed + k)
        cls, report = classify(triple)
        leak, target = _witness_tolerances(triple, report)
        res.worst = max(res.worst, leak)
        if cls.label is not HierarchyLabel.CONCLUSIVE_ONLY or leak >= 1e-9 or target <= 1e-7:
            res.failures += 1
            res.notes.append(f"seed {seed + k}: {cls.describe()} leak {leak:.2e}")
    return res


def suite_prop2(count: int | None = None, seed: int = DEFAULT_SEED) -> SuiteResult:
    """The all-entangled family: one unidentifiable member, and a UEB.
    The grid is fixed: count and seed do not change it."""
    res = SuiteResult("prop2-entangled-family-grid", len(_EQ1_POINTS), 0)
    for (l1, l3), ens in zip(_EQ1_POINTS, _sets(_family_rows(*_EQ1_LAMS))):
        cls, report = classify(ens)
        bad = tuple(v.index for v in report.per_state if not v.identifiable)
        if cls.label is not HierarchyLabel.ONE_UNIDENTIFIABLE or bad != (0,) or not cls.ueb.is_ueb:
            res.failures += 1
            res.notes.append(f"({l1:.2f},{l3:.2f}): {cls.describe()} bad={bad}")
    return res


def suite_prop3(count: int | None = None, seed: int = DEFAULT_SEED) -> SuiteResult:
    """The one-product family: both entangled members unidentifiable.
    The grid is fixed: count and seed do not change it."""
    res = SuiteResult("prop3-one-product-family", len(_FAMILY_GRID), 0)
    ket00 = make_state([1, 0, 0, 0])
    for l1, ens in zip(_FAMILY_GRID, _sets(_family_rows(_FAMILY_GRID))):
        cls, report = classify(ens)
        bad = tuple(v.index for v in report.per_state if not v.identifiable)
        w0 = report.per_state[0].witness
        witness_ok = w0 is not None and abs(abs(w0.overlap(ket00)) - 1.0) < 1e-9
        if cls.label is not HierarchyLabel.TWO_UNIDENTIFIABLE or bad != (1, 2) or not witness_ok:
            res.failures += 1
            res.notes.append(f"lam1={l1:.2f}: {cls.describe()} bad={bad}")
    return res


def suite_impossibility(count: int = 10000, seed: int = DEFAULT_SEED) -> SuiteResult:
    """No orthogonal triple ever has all three members unidentifiable."""
    res = SuiteResult("impossibility-no-triple-fully-hidden", count, 0)
    amps = _haar_rows(range(seed, seed + count), 3)
    for k in np.flatnonzero(_decide(amps, Tolerances()).hidden.all(axis=1)):
        res.failures += 1
        res.notes.append(f"seed {seed + k}")
    return res


def suite_complete_basis(count: int = 1000, seed: int = DEFAULT_SEED) -> SuiteResult:
    """Complete bases: local distinguishability iff zero entangled members,
    and never exactly one entangled member."""
    res = SuiteResult("complete-basis-law", count, 0)
    for k, ens in enumerate(_sets(_haar_rows(range(seed, seed + count), 4))):
        _, report = classify(ens)
        ec = ens.entangled_count()
        iff_ok = report.conclusively_distinguishable == (ec == 0)
        if not iff_ok or ec == 1:
            res.failures += 1
            res.notes.append(f"seed {seed + k}: entangled={ec}")
    return res


def suite_sanpera(count: int = 10000, seed: int = DEFAULT_SEED) -> SuiteResult:
    """Every 2-D subspace holds at least one product state, soundly."""
    res = SuiteResult("sanpera-2d-product-existence", count, 0)
    for k, pair in enumerate(_sets(_haar_rows(range(seed, seed + count), 2))):
        sub = Subspace(pair.states)
        enum = product_states_in_2d(sub)
        if not enum.states:
            res.failures += 1
            res.notes.append(f"seed {seed + k}: empty enumeration")
            continue
        for s in enum.states:
            c = concurrence(s)
            gap = 1.0 - sub.projection_norm(s)
            res.worst = max(res.worst, c, gap)
            if c >= 1e-9 or gap >= 1e-9:
                res.failures += 1
                res.notes.append(f"seed {seed + k}: c={c:.2e} gap={gap:.2e}")
    return res


def suite_bravyi(count: int = 1000, seed: int = DEFAULT_SEED) -> SuiteResult:
    """The complement of a maximally entangled triple is maximally entangled."""
    res = SuiteResult("bravyi-complement-max-entangled", count, 0)
    for k in range(count):
        triple = random_max_entangled_triple(seed + k)
        comp = orthocomplement(triple).basis[0]
        dev = abs(concurrence(comp) - 1.0)
        res.worst = max(res.worst, dev)
        if dev >= 1e-9:
            res.failures += 1
            res.notes.append(f"seed {seed + k}: dev {dev:.2e}")
    return res


def suite_footnote2(count: int = 1000, seed: int = DEFAULT_SEED) -> SuiteResult:
    """No complete basis with exactly one entangled member ever appears."""
    res = SuiteResult("footnote2-no-single-entangled", count, 0)
    for k, ens in enumerate(_sets(_haar_rows(range(seed, seed + count), 4))):
        if ens.entangled_count() == 1:
            res.failures += 1
            res.notes.append(f"seed {seed + k}")
    return res


def suite_oracle_agreement(count: int = 500, seed: int = DEFAULT_SEED) -> SuiteResult:
    """Analytic and grid-search identifiability verdicts must coincide."""
    eq1, eq2 = _sets(_family_rows(*_EQ1_LAMS)), _sets(_family_rows(_FAMILY_GRID))
    haar = _sets(_haar_rows(range(seed, seed + count), 3))
    cases = [(f"random-{k}", ens) for k, ens in enumerate(haar)]
    cases += [(f"eq1-{l1:.2f}-{l3:.2f}", ens) for (l1, l3), ens in zip(_EQ1_POINTS, eq1)]
    cases += [(f"eq2-{l1:.2f}", ens) for l1, ens in zip(_FAMILY_GRID, eq2)]
    res = SuiteResult("oracle-agreement", 3 * len(cases), 0)
    for name, ens in cases:
        for i in range(3):
            analytic, _ = conclusively_identifiable(ens, i)
            numeric = oracle_identifiable(ens, i, _ORACLE_GRID).identifiable
            if analytic != numeric:
                res.failures += 1
                res.notes.append(f"{name} i={i}: analytic={analytic} oracle={numeric}")
    return res


def suite_hierarchy(count: int | None = None, seed: int = DEFAULT_SEED) -> SuiteResult:
    """More nonlocality with less entanglement along the hierarchy.

    Maximally entangled triples (average entanglement 1, all identifiable)
    sit below the all-entangled family (average < 1, one unidentifiable),
    which sits below the one-product family (fewer entangled members, two
    unidentifiable).  Average concurrence is identical between the two
    parametric families, so the entangled-member count carries the "less
    entanglement" step there.  The family grid is fixed: count does not change it.
    """
    res = SuiteResult("hierarchy-more-nonlocality-less-entanglement", len(_EQ1_POINTS), 0)
    met = random_max_entangled_triple(seed)
    cls_met, _ = classify(met)
    avg_met = average_entanglement(met)
    eq1, eq2 = _sets(_family_rows(*_EQ1_LAMS)), _sets(_family_rows(_FAMILY_GRID))
    siblings = [(classify(ens)[0].label, ens.entangled_count()) for ens in eq2]
    for k, ((l1, l3), ens1) in enumerate(zip(_EQ1_POINTS, eq1)):
        label2, entangled2 = siblings[k // len(_FAMILY_GRID)]
        cls1, _ = classify(ens1)
        ok = (
            average_entanglement(ens1) < avg_met
            and cls_met.label < cls1.label < label2
            and entangled2 < ens1.entangled_count()
        )
        if not ok:
            res.failures += 1
            res.notes.append(f"lam1={l1:.2f} lam3={l3:.2f}")
    return res


def suite_span_identity(count: int | None = None, seed: int = DEFAULT_SEED) -> SuiteResult:
    """Both families span the same 3-D subspace for every parameter choice.
    The grid is fixed: count and seed do not change it."""
    res = SuiteResult("span-identity", len(_EQ1_POINTS), 0)
    eq1, eq2 = _sets(_family_rows(*_EQ1_LAMS)), _sets(_family_rows(_FAMILY_GRID))
    siblings = [ens.span_projector() for ens in eq2]
    for k, ((l1, l3), ens1) in enumerate(zip(_EQ1_POINTS, eq1)):
        dev = float(np.max(np.abs(ens1.span_projector() - siblings[k // len(_FAMILY_GRID)])))
        res.worst = max(res.worst, dev)
        if dev >= 1e-9:
            res.failures += 1
            res.notes.append(f"lam1={l1:.2f} lam3={l3:.2f}: dev {dev:.2e}")
    return res


SUITES = {
    "prop1": suite_prop1,
    "prop2": suite_prop2,
    "prop3": suite_prop3,
    "impossibility": suite_impossibility,
    "complete-basis": suite_complete_basis,
    "sanpera": suite_sanpera,
    "bravyi": suite_bravyi,
    "footnote2": suite_footnote2,
    "oracle": suite_oracle_agreement,
    "hierarchy": suite_hierarchy,
    "span": suite_span_identity,
}
