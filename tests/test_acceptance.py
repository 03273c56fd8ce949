"""Acceptance gate: every top-level claim at full scale, one line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Criterion 9 is expected to fail: the stated average-entanglement inequality
between the two parametric families is mathematically reversed (see the
strict xfail below for the argument).
"""

import time

import numpy as np
import pytest

from qlocc.verify import (
    suite_bravyi,
    suite_complete_basis,
    suite_footnote2,
    suite_impossibility,
    suite_oracle_agreement,
    suite_prop1,
    suite_prop2,
    suite_prop3,
    suite_sanpera,
    suite_span_identity,
)


def report(number, description, ok, elapsed):
    status = "pass" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {description} ({elapsed:.1f}s)")


def run_suite(number, description, fn, limit=None, **kwargs):
    t0 = time.perf_counter()
    result = fn(**kwargs)
    elapsed = time.perf_counter() - t0
    ok = result.ok and (limit is None or elapsed < limit)
    report(number, description, ok, elapsed)
    assert result.ok, result.summary()
    if limit is not None:
        assert elapsed < limit, f"runtime {elapsed:.1f}s exceeds {limit}s"
    return result


def test_criterion_1_max_entangled_triples():
    run_suite(
        1,
        "1000 random maximally entangled triples all ConclusiveOnly with valid witnesses",
        suite_prop1,
        limit=10.0,
        count=1000,
    )


def test_criterion_2_entangled_family_grid():
    run_suite(
        2,
        "19x19 grid: all-entangled family OneUnidentifiable (member 1 hidden) and a UEB",
        suite_prop2,
        limit=5.0,
    )


def test_criterion_3_one_product_family():
    run_suite(
        3,
        "19 values: one-product family TwoUnidentifiable with |00> witnessed",
        suite_prop3,
        limit=2.0,
    )


def test_criterion_4_impossibility():
    run_suite(
        4,
        "10000 random triples: never three unidentifiable members",
        suite_impossibility,
        limit=60.0,
        count=10000,
    )


def test_criterion_5_complete_basis_law():
    t0 = time.perf_counter()
    law = suite_complete_basis(count=1000)
    single = suite_footnote2(count=1000)
    elapsed = time.perf_counter() - t0
    ok = law.ok and single.ok and elapsed < 10.0
    report(5, "1000 random bases: distinguishable iff no entangled member; "
              "never exactly one entangled member", ok, elapsed)
    assert law.ok, law.summary()
    assert single.ok, single.summary()
    assert elapsed < 10.0


def test_criterion_6_product_existence():
    run_suite(
        6,
        "10000 random 2-D subspaces each contain a sound product state",
        suite_sanpera,
        count=10000,
    )


def test_criterion_7_complement_max_entangled():
    run_suite(
        7,
        "1000 max-entangled triples: complement concurrence 1 within 1e-9",
        suite_bravyi,
        count=1000,
    )


def test_criterion_8_oracle_equivalence():
    run_suite(
        8,
        "analytic vs grid-search verdicts on 500 random sets plus both family grids",
        suite_oracle_agreement,
        count=500,
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "stated inequality is mathematically reversed: entanglement entropy vs "
        "concurrence E(C) is convex with E(0)=0, hence subadditive, so the "
        "all-entangled family's members {C, l4*C, l3*C} average at most the "
        "one-product family's {0, C, C} for every parameter choice (average "
        "concurrences are exactly equal); verified numerically over the full grid"
    ),
)
def test_criterion_9_hierarchy_inequality():
    """Joined sweeps: one-product family with lower average entanglement but a
    strictly higher nonlocality class, for every matched lam1."""
    from qlocc.cli import main
    from click.testing import CliRunner
    import tempfile, os

    t0 = time.perf_counter()
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        csv1 = os.path.join(tmp, "eq1.csv")
        csv2 = os.path.join(tmp, "eq2.csv")
        assert runner.invoke(main, ["sweep", "eq1", "--grid", "0.05:0.95:19", "--out", csv1]).exit_code == 0
        assert runner.invoke(main, ["sweep", "eq2", "--grid", "0.05:0.95:19", "--out", csv2]).exit_code == 0
        with open(csv2) as fh:
            rows2 = [line.split(",") for line in fh.read().splitlines()[1:]]
        avg2 = {r[0]: float(r[4]) for r in rows2}
        cls2 = {r[0]: r[2] for r in rows2}
        with open(csv1) as fh:
            rows1 = [line.split(",") for line in fh.read().splitlines()[1:]]
    order = {"PerfectLocc": 0, "ConclusiveOnly": 1, "OneUnidentifiable": 2, "TwoUnidentifiable": 3}
    failures = 0
    for r in rows1:
        lam1, avg1, cls1 = r[0], float(r[4]), r[2]
        if not (avg2[lam1] < avg1 and order[cls2[lam1]] > order[cls1]):
            failures += 1
    elapsed = time.perf_counter() - t0
    report(9, "matched-lam1 sweeps: lower average entanglement, higher class",
           failures == 0, elapsed)
    assert failures == 0, f"{failures}/{len(rows1)} grid rows violate the stated inequality"


def test_criterion_10_span_identity():
    run_suite(
        10,
        "family spans coincide (projector deviation < 1e-9) for all grid parameters",
        suite_span_identity,
    )
