"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest benchmarks/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from harness import layers, stats, tracing  # noqa: E402
from harness.workloads import (  # noqa: E402
    HEADER,
    WORKLOADS,
    Input,
    Outcomes,
    Workload,
    sweep_csv_problems,
)


@pytest.mark.parametrize(
    "n, percentile, value, beyond",
    [
        (1000, 99.0, 990, 10),  # p99 leaves exactly 10 beyond
        (999, 90.0, 900, 99),  # p99 would leave 9
        (100_000, 99.99, 99_990, 10),
        (20, 50.0, 10, 10),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, percentile, value, beyond):
    samples = list(range(n, 0, -1))  # order must not matter
    assert stats.tail_percentile(samples) == (value, percentile, beyond)


@pytest.mark.parametrize("n", [60, 65])  # a short final window is dropped
def test_windowed_tail_is_the_median_of_window_tails(n):
    assert stats.windowed_tail(range(n), window=20) == (29, 50.0, 10, 3)


def test_tail_percentile_rejects_too_few_samples():
    with pytest.raises(ValueError):
        stats.tail_percentile(range(19))


def test_self_times_subtract_direct_children_only():
    # root [0, 10] -> a [1, 4] -> a1 [2, 3];  root -> b [5, 9]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    assert tracing.self_times(parent, start, end).tolist() == [3.0, 2.0, 1.0, 4.0]


def _csv(rows):
    return "\n".join([HEADER, *rows]) + "\n"


def test_sweep_checker_accepts_good_rows_and_rejects_a_corrupted_one():
    eq1 = "0.1,0.2,OneUnidentifiable,0,0.7,true"
    eq2 = "0.1,,TwoUnidentifiable,1;2,0.6,false"
    assert sweep_csv_problems(_csv([eq1, eq1]), "eq1", 2) == []
    assert sweep_csv_problems(_csv([eq2]), "eq2", 1) == []
    corrupted = "0.1,0.2,ConclusiveOnly,,0.7,true"
    assert sweep_csv_problems(_csv([eq1, corrupted]), "eq1", 2)
    assert sweep_csv_problems(_csv([eq1]), "eq1", 2)  # a row missing
    assert sweep_csv_problems(_csv([eq1.replace("true", "false")]), "eq1", 1)


def test_install_wraps_every_binding_and_restores_them():
    import qlocc.cli  # noqa: F401
    from qlocc import discrimination, products, ueb

    original = products.orthocomplement
    tracer = tracing.Tracer()
    targets = [
        ("products.orthocomplement", "qlocc.products", "orthocomplement", None),
        ("gone", "qlocc.bruteforce", "_no_such_stage", None),
    ]
    restore, absent = tracing.install(tracer, targets)
    try:
        assert absent == ["gone"]
        for module in (products, discrimination, ueb):
            assert module.orthocomplement is not original
        ens = qlocc.random_orthogonal_set(1, size=3)
        discrimination.classify(ens)
        names, parent, _, _ = tracer.arrays()
        assert (names == tracer.name_id("products.orthocomplement")).sum() == 4
    finally:
        restore()
    assert discrimination.orthocomplement is original
    assert ueb.orthocomplement is original


def test_benchmark_json_matches_the_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        layers.PER_LAYER
    )
    assert set(layers.EFFECTS) == {name for name, *_ in layers.PER_LAYER}


def test_layer_metrics_mark_missing_stages_absent():
    tracer = tracing.Tracer()
    _, missing = layers.layer_metrics(
        tracer, ["bruteforce.coarse", "bruteforce.polish"], ops=1, ensembles=0, verdicts=1,
        calibrate_s=0.0, grid_points=0, untraced_rate=1.0, traced_rate=1.0,
    )
    assert missing == {
        "bruteforce.coarse.self_s",
        "bruteforce.polish.self_s",
        "bruteforce.polish_per_verdict",
    }


class _Parity(Workload):
    """Records must be even."""

    def make_pool(self, rng):
        return [Input("n", None), Input("n", None)]

    def problems(self, inp, rec):
        return [] if rec % 2 == 0 else [f"{rec} is odd"]


def test_failures_count_every_failed_op_once():
    outcomes = Outcomes()
    for k, rec in [(0, 2), (0, 2), (0, 4), (1, 3), (1, 3), (1, ValueError("boom"))]:
        outcomes.add(k, rec)
    failed, messages = _Parity(0, Path(".")).failures(outcomes)
    # pool[1] fails twice by its record and once by raising; pool[0]'s 4
    # differs from its first record
    assert (outcomes.attempted, failed, len(messages)) == (6, 4, 3)
