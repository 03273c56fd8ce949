"""Each benchmark workload's traced run ends in strict JSON that flags no layer absent.

A traced name that no longer resolves still lets the run exit 0, but its
per-layer metric reads 0 and carries "absent": true; a NaN or infinite value
is not JSON at all.  Either leaves the run's result unusable.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "benchmarks" / "run.py"


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@pytest.mark.parametrize("workload", ["random-ensembles", "family-sweep", "oracle-crosscheck"])
def test_traced_run_prints_strict_json_with_no_absent_layer(workload):
    pytest.importorskip("scipy", reason="benchmarks/run.py imports scipy to record its version")
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1", "--seconds", "0.3",
         "--trace", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_reject_constant)
    assert result["correct"] is True
    absent = sorted(name for name, metric in result["metrics"].items() if "absent" in metric)
    assert absent == []
