#!/usr/bin/env python3
"""qlocc benchmark: three workloads, end-to-end metrics, and a traced run.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout; it imports the package from
the checkout's `src/` and nothing else.  One process, one closed-loop client:
each op is issued when the previous one returns.  An op is one timed
top-level call.  Inputs come from --seed during set-up, outputs are checked
after the timed loop, and neither check time nor set-up time counts toward
an op.

--trace 0 prints the end-to-end metrics:
  throughput_per_s  verdicts per second of op time: ensembles or subspaces
                    (random-ensembles), grid points (family-sweep), member
                    verdicts (oracle-crosscheck)
  latency_p50_ms    median op latency
  latency_tail_ms   op latency at the highest percentile of a fixed ladder
                    with at least 10 samples beyond it, taken in windows of
                    2000 consecutive ops and the median over windows
  setup_s           import + input generation + warm-up (for the oracle this
                    includes its grid calibration); the median of this
                    process and SETUP_PROBES fresh interpreters
  peak_rss_mb       peak resident memory of this process
  ok_ratio          ops that neither raised nor failed a check, over ops
                    attempted (1 - failed_ratio; kept nonzero so a relative
                    bound applies)

--trace 1 runs half the time untraced and half with spans around every
layer, and prints the per-layer metrics of harness/layers.py.  Spans are
written to .bench_out/ at the end, with a JSON record of every result.

Development used seeds below 500.  Seed 8675309 was never run while the
benchmark was written: use it to check a claimed gain on fresh inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
from array import array
from pathlib import Path
from time import perf_counter

# The ops multiply 2x2 and 4x4 matrices, where extra BLAS/OpenMP threads only
# add scheduling noise on a small shared machine.  Must precede numpy.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(1, str(Path(__file__).resolve().parent))

from harness.stats import median, windowed_tail  # noqa: E402  (stdlib only)

WORKLOADS = ("random-ensembles", "family-sweep", "oracle-crosscheck")
HELD_OUT_SEED = 8675309
SETUP_PROBES = 4


def _setup(workload: str, seed: int, workdir: Path, warm: bool = True):
    """Import, build the input pool, warm up; returns (workload, seconds)."""
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import qlocc.cli  # noqa: F401  (pulls in every package module)

    if not Path(qlocc.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"qlocc imported from {qlocc.cli.__file__}, not {SRC}")
    from harness import workloads

    wl = workloads.WORKLOADS[workload](seed, workdir)
    if warm:
        wl.warm_up()
    return wl, perf_counter() - t0


def _loop(wl, seconds: float, tracer=None):
    """Closed loop over the pool until `seconds` have passed and a cycle ends.

    Returns (op latencies in seconds, Outcomes).
    """
    from harness.workloads import Outcomes

    pool, cycle = wl.pool, wl.cycle
    latencies, outcomes = array("d"), Outcomes()
    op_id = tracer.name_id("op") if tracer else None
    deadline = perf_counter() + seconds
    k = 0
    while True:
        inp = pool[k % len(pool)]
        t0 = perf_counter()
        span = tracer.open(op_id) if tracer else None
        try:
            result = wl.op(inp)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            result = exc
        if tracer:
            tracer.close(span)
        t1 = perf_counter()
        latencies.append(t1 - t0)
        if not isinstance(result, Exception):
            try:
                result = wl.record(inp, result)
            except Exception as exc:
                result = exc
        outcomes.add(k % len(pool), result)
        k += 1
        if k % cycle == 0 and t1 >= deadline:
            return latencies, outcomes


def _setup_probes(args) -> list[float]:
    """Set-up seconds of fresh interpreters, each doing this run's set-up."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
             "--setup-probe"],
            capture_output=True, text=True, timeout=150, check=True,
        )
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def _environment(args) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "held_out_seed": HELD_OUT_SEED,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _end_to_end(args, wl, own_setup, peak_rss_mb, latencies, outcomes, failed):
    tail, pct, beyond, windows = windowed_tail(latencies)
    setups = [own_setup, *_setup_probes(args)]
    metrics = {
        "throughput_per_s": (outcomes.total(wl.pool) / sum(latencies), "1/s"),
        "latency_p50_ms": (1e3 * median(latencies), "ms"),
        "latency_tail_ms": (1e3 * tail, "ms"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_ratio": (1.0 - failed / outcomes.attempted, "ratio"),
    }
    extra = {
        "latency_tail_percentile": pct,
        "latency_tail_windows": windows,
        "latency_samples": len(latencies),
        "latency_samples_beyond_tail": beyond,
        "setup_samples_s": setups,
        "failed_ratio": failed / outcomes.attempted,
    }
    return metrics, extra


def _per_layer(args, wl):
    """Per-layer metrics; returns (metrics, extra, outcomes of both halves, absent)."""
    from harness.layers import EFFECTS, PER_LAYER, TARGETS, layer_metrics
    from harness.tracing import Tracer, install

    warm = Tracer()
    restore, absent = install(warm, TARGETS)
    try:
        wl.warm_up()
    finally:
        restore()
    names, _, start, end = warm.arrays()
    calibrate_s = float((end - start)[names == warm.name_id("bruteforce.calibrate")].sum())

    half = args.seconds / 2.0
    plain_lat, plain = _loop(wl, half)
    tracer = Tracer()
    restore, absent = install(tracer, TARGETS)
    try:
        traced_lat, traced = _loop(wl, half, tracer)
    finally:
        restore()
    values, missing = layer_metrics(
        tracer, absent,
        ops=traced.attempted,
        ensembles=traced.total(wl.pool, "ensembles"),
        verdicts=traced.total(wl.pool, "verdicts"),
        calibrate_s=calibrate_s,
        grid_points=wl.grid_points,
        untraced_rate=plain.total(wl.pool) / sum(plain_lat),
        traced_rate=traced.total(wl.pool) / sum(traced_lat),
    )
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    metrics = {name: (values[name], unit) for name, unit, _ in PER_LAYER}
    extra = {"absent": sorted(missing), "spans": len(tracer.start),
             "effects": {name: EFFECTS[name] for name, *_ in PER_LAYER}}
    return metrics, extra, (plain, traced), missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "qlocc" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'qlocc'}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        wl, own_setup = _setup(args.workload, args.seed, Path(workdir), warm=not args.trace)
        if args.setup_probe:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        if args.trace:
            metrics, extra, phases, missing = _per_layer(args, wl)
        else:
            missing = set()
            latencies, outcomes = _loop(wl, args.seconds)
            peak_rss_mb = _peak_rss_mb()  # before the checks and statistics allocate
            phases = (outcomes,)
        failed, messages = 0, []
        for outcomes in phases:
            n, found = wl.failures(outcomes)
            failed += n
            messages += found
        attempted = sum(outcomes.attempted for outcomes in phases)
        if not args.trace:
            metrics, extra = _end_to_end(
                args, wl, own_setup, peak_rss_mb, latencies, outcomes, failed
            )

    env = _environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}" + ("  (absent)" if name in missing else ""))
    if not args.trace:
        print(f"latency_tail_ms is p{extra['latency_tail_percentile']:g}, median over "
              f"{extra['latency_tail_windows']} windows ({extra['latency_samples_beyond_tail']} "
              f"beyond in each) of {extra['latency_samples']} ops; "
              f"failed_ratio = {extra['failed_ratio']:g}")
    for message in messages[:5]:
        print(f"FAILED {message}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit, **({"absent": True} if name in missing else {})}
            for name, (value, unit) in metrics.items()
        },
    }
    from harness.workloads import NOTES

    record = {"env": env, "workload": NOTES[args.workload], "extra": extra,
              "failures": messages[:50], **result}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
