"""The layers the traced run measures, and which end-to-end metric each moves.

A layer is a public function, or the validating constructor, of one package
module: states, ensembles, products, discrimination, ueb, bruteforce, io and
cli.  `errors` does no work and `verify` only composes the others, so neither
is traced.  The oracle's stages are private functions; a later change may
delete them, and their metrics are then reported as absent.
"""

from __future__ import annotations

from .tracing import self_times

RANDOM = "random-ensembles"
FAMILY = "family-sweep"
ORACLE = "oracle-crosscheck"


def _enumeration_note(enum):
    return len(enum.states), 2 in enum.multiplicities


def _identified_note(result):
    return bool(result[0])


# (span name, module, attribute path, note kept with each span)
TARGETS = (
    ("states.make_state", "qlocc.states", "make_state", None),
    ("states.concurrence", "qlocc.states", "concurrence", None),
    ("states.is_product", "qlocc.states", "is_product", None),
    ("ensembles.OrthogonalSet", "qlocc.ensembles", "OrthogonalSet.__post_init__", None),
    ("ensembles.entangled_count", "qlocc.ensembles", "OrthogonalSet.entangled_count", None),
    ("products.Subspace", "qlocc.products", "Subspace.__post_init__", None),
    ("products.orthocomplement", "qlocc.products", "orthocomplement", None),
    ("products.product_states_in_2d", "qlocc.products", "product_states_in_2d",
     _enumeration_note),
    ("discrimination.classify", "qlocc.discrimination", "classify", None),
    ("discrimination.conclusively_identifiable", "qlocc.discrimination",
     "conclusively_identifiable", _identified_note),
    ("ueb.ueb_spanning_check", "qlocc.ueb", "ueb_spanning_check", None),
    ("ueb.ueb_check", "qlocc.ueb", "ueb_check", None),
    ("ueb.generate_eq1", "qlocc.ueb", "generate_eq1", None),
    ("io.sweep_csv", "qlocc.io", "sweep_csv", None),
    ("cli.sweep", "qlocc.cli", "cmd_sweep.callback", None),
    ("bruteforce.calibrate", "qlocc.bruteforce", "_calibrate", None),
    ("bruteforce.coarse", "qlocc.bruteforce", "_coarse_candidates", None),
    ("bruteforce.refine", "qlocc.bruteforce", "_refine", None),
    ("bruteforce.polish", "qlocc.bruteforce", "_polish", None),
)

ANALYTIC = tuple(t[0] for t in TARGETS[:10])
WITNESS_UEB = tuple(t[0] for t in TARGETS[10:15])
STAGES = ("bruteforce.coarse", "bruteforce.refine", "bruteforce.polish")

# Per-layer metric -> (end-to-end metrics it should move, workloads where it
# should move them, workloads where the prediction is no change).
_ANALYTIC_EFFECT = (("throughput_per_s", "latency_p50_ms"), (RANDOM, FAMILY), (ORACLE,))
_WITNESS_EFFECT = (("throughput_per_s",), (FAMILY,), (RANDOM, ORACLE))
_ORACLE_EFFECT = (("throughput_per_s", "latency_tail_ms"), (ORACLE,), (RANDOM, FAMILY))
EFFECTS = {
    **{f"{name}.{kind}": _ANALYTIC_EFFECT for name in ANALYTIC for kind in ("calls", "self_s")},
    **{f"{name}.{kind}": _WITNESS_EFFECT for name in WITNESS_UEB for kind in ("calls", "self_s")},
    "products.complements_per_ensemble": _ANALYTIC_EFFECT,
    "ueb.witness_ueb_per_ensemble": _WITNESS_EFFECT,
    "products.double_root_share": ((), (), (RANDOM, FAMILY, ORACLE)),
    "discrimination.witness_yield": _ANALYTIC_EFFECT,
    "bruteforce.calibrate_s": (("setup_s",), (ORACLE,), (RANDOM, FAMILY)),
    **{f"{name}.self_s": _ORACLE_EFFECT for name in STAGES},
    "bruteforce.polish_per_verdict": _ORACLE_EFFECT,
    "bruteforce.grid_points_per_verdict": (("peak_rss_mb",), (ORACLE,), (RANDOM, FAMILY)),
    "bruteforce.score_bytes_per_verdict": (("peak_rss_mb",), (ORACLE,), (RANDOM, FAMILY)),
    "trace.untraced_per_s": ((), (), ()),
    "trace.traced_per_s": ((), (), ()),
    "trace.overhead_per_s": ((), (), ()),
}

# (name, unit, better), in the order BENCHMARK.json lists them.
PER_LAYER = (
    *(
        metric
        for name in ANALYTIC + WITNESS_UEB
        for metric in ((f"{name}.calls", "calls/op", "lower"), (f"{name}.self_s", "s/op", "lower"))
    ),
    ("products.complements_per_ensemble", "count", "lower"),
    ("ueb.witness_ueb_per_ensemble", "count", "lower"),
    ("products.double_root_share", "ratio", "lower"),
    ("discrimination.witness_yield", "ratio", "higher"),
    ("bruteforce.calibrate_s", "s", "lower"),
    *((f"{name}.self_s", "s/op", "lower") for name in STAGES),
    ("bruteforce.polish_per_verdict", "count", "lower"),
    ("bruteforce.grid_points_per_verdict", "count", "lower"),
    ("bruteforce.score_bytes_per_verdict", "B", "lower"),
    ("trace.untraced_per_s", "1/s", "higher"),
    ("trace.traced_per_s", "1/s", "higher"),
    ("trace.overhead_per_s", "1/s", "lower"),
)


# Spans each derived metric reads, beyond the `<span>.calls`/`<span>.self_s` rule.
DERIVED_FROM = {
    "products.complements_per_ensemble": ("products.orthocomplement",),
    "ueb.witness_ueb_per_ensemble": ("ueb.generate_eq1", "ueb.ueb_spanning_check"),
    "products.double_root_share": ("products.product_states_in_2d",),
    "discrimination.witness_yield": (
        "products.product_states_in_2d",
        "discrimination.conclusively_identifiable",
    ),
    "bruteforce.calibrate_s": ("bruteforce.calibrate",),
    "bruteforce.polish_per_verdict": ("bruteforce.polish",),
}


def _sources(metric):
    if metric in DERIVED_FROM:
        return DERIVED_FROM[metric]
    span, _, kind = metric.rpartition(".")
    return (span,) if kind in ("calls", "self_s") else ()


def _ratio(num, den):
    return num / den if den else 0.0


def _nearest(parent, names, idx, nid):
    """Index of the nearest ancestor of span idx named nid, or -1."""
    p = parent[idx]
    while p >= 0 and names[p] != nid:
        p = parent[p]
    return p


def layer_metrics(tracer, absent, *, ops, ensembles, verdicts, calibrate_s,
                  grid_points, untraced_rate, traced_rate):
    """Every PER_LAYER metric as name -> value, plus the names that are absent.

    ops, ensembles and verdicts count the traced ops, the cardinality-3
    ensembles they analysed and the oracle verdicts they returned.
    grid_points is the oracle's dense grid size per verdict (0 when the
    workload runs no oracle); it is computed from the resolution, not
    measured.
    """
    names, parent, start, end = tracer.arrays()
    own = self_times(parent, start, end)
    ids = {name: tracer.name_id(name) for name, *_ in TARGETS}
    masks = {name: names == nid for name, nid in ids.items()}
    calls = {name: int(mask.sum()) for name, mask in masks.items()}

    values = {}
    for name in ANALYTIC + WITNESS_UEB + STAGES:
        values[f"{name}.self_s"] = _ratio(float(own[masks[name]].sum()), ops)
    for name in ANALYTIC + WITNESS_UEB:
        values[f"{name}.calls"] = _ratio(calls[name], ops)

    values["products.complements_per_ensemble"] = _ratio(
        calls["products.orthocomplement"], ensembles
    )
    spanning = ids["ueb.ueb_spanning_check"]
    witness_ueb = sum(
        1
        for idx in masks["ueb.generate_eq1"].nonzero()[0]
        if _nearest(parent, names, idx, spanning) >= 0
    )
    values["ueb.witness_ueb_per_ensemble"] = _ratio(witness_ueb, ensembles)

    enum_id = ids["products.product_states_in_2d"]
    ident_id = ids["discrimination.conclusively_identifiable"]
    enumerations = doubles = candidates = 0
    enumerating = set()
    for idx, note in tracer.notes.items():
        if names[idx] != enum_id:
            continue
        count, double = note
        enumerations += 1
        doubles += double
        ancestor = _nearest(parent, names, idx, ident_id)
        if ancestor >= 0:
            candidates += count
            enumerating.add(ancestor)
    values["products.double_root_share"] = _ratio(doubles, enumerations)
    identified = sum(1 for idx in enumerating if tracer.notes.get(idx))
    values["discrimination.witness_yield"] = _ratio(identified, candidates)

    values["bruteforce.calibrate_s"] = calibrate_s
    values["bruteforce.polish_per_verdict"] = _ratio(calls["bruteforce.polish"], verdicts)
    values["bruteforce.grid_points_per_verdict"] = grid_points
    values["bruteforce.score_bytes_per_verdict"] = 4 * grid_points  # float32 scores
    values["trace.untraced_per_s"] = untraced_rate
    values["trace.traced_per_s"] = traced_rate
    values["trace.overhead_per_s"] = untraced_rate - traced_rate

    missing = {metric for metric, *_ in PER_LAYER if set(_sources(metric)) & set(absent)}
    return values, missing
