"""Command-line front end: classification, sweeps, demos, verification.

Exit codes: 0 success, 1 property violation, 2 input error.
"""

from __future__ import annotations

import contextlib
import json
import sys
import warnings

import click
import numpy as np

from .discrimination import HierarchyLabel, NonlocalityClass, _decide, classify
from .ensembles import _DEFAULT_TOLERANCES, OrthogonalSet, _check_orthogonal, average_entanglement
from .errors import BadBounds, BadParam, QloccError
from .io import _SWEEP_HEADER, _sweep_rows, amplitude_pairs, emit_document, parse_document
from .states import _entropies, entanglement_profile, make_state
from .ueb import (
    GeneratorParams,
    MaximalEntanglementWarning,
    _family_rows,
    generate_eq1,
    generate_eq2,
    random_max_entangled_triple,
)
from .verify import DEFAULT_SEED, SUITES


@click.group()
def main():
    """Two-qubit LOCC discrimination and nonlocality classification."""


def _echo(message: str = "", **kwargs):
    # an explicit stream: click.echo caches its default one so that it is never freed
    click.echo(message, file=sys.stdout, **kwargs)


def _fail_input(message: str):
    click.echo(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _open_out(path: str, **kwargs):
    """Open an output file for writing; a path that cannot be written is an input error."""
    try:
        return open(path, "w", **kwargs)
    except OSError as exc:
        _fail_input(f"cannot write {path}: {exc.strerror or exc}")


def _classification_payload(ensemble, labels):
    cls, report = classify(ensemble)
    payload = {
        "class": cls.describe(),
        "entangled_count": cls.entangled_count,
        "conclusively_distinguishable": report.conclusively_distinguishable,
        "perfectly_distinguishable": report.perfectly_distinguishable,
        "states": [],
    }
    if cls.ueb_span is not None:
        payload["ueb_span"] = cls.ueb_span
    if cls.ueb is not None:
        payload["ueb"] = {
            "is_ueb": cls.ueb.is_ueb,
            "reason": cls.ueb.reason,
            "complement_concurrence": cls.ueb.complement_concurrence,
            "complement_state": amplitude_pairs(cls.ueb.complement_state),
        }
    for v, label, state in zip(report.per_state, labels, ensemble.states):
        profile = entanglement_profile(state)
        entry = {
            "label": label,
            "identifiable": v.identifiable,
            "concurrence": profile.concurrence,
            "entropy": profile.entropy,
        }
        if v.witness is not None:
            entry["witness"] = amplitude_pairs(v.witness)
            entry["witness_overlap"] = v.witness_overlap
            if v.near_threshold:
                entry["near_threshold"] = True
        payload["states"].append(entry)
    payload["avg_entanglement"] = average_entanglement(ensemble)
    return payload


def _print_human(payload):
    _echo(f"class: {payload['class']}")
    _echo(f"entangled members: {payload['entangled_count']}")
    _echo(
        "conclusively distinguishable: "
        + ("yes" if payload["conclusively_distinguishable"] else "no")
    )
    _echo(
        "perfectly distinguishable: "
        + ("yes" if payload["perfectly_distinguishable"] else "no")
    )
    if "ueb" in payload:
        ueb = payload["ueb"]
        status = "yes" if ueb["is_ueb"] else "no"
        if ueb["reason"]:
            status += f" ({ueb['reason']})"
        _echo(f"UEB: {status}")
    _echo(f"average entanglement: {payload['avg_entanglement']:.6f} ebits")
    for entry in payload["states"]:
        line = (
            f"  {entry['label']}: "
            + ("identifiable" if entry["identifiable"] else "NOT identifiable")
            + f", concurrence {entry['concurrence']:.6f}"
        )
        if "witness" in entry:
            line += f", witness overlap {entry['witness_overlap']:.6f}"
        _echo(line)


@main.command("classify")
@click.argument("document", type=click.Path(exists=True, dir_okay=False))
@click.option("--json", "json_out", type=click.Path(dir_okay=False), default=None,
              help="Also write the machine-readable report to this path ('-' for stdout).")
def cmd_classify(document, json_out):
    """Classify the ensemble in DOCUMENT on the nonlocality hierarchy."""
    try:
        with open(document) as fh:
            parsed = parse_document(fh.read())
        payload = _classification_payload(parsed.ensemble, parsed.labels)
    except QloccError as exc:
        _fail_input(str(exc))
    # the JSON file opens before anything prints: an unwritable path prints nothing
    to_file = bool(json_out) and json_out != "-"
    with _open_out(json_out) if to_file else contextlib.nullcontext() as fh:
        _print_human(payload)
        if json_out == "-":
            _echo(json.dumps(payload, indent=2))
        elif to_file:
            json.dump(payload, fh, indent=2)
            fh.write("\n")


def _parse_grid(spec: str):
    parts = spec.split(":")
    if len(parts) != 3:
        raise BadBounds(f"grid '{spec}' must be lo:hi:steps")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise BadBounds(f"grid '{spec}': {exc}") from exc
    if not (0.0 < lo <= hi < 1.0):
        raise BadBounds(f"grid bounds must lie inside (0, 1), got [{lo}, {hi}]")
    if steps < 2:
        raise BadBounds(f"grid needs at least 2 steps, got {steps}")
    return np.linspace(lo, hi, steps)


_SWEEP_BLOCK = 4096  # grid points per kernel call: bounds a sweep's memory at any size


def _sweep_blocks(lam1s, lam3s):
    """The CSV rows of eq1 over lam1s x lam3s, or of eq2 over lam1s when lam3s is None: one
    string per block of _SWEEP_BLOCK points, with the set of classes in the block."""
    names = [NonlocalityClass(label, 3).describe() for label in HierarchyLabel]
    # the unidentifiable field of each hidden mask, indexed by h0 + 2 h1 + 4 h2
    fields = [";".join(str(i) for i in range(3) if k >> i & 1) for k in range(8)]
    m = 1 if lam3s is None else len(lam3s)
    points = len(lam1s) * m
    for start in range(0, points, _SWEEP_BLOCK):
        # point k is (lam1s[k // m], lam3s[k % m]): the product grid is never expanded
        i1, i3 = divmod(np.arange(start, min(start + _SWEEP_BLOCK, points)), m)
        b1, b3 = lam1s[i1], None if lam3s is None else lam3s[i3]
        rows = _family_rows(b1, b3)
        _check_orthogonal(rows, _DEFAULT_TOLERANCES.eps_orth)
        v = _decide(rows, _DEFAULT_TOLERANCES)
        avg = np.mean(_entropies(v.conc), axis=-1).tolist()
        lam3 = [None] * len(b1) if b3 is None else b3.tolist()
        classes = [names[label] for label in v.labels.tolist()]
        bad = [fields[k] for k in (v.hidden @ np.array([1, 2, 4])).tolist()]
        yield _sweep_rows(zip(b1.tolist(), lam3, classes, bad, avg, v.ueb.tolist())), set(classes)


@main.command("sweep")
@click.argument("family", type=click.Choice(["eq1", "eq2"]))
@click.option("--grid", default="0.05:0.95:19", show_default=True,
              help="lam1 grid as lo:hi:steps.")
@click.option("--grid-l3", default=None,
              help="lam3 grid for the eq1 family (defaults to --grid).")
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def cmd_sweep(family, grid, grid_l3, out):
    """Classify a parametric family over a grid and write a CSV."""
    if grid_l3 is not None and family != "eq1":
        _fail_input(f"--grid-l3 applies to eq1 only; {family} has no lam3")
    try:
        lam1s = _parse_grid(grid)
        lam3s = None if family == "eq2" else lam1s if grid_l3 is None else _parse_grid(grid_l3)
    except BadBounds as exc:
        _fail_input(str(exc))
    classes, points = set(), len(lam1s) * (1 if lam3s is None else len(lam3s))
    with _open_out(out, newline="") as fh:
        fh.write(_SWEEP_HEADER)
        for text, block_classes in _sweep_blocks(lam1s, lam3s):
            fh.write(text)
            classes |= block_classes
    uniform = "uniform" if len(classes) == 1 else "MIXED"
    _echo(f"{points} grid points -> {out}; classes {uniform}: {', '.join(sorted(classes))}")


@main.command("demo-trit")
@click.option("--lam1", type=float, required=True)
@click.option("--lam3", type=float, required=True)
def cmd_demo_trit(lam1, lam3):
    """Trit-hiding demo: encode {0,1,2} on the all-entangled family.

    Value 0 rides on the first member, which no LOCC strategy can
    conclusively identify; values 1 and 2 remain recoverable with nonzero
    probability.
    """
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", MaximalEntanglementWarning)
            ens = generate_eq1(GeneratorParams(lam1, lam3))
    except BadParam as exc:
        _fail_input(str(exc))
    cls, report = classify(ens)
    _echo(f"family parameters: lam1={lam1}, lam3={lam3} (class {cls.describe()})")
    for trit, v in enumerate(report.per_state):
        if v.identifiable:
            _echo(
                f"trit {trit}: recoverable (witness overlap {v.witness_overlap:.6f}, "
                f"witness {[f'{a:.4g}' for a in v.witness.amps]})"
            )
        else:
            _echo(f"trit {trit}: protected (no product witness exists)")
    for w in caught:
        if issubclass(w.category, MaximalEntanglementWarning):
            _echo(f"warning: {w.message}")


@main.command("generate")
@click.argument("family", type=click.Choice(["eq1", "eq2", "bell-triple", "random-met"]))
@click.option("--lam1", type=float, default=0.3, show_default=True)
@click.option("--lam3", type=float, default=0.4, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=DEFAULT_SEED, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the document here instead of stdout.")
def cmd_generate(family, lam1, lam3, seed, out):
    """Emit a fixture ensemble document for the named family."""
    try:
        if family == "eq1":
            ens = generate_eq1(GeneratorParams(lam1, lam3))
            labels = ["psi1", "psi2", "psi3"]
        elif family == "eq2":
            ens = generate_eq2(lam1)
            labels = ["Psi1", "Psi2", "Psi3"]
        elif family == "bell-triple":
            ens = OrthogonalSet(
                (
                    make_state([1, 0, 0, 1]),
                    make_state([1, 0, 0, -1]),
                    make_state([0, 1, 1, 0]),
                )
            )
            labels = ["phi+", "phi-", "psi+"]
        else:
            ens = random_max_entangled_triple(seed)
            labels = [f"met{i}" for i in range(3)]
    except BadParam as exc:
        _fail_input(str(exc))
    text = emit_document(ens, labels)
    if out:
        with _open_out(out) as fh:
            fh.write(text)
    else:
        _echo(text, nl=False)


@main.command("verify")
@click.option("--suite", "suites", multiple=True,
              type=click.Choice(sorted(SUITES)), help="Run only these suites.")
@click.option("--count", type=click.IntRange(min=1), default=None,
              help="Override the instance count for counted suites.")
@click.option("--seed", type=click.IntRange(min=0), default=DEFAULT_SEED, show_default=True)
def cmd_verify(suites, count, seed):
    """Run the property suites; nonzero exit on any violation."""
    failed = False
    for name in suites or sorted(SUITES):
        result = SUITES[name](seed=seed) if count is None else SUITES[name](count, seed)
        _echo(result.summary())
        failed = failed or not result.ok
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
