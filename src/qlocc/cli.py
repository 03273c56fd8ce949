"""Command-line front end: classification, sweeps, demos, verification.

Exit codes: 0 success, 1 property violation, 2 input error.
"""

from __future__ import annotations

import json
import sys
import warnings

import click
import numpy as np

from .discrimination import HierarchyLabel, classify
from .ensembles import OrthogonalSet, Tolerances, average_entanglement
from .errors import BadBounds, BadParam, QloccError
from .io import DocumentError, amplitude_pairs, emit_document, parse_document, sweep_csv
from .states import entanglement_profile, make_state
from .ueb import (
    GeneratorParams,
    MaximalEntanglementWarning,
    generate_eq1,
    generate_eq2,
    random_max_entangled_triple,
    ueb_check,
)
from .verify import DEFAULT_SEED, SUITES


@click.group()
def main():
    """Two-qubit LOCC discrimination and nonlocality classification."""


def _fail_input(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _tolerances_from(option_values) -> Tolerances:
    kwargs = {}
    for item in option_values:
        key, _, value = item.partition("=")
        if key not in ("eps_orth", "eps_zero", "tau_overlap") or not value:
            _fail_input(f"bad --tolerance '{item}' (expected key=value)")
        try:
            kwargs[key] = float(value)
        except ValueError:
            _fail_input(f"bad --tolerance value '{value}'")
    return Tolerances(**kwargs)


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
    if len(ensemble) == 3:
        verdict = ueb_check(ensemble)
        payload["ueb"] = {
            "is_ueb": verdict.is_ueb,
            "reason": verdict.reason,
            "complement_concurrence": verdict.complement_concurrence,
            "complement_state": amplitude_pairs(verdict.complement_state),
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
    click.echo(f"class: {payload['class']}")
    click.echo(f"entangled members: {payload['entangled_count']}")
    click.echo(
        "conclusively distinguishable: "
        + ("yes" if payload["conclusively_distinguishable"] else "no")
    )
    click.echo(
        "perfectly distinguishable: "
        + ("yes" if payload["perfectly_distinguishable"] else "no")
    )
    if "ueb" in payload:
        ueb = payload["ueb"]
        status = "yes" if ueb["is_ueb"] else "no"
        if ueb["reason"]:
            status += f" ({ueb['reason']})"
        click.echo(f"UEB: {status}")
    click.echo(f"average entanglement: {payload['avg_entanglement']:.6f} ebits")
    for entry in payload["states"]:
        line = (
            f"  {entry['label']}: "
            + ("identifiable" if entry["identifiable"] else "NOT identifiable")
            + f", concurrence {entry['concurrence']:.6f}"
        )
        if "witness" in entry:
            line += f", witness overlap {entry['witness_overlap']:.6f}"
        click.echo(line)


@main.command("classify")
@click.argument("document", type=click.Path(exists=True, dir_okay=False))
@click.option("--json", "json_out", type=click.Path(dir_okay=False), default=None,
              help="Also write the machine-readable report to this path ('-' for stdout).")
def cmd_classify(document, json_out):
    """Classify the ensemble in DOCUMENT on the nonlocality hierarchy."""
    try:
        with open(document) as fh:
            parsed = parse_document(fh.read())
    except (DocumentError, QloccError) as exc:
        _fail_input(str(exc))
    payload = _classification_payload(parsed.ensemble, parsed.labels)
    _print_human(payload)
    if json_out == "-":
        click.echo(json.dumps(payload, indent=2))
    elif json_out:
        with open(json_out, "w") as fh:
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


def _sweep_record(lam1, lam3, ensemble):
    cls, report = classify(ensemble)
    return {
        "lambda1": lam1,
        "lambda3": lam3,
        "class": cls.describe(),
        "unidentifiable": [v.index for v in report.per_state if not v.identifiable],
        "avg_entanglement": average_entanglement(ensemble),
        "is_ueb": ueb_check(ensemble).is_ueb,
    }


@main.command("sweep")
@click.argument("family", type=click.Choice(["eq1", "eq2"]))
@click.option("--grid", default="0.05:0.95:19", show_default=True,
              help="lam1 grid as lo:hi:steps.")
@click.option("--grid-l3", default=None,
              help="lam3 grid for the eq1 family (defaults to --grid).")
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def cmd_sweep(family, grid, grid_l3, out):
    """Classify a parametric family over a grid and write a CSV."""
    try:
        lam1s = _parse_grid(grid)
        lam3s = _parse_grid(grid_l3) if grid_l3 else lam1s
    except BadBounds as exc:
        _fail_input(str(exc))
    records = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MaximalEntanglementWarning)
        if family == "eq1":
            for l1 in lam1s:
                for l3 in lam3s:
                    ens = generate_eq1(GeneratorParams(float(l1), float(l3)))
                    records.append(_sweep_record(float(l1), float(l3), ens))
        else:
            for l1 in lam1s:
                ens = generate_eq2(float(l1))
                records.append(_sweep_record(float(l1), None, ens))
    with open(out, "w", newline="") as fh:
        fh.write(sweep_csv(records))
    classes = sorted({r["class"] for r in records})
    uniform = "uniform" if len(classes) == 1 else "MIXED"
    click.echo(f"{len(records)} grid points -> {out}; classes {uniform}: {', '.join(classes)}")


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
    click.echo(f"family parameters: lam1={lam1}, lam3={lam3} (class {cls.describe()})")
    for trit, v in enumerate(report.per_state):
        if v.identifiable:
            click.echo(
                f"trit {trit}: recoverable (witness overlap {v.witness_overlap:.6f}, "
                f"witness {[f'{a:.4g}' for a in v.witness.amps]})"
            )
        else:
            click.echo(f"trit {trit}: protected (no product witness exists)")
    for w in caught:
        if issubclass(w.category, MaximalEntanglementWarning):
            click.echo(f"warning: {w.message}")


@main.command("generate")
@click.argument("family", type=click.Choice(["eq1", "eq2", "bell-triple", "random-met"]))
@click.option("--lam1", type=float, default=0.3, show_default=True)
@click.option("--lam3", type=float, default=0.4, show_default=True)
@click.option("--seed", type=int, default=DEFAULT_SEED, show_default=True)
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
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


@main.command("verify")
@click.option("--suite", "suites", multiple=True,
              type=click.Choice(sorted(SUITES)), help="Run only these suites.")
@click.option("--count", type=int, default=None,
              help="Override the instance count for counted suites.")
@click.option("--seed", type=int, default=DEFAULT_SEED, show_default=True)
def cmd_verify(suites, count, seed):
    """Run the property suites; nonzero exit on any violation."""
    names = list(suites) if suites else sorted(SUITES)
    failed = False
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MaximalEntanglementWarning)
        for name in names:
            fn = SUITES[name]
            kwargs = {}
            params = fn.__code__.co_varnames[: fn.__code__.co_argcount]
            if count is not None and "count" in params:
                kwargs["count"] = count
            if "seed" in params:
                kwargs["seed"] = seed
            result = fn(**kwargs)
            click.echo(result.summary())
            failed = failed or not result.ok
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
