"""Reading and writing ensemble documents and sweep CSV files.

The on-disk ensemble format is a single JSON document: each state is four
[re, im] amplitude pairs in the basis order |00>, |01>, |10>, |11>, with
optional per-state labels and tolerance overrides.  Parse failures carry the
path of the offending field.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .ensembles import OrthogonalSet, Tolerances
from .errors import BadTolerance, NonFiniteNorm, QloccError, ZeroVector
from .states import PureState, make_state


class DocumentError(QloccError):
    """Malformed ensemble document; message names the offending field."""


@dataclass(frozen=True)
class EnsembleDocument:
    ensemble: OrthogonalSet
    labels: tuple[str, ...]


def _finite_number(value, path) -> float:
    """A JSON number as a float; bools, NaN, infinities and overflow are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DocumentError(f"{path}: expected a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise DocumentError(f"{path}: expected a finite number, got {value!r}")
    return x


def _parse_amplitude(value, path):
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise DocumentError(f"{path}: expected [re, im] pair, got {value!r}")
    return complex(_finite_number(value[0], path), _finite_number(value[1], path))


def parse_document(text: str) -> EnsembleDocument:
    """Parse and validate an ensemble document from JSON text."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "states" not in doc:
        raise DocumentError("top level must be an object with a 'states' list")
    raw_states = doc["states"]
    if not isinstance(raw_states, list) or not raw_states:
        raise DocumentError("states: expected a nonempty list")

    states = []
    for i, raw in enumerate(raw_states):
        if not isinstance(raw, list) or len(raw) != 4:
            raise DocumentError(f"states[{i}]: expected four amplitude pairs")
        amps = [_parse_amplitude(a, f"states[{i}][{k}]") for k, a in enumerate(raw)]
        try:
            states.append(make_state(amps))
        except (ZeroVector, NonFiniteNorm) as exc:
            raise DocumentError(f"states[{i}]: {exc}") from exc

    labels = doc.get("labels")
    if labels is None:
        labels = [f"state{i}" for i in range(len(states))]
    elif not isinstance(labels, list) or len(labels) != len(states):
        raise DocumentError("labels: must match the number of states")

    overrides = doc.get("tolerances", {})
    if not isinstance(overrides, dict):
        raise DocumentError("tolerances: expected an object")
    unknown = set(overrides) - {"eps_orth", "eps_zero", "tau_overlap"}
    if unknown:
        raise DocumentError(f"tolerances: unknown keys {sorted(unknown)}")
    try:
        tolerances = Tolerances(**overrides)
    except BadTolerance as exc:
        raise DocumentError(f"tolerances.{exc}") from exc

    ensemble = OrthogonalSet(tuple(states), tolerances=tolerances)
    return EnsembleDocument(ensemble=ensemble, labels=tuple(labels))


def amplitude_pairs(state: PureState) -> list[list[float]]:
    return [[float(a.real), float(a.imag)] for a in state.amps]


def emit_document(ensemble: OrthogonalSet, labels=None) -> str:
    """Serialize an ensemble back to the JSON document format."""
    doc = {
        "states": [amplitude_pairs(s) for s in ensemble.states],
        "labels": list(labels) if labels else [f"state{i}" for i in range(len(ensemble))],
    }
    return json.dumps(doc, indent=2) + "\n"


_SWEEP_HEADER = "lambda1,lambda3,class,unidentifiable,avg_entanglement,is_ueb\n"


def _sweep_rows(points) -> str:
    """CSV rows of sweep points (lambda1, lambda3 or None, class, unidentifiable field, average
    entanglement, is_ueb), the floats to 12 significant digits: the one sweep row format."""
    return "".join([
        f"{x1:.12g},{'' if x3 is None else format(x3, '.12g')},{cls},{bad},{avg:.12g},"
        f"{'true' if ueb else 'false'}\n"
        for x1, x3, cls, bad, avg, ueb in points
    ])


def sweep_csv(records) -> str:
    """Render sweep records with deterministic, byte-stable formatting."""
    return _SWEEP_HEADER + _sweep_rows(
        (rec["lambda1"], rec["lambda3"], rec["class"],
         ";".join(str(i) for i in rec["unidentifiable"]), rec["avg_entanglement"], rec["is_ueb"])
        for rec in records
    )
