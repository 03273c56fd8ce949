"""The three workloads: seeded inputs, one op per input, and output checks.

Each workload draws a pool of inputs from its seed during set-up; the
program sees only those inputs.  The pool is a whole number of mix cycles,
and a run stops only at the end of a cycle, so every run sees the mix in the
same proportions and the traced run's per-op counts repeat exactly.

An op's result is reduced to a small record right after the op returns,
outside its timing, and kept once per input (see Outcomes).  The records are
judged only after the timed loop.
"""

from __future__ import annotations

import contextlib
import io
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qlocc import bruteforce, cli, discrimination, ensembles, products, states
from qlocc.discrimination import HierarchyLabel

# Why each workload exists, and the layers it bypasses.
NOTES = {
    "random-ensembles": {
        "why": "Inputs in general position: two simple roots per enumeration and an "
        "entangled complement. Time goes to numpy call overhead on 2x2 and 4x4 "
        "matrices in the scalar analytic path.",
        "bypasses": ["bruteforce", "witness-UEB construction in ueb_spanning_check",
                     "io", "cli"],
    },
    "family-sweep": {
        "why": "Structured inputs that take the double-root branch; product "
        "complements make every point build a witness UEB and compute 5 "
        "complements. Covers the cli and io write path.",
        "bypasses": ["bruteforce"],
    },
    "oracle-crosscheck": {
        "why": "More than 95% of the time is the 4-D grid of the brute-force "
        "oracle, the dominant cost of the acceptance gate; unidentifiable members "
        "try all 5 candidates and set the tail.",
        "bypasses": ["the analytic engine (used only by the check after the loop)",
                     "io", "cli"],
    },
}

# Thresholds of the output checks.
EPS_CHECK = 1e-9

_MAGIC = np.array(
    [[1, 0, 0, 1], [1j, 0, 0, -1j], [0, 1j, 1j, 0], [0, 1, -1, 0]], dtype=np.complex128
) / np.sqrt(2.0)
_KET = np.eye(4, dtype=np.complex128)


@dataclass(frozen=True)
class Input:
    kind: str
    payload: object
    units: int = 1  # verdicts an op on this input completes
    ensembles: int = 0  # cardinality-3 ensembles it analyses
    verdicts: int = 0  # oracle verdicts it returns


def _haar_unitary(rng):
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _real_orthogonal(rng):
    q, r = np.linalg.qr(rng.normal(size=(4, 4)))
    return q * np.sign(np.diagonal(r))


def _rescaled(rows, rng):
    """Rows times random nonzero complex factors: orthogonal but unnormalised."""
    scale = rng.uniform(0.5, 2.0, size=(len(rows), 1))
    phase = np.exp(2j * np.pi * rng.uniform(size=(len(rows), 1)))
    return rows * scale * phase


def _concurrence(amps):
    return 2.0 * abs(amps[0] * amps[3] - amps[1] * amps[2])


def _unit_rows(rows):
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def eq1_amplitudes(lam1, lam3):
    """The all-entangled family: psi1 and two mixes of |00> with psi1's partner."""
    l1, l2, l3, l4 = lam1, 1.0 - lam1, lam3, 1.0 - lam3
    psi1 = np.sqrt(l1) * _KET[1] + np.sqrt(l2) * _KET[2]
    perp = np.sqrt(l2) * _KET[1] - np.sqrt(l1) * _KET[2]
    return np.array([psi1, np.sqrt(l3) * _KET[0] + np.sqrt(l4) * perp,
                     np.sqrt(l4) * _KET[0] - np.sqrt(l3) * perp])


def eq2_amplitudes(lam1):
    """The sibling family: |00> and two entangled states in the |01>,|10> plane."""
    l1, l2 = lam1, 1.0 - lam1
    return np.array([_KET[0], np.sqrt(l1) * _KET[1] + np.sqrt(l2) * _KET[2],
                     np.sqrt(l2) * _KET[1] - np.sqrt(l1) * _KET[2]])


class Workload:
    """A pool of inputs, the op run on each, and the checks on its records."""

    name = ""
    cycle = 1  # ops per mix cycle
    grid_points = 0  # oracle grid points per verdict, from the resolution

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.pool: list[Input] = self.make_pool(np.random.default_rng(seed))
        assert len(self.pool) % self.cycle == 0

    def make_pool(self, rng) -> list[Input]:
        raise NotImplementedError

    def op(self, inp: Input):
        raise NotImplementedError

    def record(self, inp: Input, result):
        """The part of an op's result the checks read."""
        return result

    def problems(self, inp: Input, rec) -> list[str]:
        raise NotImplementedError

    def warm_up(self):
        for inp in self.pool[: self.cycle]:
            self.op(inp)

    def failures(self, outcomes: "Outcomes") -> tuple[int, list[str]]:
        """Failed ops and one message per failing input or diverging op."""
        failed, messages = 0, []
        for k, rec in outcomes.first.items():
            found = self._judge(k, rec)
            if found:
                failed += outcomes.count[k] - outcomes.diverged[k]
                messages.append(found)
        for k, rec in outcomes.divergent:
            failed += 1
            messages.append(self._judge(k, rec) or f"pool[{k}]: output differs between ops")
        return failed, messages

    def _judge(self, k, rec) -> str | None:
        if isinstance(rec, Exception):
            return f"pool[{k}] raised {type(rec).__name__}: {rec}"
        found = self.problems(self.pool[k], rec)
        return f"pool[{k}]: {found[0]}" if found else None


class Outcomes:
    """Per pool input: the first op's record and how many ops ran on it.

    Every op on one input must return the same record, so only records that
    differ from the first are kept; memory stays bounded by the pool, not by
    how many ops a run completes.  An exception never equals another record.
    """

    def __init__(self):
        self.first: dict[int, object] = {}
        self.count: Counter = Counter()
        self.diverged: Counter = Counter()
        self.divergent: list[tuple[int, object]] = []

    def add(self, k: int, rec) -> None:
        self.count[k] += 1
        if k not in self.first:
            self.first[k] = rec
        elif rec != self.first[k]:
            self.diverged[k] += 1
            self.divergent.append((k, rec))

    def total(self, pool, key: str = "units") -> int:
        """Sum of an Input field over the ops run, e.g. units or verdicts."""
        return sum(getattr(pool[k], key) * n for k, n in self.count.items())

    @property
    def attempted(self) -> int:
        return sum(self.count.values())


class RandomEnsembles(Workload):
    """Haar sets of 2, 3 and 4 members, maximally entangled triples, Haar planes."""

    name = "random-ensembles"
    kinds = ("pair", "triple", "basis", "met", "plane")
    cycle = len(kinds)
    cycles = 64

    def make_pool(self, rng):
        pool = []
        for _ in range(self.cycles):
            for kind in self.kinds:
                if kind == "met":
                    rows = _real_orthogonal(rng)[:3] @ _MAGIC
                else:
                    size = {"pair": 2, "triple": 3, "basis": 4, "plane": 2}[kind]
                    rows = _haar_unitary(rng)[:, :size].T
                pool.append(Input(kind, _rescaled(rows, rng), ensembles=int(len(rows) == 3)))
        return pool

    def op(self, inp):
        made = tuple(states.make_state(a) for a in inp.payload)
        if inp.kind == "plane":
            return products.product_states_in_2d(products.Subspace(made))
        return discrimination.classify(ensembles.OrthogonalSet(made))

    def record(self, inp, result):
        members = _unit_rows(inp.payload)
        if inp.kind == "plane":
            amps = [s.amps for s in result.states]
            inside = [np.linalg.norm(members.conj() @ a) for a in amps]
            return (
                len(amps),
                max(map(_concurrence, amps), default=0.0),
                max((abs(1.0 - x) for x in inside), default=0.0),
            )
        cls, report = result
        leak = max(
            (
                abs(np.vdot(v.witness.amps, members[j]))
                for v in report.per_state
                if v.witness is not None
                for j in range(len(members))
                if j != v.index
            ),
            default=0.0,
        )
        return cls.label, report.conclusively_distinguishable, leak

    def problems(self, inp, rec):
        if inp.kind == "plane":
            count, conc, dist = rec
            out = [] if count else ["no product state in a 2-D subspace"]
            if conc >= EPS_CHECK:
                out.append(f"enumerated state has concurrence {conc:.3g}")
            if dist >= EPS_CHECK:
                out.append(f"enumerated state lies {dist:.3g} outside the subspace")
            return out
        label, distinguishable, leak = rec
        if inp.kind == "pair" and label is not HierarchyLabel.PERFECT_LOCC:
            return [f"pair classified {label.name}"]
        if inp.kind == "met":
            out = [] if label is HierarchyLabel.CONCLUSIVE_ONLY else [
                f"maximally entangled triple classified {label.name}"
            ]
            return out + ([f"witness leak {leak:.3g}"] if leak >= EPS_CHECK else [])
        if inp.kind == "basis":
            entangled = sum(_concurrence(a) >= EPS_CHECK for a in _unit_rows(inp.payload))
            if entangled == 1:
                return ["complete basis with exactly one entangled member"]
            if distinguishable != (entangled == 0):
                return [f"basis with {entangled} entangled members has "
                        f"conclusively_distinguishable={distinguishable}"]
        return []


HEADER = "lambda1,lambda3,class,unidentifiable,avg_entanglement,is_ueb"
EXPECTED_ROW = {"eq1": ("OneUnidentifiable", "0", "true"),
                "eq2": ("TwoUnidentifiable", "1;2", None)}


def sweep_csv_problems(text: str, family: str, points: int) -> list[str]:
    """Rule violations in a sweep CSV of the given family and size."""
    lines = text.split("\n")
    if lines[0] != HEADER or lines[-1] != "":
        return ["missing header or final newline"]
    rows = lines[1:-1]
    out = [] if len(rows) == points else [f"{len(rows)} rows, expected {points}"]
    want_class, want_bad, want_ueb = EXPECTED_ROW[family]
    for n, row in enumerate(rows, start=1):
        fields = row.split(",")
        if len(fields) != 6:
            out.append(f"row {n}: {len(fields)} fields")
        elif fields[2] != want_class or fields[3] != want_bad:
            out.append(f"row {n}: class {fields[2]}, unidentifiable '{fields[3]}'")
        elif want_ueb is not None and fields[5] != want_ueb:
            out.append(f"row {n}: is_ueb {fields[5]}")
    return out


class FamilySweep(Workload):
    """In-process `qlocc sweep` commands, alternating eq1 (k x k) and eq2 (k^2)."""

    name = "family-sweep"
    cycle = 2
    side = 8
    cycles = 4

    def make_pool(self, rng):
        def grid(steps):
            lo, hi = rng.uniform(0.05, 0.15), rng.uniform(0.85, 0.95)
            return f"{lo:.6f}:{hi:.6f}:{steps}"

        points = self.side**2
        pool = []
        for _ in range(self.cycles):
            eq1 = ["eq1", "--grid", grid(self.side), "--grid-l3", grid(self.side)]
            pool.append(Input("eq1", eq1, units=points, ensembles=points))
            pool.append(Input("eq2", ["eq2", "--grid", grid(points)], units=points,
                              ensembles=points))
        return pool

    def op(self, inp):
        out = self.workdir / "sweep.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                cli.main.main(["sweep", *inp.payload, "--out", str(out)],
                              prog_name="qlocc", standalone_mode=False)
            except SystemExit as exc:
                raise RuntimeError(f"qlocc sweep exited with {exc.code}") from exc
        return out

    def record(self, inp, result):
        return result.read_bytes()

    def problems(self, inp, rec):
        return sweep_csv_problems(rec.decode(), inp.kind, inp.units)


class OracleCrosscheck(Workload):
    """One oracle verdict per op on members of Haar triples and family points."""

    name = "oracle-crosscheck"
    grid = bruteforce.GridSpec(resolution=32)
    grid_points = grid.resolution**4
    cycle = 9
    cycles = 48  # about one pass per run: each run averages over many inputs

    def make_pool(self, rng):
        pool = []
        for _ in range(self.cycles):
            sets = [
                _haar_unitary(rng)[:, :3].T,
                eq1_amplitudes(*rng.uniform(0.05, 0.95, size=2)),
                eq2_amplitudes(rng.uniform(0.05, 0.95)),
            ]
            built = [ensembles.OrthogonalSet(tuple(states.make_state(a) for a in s))
                     for s in sets]
            pool += [Input("member", (ens, i), verdicts=1) for i in range(3) for ens in built]
        return pool

    def op(self, inp):
        ens, i = inp.payload
        return bruteforce.oracle_identifiable(ens, i, self.grid)

    def record(self, inp, result):
        return result.identifiable

    def problems(self, inp, rec):
        analytic, _ = discrimination.conclusively_identifiable(*inp.payload)
        return [] if rec == analytic else [f"oracle says {rec}, analytic says {analytic}"]


WORKLOADS = {w.name: w for w in (RandomEnsembles, FamilySweep, OracleCrosscheck)}
