"""Validated orthogonal ensembles of two-qubit pure states."""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields
from numbers import Real

import numpy as np

from .errors import BadTolerance, InvalidSet
from .states import (
    EPS_ORTH,
    EPS_ZERO,
    PureState,
    _concurrence,
    _concurrences,
    _entropies,
    _unit_rows,
    make_state,
)

TAU_OVERLAP = 1e-7


@dataclass(frozen=True)
class Tolerances:
    eps_orth: float = EPS_ORTH
    eps_zero: float = EPS_ZERO
    tau_overlap: float = TAU_OVERLAP

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            # NaN, inf and ints past the float range fail the chained comparison
            if isinstance(v, bool) or not isinstance(v, Real) or not 0 < v <= sys.float_info.max:
                raise BadTolerance(f"{f.name}: must be a positive finite number, got {v!r}")
        e, t2 = self.eps_zero, self.tau_overlap**2  # no triple then hides all three members
        if not (t2 * (1.0 + e) < e and (e > 1.0 or 3.0 * t2 <= 4.0 * (1.0 - t2) * (1.0 - e * e))):
            raise BadTolerance(f"tau_overlap: {self.tau_overlap!r} too large for eps_zero {e!r}")


_DEFAULT_TOLERANCES = Tolerances()


def _check_orthogonal(amps: np.ndarray, eps_orth: float) -> None:
    """Raise InvalidSet unless the members of every stack (..., n, 4) overlap by < eps_orth."""
    i, j = np.triu_indices(amps.shape[-2], 1)
    with np.errstate(over="ignore", invalid="ignore"):
        ov = np.abs(amps.conj() @ amps.mT)[..., i, j]
    bad = np.argwhere(~(ov < eps_orth))  # not <, so a NaN overlap (non-finite amplitude) fails
    if len(bad):
        k, i, j = tuple(bad[0]), i[bad[0][-1]], j[bad[0][-1]]
        raise InvalidSet(f"states {i} and {j} are not orthogonal or not finite: {ov[k]:.3e}")


@dataclass(frozen=True)
class OrthogonalSet:
    """A pairwise-orthogonal collection of 2 to 4 two-qubit pure states.

    Orthogonality implies linear independence, so cardinality never exceeds 4.
    """

    states: tuple[PureState, ...]
    tolerances: Tolerances = _DEFAULT_TOLERANCES

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        n = len(self.states)
        if not 2 <= n <= 4:
            raise InvalidSet(f"cardinality must be 2, 3, or 4, got {n}")
        for i in range(n):
            for j in range(i + 1, n):
                ov = abs(self.states[i].overlap(self.states[j]))
                # not <, so a non-finite amplitude (NaN overlap) fails too
                if not ov < self.tolerances.eps_orth:
                    raise InvalidSet(
                        f"states {i} and {j} are not orthogonal or not finite: "
                        f"|<{i}|{j}>| = {ov:.3e}"
                    )
        # n x 4 amplitudes: the stack of one the kernels read
        object.__setattr__(self, "_rows", np.array([s.amps for s in self.states]))

    def __len__(self):
        return len(self.states)

    def __getitem__(self, i) -> PureState:
        return self.states[i]

    def matrix(self) -> np.ndarray:
        """4 x n matrix whose columns are the state amplitude vectors."""
        return np.column_stack([s.amps for s in self.states])

    def entangled_count(self) -> int:
        """Number of members with concurrence >= eps_zero, counted as _decide counts them."""
        eps, count = self.tolerances.eps_zero, 0
        for row in self._rows.tolist():
            count += _concurrence(*row) >= eps
        return count

    def span_projector(self) -> np.ndarray:
        """Orthogonal projector onto the span of the members."""
        b = self.matrix()
        return b @ b.conj().T


def average_entanglement(ensemble: OrthogonalSet) -> float:
    """Arithmetic mean of the members' entanglement entropies, in ebits."""
    return float(np.mean(_entropies(_concurrences(ensemble._rows)), axis=-1))


def _row_set(rows: np.ndarray, tolerances: Tolerances = _DEFAULT_TOLERANCES) -> OrthogonalSet:
    """OrthogonalSet of unit, phase-canonical rows (n, 4), such as one stack of _unit_rows."""
    return OrthogonalSet(tuple(map(PureState, rows)), tolerances)


def _haar_unitaries(seeds) -> np.ndarray:
    """Haar-random 4x4 unitaries (N, 4, 4): one stacked QR of each seed's complex Gaussian."""
    rngs = map(np.random.default_rng, seeds)  # lazily: one generator alive at a time
    g = [rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for rng in rngs]
    q, r = np.linalg.qr(np.array(g).reshape(-1, 4, 4))
    diag = np.diagonal(r, axis1=-2, axis2=-1)  # phases fixed so that R's diagonal is positive
    return q * (diag / np.abs(diag))[:, None, :]


def _haar_rows(seeds, size: int) -> np.ndarray:
    """Unit rows (N, size, 4): the first `size` columns of each seed's _haar_unitaries."""
    return _unit_rows(_haar_unitaries(seeds)[..., :size].mT)


def random_orthogonal_set(seed: int, size: int = 3) -> OrthogonalSet:
    """Seeded Haar-random orthonormal set: _haar_rows([seed], size) bit for bit, by make_state."""
    q = _haar_unitaries([seed])[0]
    return OrthogonalSet(tuple(make_state(q[:, k]) for k in range(size)))
