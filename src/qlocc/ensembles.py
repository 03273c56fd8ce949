"""Validated orthogonal ensembles of two-qubit pure states."""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, fields
from numbers import Real

import numpy as np

from .errors import BadTolerance, InvalidSet
from .states import (
    EPS_ORTH,
    EPS_ZERO,
    PureState,
    _concurrences,
    _entropies,
    _unit_rows,
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
        # no triple then hides all three members; an overlap is at most 1, so a tau_overlap
        # of 1 or more fails as 1 does, and its square cannot overflow
        e, t2 = self.eps_zero, min(self.tau_overlap, 1.0) ** 2
        if not (t2 * (1.0 + e) < e and (e > 1.0 or 3.0 * t2 <= 4.0 * (1.0 - t2) * (1.0 - e * e))):
            raise BadTolerance(f"tau_overlap: {self.tau_overlap!r} too large for eps_zero {e!r}")


_DEFAULT_TOLERANCES = Tolerances()


@functools.lru_cache(maxsize=16)  # 3 sizes x a few eps_orth
def _gram_bounds(n: int, eps_orth: float) -> tuple[np.ndarray, np.ndarray]:
    """The Gram matrix of n orthonormal members and each entry's bound; shared, so read-only."""
    eye = np.eye(n, dtype=np.complex128)  # the Gram's dtype: subtracting it casts nothing
    bound = np.where(eye, EPS_ORTH, eps_orth)
    eye.flags.writeable = bound.flags.writeable = False
    return eye, bound


@np.errstate(over="ignore", invalid="ignore")  # a decorator builds no errstate per call
def _check_orthogonal(amps: np.ndarray, eps_orth: float) -> None:
    """Raise InvalidSet unless the members of every stack (..., n, 4) are orthonormal: each
    |<i|j>| < eps_orth, and each |<i|i> - 1| < EPS_ORTH however small eps_orth is."""
    eye, bound = _gram_bounds(amps.shape[-2], eps_orth)
    dev = abs(np.vecdot(amps[..., None, :], amps[..., None, :, :]) - eye)  # vecdot conjugates
    ok = dev < bound  # not >=, so NaN (a non-finite amplitude) fails
    if np.count_nonzero(ok) < ok.size:  # cheaper than ok.all() on a stack of one
        k = tuple(np.argwhere(~ok)[0])  # the first in row order: i <= j, up to rounding
        *_, i, j = k
        what, entry = (f"state {i} is not a unit vector", f"<{i}|{i}> - 1") if i == j else (
            f"states {i} and {j} are not orthogonal", f"<{i}|{j}>")
        raise InvalidSet(f"{what} or not finite: |{entry}| = {dev[k]:.3e}")


@dataclass(frozen=True)
class OrthogonalSet:
    """An orthonormal collection of 2 to 4 two-qubit pure states.

    Orthogonality implies linear independence, so cardinality never exceeds 4.
    """

    states: tuple[PureState, ...]
    tolerances: Tolerances = _DEFAULT_TOLERANCES

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        n = len(self.states)
        if not 2 <= n <= 4:
            raise InvalidSet(f"cardinality must be 2, 3, or 4, got {n}")
        # n x 4 amplitudes: the stack of one that the check and the kernels read
        object.__setattr__(self, "_rows", np.array([s.amps for s in self.states]))
        _check_orthogonal(self._rows, self.tolerances.eps_orth)

    def __len__(self):
        return len(self.states)

    def __getitem__(self, i) -> PureState:
        return self.states[i]

    def matrix(self) -> np.ndarray:
        """4 x n matrix whose columns are the state amplitude vectors."""
        return np.column_stack([s.amps for s in self.states])

    def entangled_count(self) -> int:
        """Number of members with concurrence >= eps_zero, counted as _decide counts them."""
        return int(np.count_nonzero(_concurrences(self._rows) >= self.tolerances.eps_zero))

    def span_projector(self) -> np.ndarray:
        """Orthogonal projector onto the span of the members."""
        b = self.matrix()
        return b @ b.conj().T


def average_entanglement(ensemble: OrthogonalSet) -> float:
    """Arithmetic mean of the members' entanglement entropies, in ebits."""
    return float(np.mean(_entropies(_concurrences(ensemble._rows)), axis=-1))


def _row_set(rows: np.ndarray) -> OrthogonalSet:
    """OrthogonalSet of unit, phase-canonical rows (n, 4), such as one stack of _unit_rows."""
    return OrthogonalSet(tuple(map(PureState, rows)))


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
    """Seeded Haar-random orthonormal set: row 0 of _haar_rows([seed], size)."""
    return _row_set(_haar_rows([seed], size)[0])
