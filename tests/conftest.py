import numpy as np
import pytest

from qlocc import OrthogonalSet, make_state

SQ2 = 1.0 / np.sqrt(2.0)


@pytest.fixture
def bell():
    """The four Bell states as a dict."""
    return {
        "phi+": make_state([1, 0, 0, 1]),
        "phi-": make_state([1, 0, 0, -1]),
        "psi+": make_state([0, 1, 1, 0]),
        "psi-": make_state([0, 1, -1, 0]),
    }


@pytest.fixture
def bell_triple(bell):
    return OrthogonalSet((bell["phi+"], bell["phi-"], bell["psi+"]))


@pytest.fixture
def bell_basis(bell):
    return OrthogonalSet(tuple(bell.values()))


def random_states(n, seed):
    """n normalized states, amplitudes from a rotation-invariant distribution."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
    return [make_state(row) for row in g]


def haar_unitary(rng):
    """A Haar-random 2x2 unitary: QR of a complex Gaussian, phases fixed by R's diagonal."""
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))
