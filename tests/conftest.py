import numpy as np
import pytest

from qlocc import OrthogonalSet, Subspace, make_state

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


# References that qlocc itself no longer needs: the checks below stay independent of the
# kernels they test.


def states_equal_up_to_phase(a, b, tol=1e-9):
    """Whether two states coincide up to a global phase."""
    return abs(abs(a.overlap(b)) - 1.0) < tol


def product_state(left, right):
    """Tensor product of two single-qubit amplitude pairs."""
    return make_state(np.outer(np.asarray(left), np.asarray(right)).reshape(4))


def svd_orthocomplement(source):
    """Orthonormal basis (a Subspace) of the complement of the span of 1-3 members: the
    null space of an SVD, which shares nothing with products.orthocomplement's cofactors."""
    b = source.matrix()
    _, _, vh = np.linalg.svd(b.conj().T, full_matrices=True)
    return Subspace(tuple(make_state(row) for row in vh[b.shape[1]:].conj()))


def scalar_concurrence(amps):
    """min(1, 2|ad - bc|) in Python complex arithmetic: the per-row rule the kernels keep."""
    a, b, c, d = np.asarray(amps).tolist()
    return min(1.0, 2.0 * abs(a * d - b * c))
