import numpy as np
import pytest

from spintomo import QuantumState, coherent_spin_state, correct_covariance, spin_operators


@pytest.fixture(scope="session")
def ops4():
    return spin_operators(4)


@pytest.fixture(scope="session")
def css_x4():
    return coherent_spin_state(4, np.pi / 2.0, 0.0)


def random_density_matrix(dim: int, rng: np.random.Generator) -> QuantumState:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    return QuantumState((rho + rho.conj().T) / 2.0)


def fail_at_call(n: int, exc: BaseException):
    """Stand-in for correct_covariance that raises ``exc`` on its n-th call."""
    calls = []

    def wrapped(record):
        calls.append(record)
        if len(calls) == n:
            raise exc
        return correct_covariance(record)

    return wrapped
