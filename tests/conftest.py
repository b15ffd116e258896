import csv

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


def fail_at_call(n: int, exc: BaseException, target=correct_covariance):
    """Stand-in for ``target`` that raises ``exc`` on its n-th call."""
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(args)
        if len(calls) == n:
            raise exc
        return target(*args, **kwargs)

    return wrapped


def secular_compensated_matrix(ops, beta: float) -> np.ndarray:
    """One-period average of the modulated light shift at a2 = -8 beta, plus beta Fx^2.

    Averages -(1 + cos 2theta)/4 a2 Fz^2, rotated by theta about x,
    on 16 uniform angles: the integrand is a trigonometric polynomial of
    degree four in theta, so this rule is exact.
    """
    d = ops.dimension
    fz2 = ops.fz @ ops.fz
    w, v = np.linalg.eigh(ops.fx)
    h = np.zeros((d, d), dtype=complex)
    for theta in 2.0 * np.pi * np.arange(16) / 16:
        u = (v * np.exp(1j * theta * w)) @ v.conj().T
        light = -0.25 * (1.0 + np.cos(2.0 * theta)) * (-8.0 * beta * fz2)
        h += u @ light @ u.conj().T
    return h / 16 + beta * (ops.fx @ ops.fx)


def csv_module_write_table(stream, comments, columns, rows) -> None:
    """Per-field table writer on the :mod:`csv` module: an oracle for ``tables.write_table``."""
    stream.writelines(f"# {line}\n" for line in comments)
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([f"{v:.17g}" for v in row] for row in rows)


def csv_module_read_table(stream) -> tuple[list[str], list[str], list[tuple[float, ...]]]:
    """Per-field table reader on the :mod:`csv` module: an oracle for ``tables.read_table``.

    It splits comment lines at commas and rejoins them without their quotes,
    so it is an oracle only for comments free of quotes.
    """
    comments, columns, rows = [], None, []
    reader = csv.reader(stream)
    for fields in filter(None, reader):
        if fields[0].startswith("#"):
            comments.append(",".join(fields)[1:].strip())
        elif columns is None:
            columns = fields
        else:
            try:
                if len(fields) != len(columns):
                    raise ValueError(f"{len(fields)} fields, header has {len(columns)}")
                rows.append(tuple(map(float, fields)))
            except ValueError as exc:
                raise ValueError(f"line {reader.line_num}: {exc}") from None
    if columns is None:
        raise ValueError("table has no header row")
    return comments, columns, rows
