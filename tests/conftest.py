import csv

import numpy as np
import pytest

from spintomo import (
    MeasurementRecord,
    OscillatorDensityMatrix,
    check_density,
    coherent_spin_state,
    correct_covariance,
    moments,
    spin_operators,
    tomography,
)


@pytest.fixture(scope="session")
def ops4():
    return spin_operators(4)


@pytest.fixture(scope="session")
def css_x4():
    return coherent_spin_state(4, np.pi / 2.0, 0.0)


def random_density_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    return check_density((rho + rho.conj().T) / 2.0)


def expectation(rho: np.ndarray, op: np.ndarray) -> float:
    """<op> = Tr(rho op) for a Hermitian operator."""
    mean, _ = moments(rho, [op])
    return float(mean[0])


def covariance(rho: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Symmetrized covariance (1/2)<ab + ba> - <a><b> of Hermitian a, b."""
    _, cov = moments(rho, [a, b])
    return float(cov[0, 1])


def rotation_unitary(ops, axis, angle: float) -> np.ndarray:
    """exp(-i angle (n . F)) via eigendecomposition of the Hermitian generator."""
    axis = np.asarray(axis, dtype=float).ravel()
    if axis.shape != (3,):
        raise ValueError(f"axis must be a 3-vector, got shape {axis.shape}")
    norm = np.linalg.norm(axis)
    if norm < 1e-12:
        raise ValueError("rotation axis must be non-zero")
    gen = np.tensordot(axis / norm, ops, axes=1)
    w, v = np.linalg.eigh(gen)
    return (v * np.exp(-1j * angle * w)) @ v.conj().T


def rotate(rho: np.ndarray, axis, angle: float) -> np.ndarray:
    """Rotate a density matrix about a spatial axis; trace and spectrum are preserved."""
    u = rotation_unitary(spin_operators((len(rho) - 1) / 2.0), axis, angle)
    rho = u @ rho @ u.conj().T
    return check_density((rho + rho.conj().T) / 2.0)


def oat_hamiltonian(ops, alpha: float) -> np.ndarray:
    """One-axis twisting generator alpha * Fz^2 of the spin matrices ``ops``."""
    return alpha * (ops[2] @ ops[2])


def evolve_unitary(rho: np.ndarray, h: np.ndarray, t: float) -> np.ndarray:
    """Closed-system evolution rho -> U rho U^dag with U = exp(-i H t).

    An oracle for the decay-free limit of ``lindblad_trajectory``.
    """
    if h.shape != rho.shape:
        raise ValueError(f"Hamiltonian shape {h.shape} does not match state {len(rho)}")
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(-1j * w * t)) @ v.conj().T
    rho = u @ rho @ u.conj().T
    return check_density((rho + rho.conj().T) / 2.0)


def annihilation_operator(dim: int) -> np.ndarray:
    a = np.zeros((dim, dim), dtype=complex)
    n = np.arange(1, dim)
    a[n - 1, n] = np.sqrt(n)
    return a


def quadrature_cov(var_x: float, var_p: float, cov_xp: float = 0.0) -> np.ndarray:
    """The symmetric 2x2 covariance of the canonical (x, p) pair."""
    return np.array([[var_x, cov_xp], [cov_xp, var_p]])


def displaced(record: MeasurementRecord, mean_x: float, mean_p: float) -> MeasurementRecord:
    """``record`` with the (x, p) mean (mean_x, mean_p) added to its atomic signal.

    The probe passes the atomic pair at the gain sqrt(kappa2/2), so every
    shot moves by sqrt(kappa2/2) (mean_x, mean_p).
    """
    shots = record.shots + np.sqrt(record.kappa2 / 2.0) * np.array([mean_x, mean_p])
    return MeasurementRecord(shots=shots, kappa2=record.kappa2, seed=record.seed)


def variances_from_rho(rho) -> tuple[np.ndarray, np.ndarray]:
    """Mean 2-vector and 2x2 covariance of the canonical (x, p) pair of a state
    in the truncated excitation basis.

    Accepts an OscillatorDensityMatrix or a bare matrix.  The state is
    padded with two empty levels before the quadratic forms are taken, so
    the second moments (which reach two levels up) are exact for any state
    supported on the truncated basis and the Heisenberg floor is preserved.
    The moments come from :func:`~spintomo.spin_algebra.moments`.
    """
    if isinstance(rho, OscillatorDensityMatrix):
        rho = rho.rho
    padded = np.pad(np.asarray(rho, dtype=complex), ((0, 2), (0, 2)))
    a = annihilation_operator(padded.shape[0])
    x = (a + a.conj().T) / np.sqrt(2.0)
    p = (a - a.conj().T) / (1j * np.sqrt(2.0))
    return moments(padded, (x, p))


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
    fx, _, fz = ops
    d = len(fx)
    fz2 = fz @ fz
    w, v = np.linalg.eigh(fx)
    h = np.zeros((d, d), dtype=complex)
    for theta in 2.0 * np.pi * np.arange(16) / 16:
        u = (v * np.exp(1j * theta * w)) @ v.conj().T
        light = -0.25 * (1.0 + np.cos(2.0 * theta)) * (-8.0 * beta * fz2)
        h += u @ light @ u.conj().T
    return h / 16 + beta * (fx @ fx)


def three_term_simulate_records(cov, kappa2: float, n_shots: int, seed: int) -> MeasurementRecord:
    """The probe sampler that sums its three terms (atomic pair, then light, then back-action),
    each from its own normal pair: an oracle for ``probe.simulate_records``.
    """
    rng = np.random.default_rng(seed)
    atomic = rng.standard_normal((n_shots, 2)) @ np.linalg.cholesky(cov).T
    light = rng.standard_normal((n_shots, 2)) * np.sqrt(0.5)
    back = rng.standard_normal((n_shots, 2)) * np.sqrt(0.5)
    shots = light + np.sqrt(kappa2 / 2.0) * atomic + np.sqrt(kappa2**2 / 12.0) * back
    return MeasurementRecord(shots=shots, kappa2=kappa2, seed=int(seed))


def bartlett_corrected_covariances(cov, kappa2: float, n_shots: int, n_draws: int,
                                   rng: np.random.Generator) -> np.ndarray:
    """(n_draws, 3) rows (var_x, var_p, cov_xp) that ``correct_covariance`` returns for
    records of ``n_shots`` shots from the atomic (x, p) covariance ``cov``, drawn exactly.

    The probe's shots are zero-mean normal pairs of covariance
    Sigma = gain cov + noise I, with gain = kappa2/2 and noise = 1/2 + kappa2^2/24
    written out here rather than taken from ``readout_model``.  So their sample
    covariance S has (n - 1) S ~ W_2(Sigma, n - 1), which Bartlett's decomposition
    draws as L A A^T L^T: L is the Cholesky factor of Sigma and A is lower triangular
    with A_11^2 ~ chi2(n - 1), A_22^2 ~ chi2(n - 2) and A_21 ~ N(0, 1) (Anderson,
    An Introduction to Multivariate Statistical Analysis, 3rd ed. (2003), sec. 7.2).
    Each draw is then corrected as (S - noise I) / gain.
    """
    gain, noise = kappa2 / 2.0, 0.5 + kappa2**2 / 24.0
    chol = np.linalg.cholesky(gain * np.asarray(cov) + noise * np.eye(2))
    dof = n_shots - 1
    a = np.zeros((n_draws, 2, 2))
    a[:, 0, 0] = np.sqrt(rng.chisquare(dof, n_draws))
    a[:, 1, 1] = np.sqrt(rng.chisquare(dof - 1, n_draws))
    a[:, 1, 0] = rng.standard_normal(n_draws)
    la = chol @ a
    atomic = (la @ la.transpose(0, 2, 1) / dof - noise * np.eye(2)) / gain
    return np.stack([atomic[:, 0, 0], atomic[:, 1, 1], atomic[:, 0, 1]], axis=1)


def csv_module_write_table(stream, comments, columns, rows) -> None:
    """Per-field table writer on the :mod:`csv` module: an oracle for ``tables.write_table``."""
    stream.writelines(f"# {line}\n" for line in comments)
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([f"{v:.17g}" for v in row] for row in rows)


def meshgrid_rows(row_axis, col_axis, values) -> list[list[float]]:
    """Rows (row_axis[i], col_axis[j], values[i, j]), i-major: a grid's table for the oracle writer."""
    row, col = np.meshgrid(row_axis, col_axis, indexing="ij")
    return np.column_stack([row.ravel(), col.ravel(), np.ravel(values)]).tolist()


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


def einsum_kernel(povms):
    """Tr(P_k rho) and sum_k w_k P_k of a (K, d, d) POVM stack, each by one per-element einsum."""
    def probabilities(rho):
        return np.real(np.einsum("kij,ji->k", povms, rho))

    def weighted_sum(weights):
        return np.einsum("k,kij->ij", weights, povms)

    return probabilities, weighted_sum


def mle_likelihood_trace(record: MeasurementRecord) -> list[float]:
    """Log-likelihood trace of the solver behind ``mle_reconstruct(record)``, from I/d on,
    one value per accepted step.

    ``mle_reconstruct`` returns only the final state, so the trace comes
    from ``tomography._apg_mle`` run on the same POVM.
    """
    _, povms, counts = tomography._binned_povm(record, tomography.BASIS_DIM)
    return tomography._apg_mle(povms, counts)[3]


def rrr_iteration(povms, counts, n_steps: int) -> tuple[np.ndarray, list[float]]:
    """(rho, log-likelihood trace) of ``n_steps`` steps of the RrhoR fixed point from I/d:
    the iteration ``mle_reconstruct`` ran before its accelerated-gradient solver, kept as an
    independent second method.

    Each step is rho <- N[R rho R], with R = sum_k f_k / p_k P_k the frequency-weighted
    sum of the (K, d, d) POVM elements over their predicted probabilities p_k = Tr(P_k rho),
    computed on the stack's float64 (re, im) view as the solver does.  The steps need not
    ascend, so compare the trace's maximum.
    """
    k, dim, _ = povms.shape
    flat = povms.reshape(k, dim * dim).view(np.float64)
    freqs = counts / counts.sum()
    rho = np.eye(dim, dtype=complex) / dim
    probs = flat.dot(rho.reshape(-1).view(np.float64))
    history = [float(counts.dot(np.log(probs)))]
    for _ in range(n_steps):
        r = (freqs / probs).dot(flat).view(np.complex128).reshape(dim, dim)
        rho = r.dot(rho).dot(r)
        rho += rho.conj().T
        rho /= rho.trace().real
        probs = flat.dot(rho.reshape(-1).view(np.float64))
        history.append(float(counts.dot(np.log(probs))))
    return rho, history
