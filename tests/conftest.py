import csv

import numpy as np
import pytest

from spintomo import (
    ConvergenceError,
    MeasurementRecord,
    OscillatorDensityMatrix,
    QuantumState,
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


def random_density_matrix(dim: int, rng: np.random.Generator) -> QuantumState:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    return QuantumState((rho + rho.conj().T) / 2.0)


def expectation(state: QuantumState, op: np.ndarray) -> float:
    """<op> = Tr(rho op) for a Hermitian operator."""
    mean, _ = moments(state.rho, [op])
    return float(mean[0])


def covariance(state: QuantumState, a: np.ndarray, b: np.ndarray) -> float:
    """Symmetrized covariance (1/2)<ab + ba> - <a><b> of Hermitian a, b."""
    _, cov = moments(state.rho, [a, b])
    return float(cov[0, 1])


def rotation_unitary(ops, axis, angle: float) -> np.ndarray:
    """exp(-i angle (n . F)) via eigendecomposition of the Hermitian generator."""
    axis = np.asarray(axis, dtype=float).ravel()
    if axis.shape != (3,):
        raise ValueError(f"axis must be a 3-vector, got shape {axis.shape}")
    norm = np.linalg.norm(axis)
    if norm < 1e-12:
        raise ValueError("rotation axis must be non-zero")
    n = axis / norm
    gen = n[0] * ops.fx + n[1] * ops.fy + n[2] * ops.fz
    w, v = np.linalg.eigh(gen)
    return (v * np.exp(-1j * angle * w)) @ v.conj().T


def rotate(state: QuantumState, axis, angle: float) -> QuantumState:
    """Rotate a state about a spatial axis; trace and spectrum are preserved."""
    ops = spin_operators(state.spin)
    u = rotation_unitary(ops, axis, angle)
    rho = u @ state.rho @ u.conj().T
    rho = (rho + rho.conj().T) / 2.0
    return QuantumState(rho)


def oat_hamiltonian(ops, alpha: float) -> np.ndarray:
    """One-axis twisting generator alpha * Fz^2."""
    return alpha * (ops.fz @ ops.fz)


def evolve_unitary(state: QuantumState, h: np.ndarray, t: float) -> QuantumState:
    """Closed-system evolution rho -> U rho U^dag with U = exp(-i H t).

    An oracle for the decay-free limit of ``lindblad_trajectory``.
    """
    if h.shape != (state.dimension, state.dimension):
        raise ValueError(f"Hamiltonian shape {h.shape} does not match state {state.dimension}")
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(-1j * w * t)) @ v.conj().T
    rho = u @ state.rho @ u.conj().T
    rho = (rho + rho.conj().T) / 2.0
    return QuantumState(rho)


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
    d = ops.dimension
    fz2 = ops.fz @ ops.fz
    w, v = np.linalg.eigh(ops.fx)
    h = np.zeros((d, d), dtype=complex)
    for theta in 2.0 * np.pi * np.arange(16) / 16:
        u = (v * np.exp(1j * theta * w)) @ v.conj().T
        light = -0.25 * (1.0 + np.cos(2.0 * theta)) * (-8.0 * beta * fz2)
        h += u @ light @ u.conj().T
    return h / 16 + beta * (ops.fx @ ops.fx)


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


def einsum_kernel(povms):
    """Tr(P_k rho) and sum_k w_k P_k of a (K, d, d) POVM stack, each by one per-element einsum."""
    def probabilities(rho):
        return np.real(np.einsum("kij,ji->k", povms, rho))

    def weighted_sum(weights):
        return np.einsum("k,kij->ij", weights, povms)

    return probabilities, weighted_sum


def mle_likelihood_trace(record: MeasurementRecord) -> list[float]:
    """Log-likelihood trace of the iteration behind ``mle_reconstruct(record)``.

    ``mle_reconstruct`` returns only the final iterate, so the trace comes
    from ``tomography._rrr_iteration`` run on the same POVM and settings.
    """
    _, povms, counts = tomography._binned_povm(record, tomography.BASIS_DIM)
    return tomography._rrr_iteration(povms, counts, tomography.MAX_ITER, tomography.REL_TOL)[3]


def reference_rrr_iteration(povms, counts, max_iter, tol):
    """The RrhoR loop of ``mle_reconstruct`` before its products were inlined: an oracle for
    ``tomography._rrr_iteration``, on the einsum products of :func:`einsum_kernel`.

    Returns (rho, iterations, converged, log-likelihood trace).
    """
    dim = povms.shape[1]
    probabilities, weighted_sum = einsum_kernel(povms)
    freqs = counts / counts.sum()

    def log_likelihood(rho: np.ndarray) -> tuple[float, np.ndarray]:
        probs = np.maximum(probabilities(rho), 1e-300)
        return float(np.sum(counts * np.log(probs))), probs

    rho = np.eye(dim, dtype=complex) / dim
    ll, probs = log_likelihood(rho)
    history = [ll]
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        r = weighted_sum(freqs / probs)
        candidate = r @ rho @ r
        candidate /= np.trace(candidate).real
        candidate = (candidate + candidate.conj().T) / 2.0
        new_ll, new_probs = log_likelihood(candidate)
        if new_ll < ll - 1e-12 * abs(ll):
            # dilute toward the identity direction until the step ascends
            eps = 1.0
            while eps > 1e-8:
                mixed = (np.eye(dim) + eps * r) / (1.0 + eps)
                candidate = mixed @ rho @ mixed.conj().T
                candidate /= np.trace(candidate).real
                candidate = (candidate + candidate.conj().T) / 2.0
                new_ll, new_probs = log_likelihood(candidate)
                if new_ll >= ll - 1e-12 * abs(ll):
                    break
                eps /= 2.0
            else:
                raise ConvergenceError(
                    f"likelihood iteration stalled at iteration {iterations}: "
                    f"no ascending step found"
                )
        gain = new_ll - ll
        rho, ll, probs = candidate, new_ll, new_probs
        history.append(ll)
        if gain < tol * abs(ll):
            converged = True
            break
    return rho, iterations, converged, history
