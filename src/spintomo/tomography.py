"""State reconstruction from measurement records.

Two complementary paths:

- :func:`correct_covariance` inverts the Gaussian variance budget of the
  probe (subtract light shot noise and back-action, rescale by the coupling)
  to recover the atomic covariance directly from sample moments.
- :func:`mle_reconstruct` runs iterative maximum-likelihood estimation of
  the density matrix in a truncated excitation-number basis, treating each
  shot as two independent Gaussian-blurred quadrature measurements at
  angles 0 and pi/2, binned into a finite-outcome POVM.

Both consume the same records, so they cross-validate each other.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import ndtr

from .errors import ConvergenceError, PhysicalityError
from .probe import CanonicalMoments, MeasurementRecord, readout_model
from .spin_algebra import QuantumState, moments, variance_extrema

__all__ = [
    "CorrectedCovariance",
    "OscillatorDensityMatrix",
    "corrected_variance",
    "correct_covariance",
    "mle_reconstruct",
    "variances_from_rho",
]


@dataclass(frozen=True)
class CorrectedCovariance:
    """Atomic canonical moments recovered from a record, with sampling error.

    Unlike :class:`~spintomo.probe.CanonicalMoments` this is a sampled
    estimate, so it need not respect the Heisenberg floor.
    """

    mean_x: float
    mean_p: float
    var_x: float
    var_p: float
    cov_xp: float
    n_shots: int

    def __post_init__(self) -> None:
        if self.n_shots < 2:
            raise ValueError(f"need at least 2 shots, got {self.n_shots}")

    @property
    def statistical_error(self) -> float:
        """Relative 1-sigma error sqrt(2/(n-1)) of a Gaussian variance estimate from n shots."""
        return float(np.sqrt(2.0 / (self.n_shots - 1)))

    @property
    def covariance_matrix(self) -> np.ndarray:
        return np.array([[self.var_x, self.cov_xp], [self.cov_xp, self.var_p]])

    @property
    def min_variance(self) -> float:
        return float(variance_extrema(self.covariance_matrix)[0])

    def to_dict(self) -> dict:
        return {**asdict(self), "statistical_error": self.statistical_error}


def corrected_variance(total_variance: float, kappa2: float) -> float:
    """Invert the output variance budget of :func:`~spintomo.probe.readout_model`.

    atomic_var = (total - noise) / gain, i.e. remove light shot noise and
    back-action, then undo the coupling gain.
    """
    if kappa2 <= 0:
        raise ValueError("kappa2 must be positive to invert the variance budget")
    gain, noise = readout_model(kappa2)
    return (total_variance - noise) / gain


def correct_covariance(record: MeasurementRecord) -> CorrectedCovariance:
    """Recover atomic canonical moments from a record by noise subtraction.

    A corrected variance more than 5 standard errors below zero cannot come
    from a physical state plus sampling noise and raises
    :class:`PhysicalityError`.
    """
    kappa2 = record.kappa2
    if kappa2 <= 0:
        raise ValueError("record has kappa2 = 0: the atomic signal is not invertible")
    n = record.n_shots
    if n < 2:
        raise ValueError("need at least 2 shots to estimate variances")
    y_c, y_s = record.y_c, record.y_s
    var_yc = float(np.var(y_c, ddof=1))
    var_ys = float(np.var(y_s, ddof=1))
    cov_cs = float(np.cov(y_c, y_s, ddof=1)[0, 1])
    gain, _ = readout_model(kappa2)
    amplitude_gain = np.sqrt(gain)
    corrected = CorrectedCovariance(
        mean_x=float(np.mean(y_c)) / amplitude_gain,
        mean_p=float(np.mean(y_s)) / amplitude_gain,
        var_x=corrected_variance(var_yc, kappa2),
        var_p=corrected_variance(var_ys, kappa2),
        cov_xp=cov_cs / gain,
        n_shots=n,
    )
    for name, val, raw in (
        ("var_x", corrected.var_x, var_yc),
        ("var_p", corrected.var_p, var_ys),
    ):
        if val < -5.0 * corrected.statistical_error * raw / gain:
            raise PhysicalityError(
                f"unphysical correction: {name} = {val:.6g} is more than "
                "5 standard errors below zero"
            )
    return corrected


@dataclass(frozen=True)
class OscillatorDensityMatrix:
    """Density matrix in the truncated excitation-number basis.

    The reconstruction is of the centered state; the subtracted means are
    reported alongside.  ``log_likelihoods`` holds the per-iteration binned
    log-likelihood trace of the fixed-point iteration that produced rho.

    rho must pass the :class:`~spintomo.spin_algebra.QuantumState` checks.
    The truncation-validity bound (top-level population < 1e-3) is enforced
    for converged results; an iterate stopped early at max_iter is returned
    flagged rather than rejected, since it has not yet drained the edge of
    the basis.
    """

    dim: int
    rho: np.ndarray
    mean_x: float = 0.0
    mean_p: float = 0.0
    n_iterations: int = 0
    converged: bool = True
    log_likelihoods: tuple = ()

    def __post_init__(self) -> None:
        rho = np.asarray(self.rho, dtype=complex)
        if rho.shape != (self.dim, self.dim):
            raise ValueError(f"rho must be {self.dim}x{self.dim}, got {rho.shape}")
        rho = QuantumState(rho).rho
        top = float(np.real(rho[self.dim - 1, self.dim - 1]))
        if self.converged and top >= 1e-3:
            raise PhysicalityError(
                f"population {top:.3g} of the highest level breaks the truncation "
                f"validity bound 1e-3; increase dim"
            )
        object.__setattr__(self, "rho", rho)

    @property
    def populations(self) -> np.ndarray:
        return np.real(np.diag(self.rho))

    def to_dict(self) -> dict:
        rho = self.rho
        return {
            "dim": self.dim,
            "mean_x": self.mean_x,
            "mean_p": self.mean_p,
            "n_iterations": self.n_iterations,
            "converged": self.converged,
            # row-major list of [re, im] pairs
            "rho_row_major_re_im": np.stack([rho.real, rho.imag], -1).reshape(-1, 2).tolist(),
        }


def _hermite_functions(n_max: int, x: np.ndarray) -> np.ndarray:
    """Orthonormal oscillator eigenfunctions psi_0..psi_n_max on grid x.

    Stable three-term recurrence on the functions themselves (the Gaussian
    is folded in from the start, so no overflow for moderate n).
    """
    psi = np.empty((n_max + 1, len(x)))
    psi[0] = np.pi**-0.25 * np.exp(-0.5 * x**2)
    if n_max >= 1:
        psi[1] = np.sqrt(2.0) * x * psi[0]
    for n in range(2, n_max + 1):
        psi[n] = np.sqrt(2.0 / n) * x * psi[n - 1] - np.sqrt((n - 1) / n) * psi[n - 2]
    return psi


def _binned_quadrature_povm(
    edges: np.ndarray,
    sigma_blur: float,
    dim: int,
) -> np.ndarray:
    """POVM elements of a Gaussian-blurred x-quadrature binned by ``edges``.

    Element k integrates |x><x| against the probability that the noisy
    outcome falls in bin k given true value x; the two outer bins absorb the
    tails, so the elements sum to the identity.  Returns (n_bins, dim, dim).
    """
    span = max(abs(edges[0]), abs(edges[-1]))
    half_width = max(span + 4.0 * sigma_blur, np.sqrt(2.0 * dim + 1.0) + 6.0)
    nodes, weights = np.polynomial.legendre.leggauss(1600)
    x = nodes * half_width
    w = weights * half_width
    psi = _hermite_functions(dim - 1, x)
    # bin membership probabilities for each true x: differences of the
    # cumulative probability at each edge, with 0 and 1 beyond the outer edges
    member = np.diff(ndtr((edges[:, None] - x) / sigma_blur), axis=0, prepend=0.0, append=1.0)
    povm = np.einsum("kx,nx,mx,x->knm", member, psi, psi, w, optimize=True)
    return povm


def _rotated_povm(povm_x: np.ndarray, theta: float, dim: int) -> np.ndarray:
    """Apply the quadrature rotation x -> x cos(theta) + p sin(theta)."""
    n = np.arange(dim)
    phase = np.exp(-1j * theta * (n[:, None] - n[None, :]))
    return povm_x * phase[None, :, :]


def mle_reconstruct(
    record: MeasurementRecord,
    dim: int = 10,
    max_iter: int = 5000,
    tol: float = 1e-10,
) -> OscillatorDensityMatrix:
    """Maximum-likelihood density matrix from a record, in dim levels.

    The record's outcomes are rescaled to atomic units, centered (the means
    are reported, not reconstructed), and binned per quadrature into 64 bins:
    62 equal ones over +-6 sample deviations plus two unbounded edge bins.  The
    fixed-point iteration rho <- N[R rho R], with R the frequency-weighted
    sum of POVM elements over their predicted probabilities, runs until the
    relative log-likelihood gain drops below ``tol``.  A step that would
    lower the likelihood is replaced by a diluted step, keeping the
    likelihood trace non-decreasing.
    """
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    kappa2 = record.kappa2
    if kappa2 <= 0:
        raise ValueError("record has kappa2 = 0: outcomes carry no atomic signal")

    gain, noise = readout_model(kappa2)
    outcomes = record.shots / np.sqrt(gain)
    means = outcomes.mean(axis=0)
    centered = outcomes - means
    sigma_blur = np.sqrt(noise / gain)
    spread = float(np.std(centered, ddof=1))
    edges = np.linspace(-6.0 * spread, 6.0 * spread, 63)

    povm_x = _binned_quadrature_povm(edges, sigma_blur, dim)
    povms = np.concatenate([povm_x, _rotated_povm(povm_x, np.pi / 2.0, dim)])
    full_edges = np.concatenate([[-np.inf], edges, [np.inf]])
    counts = np.concatenate(
        [
            np.histogram(centered[:, 0], bins=full_edges)[0],
            np.histogram(centered[:, 1], bins=full_edges)[0],
        ]
    ).astype(float)
    total = counts.sum()

    active = counts > 0
    povms_active = povms[active]
    freqs = counts[active] / total

    def log_likelihood(rho: np.ndarray) -> tuple[float, np.ndarray]:
        probs = np.real(np.einsum("kij,ji->k", povms_active, rho))
        probs = np.maximum(probs, 1e-300)
        return float(np.sum(counts[active] * np.log(probs))), probs

    def r_operator(probs: np.ndarray) -> np.ndarray:
        return np.einsum("k,kij->ij", freqs / probs, povms_active)

    rho = np.eye(dim, dtype=complex) / dim
    ll, probs = log_likelihood(rho)
    history = [ll]
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        r = r_operator(probs)
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
    if not converged:
        last_gain = history[-1] - history[-2] if len(history) > 1 else float("nan")
        warnings.warn(
            f"likelihood iteration stopped at max_iter={max_iter} with last gain "
            f"{last_gain:.3g} (tol {tol:g} relative)",
            RuntimeWarning,
            stacklevel=2,
        )

    return OscillatorDensityMatrix(
        dim=dim,
        rho=rho,
        mean_x=float(means[0]),
        mean_p=float(means[1]),
        n_iterations=iterations,
        converged=converged,
        log_likelihoods=tuple(history),
    )


def annihilation_operator(dim: int) -> np.ndarray:
    a = np.zeros((dim, dim), dtype=complex)
    n = np.arange(1, dim)
    a[n - 1, n] = np.sqrt(n)
    return a


def variances_from_rho(rho) -> CanonicalMoments:
    """Canonical (x, p) moments of a state in the truncated excitation basis.

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
    return CanonicalMoments.from_moments(*moments(padded, (x, p)))
