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

import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConvergenceError, PhysicalityError
from .probe import MeasurementRecord, readout_model
from .spin_algebra import QuantumState, variance_extrema

__all__ = [
    "CorrectedCovariance",
    "OscillatorDensityMatrix",
    "correct_covariance",
    "mle_reconstruct",
]


@dataclass(frozen=True)
class CorrectedCovariance:
    """Atomic canonical moments recovered from a record, with sampling error.

    Unlike a model covariance this is a sampled estimate, so it need not
    respect the Heisenberg floor.
    """

    mean_x: float
    mean_p: float
    var_x: float
    var_p: float
    cov_xp: float
    n_shots: int

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


def correct_covariance(record: MeasurementRecord) -> CorrectedCovariance:
    """Recover atomic canonical moments from a record by noise subtraction.

    A corrected variance more than 5 standard errors below zero cannot come
    from a physical state plus sampling noise and raises
    :class:`PhysicalityError`.
    """
    # variances invert var(y) = gain * var(atomic) + noise
    kappa2 = record.kappa2
    gain, noise = readout_model(kappa2)
    if gain == 0:  # kappa2 = 0, or so small that kappa2/2 underflows
        raise ValueError(f"record has kappa2 = {kappa2:g}: the atomic signal is not invertible")
    n = record.n_shots
    if n < 2:
        raise ValueError("need at least 2 shots to estimate variances")
    y_c, y_s = record.y_c, record.y_s
    var_yc = float(np.var(y_c, ddof=1))
    var_ys = float(np.var(y_s, ddof=1))
    cov_cs = float(np.cov(y_c, y_s, ddof=1)[0, 1])
    amplitude_gain = np.sqrt(gain)
    corrected = CorrectedCovariance(
        mean_x=float(np.mean(y_c)) / amplitude_gain,
        mean_p=float(np.mean(y_s)) / amplitude_gain,
        var_x=(var_yc - noise) / gain,
        var_p=(var_ys - noise) / gain,
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


def _normal_cdf(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF Phi(z) = erfc(-z / sqrt 2) / 2, on the standard library's erfc."""
    return 0.5 * np.frompyfunc(math.erfc, 1, 1)(-z / np.sqrt(2.0)).astype(float)


# Node spacing of the trapezoidal rule behind every POVM element.
_QUADRATURE_STEP = 0.1


def _binned_quadrature_povm(
    edges: np.ndarray,
    sigma_blur: float,
    dim: int,
) -> np.ndarray:
    """POVM elements of a Gaussian-blurred x-quadrature binned by ``edges``.

    Element k integrates |x><x| against the probability that the noisy
    outcome falls in bin k given true value x; the two outer bins absorb the
    tails, so the elements sum to the identity.  Returns (n_bins, dim, dim).

    The integrals use the trapezoidal rule on a uniform grid of spacing
    h = ``_QUADRATURE_STEP`` = 0.1 over +-half_width, where the integrand has
    decayed below round-off.  The integrand, a Gaussian times a polynomial
    times a normal CDF of width ``sigma_blur``, is entire, so the rule
    converges exponentially in 1/h (Trefethen & Weideman, SIAM Rev. 56, 385
    (2014)).  At the readout model's smallest blur, 3 ** -0.25 ~ 0.76, its
    error at h = 0.1 is still far below round-off.
    """
    span = max(abs(edges[0]), abs(edges[-1]))
    half_width = max(span + 4.0 * sigma_blur, np.sqrt(2.0 * dim + 1.0) + 6.0)
    n_half = math.ceil(half_width / _QUADRATURE_STEP)
    x = _QUADRATURE_STEP * np.arange(-n_half, n_half + 1)
    psi = _hermite_functions(dim - 1, x)
    # bin membership probabilities for each true x: differences of the
    # cumulative probability at each edge, with 0 and 1 beyond the outer edges;
    # the CDF is evaluated through erfc, elementwise (see _normal_cdf)
    cdf = _normal_cdf((edges[:, None] - x) / sigma_blur)
    member = np.diff(cdf, axis=0, prepend=0.0, append=1.0)
    return np.einsum("kx,nx,mx->knm", member * _QUADRATURE_STEP, psi, psi, optimize=True)


def _rotated_povm(povm_x: np.ndarray, theta: float, dim: int) -> np.ndarray:
    """POVM of the quadrature x cos(theta) + p sin(theta) from that of x.

    With U = exp(-i theta n), U^dag x U = (a e^(-i theta) + a^dag e^(i theta)) / sqrt 2
    is that quadrature, so each element becomes U^dag P U, whose (n, m) entry
    is e^(+i theta (n - m)) P_nm.
    """
    n = np.arange(dim)
    phase = np.exp(1j * theta * (n[:, None] - n[None, :]))
    return povm_x * phase[None, :, :]


def _binned_povm(record: MeasurementRecord, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(means, povms, counts) of a record binned per quadrature, empty bins dropped.

    The outcomes are rescaled to atomic units and centered; ``means`` holds
    the two subtracted means.  Each quadrature is binned into 64 bins: 62
    equal ones over +-6 sample deviations plus two unbounded edge bins.
    ``povms`` (K, dim, dim) and ``counts`` (K,) keep the K bins of both
    quadratures that hold counts.  A record whose y_c or y_s shots are all
    equal has no spread to bin and raises ValueError.
    """
    gain, noise = readout_model(record.kappa2)
    outcomes = record.shots / np.sqrt(gain)
    means = outcomes.mean(axis=0)
    centered = outcomes - means
    sigma_blur = np.sqrt(noise / gain)
    for name, column in zip(("y_c", "y_s"), record.shots.T):
        if np.all(column == column[0]):
            raise ValueError(
                f"record has zero spread: all {len(column)} {name} shots equal {column[0]:.6g}"
            )
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
    active = counts > 0
    return means, povms[active], counts[active]


def _rrr_iteration(
    povms: np.ndarray, counts: np.ndarray, max_iter: int, tol: float
) -> tuple[np.ndarray, int, bool, list[float]]:
    """(rho, iterations, converged, log-likelihood trace) of the RrhoR fixed point.

    Starting from I/d, rho <- N[R rho R], with R = sum_k f_k / p_k P_k the
    frequency-weighted sum of the (K, d, d) POVM elements over their
    predicted probabilities p_k = Tr(P_k rho), runs until the log-likelihood
    sum_k counts_k log p_k gains less than ``tol`` relative, or for
    ``max_iter`` steps.  A step that would lower the likelihood by more than
    1e-12 relative is replaced by a step diluted toward the identity,
    rho <- N[M rho M^dag] with M = (I + eps R) / (1 + eps) and eps halved from
    1 until it ascends, so the trace is non-decreasing; when no eps above
    1e-8 ascends, ConvergenceError names the iteration.  Each candidate is
    Hermitized as c + c^dag and divided by its trace, so the factor 2 cancels.

    The iteration is bound by numpy call overhead, not arithmetic, so each
    step is a handful of calls on the stack flattened once to its float64
    (re, im) view, (K, 2 d^2): p is that view times the view of vec(rho),
    since Re sum_ij conj((P_k)_ij) rho_ij is Tr(P_k rho) for Hermitian P_k,
    and R is the weights f / p times it, viewed back as complex.  Complex
    products of this size would hand work to a second OpenBLAS thread,
    which then spins through the iteration and about 0.1 s beyond it.
    """
    k, dim, _ = povms.shape
    flat = povms.reshape(k, dim * dim).view(np.float64)
    freqs = counts / counts.sum()

    def log_likelihood(rho: np.ndarray) -> tuple[float, np.ndarray]:
        p = flat.dot(rho.reshape(-1).view(np.float64))
        np.maximum(p, 1e-300, out=p)
        return float(counts.dot(np.log(p))), p

    rho = np.eye(dim, dtype=complex) / dim
    ll, probs = log_likelihood(rho)
    history = [ll]
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        r = (freqs / probs).dot(flat).view(np.complex128).reshape(dim, dim)
        candidate = r.dot(rho).dot(r)
        candidate += candidate.conj().T
        candidate /= candidate.trace().real
        new_ll, new_probs = log_likelihood(candidate)
        if new_ll < ll - 1e-12 * abs(ll):
            # dilute toward the identity direction until the step ascends
            eps = 1.0
            while eps > 1e-8:
                mixed = (np.eye(dim) + eps * r) / (1.0 + eps)
                candidate = mixed @ rho @ mixed.conj().T
                candidate += candidate.conj().T
                candidate /= candidate.trace().real
                new_ll, new_probs = log_likelihood(candidate)
                if new_ll >= ll - 1e-12 * abs(ll):
                    break
                eps /= 2.0
            else:
                raise ConvergenceError(
                    f"likelihood iteration stalled at iteration {iterations}: "
                    f"no ascending step found"
                )
        rise = new_ll - ll
        rho, ll, probs = candidate, new_ll, new_probs
        history.append(ll)
        if rise < tol * abs(ll):
            converged = True
            break
    return rho, iterations, converged, history


def mle_reconstruct(
    record: MeasurementRecord,
    dim: int = 10,
    max_iter: int = 5000,
    tol: float = 1e-10,
) -> OscillatorDensityMatrix:
    """Maximum-likelihood density matrix from a record, in dim levels.

    The record's outcomes are rescaled to atomic units, centered (the means
    are reported, not reconstructed), and binned per quadrature into 64 bins
    (see :func:`_binned_povm`).  The fixed-point iteration rho <- N[R rho R]
    (see :func:`_rrr_iteration`) starts from I/dim and runs until the
    relative log-likelihood gain drops below ``tol``; a step that would lower
    the likelihood is replaced by a diluted step, keeping the likelihood
    trace non-decreasing.  After ``max_iter`` steps the iterate is returned
    unconverged, with a RuntimeWarning.  A record whose y_c or y_s shots are
    all equal has no spread to bin and raises ValueError.
    """
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    if record.kappa2 <= 0:
        raise ValueError("record has kappa2 = 0: outcomes carry no atomic signal")
    means, povms, counts = _binned_povm(record, dim)
    rho, iterations, converged, history = _rrr_iteration(povms, counts, max_iter, tol)
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

