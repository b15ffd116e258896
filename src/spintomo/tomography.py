"""State reconstruction from measurement records.

Two complementary paths:

- :func:`correct_covariance` inverts the Gaussian variance budget of the
  probe (subtract light shot noise and back-action, rescale by the coupling)
  to recover the atomic covariance directly from sample moments.
- :func:`mle_reconstruct` finds the maximum-likelihood density matrix in a
  truncated excitation-number basis, treating each shot as two independent
  Gaussian-blurred quadrature measurements at angles 0 and pi/2, binned
  into a finite-outcome POVM.  Its solver certifies the result: it stops
  once a bound on the log-likelihood gap to the maximum is below 0.1.

Both consume the same records, so they cross-validate each other.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .errors import PhysicalityError
from .probe import MeasurementRecord, RecordStatistics, readout_model
from .spin_algebra import check_density, variance_extrema

__all__ = [
    "CorrectedCovariance",
    "OscillatorDensityMatrix",
    "correct_covariance",
    "mle_reconstruct",
]

# The MLE's basis size, step cap, and the bound on the log-likelihood gap to
# the maximum below which a result is converged: far below the 0.5 that a
# 1-sigma change of one parameter costs.
BASIS_DIM = 10
MAX_ITER = 5000
GAP_TOL = 0.1
# factor by which the solver's trial step grows each iteration
_STEP_GROWTH = 1.1
# probability below which correct_covariance calls a sample variance
# unphysical: Phi(-5), the one-sided 5-sigma tail
FLOOR_LEVEL = 0.5 * math.erfc(5.0 / math.sqrt(2.0))


def _readout_inverse(kappa2: float) -> tuple[float, float]:
    """:func:`readout_model` of kappa2; a gain of 0 cannot be inverted and raises ValueError."""
    gain, noise = readout_model(kappa2)
    if gain == 0:  # kappa2 = 0, or so small that kappa2/2 underflows
        raise ValueError(f"record has kappa2 = {kappa2:g}: the atomic signal is not invertible")
    return gain, noise


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


def correct_covariance(statistics: RecordStatistics) -> CorrectedCovariance:
    """Recover atomic canonical moments from a record's statistics by noise subtraction.

    ``statistics`` is a :class:`~spintomo.probe.RecordStatistics`, from
    ``MeasurementRecord.statistics`` or :func:`~spintomo.probe.simulated_statistics`:
    both variances and the cross term come from its sample covariance (ddof=1)
    of the (y_c, y_s) shots.  A physical state's output variance is at least
    the readout noise, so from n shots a sample variance s^2 = r * noise with
    r < 1 has probability at most P(chi2_k <= k r) <= exp(-(k/2)(r - 1 - ln r)),
    k = n - 1 (Chernoff's bound).  A variance whose bound is below
    ``FLOOR_LEVEL``, the one-sided 5-sigma tail, raises :class:`PhysicalityError`.
    """
    # variances invert var(y) = gain * var(atomic) + noise
    gain, noise = _readout_inverse(statistics.kappa2)
    (var_yc, cov_cs), (_, var_ys) = statistics.cov.tolist()
    mean_c, mean_s = statistics.mean.tolist()
    amplitude_gain = np.sqrt(gain)
    corrected = CorrectedCovariance(
        mean_x=mean_c / amplitude_gain,
        mean_p=mean_s / amplitude_gain,
        var_x=(var_yc - noise) / gain,
        var_p=(var_ys - noise) / gain,
        cov_xp=cov_cs / gain,
        n_shots=statistics.n_shots,
    )
    half_k = 0.5 * (statistics.n_shots - 1)
    for name, val, raw in (
        ("var_x", corrected.var_x, var_yc),
        ("var_p", corrected.var_p, var_ys),
    ):
        r = raw / noise
        if r < 1 and (r == 0 or half_k * (r - 1 - math.log(r)) > -math.log(FLOOR_LEVEL)):
            raise PhysicalityError(
                f"unphysical correction: {name} = {val:.6g}; a physical state gives a "
                f"sample variance this low with probability below {FLOOR_LEVEL:.3g}"
            )
    return corrected


@dataclass(frozen=True)
class OscillatorDensityMatrix:
    """Density matrix in the truncated excitation-number basis.

    The reconstruction is of the centered state; the subtracted means are
    reported alongside.

    rho must pass :func:`~spintomo.spin_algebra.check_density`.
    The truncation-validity bound (top-level population < 1e-3) is enforced
    for converged results; an iterate stopped early at MAX_ITER is returned
    flagged rather than rejected, since it has not yet drained the edge of
    the basis.  ``gap_bound`` bounds the log-likelihood gap between rho and
    the maximum-likelihood state (0 for a state given exactly).
    """

    rho: np.ndarray
    mean_x: float = 0.0
    mean_p: float = 0.0
    n_iterations: int = 0
    converged: bool = True
    gap_bound: float = 0.0

    def __post_init__(self) -> None:
        rho = check_density(self.rho)
        top = float(rho[-1, -1].real)
        if self.converged and not top < 1e-3:
            raise PhysicalityError(
                f"population {top:.3g} of the highest level breaks the truncation "
                "validity bound 1e-3"
            )
        object.__setattr__(self, "rho", rho)

    @property
    def populations(self) -> np.ndarray:
        return np.real(np.diag(self.rho))

    def to_dict(self) -> dict:
        rho = self.rho
        return {
            "dim": len(rho),
            "mean_x": self.mean_x,
            "mean_p": self.mean_p,
            "n_iterations": self.n_iterations,
            "converged": self.converged,
            "gap_bound": self.gap_bound,
            # row-major list of [re, im] pairs
            "rho_row_major_re_im": np.stack([rho.real, rho.imag], -1).reshape(-1, 2).tolist(),
        }


def _hermite_functions(n_max: int, x: np.ndarray) -> np.ndarray:
    """Orthonormal oscillator eigenfunctions psi_0..psi_n_max on grid x, for n_max >= 1.

    Stable three-term recurrence on the functions themselves (the Gaussian
    is folded in from the start, so no overflow for moderate n).
    """
    psi = np.empty((n_max + 1, len(x)))
    psi[0] = np.pi**-0.25 * np.exp(-0.5 * x**2)
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
    h = ``_QUADRATURE_STEP`` = 0.1 over +-(sqrt(2 dim + 1) + 6), 6 beyond the
    classical turning points of the basis.  Outside it the integrand, psi_n
    psi_m times a bin probability of at most 1, is below 1e-30, so the grid
    depends on the basis alone, not on the record.  The integrand, a Gaussian
    times a polynomial times a normal CDF of width ``sigma_blur``, is entire,
    so the rule converges exponentially in 1/h (Trefethen & Weideman, SIAM
    Rev. 56, 385 (2014)).  At the readout model's smallest blur,
    3 ** -0.25 ~ 0.76, its error at h = 0.1 is still far below round-off.
    """
    n_half = math.ceil((np.sqrt(2.0 * dim + 1.0) + 6.0) / _QUADRATURE_STEP)
    x = _QUADRATURE_STEP * np.arange(-n_half, n_half + 1)
    psi = _hermite_functions(dim - 1, x)
    # bin membership probabilities for each true x: differences of the
    # cumulative probability at each edge, with 0 and 1 beyond the outer edges;
    # the CDF is evaluated through erfc, elementwise (see _normal_cdf)
    cdf = _normal_cdf((edges[:, None] - x) / sigma_blur)
    member = np.diff(cdf, axis=0, prepend=0.0, append=1.0)
    return np.matmul((member * _QUADRATURE_STEP)[:, None, :] * psi, psi.T)


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
    quadratures that hold counts.  A record whose kappa2 gives no gain, or
    whose y_c or y_s shots are all equal, raises ValueError.  So does a
    record that cannot resolve the state: when one standard error of the
    outcome variance in atomic units, var sqrt(2 / (n - 1)), exceeds the
    Heisenberg-floor signal 1/2, every element is nearly a multiple of the
    identity and the likelihood is flat at I/dim.
    """
    gain, noise = _readout_inverse(record.kappa2)
    outcomes = record.shots / np.sqrt(gain)
    means = outcomes.mean(axis=0)
    centered = outcomes - means
    sigma_blur = np.sqrt(noise / gain)
    for name, column in zip(("y_c", "y_s"), record.shots.T):
        if np.all(column == column[0]):
            raise ValueError(
                f"record has zero spread: all {len(column)} {name} shots equal {column[0]:.6g}"
            )
    n = record.n_shots
    spread = float(np.std(centered, ddof=1))
    variance_error = spread**2 * math.sqrt(2.0 / (n - 1))
    if variance_error > 0.5:
        raise ValueError(
            f"record with kappa2 = {record.kappa2:g} and {n} shots cannot resolve the state: "
            f"the outcome variance has standard error {variance_error:.3g} in atomic units, "
            "above the Heisenberg-floor signal 1/2"
        )
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


def _density_projection(h: np.ndarray) -> np.ndarray:
    """The density matrix nearest to the Hermitian ``h`` in the Frobenius norm.

    It shares the eigenvectors of ``h``; its eigenvalues are those of ``h``
    projected onto the probability simplex, max(w - tau, 0) with tau set so
    they sum to 1 (Duchi et al., ICML 2008).
    """
    w, v = np.linalg.eigh(h)
    # tau from the at most BASIS_DIM eigenvalues in descending order: the mean excess
    # over 1 of the largest k, for the largest k whose k-th value exceeds it
    total, kept, excess = 0.0, 0, []
    for k, value in enumerate(w.tolist()[::-1], 1):
        total += value
        excess.append((total - 1.0) / k)
        kept += value > excess[-1]  # a leading run of the descending order
    return (v * np.maximum(w - excess[kept - 1], 0.0)).dot(v.conj().T)


def _apg_mle(povms: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, int, float, list[float]]:
    """(rho, iterations, gap bound, log-likelihood trace) of the maximum-likelihood state.

    Maximizes l(rho) = sum_k counts_k log p_k, p_k = Tr(P_k rho), over
    density matrices by accelerated projected gradient with adaptive restart
    (Shang, Zhang & Ng, Phys. Rev. A 95, 062336 (2017)) on -l / N, N the
    total count, whose gradient is -R with R = sum_k f_k / p_k P_k and
    f_k = counts_k / N.  From I/d, each iteration steps from the
    extrapolated point y to the projection (:func:`_density_projection`) of
    y + t R(y), halving t until the step meets the sufficient-decrease test
    of the quadratic model; t grows by ``_STEP_GROWTH`` per iteration.  The
    momentum restarts from the current iterate when the step from y would
    lower the likelihood or leave some p_k <= 0, and when y itself has some
    p_k <= 0; a step from the iterate meets the test only if it lowers
    nothing, so no accepted step lowers the likelihood beyond round-off.

    After each step the likelihood gap to the maximum is bounded by
    N (lambda_max(R(rho)) - 1), since l is concave and Tr(rho R(rho)) = 1
    (Glancy, Knill & Girard, New J. Phys. 14, 095017 (2012)); the solver
    stops when that bound is below ``GAP_TOL``, or after ``MAX_ITER`` steps.
    The bound is computed, by ``eigvalsh``, only when it could be below
    ``GAP_TOL``: the Rayleigh quotient u^dag R u at the top eigenvector u of
    R at the last such solve is a lower bound on lambda_max(R), so a
    quotient at or above 1 + GAP_TOL / N (plus a margin for round-off) rules
    the stop out.  Each solve that does not stop refreshes u by ``eigh``.
    The last step of a ``MAX_ITER`` run always solves, so the bound returned
    is the exact one at the returned iterate.
    A bin that I/d gives no probability cannot be reached by any state of
    the basis and raises :class:`PhysicalityError`.

    Products with the (K, d, d) stack go through its float64 (re, im) view,
    (K, 2 d^2): p is that view times the view of vec(rho), since
    Re sum_ij conj((P_k)_ij) rho_ij is Tr(P_k rho) for Hermitian P_k, and R
    is the weights f / p times it, viewed back as complex.  Complex products
    of this size would hand work to a second OpenBLAS thread, which then
    spins on after the solver returns.
    """
    k, dim, _ = povms.shape
    flat = povms.reshape(k, dim * dim).view(np.float64)
    total = counts.sum()
    freqs = counts / total

    def probabilities(state: np.ndarray) -> np.ndarray:
        return flat.dot(state.reshape(-1).view(np.float64))

    def cost(p: np.ndarray) -> float:
        """-l / N, or inf where some p_k <= 0."""
        return -float(freqs.dot(np.log(p))) if p.min() > 0.0 else np.inf

    def weighted_sum(p: np.ndarray) -> np.ndarray:
        """R = sum_k f_k / p_k P_k, in the float64 view of vec(R)."""
        return (freqs / p).dot(flat)

    def descend(y, p_y, f_y, t, extrapolated):
        """Backtracked projected-gradient step from y, with its p, cost and step size.

        From an ``extrapolated`` point a step that leaves some p_k <= 0 is
        returned at once, with cost inf, for the caller to restart.
        """
        r = weighted_sum(p_y)
        while True:
            c = _density_projection(y + t * r.view(np.complex128).reshape(dim, dim))
            p_c = probabilities(c)
            f_c = cost(p_c)
            d = (c - y).reshape(-1).view(np.float64)
            if f_c <= f_y - r.dot(d) + d.dot(d) / (2.0 * t) or (extrapolated and f_c == np.inf):
                return c, p_c, f_c, t
            t *= 0.5

    rho = np.eye(dim, dtype=complex) / dim
    p = probabilities(rho)
    if not p.min() > 0.0:
        raise PhysicalityError(
            f"{np.count_nonzero(p <= 0.0)} occupied bins lie beyond the reach of the "
            f"{dim}-level basis"
        )
    f = cost(p)
    history = [-total * f]
    y, p_y, f_y = rho, p, f
    theta, t, gap = 1.0, 1.0, np.inf
    # Rayleigh quotients of R at or above this prove gap >= GAP_TOL, with a margin far
    # above the round-off of the quotient and of eigvalsh
    open_gap = (1.0 + GAP_TOL / total) * (1.0 + 1e-12)
    top = None  # top eigenvector of R at the last exact solve
    iterations = 0
    for iterations in range(1, MAX_ITER + 1):
        c, p_c, f_c, t = descend(y, p_y, f_y, t, extrapolated=y is not rho)
        if f_c > f and y is not rho:  # the momentum overshot: restart from the iterate
            theta = 1.0
            c, p_c, f_c, t = descend(rho, p, f, t, extrapolated=False)
        previous, rho, p, f = rho, c, p_c, f_c
        history.append(-total * f)
        r = weighted_sum(p).view(np.complex128).reshape(dim, dim)
        if top is None or iterations == MAX_ITER or top.conj().dot(r.dot(top)).real < open_gap:
            gap = total * (np.linalg.eigvalsh(r)[-1] - 1.0)
            if gap < GAP_TOL:
                break
            top = np.linalg.eigh(r)[1][:, -1]
        theta_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta))
        y = rho + ((theta - 1.0) / theta_next) * (rho - previous)
        theta = theta_next
        p_y = probabilities(y)
        f_y = cost(p_y)
        if f_y == np.inf:
            y, p_y, f_y, theta = rho, p, f, 1.0
        t *= _STEP_GROWTH
    return rho, iterations, float(gap), history


def mle_reconstruct(record: MeasurementRecord) -> OscillatorDensityMatrix:
    """Maximum-likelihood density matrix from a record, in ``BASIS_DIM`` levels.

    The record's outcomes are rescaled to atomic units, centered (the means
    are reported, not reconstructed), and binned per quadrature into 64 bins
    (see :func:`_binned_povm`).  The likelihood is maximized by accelerated
    projected gradient (see :func:`_apg_mle`) from I/BASIS_DIM, never
    lowering the likelihood, until the certified bound on its gap to the
    maximum falls below ``GAP_TOL`` = 0.1 log-likelihood units; the result
    is then ``converged`` and reports the bound as ``gap_bound``.  After
    ``MAX_ITER`` steps the iterate is returned unconverged, with a
    RuntimeWarning.  A record whose kappa2 gives no gain, whose y_c or y_s
    shots are all equal, or whose outcomes cannot resolve the state (see
    :func:`_binned_povm`) raises ValueError.
    """
    means, povms, counts = _binned_povm(record, BASIS_DIM)
    rho, iterations, gap, _ = _apg_mle(povms, counts)
    converged = gap < GAP_TOL
    if not converged:
        warnings.warn(
            f"likelihood iteration stopped at max_iter={MAX_ITER} with likelihood-gap "
            f"bound {gap:.3g} (tol {GAP_TOL:g})",
            RuntimeWarning,
            stacklevel=2,
        )

    return OscillatorDensityMatrix(
        rho=rho,
        mean_x=float(means[0]),
        mean_p=float(means[1]),
        n_iterations=iterations,
        converged=converged,
        gap_bound=gap,
    )
