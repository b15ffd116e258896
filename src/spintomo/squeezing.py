"""Squeezing diagnostics: transverse covariance, optimal quadrature angle,
the three squeezing parameters, countertwisting limits, and Husimi grids.

The three parameters compare the minimal transverse variance v_min of a spin
state to three references:

    chi2  = 2 v_min / j_initial          (initial spin length)
    zeta2 = 2 v_min / |<F>|              (coherent state with the same mean spin)
    xi2   = 2 j_initial v_min / |<F>|^2  (initial angular resolution)

All are per-atom quantities; for an ensemble of N identical uncorrelated
atoms both v_min and the spin lengths scale with N, so the parameters are
N-independent (checked, not assumed, via the ``n_atoms`` argument).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .dynamics import tact_hamiltonian
from .errors import PhysicalityError
from .spin_algebra import (
    QuantumState,
    SpinQuantumNumber,
    coherent_state_vector,
    moments,
    spin_operators,
    variance_extrema,
)

__all__ = [
    "SqueezingReport",
    "TactOptimum",
    "HusimiGrid",
    "optimal_quadrature_angle",
    "squeezing_report",
    "tact_optimum",
    "husimi",
]


@dataclass(frozen=True)
class SqueezingReport:
    """Mean spin, transverse covariance and squeezing parameters of one state.

    ``cov`` is the symmetric 2x2 covariance matrix of the transverse pair
    (F_y', F_z') in the frame whose x' axis points along the mean spin;
    ``optimal_angle`` is the angle in that plane minimizing the variance of
    cos(t) F_y' + sin(t) F_z', in (-pi/2, pi/2].
    """

    mean_spin: np.ndarray
    cov: np.ndarray
    optimal_angle: float
    chi2: float
    zeta2: float
    xi2: float
    j_initial: float

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean_spin, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.shape != (3,) or cov.shape != (2, 2):
            raise ValueError("mean_spin must be a 3-vector and cov a 2x2 matrix")
        if abs(cov[0, 1] - cov[1, 0]) > 1e-10:
            raise ValueError("covariance matrix must be symmetric")
        scale = max(abs(cov).max(), 1.0)
        if variance_extrema(cov)[0] < -1e-10 * scale:
            raise PhysicalityError("transverse covariance is not positive semidefinite")
        for a in (mean, cov):
            a.setflags(write=False)
        object.__setattr__(self, "mean_spin", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def mean_spin_length(self) -> float:
        return float(np.linalg.norm(self.mean_spin))

    @property
    def min_variance(self) -> float:
        """Transverse variance at the optimal angle: the smaller eigenvalue of ``cov``."""
        return float(variance_extrema(self.cov)[0])

    @property
    def max_variance(self) -> float:
        """Transverse variance at 90 degrees from the optimal angle: the larger eigenvalue."""
        return float(variance_extrema(self.cov)[1])


def optimal_quadrature_angle(cov: np.ndarray) -> float:
    """Angle in (-pi/2, pi/2] minimizing the quadrature variance of a 2x2 covariance.

    Closed form: the variance along angle t is A + R cos(2t - phase), so the
    minimum sits at (phase + pi)/2 folded into the principal branch.  An
    isotropic covariance has no preferred angle and returns 0 by convention.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (2, 2):
        raise ValueError(f"cov must be 2x2, got {cov.shape}")
    v_min, v_max = variance_extrema(cov)
    if v_max - v_min <= 1e-12 * max(v_max + v_min, 1e-300):
        return 0.0
    theta = (np.arctan2(cov[0, 1] + cov[1, 0], cov[0, 0] - cov[1, 1]) + np.pi) / 2.0
    return float(theta - np.pi if theta > np.pi / 2.0 else theta)


def _transverse_frame(direction: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic orthonormal pair spanning the plane orthogonal to ``direction``.

    Reduces to (y, z) when the mean spin points along +x.
    """
    n = direction / np.linalg.norm(direction)
    ey = np.array([0.0, 1.0, 0.0])
    ez = np.array([0.0, 0.0, 1.0])
    e2 = ey - (ey @ n) * n
    if np.linalg.norm(e2) < 1e-8:
        e2 = ez - (ez @ n) * n
    e2 /= np.linalg.norm(e2)
    e3 = np.cross(n, e2)
    return e2, e3


def squeezing_report(
    state: QuantumState,
    j_initial: float | None = None,
    n_atoms: float = 1.0,
) -> SqueezingReport:
    """Squeezing parameters of a state relative to the initial spin length.

    j_initial defaults to F (fully polarized single atom).  ``n_atoms``
    rescales every moment to ensemble level before forming the ratios;
    the result is independent of it.  The mean spin and its 3x3 covariance
    come from one :func:`~spintomo.spin_algebra.moments` call; the transverse
    covariance is their projection onto the plane orthogonal to the mean.
    """
    ops = spin_operators(state.spin)
    if j_initial is None:
        j_initial = ops.f.f_value
    if j_initial <= 0:
        raise ValueError(f"j_initial must be positive, got {j_initial}")
    if n_atoms <= 0:
        raise ValueError(f"n_atoms must be positive, got {n_atoms}")

    mean, cov_spin = moments(state.rho, (ops.fx, ops.fy, ops.fz))
    length = np.linalg.norm(mean)
    if length < 1e-9:
        raise PhysicalityError(
            "mean spin collapsed: squeezing parameters referenced to |<F>| are undefined"
        )

    # covariance of (F_y', F_z') = E C E^T with E the rows of the transverse frame
    frame = np.array(_transverse_frame(mean))
    cov = frame @ cov_spin @ frame.T
    angle = optimal_quadrature_angle(cov)
    v_min = float(variance_extrema(cov)[0])

    # ensemble scaling: every term is linear in N, so the ratios cancel it
    v_ens = n_atoms * v_min
    len_ens = n_atoms * length
    j_ens = n_atoms * j_initial
    chi2 = 2.0 * v_ens / j_ens
    zeta2 = 2.0 * v_ens / len_ens
    xi2 = 2.0 * j_ens * v_ens / len_ens**2

    return SqueezingReport(
        mean_spin=mean,
        cov=cov,
        optimal_angle=angle,
        chi2=chi2,
        zeta2=zeta2,
        xi2=xi2,
        j_initial=float(j_initial),
    )


@dataclass(frozen=True)
class TactOptimum:
    """Per-parameter minima of the countertwisting scan for one spin.

    The reported values are the minima of the first squeezing window: the
    interval from t=0 up to the first turning point of each parameter.  The
    evolution revives and can dip again at later times, but those recurrences
    live on a collapsed mean spin and are not the operating point.  ``report``
    is the full squeezing report at the zeta2-optimal time.
    """

    f: SpinQuantumNumber
    chi2_min: float
    chi2_time: float
    zeta2_min: float
    zeta2_time: float
    xi2_min: float
    xi2_time: float
    report: SqueezingReport
    scan_points: int
    refine_tol: float


def _first_local_min(values: np.ndarray) -> int:
    """Index of the first interior local minimum, or argmin if none exists."""
    inner = values[1:-1]
    hits = np.flatnonzero((inner < values[:-2]) & (inner <= values[2:]))
    return int(hits[0]) + 1 if hits.size else int(np.argmin(values))


def tact_optimum(f, scan_points: int = 2000, refine_tol: float = 1e-6) -> TactOptimum:
    """Scan countertwisting evolution of a polarized spin for its squeezing limits.

    Evolves the coherent state along +x under Fz^2 - Fy^2 over the scaled
    time alpha*t in (0, pi], locates the first minimum of each squeezing
    parameter on a uniform grid, and refines it by bounded golden-section
    search to ``refine_tol``.  The whole grid is one batched
    :func:`~spintomo.spin_algebra.moments` call on the stack of scanned
    states; the refinement evaluates the same code at a single time.
    """
    f = SpinQuantumNumber.coerce(f)
    if f.two_f < 2:
        raise ValueError(
            f"F={f.f_value:g} cannot squeeze: Fz^2 - Fy^2 generates no twisting "
            "below F=1 (for F=1/2 both squares are proportional to the identity)"
        )
    ops = spin_operators(f)
    h = tact_hamiltonian(ops, 1.0)
    w, v = np.linalg.eigh(h.matrix)
    coeffs = v.conj().T @ coherent_state_vector(f, np.pi / 2.0, 0.0)
    j_init = f.f_value

    def states_at(taus: np.ndarray) -> np.ndarray:
        return (np.exp(-1j * np.multiply.outer(taus, w)) * coeffs) @ v.T

    def params_at(taus: np.ndarray) -> np.ndarray:
        # Collapse-safe (chi2, zeta2, xi2) rows, one per time.  The mean spin
        # of this evolution stays on the +-x axis by symmetry, so the
        # transverse plane is the fixed (y, z) plane and chi2 remains finite
        # even where the others diverge with |<F>| -> 0.
        psi = states_at(taus)
        rho = np.einsum("ni,nj->nij", psi, psi.conj())
        mean, cov = moments(rho, (ops.fx, ops.fy, ops.fz))
        v_min = variance_extrema(cov[:, 1:, 1:])[0]
        length = np.abs(mean[:, 0])
        collapsed = length < 1e-12
        length = np.where(collapsed, 1.0, length)
        zeta2 = np.where(collapsed, np.inf, 2.0 * v_min / length)
        xi2 = np.where(collapsed, np.inf, 2.0 * j_init * v_min / length**2)
        return np.stack([2.0 * v_min / j_init, zeta2, xi2], axis=1)

    taus = np.linspace(np.pi / scan_points, np.pi, scan_points)
    table = params_at(taus)

    minima = {}
    for col, name in enumerate(("chi2", "zeta2", "xi2")):
        i = _first_local_min(table[:, col])
        lo = taus[max(i - 1, 0)]
        hi = taus[min(i + 1, scan_points - 1)]
        res = minimize_scalar(
            lambda tau, c=col: params_at(np.array([tau]))[0, c],
            bounds=(lo, hi),
            method="bounded",
            options={"xatol": refine_tol},
        )
        minima[name] = (float(res.fun), float(res.x))

    psi_best = states_at(np.array([minima["zeta2"][1]]))[0]
    best_report = squeezing_report(QuantumState.from_vector(psi_best), j_initial=j_init)
    return TactOptimum(
        f=f,
        chi2_min=minima["chi2"][0],
        chi2_time=minima["chi2"][1],
        zeta2_min=minima["zeta2"][0],
        zeta2_time=minima["zeta2"][1],
        xi2_min=minima["xi2"][0],
        xi2_time=minima["xi2"][1],
        report=best_report,
        scan_points=scan_points,
        refine_tol=refine_tol,
    )


@dataclass(frozen=True)
class HusimiGrid:
    """Spin Husimi function Q(theta, phi) = <theta,phi|rho|theta,phi> on a grid.

    The grid is equiangular with midpoint nodes: theta_i = (i + 1/2) pi / n_theta,
    phi_j = (j + 1/2) 2 pi / n_phi.  With the SU(2) resolution of identity the
    quadrature-weighted sum times (2F+1)/(4 pi) approximates 1.
    """

    f: SpinQuantumNumber
    thetas: np.ndarray
    phis: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.shape != (len(self.thetas), len(self.phis)):
            raise ValueError("values shape must be (n_theta, n_phi)")
        if values.min() < -1e-12 or values.max() > 1.0 + 1e-12:
            raise PhysicalityError("Husimi values must lie in [0, 1]")
        for name in ("thetas", "phis", "values"):
            a = np.asarray(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def n_theta(self) -> int:
        return len(self.thetas)

    @property
    def n_phi(self) -> int:
        return len(self.phis)

    def normalization(self) -> float:
        """Quadrature-weighted sum scaled by (2F+1)/(4 pi); approx 1 on fine grids."""
        d_theta = np.pi / self.n_theta
        d_phi = 2.0 * np.pi / self.n_phi
        weighted = (self.values * np.sin(self.thetas)[:, None]).sum() * d_theta * d_phi
        return float(weighted * (self.f.two_f + 1) / (4.0 * np.pi))

    def to_csv(self, stream, header_comments: dict | None = None) -> None:
        """Write rows (theta, phi, value); angles in radians."""
        for key, val in (header_comments or {}).items():
            stream.write(f"# {key}={val}\n")
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["theta_rad", "phi_rad", "q_value"])
        for i, theta in enumerate(self.thetas):
            for j, phi in enumerate(self.phis):
                writer.writerow(
                    [f"{theta:.17g}", f"{phi:.17g}", f"{self.values[i, j]:.17g}"]
                )

    def to_csv_text(self, header_comments: dict | None = None) -> str:
        buf = io.StringIO()
        self.to_csv(buf, header_comments)
        return buf.getvalue()


def husimi(state: QuantumState, n_theta: int, n_phi: int) -> HusimiGrid:
    """Evaluate the Husimi function of a spin state on an equiangular grid."""
    if n_theta < 2 or n_phi < 2:
        raise ValueError("grid must have at least 2 nodes per axis")
    f = state.spin
    thetas = (np.arange(n_theta) + 0.5) * np.pi / n_theta
    phis = (np.arange(n_phi) + 0.5) * 2.0 * np.pi / n_phi
    # stack all coherent-state amplitudes, then evaluate <psi|rho|psi> in bulk
    amps = np.empty((n_theta, n_phi, f.dimension), dtype=complex)
    for i, theta in enumerate(thetas):
        for j, phi in enumerate(phis):
            amps[i, j] = coherent_state_vector(f, theta, phi)
    values = np.real(np.einsum("ijd,de,ije->ij", amps.conj(), state.rho, amps))
    values = np.clip(values, 0.0, 1.0)
    return HusimiGrid(f=f, thetas=thetas, phis=phis, values=values)
