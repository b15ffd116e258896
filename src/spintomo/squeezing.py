"""Squeezing diagnostics: transverse covariance, the three squeezing
parameters, countertwisting limits, and Husimi grids.

The three parameters compare the minimal transverse variance v_min of a spin
state to three references:

    chi2  = 2 v_min / F          (initial spin length of the polarized atom)
    zeta2 = 2 v_min / |<F>|      (coherent state with the same mean spin)
    xi2   = 2 F v_min / |<F>|^2  (initial angular resolution)

All are per-atom quantities; for an ensemble of N identical uncorrelated
atoms both v_min and the spin lengths scale with N, so the ratios are
N-independent.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

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
from .tables import write_table

__all__ = [
    "SqueezingReport",
    "TactOptimum",
    "HusimiGrid",
    "squeezing_report",
    "tact_optimum",
    "husimi",
]

# countertwisting scan of tact_optimum: grid points over (0, pi], points per
# bracket of each zoom step, and the grid step at which the zoom stops
SCAN_POINTS = 2000
BRACKET_POINTS = 32
REFINE_TOL = 1e-6

# most nodes a Husimi grid may have: 10^6 nodes of an F = 4 state take 144 MB
# of coherent-state amplitudes
MAX_GRID_NODES = 10**6


@dataclass(frozen=True)
class SqueezingReport:
    """Mean spin, transverse covariance and squeezing parameters of one state.

    ``cov`` is the symmetric 2x2 covariance matrix of the transverse pair
    (F_y', F_z') in the frame whose x' axis points along the mean spin.
    """

    mean_spin: np.ndarray
    cov: np.ndarray
    chi2: float
    zeta2: float
    xi2: float

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean_spin, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.shape != (3,) or cov.shape != (2, 2):
            raise ValueError("mean_spin must be a 3-vector and cov a 2x2 matrix")
        if abs(cov[0, 1] - cov[1, 0]) > 1e-10:
            raise ValueError("covariance matrix must be symmetric")
        scale = max(abs(cov).max(), 1.0)
        if not variance_extrema(cov)[0] >= -1e-10 * scale:
            raise PhysicalityError("transverse covariance is not positive semidefinite")
        for a in (mean, cov):
            a.setflags(write=False)
        object.__setattr__(self, "mean_spin", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def mean_spin_length(self) -> float:
        return float(np.linalg.norm(self.mean_spin))


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


def _squeezing_parameters(v_min, length, f_value):
    """(chi2, zeta2, xi2) of the module docstring; broadcasts over arrays."""
    return 2.0 * v_min / f_value, 2.0 * v_min / length, 2.0 * f_value * v_min / length**2


def squeezing_report(state: QuantumState) -> SqueezingReport:
    """Squeezing parameters of a state relative to the initial spin length F.

    The mean spin and its 3x3 covariance come from one
    :func:`~spintomo.spin_algebra.moments` call; the transverse covariance is
    their projection onto the plane orthogonal to the mean.  A mean spin
    shorter than 1e-9 has no transverse plane and raises
    :class:`PhysicalityError`.
    """
    ops = spin_operators(state.spin)
    mean, cov_spin = moments(state.rho, (ops.fx, ops.fy, ops.fz))
    length = np.linalg.norm(mean)
    if length < 1e-9:
        raise PhysicalityError(
            "mean spin collapsed: squeezing parameters referenced to |<F>| are undefined"
        )

    # covariance of (F_y', F_z') = E C E^T with E the rows of the transverse frame
    frame = np.array(_transverse_frame(mean))
    cov = frame @ cov_spin @ frame.T
    v_min = float(variance_extrema(cov)[0])
    chi2, zeta2, xi2 = _squeezing_parameters(v_min, length, ops.f.f_value)
    return SqueezingReport(mean_spin=mean, cov=cov, chi2=chi2, zeta2=zeta2, xi2=xi2)


@dataclass(frozen=True)
class TactOptimum:
    """Per-parameter minima of the countertwisting scan for one spin: one ``limits`` row.

    The reported values are the minima of the first squeezing window: the
    interval from t=0 up to the first turning point of each parameter, with
    the scaled time alpha*t at which each is reached.  The evolution revives
    and can dip again at later times, but those recurrences live on a
    collapsed mean spin and are not the operating point.
    """

    UNITS: ClassVar[tuple[str, ...]] = ("spin", "1", "rad", "1", "rad", "1", "rad")

    f: float
    chi2_min: float
    alpha_t_chi2: float
    zeta2_min: float
    alpha_t_zeta2: float
    xi2_min: float
    alpha_t_xi2: float


def _first_local_min(values: np.ndarray) -> int:
    """Index of the first interior local minimum, or argmin if none exists."""
    inner = values[1:-1]
    hits = np.flatnonzero((inner < values[:-2]) & (inner <= values[2:]))
    return int(hits[0]) + 1 if hits.size else int(np.argmin(values))


def tact_optimum(f) -> TactOptimum:
    """Scan countertwisting evolution of a polarized spin for its squeezing limits.

    Evolves the coherent state along +x under Fz^2 - Fy^2 over the scaled
    time alpha*t in (0, pi] and locates the first minimum of each squeezing
    parameter on a uniform grid of ``SCAN_POINTS``.  Each minimum is zoomed:
    ``BRACKET_POINTS`` times span one grid step either side of it, the best
    becomes the centre and their spacing the step, until the step is at most
    ``REFINE_TOL``.  The scan and each zoom step (all three brackets) are one
    batched :func:`~spintomo.spin_algebra.moments` call on a stack of states.
    """
    f = SpinQuantumNumber.coerce(f)
    if f.two_f < 2:
        raise ValueError(
            f"F={f.f_value:g} cannot squeeze: Fz^2 - Fy^2 generates no twisting "
            "below F=1 (for F=1/2 both squares are proportional to the identity)"
        )
    ops = spin_operators(f)
    w, v = np.linalg.eigh(tact_hamiltonian(ops, 1.0))
    coeffs = v.conj().T @ coherent_state_vector(f, np.pi / 2.0, 0.0)
    j_init = f.f_value

    def params_at(taus: np.ndarray) -> np.ndarray:
        # (chi2, zeta2, xi2) rows, one per time.  The mean spin stays on the
        # +-x axis by symmetry.  Below |<F>|^2 = 1e-8 F it counts as collapsed
        # and zeta2, xi2 are infinite: xi2 is a 0/0 there, with round-off
        # growing as 1/|<F>|^2; chi2 stays finite.
        psi = (np.exp(-1j * np.multiply.outer(taus, w)) * coeffs) @ v.T
        rho = np.einsum("ni,nj->nij", psi, psi.conj())
        mean, cov = moments(rho, (ops.fx, ops.fy, ops.fz))
        v_min = variance_extrema(cov[:, 1:, 1:])[0]
        length = np.abs(mean[:, 0])
        collapsed = length**2 < 1e-8 * j_init
        length = np.where(collapsed, 1.0, length)
        params = np.stack(_squeezing_parameters(v_min, length, j_init), axis=1)
        params[collapsed, 1:] = np.inf
        return params

    step = np.pi / SCAN_POINTS
    taus = np.linspace(step, np.pi, SCAN_POINTS)
    table = params_at(taus)
    cols = np.arange(3)
    first = [_first_local_min(table[:, col]) for col in cols]
    centres, minima = taus[first], table[first, cols]
    offsets = np.linspace(-1.0, 1.0, BRACKET_POINTS)
    while step > REFINE_TOL:
        # row c of grids brackets the minimum of parameter c
        grids = np.clip(centres[:, None] + step * offsets, taus[0], taus[-1])
        values = params_at(grids.ravel()).reshape(3, BRACKET_POINTS, 3)[cols, :, cols]
        best = np.argmin(values, axis=1)
        centres, minima = grids[cols, best], values[cols, best]
        step *= 2.0 / (BRACKET_POINTS - 1)
    return TactOptimum(
        f=f.f_value,
        chi2_min=float(minima[0]),
        alpha_t_chi2=float(centres[0]),
        zeta2_min=float(minima[1]),
        alpha_t_zeta2=float(centres[1]),
        xi2_min=float(minima[2]),
        alpha_t_xi2=float(centres[2]),
    )


@dataclass(frozen=True)
class HusimiGrid:
    """Spin Husimi function Q(theta, phi) = <theta,phi|rho|theta,phi> on a grid.

    The grid is equiangular with midpoint nodes: theta_i = (i + 1/2) pi / n_theta,
    phi_j = (j + 1/2) 2 pi / n_phi.  With the SU(2) resolution of identity the
    quadrature-weighted sum times (2F+1)/(4 pi) approximates 1.
    """

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

    def to_csv_text(self, header_comments: dict | None = None) -> str:
        """CSV table of rows (theta, phi, value), theta-major; angles in radians."""
        theta, phi = np.meshgrid(self.thetas, self.phis, indexing="ij")
        rows = np.column_stack([theta.ravel(), phi.ravel(), self.values.ravel()])
        comments = [f"{key}={val}" for key, val in (header_comments or {}).items()]
        buf = io.StringIO()
        write_table(buf, comments, ("theta_rad", "phi_rad", "q_value"), rows)
        return buf.getvalue()


def husimi(state: QuantumState, n_theta: int, n_phi: int) -> HusimiGrid:
    """Evaluate the Husimi function of a spin state on an equiangular grid.

    One broadcast :func:`~spintomo.spin_algebra.coherent_state_vector` call
    gives the amplitudes of every node; round-off outside [0, 1] is clipped.
    A grid of more than ``MAX_GRID_NODES`` nodes raises ``ValueError``.
    """
    if n_theta < 2 or n_phi < 2:
        raise ValueError("grid must have at least 2 nodes per axis")
    if n_theta * n_phi > MAX_GRID_NODES:
        raise ValueError(f"grid must have at most {MAX_GRID_NODES} nodes, got {n_theta}x{n_phi}")
    f = state.spin
    thetas = (np.arange(n_theta) + 0.5) * np.pi / n_theta
    phis = (np.arange(n_phi) + 0.5) * 2.0 * np.pi / n_phi
    amps = coherent_state_vector(f, thetas[:, None], phis[None, :])
    values = np.real(np.einsum("ijd,de,ije->ij", amps.conj(), state.rho, amps))
    values = np.clip(values, 0.0, 1.0)
    return HusimiGrid(thetas=thetas, phis=phis, values=values)
