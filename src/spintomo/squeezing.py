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
from typing import ClassVar, NamedTuple

import numpy as np

from .dynamics import tact_hamiltonian
from .errors import PhysicalityError
from .spin_algebra import (
    check_density,
    coherent_state_vector,
    moments,
    spin_dimension,
    spin_operators,
    variance_extrema,
)
from .tables import write_grid_table

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

# most nodes a Husimi grid may have.  The separable sum keeps no per-node
# amplitudes, so memory grows as n_theta * n_phi, not n_theta * n_phi * d:
# 10^6 nodes take 8 MB of values and 59 MB of CSV text.  A fresh
# `qpd --grid 1000x1000` took 1.0-1.2 s from import to exit and peaked at
# 211 MiB RSS (2-vCPU Xeon, Python 3.11, numpy 2.4)
MAX_GRID_NODES = 10**6


class SqueezingReport(NamedTuple):
    """Mean spin (..., 3), its length, the (..., 2, 2) covariance of the transverse pair
    (F_y', F_z') in the frame whose x' axis points along the mean spin, and the
    squeezing parameters, one entry per state reported on."""

    mean_spin: np.ndarray
    length: np.ndarray
    cov: np.ndarray
    chi2: np.ndarray
    zeta2: np.ndarray
    xi2: np.ndarray


def _transverse_frame(direction: np.ndarray) -> np.ndarray:
    """Rows (e2, e3), shape (..., 2, 3), of an orthonormal pair orthogonal to each direction.

    e2 is y minus its part along the direction, or z for a direction along
    +-y, so the pair is (y, z) when the mean spin points along +x.
    """
    n = direction / np.linalg.norm(direction, axis=-1, keepdims=True)
    e2 = np.array([0.0, 1.0, 0.0]) - n[..., 1:2] * n
    e2_z = np.array([0.0, 0.0, 1.0]) - n[..., 2:3] * n
    e2 = np.where(np.linalg.norm(e2, axis=-1, keepdims=True) < 1e-8, e2_z, e2)
    e2 /= np.linalg.norm(e2, axis=-1, keepdims=True)
    return np.stack([e2, np.cross(n, e2)], axis=-2)


def _squeezing_parameters(v_min, length, f_value):
    """(chi2, zeta2, xi2) of the module docstring; broadcasts over arrays."""
    return 2.0 * v_min / f_value, 2.0 * v_min / length, 2.0 * f_value * v_min / length**2


def squeezing_report(rho) -> SqueezingReport:
    """Squeezing parameters, relative to F = (d - 1)/2, of a density matrix or a stack (..., d, d).

    One :func:`~spintomo.spin_algebra.moments` call gives the mean spins and
    3x3 covariances; each transverse covariance is their projection onto the
    plane orthogonal to the mean.  A zero mean spin has no such plane: its
    ``cov`` and parameters are NaN (``canonical_moments`` holds the collapse rule).
    """
    rho = np.asarray(rho)
    f = (rho.shape[-1] - 1) / 2.0
    mean, cov_spin = moments(rho, spin_operators(f))
    length = np.linalg.norm(mean, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        # covariance of (F_y', F_z') = E C E^T with E the rows of the transverse frame
        frame = _transverse_frame(mean)
        cov = frame @ cov_spin @ np.swapaxes(frame, -1, -2)
        v_min = variance_extrema(cov)[0]
        chi2, zeta2, xi2 = _squeezing_parameters(v_min, length, f)
    return SqueezingReport(mean, length, cov, chi2, zeta2, xi2)


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
    j_init = (spin_dimension(f) - 1) / 2.0
    if j_init < 1:
        raise ValueError(
            f"F={j_init:g} cannot squeeze: Fz^2 - Fy^2 generates no twisting "
            "below F=1 (for F=1/2 both squares are proportional to the identity)"
        )
    ops = spin_operators(j_init)
    # Fz^2 - Fy^2 is real in the Fz basis, and so are the eigenvectors and the state along +x
    w, v = np.linalg.eigh(tact_hamiltonian(ops, 1.0).real)
    coeffs = v.T @ coherent_state_vector(j_init, np.pi / 2.0, 0.0).real

    def params_at(taus: np.ndarray) -> np.ndarray:
        # (chi2, zeta2, xi2) rows, one per time.  The mean spin stays on the
        # +-x axis by symmetry.  Below |<F>|^2 = 1e-8 F it counts as collapsed
        # and zeta2, xi2 are infinite: xi2 is a 0/0 there, with round-off
        # growing as 1/|<F>|^2; chi2 stays finite.  squeezing_report has no such
        # rule: its zeta2 on a round-off mean spin is near 0, and the F = 1
        # zeta2_min of `limits` would fall from 5.0e-5 to 4.2e-7 through it.
        # psi = (exp(-i tau w) * coeffs) @ v.T from real products: a complex
        # one leaves an OpenBLAS thread spinning for about 50 ms after it returns
        phase = np.multiply.outer(taus, w)
        psi = np.empty(phase.shape, dtype=complex)
        psi.real = (np.cos(phase) * coeffs) @ v.T
        psi.imag = (np.sin(phase) * -coeffs) @ v.T
        rho = np.einsum("ni,nj->nij", psi, psi.conj())
        mean, cov = moments(rho, ops)
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
        f=j_init,
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

    def to_csv_text(self, header_comments: dict | None = None) -> str:
        """CSV table of rows (theta, phi, value), theta-major; angles in radians.

        :func:`~spintomo.tables.write_grid_table` writes it, formatting each
        theta and each phi once; the bytes are those of ``write_table`` on
        the meshgrid rows.
        """
        comments = [f"{key}={val}" for key, val in (header_comments or {}).items()]
        buf = io.StringIO()
        write_grid_table(
            buf, comments, ("theta_rad", "phi_rad", "q_value"), self.thetas, self.phis, self.values
        )
        return buf.getvalue()


def husimi(rho, n_theta: int, n_phi: int) -> HusimiGrid:
    """Evaluate the Husimi function of the spin density matrix ``rho`` on an equiangular grid.

    ``rho`` must pass :func:`~spintomo.spin_algebra.check_density`.  The
    coherent amplitudes factor as a_m(theta) exp(-i m phi) with a real, so
    Q(theta, phi) = g_0 + 2 sum_{k>=1} (Re g_k cos(k phi) - Im g_k sin(k phi)),
    where g_k(theta) is the sum of the k-th superdiagonal of (a a^T) * rho
    (Arecchi et al., Phys. Rev. A 6, 2211 (1972)): one
    :func:`~spintomo.spin_algebra.coherent_state_vector` call at phi = 0
    gives a on the theta nodes, and two real products sum the grid.  A value
    more than 1e-12 outside [0, 1] raises :class:`PhysicalityError`;
    round-off within that is clipped.  A grid of more than
    ``MAX_GRID_NODES`` nodes raises ``ValueError``.
    """
    if n_theta < 2 or n_phi < 2:
        raise ValueError("grid must have at least 2 nodes per axis")
    if n_theta * n_phi > MAX_GRID_NODES:
        raise ValueError(f"grid must have at most {MAX_GRID_NODES} nodes, got {n_theta}x{n_phi}")
    rho = check_density(rho)
    d = rho.shape[-1]
    thetas = (np.arange(n_theta) + 0.5) * np.pi / n_theta
    phis = (np.arange(n_phi) + 0.5) * 2.0 * np.pi / n_phi
    a = coherent_state_vector((d - 1) / 2.0, thetas, 0.0).real
    g = np.stack([(a[:, : d - k] * a[:, k:]) @ np.diagonal(rho, k) for k in range(d)], axis=1)
    k_phi = np.multiply.outer(np.arange(1, d), phis)
    values = g[:, :1].real + 2.0 * (g[:, 1:].real @ np.cos(k_phi) - g[:, 1:].imag @ np.sin(k_phi))
    if values.min() < -1e-12 or values.max() > 1.0 + 1e-12:
        raise PhysicalityError("Husimi values must lie in [0, 1]")
    values = np.clip(values, 0.0, 1.0)
    return HusimiGrid(thetas=thetas, phis=phis, values=values)
