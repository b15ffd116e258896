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

import math
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

# grid points over (0, pi] on which tact_optimum brackets each minimum and the collapse
SCAN_POINTS = 2000

# most nodes a Husimi grid may have.  The separable sum keeps no per-node
# amplitudes, so memory grows as n_theta * n_phi, not n_theta * n_phi * d:
# 10^6 nodes take 8 MB of values and 59 MB of CSV text, streamed to the file
# in blocks.  A fresh `qpd --grid 1000x1000` took 0.85-1.24 s from import to
# exit and peaked at 57 MiB RSS (2-vCPU Xeon, Python 3.11.7, numpy 2.4.6)
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
    """Per-parameter minima of the countertwisting evolution of one spin: one ``limits`` row.

    The reported values are the minima of the first squeezing window: the
    interval from t=0 up to the collapse, the first zero of the mean spin,
    with the scaled time alpha*t at which each is reached.  A parameter that
    falls all through the window (only at F = 1) reports its limit at the
    collapse, where zeta2 and xi2 are 0/0: infima that are not attained.
    """

    UNITS: ClassVar[tuple[str, ...]] = ("spin", "1", "rad", "1", "rad", "1", "rad")

    f: float
    chi2_min: float
    alpha_t_chi2: float
    zeta2_min: float
    alpha_t_zeta2: float
    xi2_min: float
    alpha_t_xi2: float


def tact_optimum(f) -> TactOptimum:
    """Exact first-window minima of a polarized spin's squeezing parameters under countertwisting.

    The coherent state along +x evolves under Fz^2 - Fy^2 over tau = alpha*t.  Each moment is a
    sum over eigenvalue pairs of exp(i(w_j - w_k) tau), so one real product per time gives
    L = <Fx>, the smaller (Fy, Fz) variance v and their first two derivatives.  Parameter k =
    0, 1, 2 (chi2, zeta2, xi2) is 2 F^(k-1) v / L^k: its minimum is the first - to + turn of
    g_k = v' L - k v L' on ``SCAN_POINTS`` times in (0, pi] up to the collapse L = 0, refined by
    Newton, or else the limit 2 F^(k-1) v^(k) / (k! L'^k) at the collapse, where v = 0 must hold.
    A failed premise or a Newton step out of its scan bracket raises ``ArithmeticError``.
    """
    j_init = (spin_dimension(f) - 1) / 2.0
    if j_init < 1:
        raise ValueError(
            f"F={j_init:g} cannot squeeze: Fz^2 - Fy^2 generates no twisting "
            "below F=1 (for F=1/2 both squares are proportional to the identity)"
        )
    fx, fy, fz = spin_operators(j_init)
    # quantized along x, (fz, fx, fy) act as (Fx, Fy, Fz) and +x is the first basis vector; the
    # real Fz^2 - Fy^2 changes m_x by 0 or 2, so the state keeps to m_x = F, F - 2, ...
    w, vec = np.linalg.eigh(tact_hamiltonian(np.array([fz, fx, fy]), 1.0).real[::2, ::2])
    # the pi rotation about x keeps <Fy> = <Fz> = 0; the pi/2 one negates the generator, so with
    # time reversal <Fy^2> = <Fz^2>: the (Fy, Fz) covariance has eigenvectors (y -+ z)/sqrt 2
    minus, plus = fx - fy, fx + fy
    observables = np.array([fz, minus @ minus / 2.0, plus @ plus / 2.0])[:, ::2, ::2]
    omega = np.subtract.outer(w, w).ravel()
    terms = (vec.T @ observables @ vec).reshape(3, 1, -1) * np.outer(vec[0], vec[0]).ravel()
    terms = (terms * (1j * omega) ** np.arange(3)[:, None]).reshape(9, -1)
    # Re sum_jk T_jk exp(i omega_jk tau) = cos(omega tau) . Re T - sin(omega tau) . Im T
    kernel = np.concatenate([terms.real, -terms.imag], axis=1).T

    def moments_at(taus):
        # (3, n) arrays of <Fx> and v, and of their first two derivatives, at the times taus.
        # einsum, not a BLAS product: one of this size leaves an OpenBLAS thread spinning
        phase = np.multiply.outer(taus, omega)
        trig = np.hstack([np.cos(phase), np.sin(phase)])
        x, v_minus, v_plus = np.einsum("nk,kc->cn", trig, kernel).reshape(3, 3, -1)
        return x, np.where(v_minus[0] <= v_plus[0], v_minus, v_plus)

    def slope(k, x, v):  # g_k and g_k'
        return v[1] * x[0] - k * v[0] * x[1], v[2] * x[0] + (1 - k) * v[1] * x[1] - k * v[0] * x[2]

    def newton(fun, lo, hi):
        # root in [lo, hi] of fun = (value, slope) from the secant point, to round-off
        (y_lo, y_hi), _ = fun(np.array([lo, hi]))
        tau, last = lo - y_lo * (hi - lo) / (y_hi - y_lo), np.inf
        while True:
            value, derivative = fun(np.array([tau]))
            step = value[0] / derivative[0]
            if not abs(step) < abs(last) / 2.0:
                return tau
            tau, last = tau - step, step
            if not lo <= tau <= hi:
                raise ArithmeticError(f"F={j_init:g}: Newton left its bracket at alpha*t={tau:.6g}")

    taus = np.linspace(np.pi / SCAN_POINTS, np.pi, SCAN_POINTS)
    x, v = moments_at(taus)
    end = np.flatnonzero(x[0] <= 0.0)[0]  # every spin up to MAX_DIMENSION collapses by pi
    collapse = newton(lambda t: moments_at(t)[0][:2], taus[end - 1], taus[end])
    x_c, v_c = moments_at(np.array([collapse]))
    row = [j_init]
    for k in range(3):
        g = slope(k, x[:, :end], v[:, :end])[0]
        turns = np.flatnonzero((g[:-1] < 0.0) & (g[1:] >= 0.0))
        if turns.size:
            tau = newton(lambda t: slope(k, *moments_at(t)), taus[turns[0]], taus[turns[0] + 1])
            x_t, v_t = moments_at(np.array([tau]))
            value = _squeezing_parameters(v_t[0, 0], x_t[0, 0], j_init)[k]
        else:
            # v = 0 to the round-off of summing moments up to F(F + 1); then v' = 0 too, as v >= 0
            if not abs(v_c[0, 0]) <= len(kernel) * np.finfo(float).eps * j_init * (j_init + 1.0):
                raise ArithmeticError(
                    f"F={j_init:g}: parameter {k} has no minimum before the collapse at "
                    f"alpha*t={collapse:.17g}, where v_min={v_c[0, 0]:.3g} is not 0"
                )
            tau = collapse
            value = 2.0 * j_init ** (k - 1) * v_c[k, 0] / (math.factorial(k) * x_c[1, 0] ** k)
        row += [float(value), float(tau)]
    return TactOptimum(*row)


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

    # the name predates its stream argument; it stays, as a traced run wraps it by name
    def to_csv_text(self, stream, header_comments: dict | None = None) -> None:
        """Write to ``stream`` the CSV table of rows (theta, phi, value), theta-major, in radians.

        :func:`~spintomo.tables.write_grid_table` writes it, formatting each
        theta and each phi once, in blocks of at most ``GRID_BLOCK_CELLS``
        values; the bytes are those of ``write_table`` on the meshgrid rows.
        """
        comments = [f"{key}={val}" for key, val in (header_comments or {}).items()]
        columns = ("theta_rad", "phi_rad", "q_value")
        write_grid_table(stream, comments, columns, self.thetas, self.phis, self.values)


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
