"""Hamiltonians of the squeezing interaction and exact time evolution.

A Hamiltonian is a Hermitian numpy matrix.  Energies are in rad/ms, decay
rates in 1/ms and times in ms.  All squeezing dynamics are written in the
frame co-rotating with the Larmor precession about x; lab-frame precession
only matters to the probe demodulation, which consumes it implicitly.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import PhysicalityError
from .spin_algebra import _check_stack, _readonly, check_density, spin_operators

__all__ = [
    "tact_hamiltonian",
    "compensated_hamiltonian",
    "lindblad_trajectory",
]

# Pade-13 coefficients b_0..b_13 and the 1-norm bound theta_13 up to which
# the unscaled approximant is accurate to double precision (Higham 2005)
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0,
    1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def tact_hamiltonian(ops: np.ndarray, alpha: float) -> np.ndarray:
    """Two-axis countertwisting generator alpha * (Fz^2 - Fy^2) of the spin matrices ``ops``."""
    m = alpha * (ops[2] @ ops[2] - ops[1] @ ops[1])
    return (m + m.conj().T) / 2.0


def compensated_hamiltonian(
    ops: np.ndarray,
    beta: float,
    residual: float = 0.0,
) -> np.ndarray:
    """Effective rotating-frame generator of the tuned light shift + quadratic Zeeman.

    The drive light is intensity-modulated at twice the Larmor frequency so
    that its tensor shift -a2 Fz^2 / 4 stays resonant in the rotating frame,
    where the quadratic Zeeman term beta * Fx^2 is static.  At the tuning
    a2 = -8 beta the transverse-symmetric parts of the one-period average
    cancel, leaving two-axis countertwisting at half the Zeeman rate:

        beta F(F+1) I + (beta/2)(Fz^2 - Fy^2)

    (Kitagawa & Ueda, Phys. Rev. A 47, 5138 (1993)), which is returned as
    is, identity multiple included.  ``residual`` adds an uncompensated
    residual * Fx^2 term modelling slight over/under-compensation; the
    default is exact tuning.  The test helper ``secular_compensated_matrix``
    averages the modulated drive numerically and checks this form.
    """
    f = (ops.shape[-1] - 1) / 2.0
    h = tact_hamiltonian(ops, beta / 2.0) + residual * (ops[0] @ ops[0])
    return h + beta * f * (f + 1.0) * np.eye(len(h))


def _liouvillian(
    h: np.ndarray, depolarization: float, dephasing: float, fx: np.ndarray
) -> np.ndarray:
    """Real generator L_r of the master equation in Hermitian coordinates.

    The complex superoperator L acts on the row-major vec(rho) by
    vec(A rho B) = kron(A, B^T) vec(rho) (Havel, J. Math. Phys. 44, 534
    (2003)).  It maps Hermitian matrices to Hermitian matrices, so it is a
    real linear map on the d^2 real coordinates of rho (the coherence-vector
    picture of Alicki & Lendi, LNP 286 (1987)).  A Hermitian rho is written
    as the real X = Re rho + Im rho, rho = ((1+i) X + (1-i) X^T) / 2, so
    vec(rho) = S vec(X) with S = ((1+i) I + (1-i) K) / 2 and K the transpose
    permutation of the vec, and d vec(X)/dt = L_r vec(X) with
    L_r = Re(L S) + Im(L S) = Re L + (Im L) K.
    """
    d = h.shape[0]
    eye = np.eye(d)
    fx2 = fx @ fx
    lv = (
        -1j * (np.kron(h, eye) - np.kron(eye, h.T))
        + depolarization * (np.outer(eye.ravel(), eye.ravel()) / d - np.eye(d * d))
        + dephasing * (np.kron(fx, fx.T) - 0.5 * (np.kron(fx2, eye) + np.kron(eye, fx2.T)))
    )
    transpose = np.arange(d * d).reshape(d, d).T.ravel()
    return lv.real + lv.imag[:, transpose]


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by Pade-13 scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)).

    a is scaled by 2^-s so that its 1-norm is at most theta_13, the [13/13]
    Pade approximant R = (V - U)^-1 (V + U) is formed from the even powers
    A^2, A^4, A^6, and R is squared s times.
    """
    norm = np.abs(a).sum(axis=0).max()
    s = math.ceil(math.log2(norm / _THETA13)) if _THETA13 < norm < math.inf else 0
    a = a / 2.0**s
    b = _PADE13
    eye = np.eye(a.shape[0])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye
    )
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def lindblad_trajectory(
    rho0,
    h: np.ndarray,
    depolarization: float,
    dephasing: float,
    times,
) -> np.ndarray:
    """Read-only (n, d, d) stack of the states at n times, by exact propagation from ``rho0``.

    The master equation has the Hamiltonian ``h`` (rad/ms), isotropic
    depolarization toward the fully mixed state at rate ``depolarization``
    and the dephasing dissipator of the jump operator sqrt(``dephasing``) Fx
    (both in 1/ms).  ``rho0`` must pass :func:`check_density`.  ``h`` must
    be a (d, d) matrix for its dimension d (else ``ValueError``) and
    Hermitian to 1e-12 (else :class:`PhysicalityError`); a rate that is
    negative or not finite raises ``ValueError``.
    ``times`` must be finite, non-decreasing and non-negative.  The state is
    propagated in real Hermitian coordinates X = Re rho + Im rho, by the
    real d^2 x d^2 generator L_r of the master equation (see
    ``_liouvillian``), and rho = (X + X^T)/2 + i (X - X^T)/2 is Hermitian by
    construction.  The state at the last time t_max is exp(L_r t_max) vec(X0),
    by the Pade-13 scaling-and-squaring matrix exponential (Higham, SIAM J.
    Matrix Anal. Appl. 26, 1179 (2005)); a state there that is not finite
    means the propagation overflowed and raises :class:`PhysicalityError`.
    One time, or times all equal to t_max, need nothing more.  Earlier times
    come from one diagonalization L_r = V diag(lambda) V^-1: with
    c = V^-1 vec(X0) each is Re(V (exp(lambda t) * c)), so the cost does not
    grow with the times or their spacing.  The eigen-solution is checked at
    t_max against the exponential, an independent second method: a mismatch
    above 1e-10 means an ill-conditioned eigenbasis, and one that is not
    finite an overflow; both raise :class:`PhysicalityError`.  The states
    must pass the checks of :func:`check_density`, made once over the stack;
    a failure names the time of the first failing state.
    """
    rho0 = check_density(rho0)
    d = rho0.shape[-1]
    h = np.asarray(h)
    if h.shape != (d, d):
        raise ValueError(f"Hamiltonian shape {h.shape} does not match state dimension {d}")
    resid = np.abs(h - h.conj().T).max()
    if not resid <= 1e-12:  # also catches NaN
        raise PhysicalityError(f"Hamiltonian is not Hermitian: residue {resid:.3g}")
    if not (0 <= depolarization < math.inf and 0 <= dephasing < math.inf):
        raise ValueError(f"decay rates must be finite and >= 0, got {depolarization}, {dephasing}")
    times = np.asarray(times, dtype=float)
    if not times.size:
        return _readonly(np.empty((0, d, d), dtype=complex))
    if not np.isfinite(times).all():
        raise ValueError(f"evolution time {times[~np.isfinite(times)][0]:g} ms is not finite")
    if (times < 0).any():
        raise ValueError("evolution times must be >= 0")
    if (np.diff(times) < 0).any():
        raise ValueError("times must be non-decreasing")

    lr = _liouvillian(h, depolarization, dephasing, spin_operators((d - 1) / 2.0)[0])
    x0 = (rho0.real + rho0.imag).ravel()
    t_max = times[-1]
    n_early = int(np.searchsorted(times, t_max))  # times below t_max
    x = np.empty((times.size, d * d))
    mismatch = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the check below
        x_max = _expm(lr * t_max) @ x0
        x[n_early:] = x_max
        if n_early:
            w, v = np.linalg.eig(lr)
            c = np.linalg.solve(v, x0)
            e = np.exp(np.outer(w, np.append(times[:n_early], t_max))) * c[:, None]
            # Re(V e) from real products: the complex one leaves an OpenBLAS
            # thread spinning for about 50 ms after it returns
            xs = v.real @ e.real - v.imag @ e.imag
            x[:n_early] = xs[:, :-1].T
            mismatch = np.abs(x_max - xs[:, -1]).max()
    if not (np.isfinite(x_max).all() and np.isfinite(mismatch)):
        raise PhysicalityError(
            f"propagation overflowed at t_max={t_max:g} ms: "
            f"||L||_1 t_max = {np.abs(lr).sum(axis=0).max() * t_max:.3g}"
        )
    if not mismatch <= 1e-10:
        raise PhysicalityError(
            f"Liouvillian eigenbasis is ill-conditioned: at t_max={t_max:g} ms the "
            f"eigen-solution differs from expm(L t) by {mismatch:.3g}"
        )
    x = x.reshape(-1, d, d)
    xt = x.swapaxes(-1, -2)
    states = (x + xt) / 2.0 + 0.5j * (x - xt)
    _check_stack(states, lambda i: f"evolved state at t={times[i]:g} ms: ")
    return _readonly(states)
