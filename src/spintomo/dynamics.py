"""Hamiltonians of the squeezing interaction and exact time evolution.

Energies are in rad/ms and times in ms.  All squeezing dynamics are written
in the frame co-rotating with the Larmor precession about x; lab-frame
precession only matters to the probe demodulation, which consumes it
implicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import PhysicalityError
from .spin_algebra import QuantumState, SpinOperators, rotation_unitary, spin_operators

__all__ = [
    "Hamiltonian",
    "DecayChannels",
    "oat_hamiltonian",
    "tact_hamiltonian",
    "light_shift_hamiltonian",
    "zeeman_hamiltonian",
    "compensated_hamiltonian",
    "evolve_unitary",
    "lindblad_trajectory",
]

_HERM_ATOL = 1e-12


@dataclass(frozen=True)
class Hamiltonian:
    """Hermitian generator in rad/ms."""

    matrix: np.ndarray
    label: str

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"Hamiltonian matrix must be square, got {m.shape}")
        resid = np.abs(m - m.conj().T).max()
        if resid > _HERM_ATOL:
            raise PhysicalityError(f"Hamiltonian '{self.label}' not Hermitian: residue {resid:.3g}")
        m = np.ascontiguousarray(m)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class DecayChannels:
    """Depolarization / dephasing rates for the master equation.

    t1 is the isotropic depolarization time (relaxation toward the fully
    mixed state), t2 the transverse coherence time in the x-basis.
    ``extra_scatter_rate`` adds light-induced depolarization while a drive
    pulse is on.  Infinite times are allowed and give zero rates.

    The dephasing jump operator is sqrt(gamma_phi) * Fx with gamma_phi fixed
    so that the decay rate of m,m+-1 coherences (gamma_phi/2) plus the
    depolarization contribution (1/t1) equals 1/t2.  Complete positivity
    then requires t2 <= t1.
    """

    t1: float
    t2: float
    extra_scatter_rate: float = 0.0

    def __post_init__(self) -> None:
        if not (self.t1 > 0 and self.t2 > 0):
            raise ValueError(f"decay times must be positive, got t1={self.t1}, t2={self.t2}")
        if self.extra_scatter_rate < 0:
            raise ValueError(f"extra_scatter_rate must be >= 0, got {self.extra_scatter_rate}")
        if self.dephasing_rate < 0:
            raise ValueError(
                f"t2={self.t2} > t1={self.t1} violates complete positivity of the "
                "depolarization + Fx-dephasing channel pair"
            )

    @property
    def depolarization_rate(self) -> float:
        return 1.0 / self.t1 + self.extra_scatter_rate

    @property
    def dephasing_rate(self) -> float:
        """Rate multiplying the Fx dephasing dissipator."""
        return 2.0 * (1.0 / self.t2 - 1.0 / self.t1)


def oat_hamiltonian(ops: SpinOperators, alpha: float) -> Hamiltonian:
    """One-axis twisting generator alpha * Fz^2."""
    return Hamiltonian(alpha * (ops.fz @ ops.fz), label=f"oat(alpha={alpha:g})")


def tact_hamiltonian(ops: SpinOperators, alpha: float) -> Hamiltonian:
    """Two-axis countertwisting generator alpha * (Fz^2 - Fy^2)."""
    m = alpha * (ops.fz @ ops.fz - ops.fy @ ops.fy)
    return Hamiltonian((m + m.conj().T) / 2.0, label=f"tact(alpha={alpha:g})")


def light_shift_hamiltonian(ops: SpinOperators, a2: float) -> Hamiltonian:
    """Tensor AC-Stark shift of z-polarized off-resonant light: -a2 Fz^2 / 4.

    a2 is the tensor polarizability already multiplied by the light
    intensity, in rad/ms.  The scalar shift is a multiple of the identity
    and is left out.
    """
    return Hamiltonian(-0.25 * a2 * (ops.fz @ ops.fz), label=f"light_shift(a2={a2:g})")


def zeeman_hamiltonian(ops: SpinOperators, beta: float) -> Hamiltonian:
    """Quadratic Zeeman shift beta * Fx^2 in the frame rotating at the Larmor frequency."""
    return Hamiltonian(beta * (ops.fx @ ops.fx), label=f"zeeman(beta={beta:g})")


def compensated_hamiltonian(
    ops: SpinOperators,
    beta: float,
    residual: float = 0.0,
) -> Hamiltonian:
    """Effective rotating-frame generator of the tuned light shift + quadratic Zeeman.

    The drive light is intensity-modulated at twice the Larmor frequency so
    that its tensor shift stays resonant in the rotating frame; the static
    quadratic Zeeman term beta * Fx^2 commutes with the frame rotation.  This
    constructor performs the one-period secular average of

        -(1 + cos 2theta)/4 * a2 Fz^2   (rotated by theta about x)
        + beta Fx^2

    at the tuning a2 = -8 beta, under which the transverse-symmetric parts
    cancel and the average collapses to

        beta F(F+1) I + (beta/2)(Fz^2 - Fy^2).

    The identity multiple is kept in ``matrix``; the scalar light shift
    would only add another one and is left out.  ``residual`` adds an
    uncompensated delta * Fx^2 term modelling slight over/under-compensation;
    the default is exact tuning.

    The average is taken in closed form: under the weight (1 + cos 2theta),
    Fz^2 rotated by theta about x averages to (3/4) Fz^2 + (1/4) Fy^2, i.e.
    3/4 of the light shift plus 1/4 of it rotated by pi/2 about x.
    """
    light = light_shift_hamiltonian(ops, -8.0 * beta).matrix
    u = rotation_unitary(ops, [1.0, 0.0, 0.0], np.pi / 2.0)
    h = 0.75 * light + 0.25 * (u @ light @ u.conj().T)
    h += zeeman_hamiltonian(ops, beta + residual).matrix
    return Hamiltonian(
        (h + h.conj().T) / 2.0, label=f"compensated(beta={beta:g}, residual={residual:g})"
    )


def evolve_unitary(state: QuantumState, h: Hamiltonian, t: float) -> QuantumState:
    """Closed-system evolution rho -> U rho U^dag with U = exp(-i H t)."""
    if h.dimension != state.dimension:
        raise ValueError(
            f"Hamiltonian dimension {h.dimension} does not match state {state.dimension}"
        )
    w, v = np.linalg.eigh(h.matrix)
    u = (v * np.exp(-1j * w * t)) @ v.conj().T
    rho = u @ state.rho @ u.conj().T
    rho = (rho + rho.conj().T) / 2.0
    return QuantumState(rho)


def _liouvillian(h: Hamiltonian, decay: DecayChannels, fx: np.ndarray) -> np.ndarray:
    """Superoperator L of the master equation acting on the row-major vec(rho).

    Uses vec(A rho B) = kron(A, B^T) vec(rho) for row-major (C-order)
    flattening, so d vec(rho)/dt = L vec(rho).
    """
    d = h.dimension
    eye = np.eye(d)
    fx2 = fx @ fx
    return (
        -1j * (np.kron(h.matrix, eye) - np.kron(eye, h.matrix.T))
        + decay.depolarization_rate * (np.outer(eye.ravel(), eye.ravel()) / d - np.eye(d * d))
        + decay.dephasing_rate
        * (np.kron(fx, fx.T) - 0.5 * (np.kron(fx2, eye) + np.kron(eye, fx2.T)))
    )


def lindblad_trajectory(
    state: QuantumState,
    h: Hamiltonian,
    decay: DecayChannels,
    times,
) -> list[QuantumState]:
    """States at each requested time, by exact propagation of the master equation.

    ``times`` must be finite, non-decreasing and non-negative.  The d^2 x d^2
    Liouvillian L (Havel, J. Math. Phys. 44, 534 (2003)) is diagonalized
    once, L = V diag(lambda) V^-1; with c = V^-1 vec(rho0) every state is
    V (exp(lambda t) * c), so the cost does not grow with the times or
    their spacing.  The eigenbasis is checked against the scaling-and-
    squaring matrix exponential (Al-Mohy & Higham, SIAM J. Matrix Anal.
    Appl. 31, 970 (2009)) at the last time: a mismatch above 1e-10 means an
    ill-conditioned eigenbasis and raises :class:`PhysicalityError`.  Each
    state must pass the :class:`QuantumState` checks at their default
    tolerances; a failure names its time.
    """
    if h.dimension != state.dimension:
        raise ValueError(
            f"Hamiltonian dimension {h.dimension} does not match state {state.dimension}"
        )
    times = np.asarray(times, dtype=float)
    if not times.size:
        return []
    if not np.isfinite(times).all():
        raise ValueError(f"evolution time {times[~np.isfinite(times)][0]:g} ms is not finite")
    if (times < 0).any():
        raise ValueError("evolution times must be >= 0")
    if (np.diff(times) < 0).any():
        raise ValueError("times must be non-decreasing")

    d = state.dimension
    lv = _liouvillian(h, decay, np.asarray(spin_operators(state.spin).fx))
    vec0 = state.rho.ravel()
    w, v = np.linalg.eig(lv)
    c = np.linalg.solve(v, vec0)
    vecs = v @ (np.exp(np.outer(w, times)) * c[:, None])
    t_max = times[-1]
    mismatch = np.abs(expm(lv * t_max) @ vec0 - vecs[:, -1]).max()
    if not mismatch <= 1e-10:  # also catches NaN
        raise PhysicalityError(
            f"Liouvillian eigenbasis is ill-conditioned: at t_max={t_max:g} ms the "
            f"eigen-solution differs from expm(L t) by {mismatch:.3g}"
        )
    out = []
    for t, vec in zip(times, vecs.T):
        rho = vec.reshape(d, d)
        try:
            out.append(QuantumState((rho + rho.conj().T) / 2.0))
        except PhysicalityError as exc:
            raise PhysicalityError(f"evolved state at t={t:g} ms: {exc}") from exc
    return out
