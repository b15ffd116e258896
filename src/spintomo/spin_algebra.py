"""Exact finite-dimensional angular-momentum algebra and state containers.

Conventions used throughout the package:

- hbar = 1; spin operators are dimensionless.
- Basis ordering m = +F ... -F, i.e. row 0 is the stretched state m = +F.
- Commutators follow [fy, fz] = i fx and cyclic permutations.
- Dense matrices only; every dimension in this package is <= MAX_DIMENSION = 16.

All containers are immutable after construction and all operations are pure
functions, so values can be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import PhysicalityError

__all__ = [
    "SpinQuantumNumber",
    "SpinOperators",
    "QuantumState",
    "spin_operators",
    "coherent_state_vector",
    "coherent_spin_state",
    "moments",
    "variance_extrema",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


MAX_DIMENSION = 16


@dataclass(frozen=True)
class SpinQuantumNumber:
    """Total spin F, stored as 2F so half-integer spins stay exact."""

    two_f: int

    def __post_init__(self) -> None:
        two_f = self.two_f
        if not float(two_f).is_integer() or two_f < 0:
            raise ValueError(f"two_f must be a non-negative integer, got {two_f!r}")
        if two_f + 1 > MAX_DIMENSION:
            raise ValueError(f"F={two_f / 2:g} needs dimension {two_f + 1:g} > {MAX_DIMENSION}")
        object.__setattr__(self, "two_f", int(two_f))

    @classmethod
    def coerce(cls, f) -> "SpinQuantumNumber":
        """Accept a SpinQuantumNumber or a numeric F (e.g. 4, 1.5)."""
        if isinstance(f, cls):
            return f
        two_f = 2.0 * float(f)
        if not np.isfinite(two_f) or abs(two_f - round(two_f)) > 1e-9:
            raise ValueError(f"F must be a finite integer or half-integer, got {f!r}")
        return cls(int(round(two_f)))

    @property
    def f_value(self) -> float:
        return self.two_f / 2.0

    @property
    def dimension(self) -> int:
        return self.two_f + 1

    @property
    def m_values(self) -> np.ndarray:
        """Magnetic quantum numbers +F ... -F in basis order."""
        return self.f_value - np.arange(self.dimension)


@dataclass(frozen=True)
class SpinOperators:
    """Matrix representations of fx, fy and fz for one spin."""

    f: SpinQuantumNumber
    fx: np.ndarray
    fy: np.ndarray
    fz: np.ndarray

    @property
    def dimension(self) -> int:
        return self.f.dimension


@lru_cache(maxsize=None)
def _spin_operators(two_f: int) -> SpinOperators:
    f = SpinQuantumNumber(two_f)
    m = f.m_values
    fval = f.f_value
    d = f.dimension
    fz = np.diag(m).astype(complex)
    # <m+1|F+|m> = sqrt(F(F+1) - m(m+1)); m+1 sits one row above m.
    c = np.sqrt(fval * (fval + 1.0) - m[1:] * (m[1:] + 1.0))
    f_plus = np.zeros((d, d), dtype=complex)
    f_plus[np.arange(d - 1), np.arange(1, d)] = c
    f_minus = f_plus.conj().T
    fx = (f_plus + f_minus) / 2.0
    fy = (f_plus - f_minus) / 2.0j
    return SpinOperators(f=f, fx=_readonly(fx), fy=_readonly(fy), fz=_readonly(fz))


def spin_operators(f) -> SpinOperators:
    """Build (and cache) the spin matrices for total spin ``f``.

    Total function: any integer or half-integer F >= 0 is accepted.
    """
    return _spin_operators(SpinQuantumNumber.coerce(f).two_f)


@dataclass(frozen=True)
class QuantumState:
    """Density matrix of a single spin (or truncated mode).

    Construction validates trace (to 1e-10), Hermiticity (to 1e-10) and
    positivity (no eigenvalue below -1e-9).  Violations are errors; states
    are never silently projected back onto the physical set.  The
    tolerances absorb round-off only.
    """

    rho: np.ndarray

    def __post_init__(self) -> None:
        rho = np.asarray(self.rho, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ValueError(f"rho must be square, got shape {rho.shape}")
        tr = np.trace(rho)
        if abs(tr - 1.0) > 1e-10:
            raise PhysicalityError(f"trace(rho) = {tr:.12g}, deviates from 1 beyond 1e-10")
        herm = np.abs(rho - rho.conj().T).max()
        if herm > 1e-10:
            raise PhysicalityError(f"rho not Hermitian: max |rho - rho^dag| = {herm:.3g}")
        eigs = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
        if eigs.min() < -1e-9:
            raise PhysicalityError(f"rho has eigenvalue {eigs.min():.3g} below tolerance -1e-09")
        object.__setattr__(self, "rho", _readonly(rho))

    @property
    def dimension(self) -> int:
        return self.rho.shape[0]

    @property
    def spin(self) -> SpinQuantumNumber:
        return SpinQuantumNumber(self.dimension - 1)

    @classmethod
    def from_vector(cls, psi: np.ndarray) -> "QuantumState":
        """Pure state |psi><psi| from a (not necessarily normalized) vector."""
        psi = np.asarray(psi, dtype=complex).ravel()
        norm = np.linalg.norm(psi)
        if norm == 0.0:
            raise ValueError("zero state vector")
        psi = psi / norm
        return cls(np.outer(psi, psi.conj()))


def coherent_state_vector(f, theta, phi) -> np.ndarray:
    """Amplitudes of the spin coherent states pointing along (theta, phi).

    The state exp(-i phi Fz) exp(-i theta Fy)|F, F> in closed form,
    sqrt(C(2F, F-m)) cos(theta/2)^(F+m) sin(theta/2)^(F-m) exp(-i m phi);
    theta is the polar angle from +z, phi the azimuth from +x.  The angles
    broadcast, and the result has shape (..., 2F+1): (2F+1,) for scalars.
    """
    f = SpinQuantumNumber.coerce(f)
    m = f.m_values
    fval = f.f_value
    # exact integer binomials C(2F, k) from the factorials 0! ... (2F)!
    factorials = np.cumprod(np.arange(f.dimension).clip(1))
    binom = factorials[-1] // (factorials * factorials[::-1])
    half = np.asarray(theta, dtype=float)[..., None] / 2.0
    amps = np.sqrt(binom) * np.cos(half) ** (fval + m) * np.sin(half) ** (fval - m)
    return amps * np.exp(-1j * m * np.asarray(phi, dtype=float)[..., None])


def coherent_spin_state(f, theta: float, phi: float) -> QuantumState:
    """Pure coherent spin state with mean spin F (sin t cos p, sin t sin p, cos t)."""
    return QuantumState.from_vector(coherent_state_vector(f, theta, phi))


def moments(rho, ops) -> tuple[np.ndarray, np.ndarray]:
    """Means <A_a> and symmetrized covariances (1/2)<A_a A_b + A_b A_a> - <A_a><A_b>.

    ``rho`` is one density matrix or a stack of them, shape (..., d, d), and
    ``ops`` holds k Hermitian (d, d) matrices.  Returns real arrays of shape
    (..., k) and (..., k, k): each is one ``einsum`` of the states against the
    operators or their precomputed symmetrized products.
    """
    rho, ops = np.asarray(rho), np.asarray(ops)
    if ops.ndim != 3 or ops.shape[1:] != rho.shape[-2:]:
        raise ValueError(
            f"operator shape {ops.shape[1:]} does not match state dimension {rho.shape[-2:]}"
        )
    products = np.einsum("aij,bjl->abil", ops, ops)
    sym = (products + products.transpose(1, 0, 2, 3)) / 2.0
    mean = np.einsum("...ij,aji->...a", rho, ops).real
    second = np.einsum("...ij,abji->...ab", rho, sym).real
    return mean, second - mean[..., :, None] * mean[..., None, :]


def variance_extrema(cov) -> tuple[np.ndarray, np.ndarray]:
    """Smaller and larger eigenvalue (a+b)/2 -+ hypot((a-b)/2, c) of 2x2 covariances.

    These are the extreme quadrature variances over all angles in the plane
    of the pair; ``cov`` has shape (..., 2, 2).
    """
    cov = np.asarray(cov, dtype=float)
    a, b = cov[..., 0, 0], cov[..., 1, 1]
    c = (cov[..., 0, 1] + cov[..., 1, 0]) / 2.0
    mid = (a + b) / 2.0
    radius = np.hypot((a - b) / 2.0, c)
    return mid - radius, mid + radius
