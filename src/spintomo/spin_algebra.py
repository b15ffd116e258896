"""Exact finite-dimensional angular-momentum algebra and density-matrix checks.

Conventions used throughout the package:

- hbar = 1; spin operators are dimensionless.
- Basis ordering m = +F ... -F, i.e. row 0 is the stretched state m = +F.
- Commutators follow [fy, fz] = i fx and cyclic permutations.
- Dense matrices only; every dimension in this package is <= MAX_DIMENSION = 16.

Spin and density matrices are plain numpy arrays, (d, d) for one state and
(..., d, d) for a stack, with F = (d - 1)/2.  The spin matrices and checked
states are read-only, so values can be shared freely between threads.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import PhysicalityError

__all__ = [
    "spin_dimension",
    "spin_operators",
    "check_density",
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


def spin_dimension(f) -> int:
    """Dimension 2F + 1 of the total spin ``f``; 2F must be a non-negative integer to 1e-9.

    Any other value, or a dimension above MAX_DIMENSION, raises ``ValueError``.
    """
    two_f = 2.0 * float(f)
    if not np.isfinite(two_f) or abs(two_f - round(two_f)) > 1e-9:
        raise ValueError(f"F must be a finite integer or half-integer, got {f!r}")
    two_f = int(round(two_f))
    if two_f < 0:
        raise ValueError(f"two_f must be a non-negative integer, got {two_f!r}")
    if two_f + 1 > MAX_DIMENSION:
        raise ValueError(f"F={two_f / 2:g} needs dimension {two_f + 1:g} > {MAX_DIMENSION}")
    return two_f + 1


@lru_cache(maxsize=None)
def _spin_operators(d: int) -> np.ndarray:
    fval = (d - 1) / 2.0
    m = fval - np.arange(d)
    fz = np.diag(m).astype(complex)
    # <m+1|F+|m> = sqrt(F(F+1) - m(m+1)); m+1 sits one row above m.
    c = np.sqrt(fval * (fval + 1.0) - m[1:] * (m[1:] + 1.0))
    f_plus = np.diag(c, k=1).astype(complex)
    f_minus = f_plus.conj().T
    fx = (f_plus + f_minus) / 2.0
    fy = (f_plus - f_minus) / 2.0j
    return _readonly(np.array([fx, fy, fz]))


def spin_operators(f) -> np.ndarray:
    """The read-only (3, d, d) stack (Fx, Fy, Fz) for total spin ``f``, cached per dimension."""
    return _spin_operators(spin_dimension(f))


def _check_stack(rho: np.ndarray, at) -> None:
    """Raise :class:`PhysicalityError` for the first failing state i of the (n, d, d) stack
    ``rho``, its message prefixed by ``at(i)``.

    The trace and Hermiticity tests run before the stack's one ``eigvalsh``,
    so a state with NaN or infinite entries fails them, never the eigensolver.
    """
    trace = np.trace(rho, axis1=1, axis2=2)
    bad = ~(np.abs(trace - 1.0) <= 1e-10)
    if bad.any():
        i = np.argmax(bad)
        raise PhysicalityError(f"{at(i)}trace(rho) = {trace[i]:.12g}, deviates from 1 beyond 1e-10")
    adjoint = rho.conj().swapaxes(1, 2)
    herm = np.abs(rho - adjoint).max(axis=(1, 2))
    bad = ~(herm <= 1e-10)
    if bad.any():
        i = np.argmax(bad)
        raise PhysicalityError(f"{at(i)}rho not Hermitian: max |rho - rho^dag| = {herm[i]:.3g}")
    lowest = np.linalg.eigvalsh((rho + adjoint) / 2.0)[:, 0]
    bad = ~(lowest >= -1e-9)
    if bad.any():
        i = np.argmax(bad)
        raise PhysicalityError(f"{at(i)}rho has eigenvalue {lowest[i]:.3g} below tolerance -1e-09")


def check_density(rho) -> np.ndarray:
    """A read-only complex copy of one density matrix (d, d) or a stack (..., d, d).

    Each state needs unit trace and Hermiticity to 1e-10 and no eigenvalue
    below -1e-9; the tolerances absorb round-off only.  A violation, NaN
    entries included, raises :class:`PhysicalityError`, naming in a stack the
    state's row-major index.  A shape that is not square raises ``ValueError``.
    """
    rho = np.array(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise ValueError(f"rho must be square, got shape {rho.shape}")
    _check_stack(rho.reshape(-1, *rho.shape[-2:]), lambda i: f"state {i}: " if rho.ndim > 2 else "")
    return _readonly(rho)


def coherent_state_vector(f, theta, phi) -> np.ndarray:
    """Amplitudes of the spin coherent states pointing along (theta, phi).

    The state exp(-i phi Fz) exp(-i theta Fy)|F, F> in closed form,
    sqrt(C(2F, F-m)) cos(theta/2)^(F+m) sin(theta/2)^(F-m) exp(-i m phi);
    theta is the polar angle from +z, phi the azimuth from +x.  The angles
    broadcast, and the result has shape (..., 2F+1): (2F+1,) for scalars.
    """
    d = spin_dimension(f)
    fval = (d - 1) / 2.0
    m = fval - np.arange(d)
    # exact integer binomials C(2F, k) from the factorials 0! ... (2F)!
    factorials = np.cumprod(np.arange(d).clip(1))
    binom = factorials[-1] // (factorials * factorials[::-1])
    half = np.asarray(theta, dtype=float)[..., None] / 2.0
    amps = np.sqrt(binom) * np.cos(half) ** (fval + m) * np.sin(half) ** (fval - m)
    return amps * np.exp(-1j * m * np.asarray(phi, dtype=float)[..., None])


def coherent_spin_state(f, theta: float, phi: float) -> np.ndarray:
    """Coherent spin state density matrix with mean spin F (sin t cos p, sin t sin p, cos t)."""
    psi = coherent_state_vector(f, theta, phi)
    psi = psi / np.linalg.norm(psi)
    return check_density(np.outer(psi, psi.conj()))


def moments(rho, ops) -> tuple[np.ndarray, np.ndarray]:
    """Means <A_a> and symmetrized covariances (1/2)<A_a A_b + A_b A_a> - <A_a><A_b>.

    ``rho`` is one density matrix or a stack of them, shape (..., d, d), and
    ``ops`` holds k Hermitian (d, d) matrices, e.g. the (3, d, d) stack of
    :func:`spin_operators`.  Returns real arrays of shape (..., k) and
    (..., k, k): each is one ``einsum`` of the states against the operators
    or their precomputed symmetrized products.
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
