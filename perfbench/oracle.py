"""Independent reference physics for checking spintomo's outputs.

Nothing here imports spintomo.  The master equation is solved exactly,
through the eigen-decomposition of its 81x81 Liouvillian, not by the
package's fixed-step integrator, so agreement between the two is a real
check.
The model is the one the package documents: countertwisting at the
configured rate plus an uncompensated Fx^2 term, isotropic depolarization
and Fx dephasing, starting from a partly pumped stretched state along +x.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

# Countertwisting limits of F = 4 (chi2, zeta2, xi2), as published for the
# source experiment, and the tolerance the limits check allows.
LIMITS_F4 = (0.163, 0.247, 0.327)
LIMITS_TOL = 0.005


def spin_matrices(f: float):
    """(Fx, Fy, Fz) in the |F, m> basis ordered m = F, F-1, ..., -F."""
    m = f - np.arange(int(round(2 * f)) + 1)
    up = np.diag(np.sqrt(f * (f + 1) - m[1:] * (m[1:] + 1)), 1).astype(complex)
    return (up + up.T) / 2, (up - up.T) / 2j, np.diag(m).astype(complex)


class Model:
    """Exact states of one configured run, from the job's config values."""

    def __init__(self, config: dict):
        f = float(config.get("f", 4))
        self.f = f
        self.fx, self.fy, self.fz = spin_matrices(f)
        d = self.fx.shape[0]
        eye = np.eye(d)
        rate = float(config["twisting_rate"])
        residual = float(config.get("compensation_residual", 0.15))
        h = rate * (self.fz @ self.fz - self.fy @ self.fy) + residual * (self.fx @ self.fx)
        t1, t2 = float(config["t1"]), float(config["t2"])
        depol = 1 / t1 + float(config.get("extra_scatter_rate", 0.01))
        dephase = 2 * (1 / t2 - 1 / t1)
        fx2 = self.fx @ self.fx
        # row-major vec: vec(A rho B) = kron(A, B.T) vec(rho)
        self.liouvillian = (
            -1j * (np.kron(h, eye) - np.kron(eye, h.T))
            + depol * (np.outer(eye.ravel() / d, eye.ravel()) - np.eye(d * d))
            + dephase * (np.kron(self.fx, self.fx.T) - 0.5 * (np.kron(fx2, eye) + np.kron(eye, fx2.T)))
        )
        w, v = np.linalg.eigh(self.fx)
        top = v[:, np.argmax(w)]
        pump = float(config.get("pump_fraction", 0.98))
        self.rho0 = pump * np.outer(top, top.conj()) + (1 - pump) * eye / d
        self.pump = pump
        w, v = np.linalg.eig(self.liouvillian)
        self._modes = (w, v, np.linalg.solve(v, self.rho0.ravel()))

    def states(self, durations) -> list[np.ndarray]:
        """Density matrices at each of the ``durations`` (ms).

        Uses the eigen-decomposition of the Liouvillian; the last state is
        checked against a direct matrix exponential so an ill-conditioned
        decomposition cannot pass unnoticed.
        """
        w, v, c = self._modes
        d = self.rho0.shape[0]
        out = [(v @ (np.exp(w * t) * c)).reshape(d, d) for t in durations]
        if durations:
            direct = expm(self.liouvillian * durations[-1]) @ self.rho0.ravel()
            if np.abs(direct - out[-1].ravel()).max() > 1e-10:
                raise ArithmeticError("Liouvillian eigen-decomposition is ill-conditioned")
        return out

    def squeezing(self, rho: np.ndarray) -> dict:
        """chi2, zeta2, xi2 and mean-spin fraction of one state."""
        ops = (self.fx, self.fy, self.fz)
        mean = np.array([np.trace(rho @ a).real for a in ops])
        cov = np.array(
            [[np.trace(rho @ (a @ b + b @ a)).real / 2 for b in ops] for a in ops]
        ) - np.outer(mean, mean)
        length = np.linalg.norm(mean)
        n = mean / length
        # any orthonormal pair spanning the plane normal to the mean spin
        basis = np.linalg.svd(np.eye(3) - np.outer(n, n))[0][:, :2]
        v_min = np.linalg.eigvalsh(basis.T @ cov @ basis)[0]
        return {
            "chi2_true": 2 * v_min / self.f,
            "zeta2_true": 2 * v_min / length,
            "xi2_true": 2 * self.f * v_min / length**2,
            "mean_spin_fraction": length / (self.pump * self.f),
        }

    def canonical_zeta2(self, rho: np.ndarray) -> float:
        """2 * smallest eigenvalue of the canonical (x, p) covariance the probe sees."""
        jx = abs(np.trace(rho @ self.fx).real)
        return 2 * min_variance_of(rho, self.fy, self.fz) / jx


def min_variance_of(rho: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Smallest eigenvalue of the symmetrized covariance of the pair (a, b)."""
    ea, eb = np.trace(rho @ a).real, np.trace(rho @ b).real
    vaa = np.trace(rho @ a @ a).real - ea * ea
    vbb = np.trace(rho @ b @ b).real - eb * eb
    vab = np.trace(rho @ (a @ b + b @ a)).real / 2 - ea * eb
    return float(np.linalg.eigvalsh(np.array([[vaa, vab], [vab, vbb]]))[0])


def oscillator_zeta2(rho: np.ndarray) -> float:
    """2 * v_min of a density matrix in the excitation-number basis.

    Two empty levels are appended so the second moments, which reach two
    levels up, are exact for a state supported on the truncated basis.
    """
    d = rho.shape[0] + 2
    padded = np.zeros((d, d), dtype=complex)
    padded[:-2, :-2] = rho
    a = np.diag(np.sqrt(np.arange(1, d)), 1)
    x = (a + a.T) / math.sqrt(2)
    p = (a - a.T) / (1j * math.sqrt(2))
    return 2 * min_variance_of(padded, x, p)


def zeta2_sigma(corrected: dict, kappa2: float) -> float:
    """1-sigma error of 2 * v_min from a corrected covariance, as the sweep reports it."""
    cov = np.array([[corrected["var_x"], corrected["cov_xp"]], [corrected["cov_xp"], corrected["var_p"]]])
    v_min = max(float(np.linalg.eigvalsh(cov)[0]), 0.0)
    total_var = 0.5 + (kappa2 / 2) * v_min + kappa2**2 / 24
    return 2 * corrected["statistical_error"] * total_var * (2 / kappa2)


def husimi_value(rho: np.ndarray, f: float, theta: float, phi: float) -> float:
    """<theta, phi| rho |theta, phi> with the coherent state built by rotation."""
    fx, fy, fz = spin_matrices(f)
    top = np.zeros(fz.shape[0], dtype=complex)
    top[0] = 1.0
    psi = expm(-1j * phi * fz) @ expm(-1j * theta * fy) @ top
    return float((psi.conj() @ rho @ psi).real)
