from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from spintomo import (
    PhysicalityError,
    QuantumState,
    coherent_spin_state,
    lindblad_trajectory,
    husimi,
    spin_operators,
    squeezing_report,
    tact_hamiltonian,
    tact_optimum,
)
from spintomo import squeezing
from spintomo.squeezing import _first_local_min
from conftest import evolve_unitary, oat_hamiltonian, random_density_matrix, rotate


def _squeezed_angle(report):
    """Angle in the transverse plane of the eigenvector of the smaller variance."""
    squeezed = np.linalg.eigh(report.cov)[1][:, 0]
    return np.arctan2(squeezed[1], squeezed[0])


def _evolved_tact(f, tau):
    ops = spin_operators(f)
    css = coherent_spin_state(f, np.pi / 2.0, 0.0)
    return evolve_unitary(css, tact_hamiltonian(ops, 1.0), tau)


class TestSqueezingReport:
    def test_css_baseline(self, css_x4):
        report = squeezing_report(css_x4)
        assert abs(report.chi2 - 1.0) <= 1e-10
        assert abs(report.zeta2 - 1.0) <= 1e-10
        assert abs(report.xi2 - 1.0) <= 1e-10
        assert_allclose(report.cov, 2.0 * np.eye(2), atol=1e-12)

    def test_mean_spin_vector(self, css_x4):
        report = squeezing_report(css_x4)
        assert_allclose(report.mean_spin, [4.0, 0.0, 0.0], atol=1e-12)

    def test_collapsed_mean_spin_rejected(self):
        mixed = QuantumState(np.eye(9) / 9.0)
        with pytest.raises(PhysicalityError, match="mean spin collapsed"):
            squeezing_report(mixed)

    def test_invalid_args(self, css_x4):
        report = squeezing_report(css_x4)
        with pytest.raises(ValueError, match="3-vector"):
            replace(report, mean_spin=np.zeros(2))
        with pytest.raises(ValueError, match="symmetric"):
            replace(report, cov=np.array([[2.0, 0.1], [0.0, 2.0]]))

    def test_nan_covariance_rejected(self, css_x4):
        report = squeezing_report(css_x4)
        for cov in ([[np.nan, 0.0], [0.0, 2.0]], [[2.0, 0.0], [0.0, np.nan]]):
            with pytest.raises(PhysicalityError, match="not positive semidefinite"):
                replace(report, cov=np.array(cov))

    @pytest.mark.parametrize("tau", [0.03, 0.08, 0.1375, 0.2])
    def test_parameter_ordering_chain(self, tau):
        # with the reference length F >= |<F>| the chain chi2 <= zeta2 <= xi2 holds
        report = squeezing_report(_evolved_tact(4, tau))
        assert report.chi2 <= report.zeta2 + 1e-12
        assert report.zeta2 <= report.xi2 + 1e-12

    def test_rotation_about_mean_axis(self):
        state = _evolved_tact(4, 0.1)
        base = squeezing_report(state)
        delta = 0.4
        rotated = squeezing_report(rotate(state, [1.0, 0.0, 0.0], delta))
        assert abs(rotated.chi2 - base.chi2) <= 1e-10
        assert abs(rotated.zeta2 - base.zeta2) <= 1e-10
        assert abs(rotated.xi2 - base.xi2) <= 1e-10
        shift = (_squeezed_angle(rotated) - _squeezed_angle(base) - delta) % np.pi
        assert min(shift, np.pi - shift) <= 1e-8

    @pytest.mark.parametrize("tau", [0.05, 0.1375, 0.3])
    def test_heisenberg_floor_unitary(self, tau):
        report = squeezing_report(_evolved_tact(4, tau))
        floor = report.mean_spin_length**2 / 4.0
        assert np.linalg.det(report.cov) >= floor - 1e-9

    def test_heisenberg_floor_lindblad(self, ops4, css_x4):
        rates = (1.0 / 80.0 + 0.01, 2.0 * (1.0 / 20.0 - 1.0 / 80.0))  # t1 = 80, t2 = 20 ms
        h = tact_hamiltonian(ops4, 0.12)
        for t in (0.5, 1.5, 3.0):
            report = squeezing_report(lindblad_trajectory(css_x4, h, *rates, [t])[0])
            floor = report.mean_spin_length**2 / 4.0
            assert np.linalg.det(report.cov) >= floor - 1e-9


class TestTactOptimum:
    def test_f4_limits(self):
        opt = tact_optimum(4)
        assert abs(opt.chi2_min - 0.163) <= 0.005
        assert abs(opt.zeta2_min - 0.247) <= 0.005
        assert abs(opt.xi2_min - 0.327) <= 0.005

    def test_f4_against_independent_scan(self):
        # oracle: matrix-exponential evolution on a shifted fine grid plus
        # parabolic refinement, written independently of the scanned module
        ops = spin_operators(4)
        h = tact_hamiltonian(ops, 1.0)
        psi0 = np.zeros(9, dtype=complex)
        state = coherent_spin_state(4, np.pi / 2.0, 0.0)
        w, v = np.linalg.eigh(state.rho)
        psi0 = v[:, np.argmax(w)]
        fy, fz, fx = np.asarray(ops.fy), np.asarray(ops.fz), np.asarray(ops.fx)

        def zeta2_of(tau):
            u = expm(-1j * tau * h)
            psi = u @ psi0
            ey = np.real(psi.conj() @ fy @ psi)
            ez = np.real(psi.conj() @ fz @ psi)
            ex = np.real(psi.conj() @ fx @ psi)
            vyy = np.real(psi.conj() @ fy @ fy @ psi) - ey**2
            vzz = np.real(psi.conj() @ fz @ fz @ psi) - ez**2
            vyz = np.real(psi.conj() @ (fy @ fz + fz @ fy) / 2 @ psi) - ey * ez
            vmin = (vyy + vzz) / 2 - np.hypot((vyy - vzz) / 2, vyz)
            return 2.0 * vmin / np.sqrt(ex**2 + ey**2 + ez**2)

        taus = np.linspace(0.05, 0.25, 801)
        vals = np.array([zeta2_of(t) for t in taus])
        i = int(np.argmin(vals))
        opt = tact_optimum(4)
        assert abs(opt.zeta2_min - vals[i]) <= 1e-5
        assert abs(opt.alpha_t_zeta2 - taus[i]) <= 5e-4

    def test_f1_regression_fixture(self):
        # spin-1 countertwisting reaches a perfectly squeezed quadrature at
        # alpha*t = pi/4 while the mean spin collapses; xi2 bottoms at 1/2
        opt = tact_optimum(1)
        assert opt.chi2_min <= 1e-10
        assert opt.zeta2_min <= 1e-4
        assert abs(opt.xi2_min - 0.5) <= 1e-6
        assert abs(opt.alpha_t_chi2 - np.pi / 4.0) <= 1e-3
        assert abs(opt.alpha_t_xi2 - np.pi / 4.0) <= 1e-3

    def test_minima_ordered_in_time(self):
        # anti-squeezing grows monotonically, so the stricter parameters
        # bottom out earlier
        opt = tact_optimum(4)
        assert opt.alpha_t_xi2 < opt.alpha_t_zeta2 < opt.alpha_t_chi2

    def test_report_matches_zeta2_minimum(self):
        # independent path: unitary evolution of the density matrix and the
        # squeezing report at the optimal time reproduce the scanned minimum
        opt = tact_optimum(4)
        report = squeezing_report(_evolved_tact(4, opt.alpha_t_zeta2))
        assert abs(report.zeta2 - opt.zeta2_min) <= 1e-9

    @pytest.mark.parametrize("bracket_points", [4, 8, 16, 64, 128])
    def test_f1_fixture_at_every_bracket_size(self, monkeypatch, bracket_points):
        # the spin-1 collapse at alpha*t = pi/4 makes xi2 a 0/0; the zoom must
        # not depend on where its bracket points happen to fall
        monkeypatch.setattr(squeezing, "BRACKET_POINTS", bracket_points)
        self.test_f1_regression_fixture()

    def test_oat_is_weaker_than_tact(self, ops4, css_x4):
        # dense scan of one-axis twisting as the comparison oracle
        h = oat_hamiltonian(ops4, 1.0)
        taus = np.linspace(0.01, np.pi, 1500)
        chi2s, xi2s = [], []
        for tau in taus:
            try:
                report = squeezing_report(evolve_unitary(css_x4, h, tau))
            except PhysicalityError:
                continue  # cat-state points with zero mean spin are not minima
            chi2s.append(report.chi2)
            xi2s.append(report.xi2)
        chi2_oat = min(chi2s)
        xi2_oat = min(xi2s)
        opt = tact_optimum(4)
        assert chi2_oat < 0.3
        assert xi2_oat > opt.xi2_min

    def test_spin_half_rejected(self):
        with pytest.raises(ValueError, match="cannot squeeze"):
            tact_optimum(0.5)

    def test_first_local_min_matches_loop(self):
        # the vectorized first-minimum search of the scan against a plain loop
        def reference(values):
            for i in range(1, len(values) - 1):
                if values[i] < values[i - 1] and values[i] <= values[i + 1]:
                    return i
            return int(np.argmin(values))

        rng = np.random.default_rng(17)
        cases = [rng.integers(0, 4, n).astype(float) for n in (3, 5, 12, 40) for _ in range(25)]
        cases += [
            np.arange(6.0),
            np.arange(6.0)[::-1],
            np.array([np.inf, 1.0, np.inf, 0.5]),
            np.full(3, 2.0),
        ]
        for values in cases:
            assert _first_local_min(values) == reference(values)


class TestHusimi:
    def test_css_peaks_at_its_direction(self):
        theta0, phi0 = 1.1, 2.3
        state = coherent_spin_state(4, theta0, phi0)
        grid = husimi(state, 48, 96)
        i, j = np.unravel_index(np.argmax(grid.values), grid.values.shape)
        assert abs(grid.thetas[i] - theta0) <= np.pi / 48
        assert abs(grid.phis[j] - phi0) <= 2 * np.pi / 96

    def test_fully_mixed_is_flat(self):
        mixed = QuantumState(np.eye(9) / 9.0)
        grid = husimi(mixed, 24, 24)
        assert_allclose(grid.values, np.full((24, 24), 1.0 / 9.0), atol=1e-12)

    def test_matches_nodewise_expectation(self):
        # second method: <psi|rho|psi> with psi = exp(-i phi Fz) exp(-i theta Fy)|F, F>
        # from the eigendecompositions of the spin matrices, one node at a time
        rng = np.random.default_rng(23)
        state = random_density_matrix(9, rng)
        ops = spin_operators(4)
        wy, vy = np.linalg.eigh(ops.fy)
        wz, vz = np.linalg.eigh(ops.fz)
        grid = husimi(state, 6, 10)
        for i, theta in enumerate(grid.thetas):
            for j, phi in enumerate(grid.phis):
                ry = (vy * np.exp(-1j * theta * wy)) @ vy.conj().T
                rz = (vz * np.exp(-1j * phi * wz)) @ vz.conj().T
                psi = rz @ ry[:, 0]
                expected = np.real(psi.conj() @ state.rho @ psi)
                assert abs(grid.values[i, j] - expected) <= 1e-12

    def test_values_bounded(self, css_x4):
        grid = husimi(css_x4, 32, 32)
        assert grid.values.min() >= 0.0
        assert grid.values.max() <= 1.0

    @pytest.mark.parametrize("state_tau", [None, 0.1])
    def test_normalization(self, state_tau, css_x4):
        state = css_x4 if state_tau is None else _evolved_tact(4, state_tau)
        grid = husimi(state, 64, 64)
        # quadrature-weighted sum times (2F+1)/(4 pi), by the SU(2) resolution of identity
        d_theta, d_phi = np.pi / len(grid.thetas), 2.0 * np.pi / len(grid.phis)
        weighted = (grid.values * np.sin(grid.thetas)[:, None]).sum() * d_theta * d_phi
        assert abs(weighted * state.dimension / (4.0 * np.pi) - 1.0) <= 1e-3

    def test_shear_rotates_principal_axis(self, ops4, css_x4):
        # one-axis twisting shears the distribution; the principal axis of
        # the Husimi second moments around the mean must agree with the
        # anti-squeezed axis from the covariance report
        state = evolve_unitary(css_x4, oat_hamiltonian(ops4, 1.0), 0.04)
        report = squeezing_report(state)
        grid = husimi(state, 96, 192)
        tt, pp = np.meshgrid(grid.thetas, grid.phis, indexing="ij")
        mask = (np.abs(pp - 0.0) < 0.8) | (np.abs(pp - 2 * np.pi) < 0.8)
        mask &= np.abs(tt - np.pi / 2) < 0.8
        q = grid.values * mask
        # local transverse coordinates around the mean direction +x:
        # u along +y (azimuth), w along +z (negative polar offset)
        u = np.where(pp > np.pi, pp - 2 * np.pi, pp)
        wcoord = np.pi / 2 - tt
        total = q.sum()
        mu = (q * u).sum() / total
        mw = (q * wcoord).sum() / total
        muu = (q * (u - mu) ** 2).sum() / total
        mww = (q * (wcoord - mw) ** 2).sum() / total
        muw = (q * (u - mu) * (wcoord - mw)).sum() / total
        principal = 0.5 * np.arctan2(2 * muw, muu - mww)  # anti-squeezed axis
        squeezed = _squeezed_angle(report)
        diff = (principal - squeezed - np.pi / 2.0) % np.pi
        assert min(diff, np.pi - diff) <= 0.15
        # the shear actually rotated it off the F_y' axis
        assert min(squeezed % np.pi, -squeezed % np.pi) > 0.05

    def test_csv_round_trip_text(self, css_x4):
        grid = husimi(css_x4, 4, 6)
        text = grid.to_csv_text(header_comments={"tag": "x"})
        lines = text.strip().splitlines()
        assert lines[0] == "# tag=x"
        assert lines[1] == "theta_rad,phi_rad,q_value"
        assert len(lines) == 2 + 4 * 6

    def test_grid_validation(self, css_x4):
        with pytest.raises(ValueError):
            husimi(css_x4, 1, 8)
