import io

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from spintomo import (
    PhysicalityError,
    canonical_moments,
    coherent_spin_state,
    lindblad_trajectory,
    husimi,
    spin_operators,
    squeezing_report,
    tact_hamiltonian,
    tact_optimum,
)
from spintomo import squeezing
from conftest import evolve_unitary, oat_hamiltonian, random_density_matrix, rotate


def _squeezed_angle(report):
    """Angle in the transverse plane of the eigenvector of the smaller variance."""
    squeezed = np.linalg.eigh(report.cov)[1][:, 0]
    return np.arctan2(squeezed[1], squeezed[0])


def _dicke_zero():
    """|F=4, m=0><F=4, m=0|: every component of its mean spin is exactly zero."""
    rho = np.zeros((9, 9))
    rho[4, 4] = 1.0
    return rho


def _expm_parameters(f, tau):
    """(chi2, zeta2, xi2) of the countertwisted state along +x at alpha*t = tau.

    An oracle written independently of the scanned module: the top
    eigenvector of Fx is propagated by a matrix exponential, and the smaller
    transverse variance is the closed-form eigenvalue of the full (Fy, Fz)
    covariance.
    """
    ops = spin_operators(f)
    fx, fy, fz = ops
    psi = expm(-1j * tau * tact_hamiltonian(ops, 1.0)) @ np.linalg.eigh(fx)[1][:, -1]
    ex, ey, ez = (np.real(psi.conj() @ op @ psi) for op in (fx, fy, fz))
    vyy = np.real(psi.conj() @ fy @ fy @ psi) - ey**2
    vzz = np.real(psi.conj() @ fz @ fz @ psi) - ez**2
    vyz = np.real(psi.conj() @ (fy @ fz + fz @ fy) / 2 @ psi) - ey * ez
    vmin = (vyy + vzz) / 2 - np.hypot((vyy - vzz) / 2, vyz)
    length = np.sqrt(ex**2 + ey**2 + ez**2)
    return np.array([2.0 * vmin / f, 2.0 * vmin / length, 2.0 * f * vmin / length**2])


def _golden_section_min(fun, lo, hi, steps=80):
    """(tau, fun(tau)) at the minimum of the unimodal ``fun`` on [lo, hi]."""
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
    fc, fd = fun(c), fun(d)
    for _ in range(steps):
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - inv_phi * (hi - lo)
            fc = fun(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + inv_phi * (hi - lo)
            fd = fun(d)
    return (c, fc) if fc < fd else (d, fd)


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
        assert abs(report.length - 4.0) <= 1e-12

    def test_collapsed_mean_spin_rejected(self):
        # the Dicke state m = 0 has an exactly zero mean spin, so no transverse
        # plane: the report's parameters are not finite, and nothing raises
        # even where numpy errors raise; the fully mixed state's mean is
        # round-off.  canonical_moments refuses both
        with np.errstate(all="raise"):
            report = squeezing_report(_dicke_zero())
        assert report.length == 0.0
        assert not np.isfinite(report.zeta2)
        for rho in (_dicke_zero(), np.eye(9) / 9.0):
            report = squeezing_report(rho)
            with pytest.raises(PhysicalityError, match="mean spin collapsed"):
                canonical_moments(report.cov, report.length)

    def test_stack_matches_per_state_calls(self, ops4, css_x4):
        # one call on a stack equals one call per state; the state polarized
        # along +y takes the frame's z fallback, where the frame is (z, x) and
        # its covariance that of a coherent state, and the zero-mean member
        # is not finite without touching the others
        along_y = coherent_spin_state(4, np.pi / 2.0, np.pi / 2.0)
        tilted = rotate(_evolved_tact(4, 0.1), [0.3, -0.5, 0.8], 0.7)
        rates = (1.0 / 80.0 + 0.01, 2.0 * (1.0 / 20.0 - 1.0 / 80.0))
        decayed = lindblad_trajectory(css_x4, tact_hamiltonian(ops4, 0.12), *rates, [1.5])[0]
        stack = np.array([css_x4, along_y, _dicke_zero(), tilted, decayed])
        with np.errstate(all="raise"):
            batch = squeezing_report(stack)
        assert batch.mean_spin.shape == (5, 3) and batch.cov.shape == (5, 2, 2)
        for i in (0, 1, 3, 4):
            single = squeezing_report(stack[i])
            for field, value in zip(single._fields, single):
                assert_allclose(getattr(batch, field)[i], value, rtol=1e-14, atol=1e-14,
                                err_msg=f"{field} of state {i}")
        assert_allclose(batch.cov[1], 2.0 * np.eye(2), atol=1e-12)
        assert abs(batch.zeta2[1] - 1.0) <= 1e-12
        for field in ("cov", "chi2", "zeta2", "xi2"):
            assert not np.isfinite(getattr(batch, field)[2]).any()
            assert np.isfinite(np.delete(getattr(batch, field), 2, axis=0)).all()

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
        floor = report.length**2 / 4.0
        assert np.linalg.det(report.cov) >= floor - 1e-9

    def test_heisenberg_floor_lindblad(self, ops4, css_x4):
        rates = (1.0 / 80.0 + 0.01, 2.0 * (1.0 / 20.0 - 1.0 / 80.0))  # t1 = 80, t2 = 20 ms
        h = tact_hamiltonian(ops4, 0.12)
        for t in (0.5, 1.5, 3.0):
            report = squeezing_report(lindblad_trajectory(css_x4, h, *rates, [t])[0])
            floor = report.length**2 / 4.0
            assert np.linalg.det(report.cov) >= floor - 1e-9


class TestTactOptimum:
    def test_f4_limits(self):
        opt = tact_optimum(4)
        assert abs(opt.chi2_min - 0.163) <= 0.005
        assert abs(opt.zeta2_min - 0.247) <= 0.005
        assert abs(opt.xi2_min - 0.327) <= 0.005

    def test_f4_against_independent_scan(self):
        # oracle: matrix-exponential evolution on a fine grid
        taus = np.linspace(0.05, 0.25, 801)
        vals = np.array([_expm_parameters(4, t)[1] for t in taus])
        i = int(np.argmin(vals))
        opt = tact_optimum(4)
        assert abs(opt.zeta2_min - vals[i]) <= 1e-5
        assert abs(opt.alpha_t_zeta2 - taus[i]) <= 5e-4

    @pytest.mark.parametrize("f", [2, 3, 4])
    def test_minima_match_golden_section_search(self, f):
        # oracle: a coarse scan of the expm evolution brackets each first
        # minimum, and a golden-section search refines it
        taus = np.linspace(0.005, 0.5, 100)
        table = np.array([_expm_parameters(f, t) for t in taus])
        opt = tact_optimum(f)
        for k, name in enumerate(("chi2", "zeta2", "xi2")):
            col = table[:, k]
            i = 1 + int(np.flatnonzero((col[1:-1] < col[:-2]) & (col[1:-1] <= col[2:]))[0])
            tau, value = _golden_section_min(lambda t: _expm_parameters(f, t)[k], taus[i - 1], taus[i + 1])
            assert abs(getattr(opt, f"{name}_min") - value) <= 1e-14, name
            assert abs(getattr(opt, f"alpha_t_{name}") - tau) <= 1e-8, name

    def test_f1_regression_fixture(self):
        # spin-1 countertwisting squeezes one quadrature perfectly at the
        # collapse alpha*t = pi/4, where zeta2 and xi2 are 0/0: the row holds
        # their limits there, (0, 0, 1/2)
        opt = tact_optimum(1)
        for value, expected in ((opt.chi2_min, 0.0), (opt.zeta2_min, 0.0), (opt.xi2_min, 0.5)):
            assert abs(value - expected) <= 1e-12
        for alpha_t in (opt.alpha_t_chi2, opt.alpha_t_zeta2, opt.alpha_t_xi2):
            assert abs(alpha_t - np.pi / 4.0) <= 1e-12

    @pytest.mark.parametrize(
        "scan_points, f, message",
        [(8, 2, "F=2: parameter 0 has no minimum before the collapse"),
         (5, 4, "F=4: Newton left its bracket")],
        ids=["collapse-with-variance", "newton-out-of-bracket"],
    )
    def test_failed_premise_raises(self, monkeypatch, scan_points, f, message):
        # a grid too coarse to bracket the minima: at 8 points F = 2's window
        # holds one node, so no turn is seen and the collapse has v_min > 0;
        # at 5 points a secant start on F = 4 is too far for Newton
        monkeypatch.setattr(squeezing, "SCAN_POINTS", scan_points)
        with pytest.raises(ArithmeticError, match=message):
            tact_optimum(f)

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

    def test_oat_is_weaker_than_tact(self, ops4, css_x4):
        # dense scan of one-axis twisting as the comparison oracle
        h = oat_hamiltonian(ops4, 1.0)
        taus = np.linspace(0.01, np.pi, 1500)
        report = squeezing_report(np.array([evolve_unitary(css_x4, h, tau) for tau in taus]))
        # cat-state points with a collapsed mean spin (canonical_moments' rule) are not minima
        kept = report.length >= 1e-9
        chi2_oat = report.chi2[kept].min()
        xi2_oat = report.xi2[kept].min()
        opt = tact_optimum(4)
        assert chi2_oat < 0.3
        assert xi2_oat > opt.xi2_min

    def test_spin_half_rejected(self):
        with pytest.raises(ValueError, match="cannot squeeze"):
            tact_optimum(0.5)


class TestHusimi:
    def test_css_peaks_at_its_direction(self):
        theta0, phi0 = 1.1, 2.3
        state = coherent_spin_state(4, theta0, phi0)
        grid = husimi(state, 48, 96)
        i, j = np.unravel_index(np.argmax(grid.values), grid.values.shape)
        assert abs(grid.thetas[i] - theta0) <= np.pi / 48
        assert abs(grid.phis[j] - phi0) <= 2 * np.pi / 96

    def test_fully_mixed_is_flat(self):
        mixed = np.eye(9) / 9.0
        grid = husimi(mixed, 24, 24)
        assert_allclose(grid.values, np.full((24, 24), 1.0 / 9.0), atol=1e-12)

    @pytest.mark.parametrize("f", [0.0, 0.5, 1.0, 1.5, 4.0])
    def test_matches_nodewise_expectation(self, f):
        # second method: <psi|rho|psi> with psi = exp(-i phi Fz) exp(-i theta Fy)|F, F>
        # from the eigendecompositions of the spin matrices, one node at a time;
        # even and odd d, and d = 1 with no off-diagonal sum
        rng = np.random.default_rng(23)
        ops = spin_operators(f)
        state = random_density_matrix(len(ops[0]), rng)
        wy, vy = np.linalg.eigh(ops[1])
        wz, vz = np.linalg.eigh(ops[2])
        grid = husimi(state, 6, 10)
        for i, theta in enumerate(grid.thetas):
            for j, phi in enumerate(grid.phis):
                ry = (vy * np.exp(-1j * theta * wy)) @ vy.conj().T
                rz = (vz * np.exp(-1j * phi * wz)) @ vz.conj().T
                psi = rz @ ry[:, 0]
                expected = np.real(psi.conj() @ state @ psi)
                assert abs(grid.values[i, j] - expected) <= 1e-12

    def test_values_out_of_range_raise(self, css_x4, monkeypatch):
        # amplitudes 5 % too large put Q near the state's direction above 1:
        # the range test runs before the clip, so they are reported, not clipped
        vector = squeezing.coherent_state_vector
        monkeypatch.setattr(
            squeezing, "coherent_state_vector", lambda *args: 1.05 * vector(*args)
        )
        with pytest.raises(PhysicalityError, match=r"Husimi values must lie in \[0, 1\]"):
            husimi(css_x4, 16, 32)

    def test_rejects_unphysical_state(self):
        with pytest.raises(PhysicalityError, match="trace"):
            husimi(np.eye(9), 8, 8)

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
        assert abs(weighted * len(state) / (4.0 * np.pi) - 1.0) <= 1e-3

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
        stream = io.StringIO()
        grid.to_csv_text(stream, header_comments={"tag": "x"})
        lines = stream.getvalue().strip().splitlines()
        assert lines[0] == "# tag=x"
        assert lines[1] == "theta_rad,phi_rad,q_value"
        assert len(lines) == 2 + 4 * 6

    def test_grid_validation(self, css_x4):
        with pytest.raises(ValueError):
            husimi(css_x4, 1, 8)
