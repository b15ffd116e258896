import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from spintomo import (
    DecayChannels,
    Hamiltonian,
    PhysicalityError,
    coherent_spin_state,
    compensated_hamiltonian,
    covariance,
    evolve_unitary,
    expectation,
    light_shift_hamiltonian,
    lindblad_trajectory,
    oat_hamiltonian,
    spin_operators,
    tact_hamiltonian,
    zeeman_hamiltonian,
)
from spintomo import dynamics
from conftest import random_density_matrix, secular_compensated_matrix

HALF_STEPS = [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]


class TestOneAxisTwisting:
    def test_half_spin_is_trivial(self):
        ops = spin_operators(0.5)
        h = oat_hamiltonian(ops, 0.7)
        assert_allclose(h.matrix, 0.7 / 4.0 * np.eye(2), atol=1e-15)

    def test_f4_spectrum(self, ops4):
        h = oat_hamiltonian(ops4, 1.0)
        assert_allclose(h.matrix, np.diag([16, 9, 4, 1, 0, 1, 4, 9, 16]).astype(float), atol=1e-14)

    def test_var_fz_conserved(self, ops4, css_x4):
        h = oat_hamiltonian(ops4, 1.0)
        for t in (0.05, 0.3, 1.2):
            evolved = evolve_unitary(css_x4, h, t)
            assert abs(covariance(evolved, ops4.fz, ops4.fz) - 2.0) <= 1e-10


class TestTwoAxisCountertwisting:
    @pytest.mark.parametrize("f", HALF_STEPS)
    def test_traceless(self, f):
        h = tact_hamiltonian(spin_operators(f), 1.3)
        assert abs(np.trace(h.matrix)) <= 1e-12

    @pytest.mark.parametrize("f", HALF_STEPS)
    def test_spectrum_symmetric_about_zero(self, f):
        # rotating by pi/2 about x maps H -> -H, so the spectrum is symmetric
        eigs = np.linalg.eigvalsh(tact_hamiltonian(spin_operators(f), 1.0).matrix)
        assert_allclose(eigs, -eigs[::-1], atol=1e-12)

    def test_short_time_squeezes(self, ops4, css_x4):
        from spintomo import squeezing_report

        h = tact_hamiltonian(ops4, 1.0)
        evolved = evolve_unitary(css_x4, h, 0.05)
        report = squeezing_report(evolved)
        assert report.min_variance < 2.0
        # brute-force angle scan agrees with the closed-form optimum
        angles = np.linspace(-np.pi / 2, np.pi / 2, 10001)
        cov = report.cov
        scanned = (
            cov[0, 0] * np.cos(angles) ** 2
            + cov[1, 1] * np.sin(angles) ** 2
            + 2.0 * cov[0, 1] * np.sin(angles) * np.cos(angles)
        )
        assert report.min_variance <= scanned.min() + 1e-12


class TestLightShift:
    def test_scalar_shift_changes_nothing(self, ops4):
        rng = np.random.default_rng(21)
        state = random_density_matrix(9, rng)
        h = Hamiltonian(-0.25 * 3.7 * np.eye(9), "scalar light shift")
        evolved = evolve_unitary(state, h, 2.5)
        assert np.abs(evolved.rho - state.rho).max() <= 1e-12

    def test_pure_tensor_matches_oat(self, ops4):
        h_light = light_shift_hamiltonian(ops4, a2=-4.0)
        h_oat = oat_hamiltonian(ops4, 1.0)
        assert np.abs(h_light.matrix - h_oat.matrix).max() <= 1e-14

    def test_eigenvalues(self, ops4):
        a2 = -0.8
        h = light_shift_hamiltonian(ops4, a2)
        m = ops4.f.m_values
        expected = np.sort(-0.25 * a2 * m**2)
        assert_allclose(np.linalg.eigvalsh(h.matrix), expected, atol=1e-12)


class TestZeeman:
    def test_pure_larmor_keeps_css_x(self, ops4, css_x4):
        h = Hamiltonian(5.0 * ops4.fx, "larmor")
        evolved = evolve_unitary(css_x4, h, 1.7)
        assert np.abs(evolved.rho - css_x4.rho).max() <= 1e-10

    def test_css_z_precesses(self, ops4):
        omega = 5.0
        h = Hamiltonian(omega * ops4.fx, "larmor")
        css_z = coherent_spin_state(4, 0.0, 0.0)
        for t in (0.1, 0.75):
            evolved = evolve_unitary(css_z, h, t)
            assert abs(expectation(evolved, ops4.fz) - 4.0 * np.cos(omega * t)) <= 1e-10

    def test_eigenvalues_in_x_basis(self, ops4):
        beta = 0.4
        h = zeeman_hamiltonian(ops4, beta)
        m = ops4.f.m_values
        expected = np.sort(beta * m**2)
        assert_allclose(np.linalg.eigvalsh(h.matrix), expected, atol=1e-12)

    def test_larmor_period_at_322_kHz(self, ops4):
        # 2*pi*322 rad/ms precession returns <Fz> after 1/322 ms
        omega = 2.0 * np.pi * 322.0
        h = Hamiltonian(omega * ops4.fx, "larmor")
        css_z = coherent_spin_state(4, 0.0, 0.0)
        period = 1.0 / 322.0
        evolved = evolve_unitary(css_z, h, period)
        assert abs(expectation(evolved, ops4.fz) - 4.0) <= 1e-8
        half = evolve_unitary(css_z, h, period / 2.0)
        assert abs(expectation(half, ops4.fz) + 4.0) <= 1e-8


class TestCompensation:
    @pytest.mark.parametrize("f", [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0])
    def test_operator_identity(self, f):
        # the closed-form constructor against the numerical secular average,
        # and both against the collapsed form beta F(F+1) I + (beta/2)(Fz^2 - Fy^2)
        ops = spin_operators(f)
        beta = 0.37
        h = compensated_hamiltonian(ops, beta)
        assert np.abs(h.matrix - secular_compensated_matrix(ops, beta)).max() <= 1e-12
        twisting = (beta / 2.0) * (ops.fz @ ops.fz - ops.fy @ ops.fy)
        resid = h.matrix - beta * f * (f + 1.0) * np.eye(ops.dimension) - twisting
        assert np.abs(resid).max() <= 1e-12

    def test_zero_beta_means_no_twisting(self, ops4):
        h = compensated_hamiltonian(ops4, 0.0)
        assert np.abs(h.matrix).max() <= 1e-13

    def test_dynamics_match_tact_at_half_rate(self, ops4, css_x4):
        beta = 1.0
        h_comp = compensated_hamiltonian(ops4, beta)
        h_tact = tact_hamiltonian(ops4, beta / 2.0)
        for t in (0.1, 0.2, 0.35):
            a = evolve_unitary(css_x4, h_comp, t)
            b = evolve_unitary(css_x4, h_tact, t)
            va = covariance(a, ops4.fz, ops4.fz)
            vb = covariance(b, ops4.fz, ops4.fz)
            assert abs(va - vb) <= 1e-10

    def test_residual_knob_adds_fx2(self, ops4):
        beta, delta = 0.4, 0.05
        h0 = compensated_hamiltonian(ops4, beta)
        h1 = compensated_hamiltonian(ops4, beta, residual=delta)
        fx2 = np.asarray(ops4.fx) @ np.asarray(ops4.fx)
        assert np.abs((h1.matrix - h0.matrix) - delta * fx2).max() <= 1e-13


class TestUnitaryEvolution:
    def test_zero_time_is_identity(self, ops4, css_x4):
        h = tact_hamiltonian(ops4, 1.0)
        evolved = evolve_unitary(css_x4, h, 0.0)
        assert np.abs(evolved.rho - css_x4.rho).max() <= 1e-14

    def test_group_property(self, ops4):
        rng = np.random.default_rng(31)
        state = random_density_matrix(9, rng)
        h = tact_hamiltonian(ops4, 0.7)
        a = evolve_unitary(evolve_unitary(state, h, 0.3), h, 0.9)
        b = evolve_unitary(state, h, 1.2)
        assert np.abs(a.rho - b.rho).max() <= 1e-10

    def test_oat_revival_at_pi(self, ops4, css_x4):
        h = oat_hamiltonian(ops4, 1.0)
        evolved = evolve_unitary(css_x4, h, np.pi)
        assert abs(abs(expectation(evolved, ops4.fx)) - 4.0) <= 1e-10

    def test_spectrum_preserved(self, ops4):
        rng = np.random.default_rng(41)
        state = random_density_matrix(9, rng)
        h = tact_hamiltonian(ops4, 1.0)
        evolved = evolve_unitary(state, h, 0.8)
        assert_allclose(
            np.linalg.eigvalsh(evolved.rho), np.linalg.eigvalsh(state.rho), atol=1e-10
        )

    def test_dimension_mismatch(self, css_x4):
        h = tact_hamiltonian(spin_operators(1), 1.0)
        with pytest.raises(ValueError):
            evolve_unitary(css_x4, h, 0.1)


class TestDecayChannels:
    def test_rates(self):
        decay = DecayChannels(t1=80.0, t2=20.0)
        assert abs(decay.depolarization_rate - 1.0 / 80.0) <= 1e-15
        # nearest-neighbour coherence rate + depolarization = 1/t2
        assert abs(decay.dephasing_rate / 2.0 + 1.0 / 80.0 - 1.0 / 20.0) <= 1e-15

    def test_infinite_times_allowed(self):
        decay = DecayChannels(t1=np.inf, t2=np.inf)
        assert decay.depolarization_rate == 0.0
        assert decay.dephasing_rate == 0.0

    def test_complete_positivity_guard(self):
        with pytest.raises(ValueError):
            DecayChannels(t1=10.0, t2=30.0)  # t2 > t1

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            DecayChannels(t1=-1.0, t2=1.0)
        with pytest.raises(ValueError):
            DecayChannels(t1=10.0, t2=5.0, extra_scatter_rate=-0.1)


class TestLindblad:
    def test_coherence_decay_closed_form(self, ops4):
        # with H = 0 the x-basis matrix elements decay independently:
        # off-diagonals at Gamma_d + gamma_phi (dm)^2 / 2, diagonals toward 1/d
        decay = DecayChannels(t1=80.0, t2=20.0)
        h0 = Hamiltonian(np.zeros((9, 9)), "zero")
        state = coherent_spin_state(4, 0.0, 0.0)  # stretched along z: rich x-coherences
        t = 2.0
        evolved = lindblad_trajectory(state, h0, decay, [t])[0]
        w, v = np.linalg.eigh(np.asarray(ops4.fx))
        m = np.round(w).astype(int)
        r0 = v.conj().T @ state.rho @ v
        rt = v.conj().T @ evolved.rho @ v
        gamma_d = decay.depolarization_rate
        gamma_phi = decay.dephasing_rate
        dm = m[:, None] - m[None, :]
        factor = np.exp(-(gamma_d + gamma_phi * dm.astype(float) ** 2 / 2.0) * t)
        expected = r0 * factor
        idx = np.arange(9)
        expected[idx, idx] = 1.0 / 9.0 + (np.diag(r0) - 1.0 / 9.0) * np.exp(-gamma_d * t)
        assert np.abs(rt - expected).max() <= 1e-12

    def test_nearest_neighbour_rate_is_one_over_t2(self, ops4):
        decay = DecayChannels(t1=80.0, t2=20.0)
        h0 = Hamiltonian(np.zeros((9, 9)), "zero")
        state = coherent_spin_state(4, 0.0, 0.0)
        t = 3.0
        evolved = lindblad_trajectory(state, h0, decay, [t])[0]
        w, v = np.linalg.eigh(np.asarray(ops4.fx))
        r0 = v.conj().T @ state.rho @ v
        rt = v.conj().T @ evolved.rho @ v
        ratio = abs(rt[0, 1]) / abs(r0[0, 1])
        assert abs(ratio - np.exp(-t / 20.0)) <= 1e-12

    def test_depolarization_fixed_point(self):
        decay = DecayChannels(t1=1.0, t2=1.0)  # pure depolarization
        h0 = Hamiltonian(np.zeros((5, 5)), "zero")
        state = coherent_spin_state(2, np.pi / 2.0, 0.3)
        evolved = lindblad_trajectory(state, h0, decay, [20.0])[0]
        assert np.abs(evolved.rho - np.eye(5) / 5.0).max() <= 1e-8
        # closed form: the distance to the fixed point shrinks as exp(-t/t1)
        expected = np.eye(5) / 5.0 + (state.rho - np.eye(5) / 5.0) * np.exp(-20.0)
        assert np.abs(evolved.rho - expected).max() <= 1e-12

    def test_zero_decay_matches_unitary(self, ops4, css_x4):
        decay = DecayChannels(t1=np.inf, t2=np.inf)
        h = tact_hamiltonian(ops4, 0.5)
        a = lindblad_trajectory(css_x4, h, decay, [1.0])[0]
        b = evolve_unitary(css_x4, h, 1.0)
        assert np.abs(a.rho - b.rho).max() <= 1e-12

    def test_trace_preserved_over_six_ms(self, ops4, css_x4):
        decay = DecayChannels(t1=80.0, t2=20.0, extra_scatter_rate=0.01)
        h = tact_hamiltonian(ops4, 0.12)
        evolved = lindblad_trajectory(css_x4, h, decay, [6.0])[0]
        assert abs(np.trace(evolved.rho).real - 1.0) <= 1e-8

    def test_purity_contracts(self, ops4, css_x4):
        decay = DecayChannels(t1=80.0, t2=20.0)
        h = tact_hamiltonian(ops4, 0.12)
        states = lindblad_trajectory(css_x4, h, decay, [0.5, 1.0, 2.0, 4.0])
        purities = [s.purity() for s in states]
        assert all(b < a for a, b in zip(purities, purities[1:]))
        assert purities[0] < 1.0

    def test_trajectory_matches_single_calls(self, ops4, css_x4):
        decay = DecayChannels(t1=80.0, t2=20.0)
        h = tact_hamiltonian(ops4, 0.12)
        traj = lindblad_trajectory(css_x4, h, decay, [0.7, 1.4])
        single = lindblad_trajectory(css_x4, h, decay, [1.4])[0]
        assert np.abs(traj[1].rho - single.rho).max() <= 1e-12

    def test_validation(self, ops4, css_x4):
        decay = DecayChannels(t1=80.0, t2=20.0)
        h = tact_hamiltonian(ops4, 0.12)
        with pytest.raises(ValueError):
            lindblad_trajectory(css_x4, h, decay, [-1.0])
        with pytest.raises(ValueError):
            lindblad_trajectory(css_x4, h, decay, [1.0, 0.5])
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match=f"evolution time {bad:g} ms is not finite"):
                lindblad_trajectory(css_x4, h, decay, [0.5, bad])

    def test_semigroup_property(self, ops4):
        # P(a) P(b) = P(a + b) on vec(rho), from a state with full support
        rng = np.random.default_rng(51)
        state = random_density_matrix(9, rng)
        decay = DecayChannels(t1=80.0, t2=20.0, extra_scatter_rate=0.01)
        h = compensated_hamiltonian(ops4, 0.24, residual=0.15)
        for a, b in ((0.3, 0.9), (1.7, 4.3)):
            first = lindblad_trajectory(state, h, decay, [a])[0]
            two_steps = lindblad_trajectory(first, h, decay, [b])[0]
            one_step = lindblad_trajectory(state, h, decay, [a + b])[0]
            assert np.abs(two_steps.rho - one_step.rho).max() <= 1e-12

    def test_matches_column_stacked_expm(self, ops4, css_x4):
        # independent construction: column-stacking vec(A rho B) = kron(B^T, A) vec(rho)
        decay = DecayChannels(t1=80.0, t2=20.0, extra_scatter_rate=0.01)
        h = compensated_hamiltonian(ops4, 0.24, residual=0.15)
        hm, fx = h.matrix, np.asarray(ops4.fx)
        eye = np.eye(9)
        fx2 = fx @ fx
        vec_eye = eye.ravel(order="F")
        generator = (
            -1j * (np.kron(eye, hm) - np.kron(hm.T, eye))
            + decay.depolarization_rate * (np.outer(vec_eye, vec_eye) / 9.0 - np.eye(81))
            + decay.dephasing_rate
            * (np.kron(fx.T, fx) - 0.5 * (np.kron(eye, fx2) + np.kron(fx2.T, eye)))
        )
        times = [0.0, 0.8, 2.5, 6.0]
        states = lindblad_trajectory(css_x4, h, decay, times)
        for t, state in zip(times, states):
            vec = expm(generator * t) @ css_x4.rho.ravel(order="F")
            assert np.abs(state.rho - vec.reshape(9, 9, order="F")).max() <= 1e-12

    def test_expm_guard_catches_bad_eigenbasis(self, ops4, css_x4, monkeypatch):
        decay = DecayChannels(t1=80.0, t2=20.0)
        h = tact_hamiltonian(ops4, 0.12)
        eig = np.linalg.eig

        def corrupted_eig(a):
            w, v = eig(a)
            return w * (1.0 + 1e-6), v

        monkeypatch.setattr(dynamics.np.linalg, "eig", corrupted_eig)
        with pytest.raises(PhysicalityError, match=r"t_max=2 ms.*differs from expm"):
            lindblad_trajectory(css_x4, h, decay, [0.5, 2.0])


class TestHamiltonianContainer:
    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(PhysicalityError):
            Hamiltonian(m, "bad")

    @pytest.mark.parametrize("f", HALF_STEPS)
    def test_constructors_hermitian(self, f):
        ops = spin_operators(f)
        for h in (
            oat_hamiltonian(ops, 0.3),
            tact_hamiltonian(ops, -1.2),
            light_shift_hamiltonian(ops, 2.0),
            zeeman_hamiltonian(ops, 0.2),
            compensated_hamiltonian(ops, 0.7, residual=0.02),
        ):
            assert np.abs(h.matrix - h.matrix.conj().T).max() <= 1e-12
