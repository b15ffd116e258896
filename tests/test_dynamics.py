import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from spintomo import (
    ExperimentConfig,
    PhysicalityError,
    coherent_spin_state,
    compensated_hamiltonian,
    lindblad_trajectory,
    spin_operators,
    tact_hamiltonian,
)
from spintomo import dynamics, evolved_state, experiment
from conftest import (
    covariance,
    evolve_unitary,
    expectation,
    oat_hamiltonian,
    random_density_matrix,
    secular_compensated_matrix,
)

HALF_STEPS = [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]

# (depolarization, dephasing) rates in 1/ms of t1 = 80 ms and t2 = 20 ms: the
# x-basis m, m+-1 coherences decay at dephasing/2 + 1/t1 = 1/t2
DARK = (1.0 / 80.0, 2.0 * (1.0 / 20.0 - 1.0 / 80.0))
# the same with the default drive-induced scatter rate 0.01/ms added to the depolarization
DRIVEN = (DARK[0] + 0.01, DARK[1])
# several times (an eigen-solution checked at the last) and single times (the exponential alone)
ONE_OR_MORE_TIMES = [[0.0, 0.8, 2.5, 6.0], [0.8], [6.0], [60.0]]


def column_stacked_generator(h, fx, depolarization, dephasing):
    """Complex Liouvillian on the column-stacked vec: vec(A rho B) = kron(B^T, A) vec(rho)."""
    d = h.shape[0]
    eye = np.eye(d)
    fx2 = fx @ fx
    vec_eye = eye.ravel(order="F")
    return (
        -1j * (np.kron(eye, h) - np.kron(h.T, eye))
        + depolarization * (np.outer(vec_eye, vec_eye) / d - np.eye(d * d))
        + dephasing * (np.kron(fx.T, fx) - 0.5 * (np.kron(eye, fx2) + np.kron(fx2.T, eye)))
    )


def master_equation_rates(config):
    """The (depolarization, dephasing) rates the pipeline passes to the master equation."""
    seen = []

    def capture(rho0, h, depolarization, dephasing, times):
        seen.append((depolarization, dephasing))
        return [rho0] * len(times)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiment, "lindblad_trajectory", capture)
        evolved_state(config, 0.5)
    return seen[0]


class TestOneAxisTwisting:
    def test_half_spin_is_trivial(self):
        ops = spin_operators(0.5)
        h = oat_hamiltonian(ops, 0.7)
        assert_allclose(h, 0.7 / 4.0 * np.eye(2), atol=1e-15)

    def test_f4_spectrum(self, ops4):
        h = oat_hamiltonian(ops4, 1.0)
        assert_allclose(h, np.diag([16, 9, 4, 1, 0, 1, 4, 9, 16]).astype(float), atol=1e-14)

    def test_var_fz_conserved(self, ops4, css_x4):
        h = oat_hamiltonian(ops4, 1.0)
        for t in (0.05, 0.3, 1.2):
            evolved = evolve_unitary(css_x4, h, t)
            assert abs(covariance(evolved, ops4[2], ops4[2]) - 2.0) <= 1e-10


class TestTwoAxisCountertwisting:
    @pytest.mark.parametrize("f", HALF_STEPS)
    def test_traceless(self, f):
        h = tact_hamiltonian(spin_operators(f), 1.3)
        assert abs(np.trace(h)) <= 1e-12

    @pytest.mark.parametrize("f", HALF_STEPS)
    def test_spectrum_symmetric_about_zero(self, f):
        # rotating by pi/2 about x maps H -> -H, so the spectrum is symmetric
        eigs = np.linalg.eigvalsh(tact_hamiltonian(spin_operators(f), 1.0))
        assert_allclose(eigs, -eigs[::-1], atol=1e-12)

    def test_short_time_squeezes(self, ops4, css_x4):
        from spintomo import squeezing_report, variance_extrema

        h = tact_hamiltonian(ops4, 1.0)
        evolved = evolve_unitary(css_x4, h, 0.05)
        report = squeezing_report(evolved)
        assert variance_extrema(report.cov)[0] < 2.0
        # brute-force angle scan agrees with the closed-form optimum
        angles = np.linspace(-np.pi / 2, np.pi / 2, 10001)
        cov = report.cov
        scanned = (
            cov[0, 0] * np.cos(angles) ** 2
            + cov[1, 1] * np.sin(angles) ** 2
            + 2.0 * cov[0, 1] * np.sin(angles) * np.cos(angles)
        )
        assert variance_extrema(report.cov)[0] <= scanned.min() + 1e-12


class TestLightShift:
    def test_scalar_shift_changes_nothing(self, ops4):
        rng = np.random.default_rng(21)
        state = random_density_matrix(9, rng)
        h = -0.25 * 3.7 * np.eye(9)
        evolved = evolve_unitary(state, h, 2.5)
        assert np.abs(evolved - state).max() <= 1e-12


class TestZeeman:
    def test_pure_larmor_keeps_css_x(self, ops4, css_x4):
        h = 5.0 * ops4[0]
        evolved = evolve_unitary(css_x4, h, 1.7)
        assert np.abs(evolved - css_x4).max() <= 1e-10

    def test_css_z_precesses(self, ops4):
        omega = 5.0
        h = omega * ops4[0]
        css_z = coherent_spin_state(4, 0.0, 0.0)
        for t in (0.1, 0.75):
            evolved = evolve_unitary(css_z, h, t)
            assert abs(expectation(evolved, ops4[2]) - 4.0 * np.cos(omega * t)) <= 1e-10

    def test_larmor_period_at_322_kHz(self, ops4):
        # 2*pi*322 rad/ms precession returns <Fz> after 1/322 ms
        omega = 2.0 * np.pi * 322.0
        h = omega * ops4[0]
        css_z = coherent_spin_state(4, 0.0, 0.0)
        period = 1.0 / 322.0
        evolved = evolve_unitary(css_z, h, period)
        assert abs(expectation(evolved, ops4[2]) - 4.0) <= 1e-8
        half = evolve_unitary(css_z, h, period / 2.0)
        assert abs(expectation(half, ops4[2]) + 4.0) <= 1e-8


class TestCompensation:
    @pytest.mark.parametrize("f", [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0])
    def test_operator_identity(self, f):
        # the closed-form constructor against the numerical secular average,
        # and both against the collapsed form beta F(F+1) I + (beta/2)(Fz^2 - Fy^2)
        ops = spin_operators(f)
        beta = 0.37
        h = compensated_hamiltonian(ops, beta)
        assert np.abs(h - secular_compensated_matrix(ops, beta)).max() <= 1e-12
        twisting = (beta / 2.0) * (ops[2] @ ops[2] - ops[1] @ ops[1])
        resid = h - beta * f * (f + 1.0) * np.eye(len(h)) - twisting
        assert np.abs(resid).max() <= 1e-12

    def test_zero_beta_means_no_twisting(self, ops4):
        h = compensated_hamiltonian(ops4, 0.0)
        assert np.abs(h).max() <= 1e-13

    def test_dynamics_match_tact_at_half_rate(self, ops4, css_x4):
        beta = 1.0
        h_comp = compensated_hamiltonian(ops4, beta)
        h_tact = tact_hamiltonian(ops4, beta / 2.0)
        for t in (0.1, 0.2, 0.35):
            a = evolve_unitary(css_x4, h_comp, t)
            b = evolve_unitary(css_x4, h_tact, t)
            va = covariance(a, ops4[2], ops4[2])
            vb = covariance(b, ops4[2], ops4[2])
            assert abs(va - vb) <= 1e-10

    def test_residual_knob_adds_fx2(self, ops4):
        beta, delta = 0.4, 0.05
        h0 = compensated_hamiltonian(ops4, beta)
        h1 = compensated_hamiltonian(ops4, beta, residual=delta)
        fx2 = ops4[0] @ ops4[0]
        assert np.abs((h1 - h0) - delta * fx2).max() <= 1e-13


class TestUnitaryEvolution:
    def test_zero_time_is_identity(self, ops4, css_x4):
        h = tact_hamiltonian(ops4, 1.0)
        evolved = evolve_unitary(css_x4, h, 0.0)
        assert np.abs(evolved - css_x4).max() <= 1e-14

    def test_group_property(self, ops4):
        rng = np.random.default_rng(31)
        state = random_density_matrix(9, rng)
        h = tact_hamiltonian(ops4, 0.7)
        a = evolve_unitary(evolve_unitary(state, h, 0.3), h, 0.9)
        b = evolve_unitary(state, h, 1.2)
        assert np.abs(a - b).max() <= 1e-10

    def test_oat_revival_at_pi(self, ops4, css_x4):
        h = oat_hamiltonian(ops4, 1.0)
        evolved = evolve_unitary(css_x4, h, np.pi)
        assert abs(abs(expectation(evolved, ops4[0])) - 4.0) <= 1e-10

    def test_spectrum_preserved(self, ops4):
        rng = np.random.default_rng(41)
        state = random_density_matrix(9, rng)
        h = tact_hamiltonian(ops4, 1.0)
        evolved = evolve_unitary(state, h, 0.8)
        assert_allclose(
            np.linalg.eigvalsh(evolved), np.linalg.eigvalsh(state), atol=1e-10
        )

    def test_dimension_mismatch(self, css_x4):
        h = tact_hamiltonian(spin_operators(1), 1.0)
        with pytest.raises(ValueError):
            evolve_unitary(css_x4, h, 0.1)


class TestDecayChannels:
    def test_rates(self):
        # the config's decay times reach the master equation as these rates
        depolarization, dephasing = master_equation_rates(ExperimentConfig())
        assert depolarization == 1.0 / 80.0 + 0.01  # 1/t1 plus the drive's scatter rate
        # nearest-neighbour coherence rate + dark depolarization = 1/t2
        assert abs(dephasing / 2.0 + 1.0 / 80.0 - 1.0 / 20.0) <= 1e-15

    def test_infinite_times_allowed(self):
        config = ExperimentConfig(t1=np.inf, t2=np.inf, extra_scatter_rate=0.0)
        assert master_equation_rates(config) == (0.0, 0.0)
        # a finite t1 with t2 = inf is refused, since t2 <= t1
        with pytest.raises(ValueError, match="0 < t2 <= t1, got t1=80.0, t2=inf"):
            ExperimentConfig(t2=np.inf)

    def test_complete_positivity_guard(self, css_x4, ops4):
        # t2 > t1 needs a negative dephasing rate: refused at load and by the propagator
        with pytest.raises(ValueError, match=r"0 < t2 <= t1, got t1=10.0, t2=30.0"):
            ExperimentConfig(t1=10.0, t2=30.0)
        with pytest.raises(ValueError, match="decay rates must be finite and >= 0"):
            lindblad_trajectory(css_x4, tact_hamiltonian(ops4, 0.12), 0.1, -2.0 / 30.0, [1.0])

    def test_invalid_inputs(self, css_x4, ops4):
        with pytest.raises(ValueError, match="0 < t2 <= t1"):
            ExperimentConfig(t1=-1.0, t2=1.0)
        with pytest.raises(ValueError, match="0 < t2 <= t1"):
            ExperimentConfig(t1=-1.0, t2=-2.0)
        with pytest.raises(ValueError, match="extra_scatter_rate must be >= 0, got -0.1"):
            ExperimentConfig(t1=10.0, t2=5.0, extra_scatter_rate=-0.1)
        h = tact_hamiltonian(ops4, 0.12)
        for rates in ((-0.1, 0.0), (np.nan, 0.0), (0.0, np.nan)):
            with pytest.raises(ValueError, match="decay rates must be finite and >= 0"):
                lindblad_trajectory(css_x4, h, *rates, [1.0])


class TestLindblad:
    def test_coherence_decay_closed_form(self, ops4):
        # with H = 0 the x-basis matrix elements decay independently:
        # off-diagonals at Gamma_d + gamma_phi (dm)^2 / 2, diagonals toward 1/d
        h0 = np.zeros((9, 9))
        state = coherent_spin_state(4, 0.0, 0.0)  # stretched along z: rich x-coherences
        t = 2.0
        evolved = lindblad_trajectory(state, h0, *DARK, [t])[0]
        w, v = np.linalg.eigh(ops4[0])
        m = np.round(w).astype(int)
        r0 = v.conj().T @ state @ v
        rt = v.conj().T @ evolved @ v
        gamma_d, gamma_phi = DARK
        dm = m[:, None] - m[None, :]
        factor = np.exp(-(gamma_d + gamma_phi * dm.astype(float) ** 2 / 2.0) * t)
        expected = r0 * factor
        idx = np.arange(9)
        expected[idx, idx] = 1.0 / 9.0 + (np.diag(r0) - 1.0 / 9.0) * np.exp(-gamma_d * t)
        assert np.abs(rt - expected).max() <= 1e-12

    def test_nearest_neighbour_rate_is_one_over_t2(self, ops4):
        # the rates the pipeline derives from t1 = 80 ms, t2 = 20 ms
        rates = master_equation_rates(ExperimentConfig(extra_scatter_rate=0.0))
        h0 = np.zeros((9, 9))
        state = coherent_spin_state(4, 0.0, 0.0)
        t = 3.0
        evolved = lindblad_trajectory(state, h0, *rates, [t])[0]
        w, v = np.linalg.eigh(ops4[0])
        r0 = v.conj().T @ state @ v
        rt = v.conj().T @ evolved @ v
        ratio = abs(rt[0, 1]) / abs(r0[0, 1])
        assert abs(ratio - np.exp(-t / 20.0)) <= 1e-12

    def test_depolarization_fixed_point(self):
        h0 = np.zeros((5, 5))
        state = coherent_spin_state(2, np.pi / 2.0, 0.3)
        evolved = lindblad_trajectory(state, h0, 1.0, 0.0, [20.0])[0]  # t1 = t2 = 1 ms
        assert np.abs(evolved - np.eye(5) / 5.0).max() <= 1e-8
        # closed form: the distance to the fixed point shrinks as exp(-t/t1)
        expected = np.eye(5) / 5.0 + (state - np.eye(5) / 5.0) * np.exp(-20.0)
        assert np.abs(evolved - expected).max() <= 1e-12

    def test_zero_decay_matches_unitary(self, ops4, css_x4):
        h = tact_hamiltonian(ops4, 0.5)
        a = lindblad_trajectory(css_x4, h, 0.0, 0.0, [1.0])[0]
        b = evolve_unitary(css_x4, h, 1.0)
        assert np.abs(a - b).max() <= 1e-12

    def test_trace_preserved_over_six_ms(self, ops4, css_x4):
        h = tact_hamiltonian(ops4, 0.12)
        evolved = lindblad_trajectory(css_x4, h, *DRIVEN, [6.0])[0]
        assert abs(np.trace(evolved).real - 1.0) <= 1e-8

    def test_purity_contracts(self, ops4, css_x4):
        h = tact_hamiltonian(ops4, 0.12)
        states = lindblad_trajectory(css_x4, h, *DARK, [0.5, 1.0, 2.0, 4.0])
        purities = [np.trace(s @ s).real for s in states]
        assert all(b < a for a, b in zip(purities, purities[1:]))
        assert purities[0] < 1.0

    def test_trajectory_matches_single_calls(self, ops4, css_x4):
        # the trajectory's earlier state comes from the eigen-solution, a one-time
        # call's from the matrix exponential: two methods for the same state
        h = tact_hamiltonian(ops4, 0.12)
        traj = lindblad_trajectory(css_x4, h, *DARK, [0.7, 1.4])
        single = lindblad_trajectory(css_x4, h, *DARK, [0.7])[0]
        assert np.abs(traj[0] - single).max() <= 1e-12

    def test_returns_one_read_only_stack(self, ops4, css_x4):
        h = tact_hamiltonian(ops4, 0.12)
        states = lindblad_trajectory(css_x4, h, *DARK, [0.0, 0.5, 0.5, 2.0])
        assert states.shape == (4, 9, 9) and not states.flags.writeable
        assert np.abs(states[0] - css_x4).max() <= 1e-14
        assert np.array_equal(states[1], states[2])
        empty = lindblad_trajectory(css_x4, h, *DARK, [])
        assert empty.shape == (0, 9, 9) and not empty.flags.writeable

    def test_failing_state_names_its_time(self, monkeypatch):
        # a generator that loses trace at rate 0.01/ms: the state at t = 0 is
        # exact, the first one checked after it fails the trace test
        liouvillian = dynamics._liouvillian

        def leaky(*args):
            lr = liouvillian(*args)
            return lr - 0.01 * np.eye(len(lr))

        monkeypatch.setattr(dynamics, "_liouvillian", leaky)
        with pytest.raises(PhysicalityError, match=r"^evolved state at t=0.5 ms: trace\(rho\) = "):
            experiment._evolved_states(ExperimentConfig(), [0.0, 0.5, 1.0])

    def test_rejects_unphysical_initial_state(self, ops4):
        h = tact_hamiltonian(ops4, 0.12)
        with pytest.raises(PhysicalityError, match="trace"):
            lindblad_trajectory(np.eye(9), h, *DARK, [1.0])

    def test_validation(self, ops4, css_x4):
        h = tact_hamiltonian(ops4, 0.12)
        with pytest.raises(ValueError):
            lindblad_trajectory(css_x4, h, *DARK, [-1.0])
        with pytest.raises(ValueError):
            lindblad_trajectory(css_x4, h, *DARK, [1.0, 0.5])
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match=f"evolution time {bad:g} ms is not finite"):
                lindblad_trajectory(css_x4, h, *DARK, [0.5, bad])

    def test_semigroup_property(self, ops4):
        # P(a) P(b) = P(a + b) on vec(rho), from a state with full support
        rng = np.random.default_rng(51)
        state = random_density_matrix(9, rng)
        h = compensated_hamiltonian(ops4, 0.24, residual=0.15)
        for a, b in ((0.3, 0.9), (1.7, 4.3)):
            first = lindblad_trajectory(state, h, *DRIVEN, [a])[0]
            two_steps = lindblad_trajectory(first, h, *DRIVEN, [b])[0]
            one_step = lindblad_trajectory(state, h, *DRIVEN, [a + b])[0]
            assert np.abs(two_steps - one_step).max() <= 1e-12

    def test_matches_column_stacked_expm(self, ops4, css_x4):
        # independent construction: column-stacking vec(A rho B) = kron(B^T, A) vec(rho)
        hm = compensated_hamiltonian(ops4, 0.24, residual=0.15)
        fx = ops4[0]
        depolarization, dephasing = DRIVEN
        eye = np.eye(9)
        fx2 = fx @ fx
        vec_eye = eye.ravel(order="F")
        generator = (
            -1j * (np.kron(eye, hm) - np.kron(hm.T, eye))
            + depolarization * (np.outer(vec_eye, vec_eye) / 9.0 - np.eye(81))
            + dephasing
            * (np.kron(fx.T, fx) - 0.5 * (np.kron(eye, fx2) + np.kron(fx2.T, eye)))
        )
        for times in ONE_OR_MORE_TIMES:
            states = lindblad_trajectory(css_x4, hm, *DRIVEN, times)
            for t, state in zip(times, states):
                vec = expm(generator * t) @ css_x4.ravel(order="F")
                assert np.abs(state - vec.reshape(9, 9, order="F")).max() <= 1e-12

    @pytest.mark.parametrize("f", [0.5, 1.5, 4.0])
    @pytest.mark.parametrize("rates", [DARK, DRIVEN], ids=["dark", "driven"])
    def test_real_kernel_matches_column_stacked_expm(self, f, rates):
        # a complex h and odd d exercise the transpose permutation and Im(rho)
        ops = spin_operators(f)
        d = int(2 * f + 1)
        rng = np.random.default_rng(int(10 * f))
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        hm = (a + a.conj().T) / 2.0
        state = random_density_matrix(d, rng)
        generator = column_stacked_generator(hm, ops[0], *rates)
        for times in ONE_OR_MORE_TIMES:
            states = lindblad_trajectory(state, hm, *rates, times)
            for t, evolved in zip(times, states):
                vec = expm(generator * t) @ state.ravel(order="F")
                assert np.abs(evolved - vec.reshape(d, d, order="F")).max() <= 1e-12

    def test_eig_sees_one_real_generator(self, ops4, css_x4, monkeypatch):
        seen = []
        eig = np.linalg.eig

        def spy(a):
            seen.append(a)
            return eig(a)

        monkeypatch.setattr(dynamics.np.linalg, "eig", spy)
        lindblad_trajectory(css_x4, tact_hamiltonian(ops4, 0.12), *DRIVEN, [0.0, 0.8, 6.0])
        assert [(a.dtype, a.shape) for a in seen] == [(np.dtype(np.float64), (81, 81))]

    @pytest.mark.parametrize("times", [[0.8], [2.0, 2.0]])
    def test_one_time_needs_no_eigendecomposition(self, ops4, css_x4, monkeypatch, times):
        def refuse(a):
            raise AssertionError("eig called")

        monkeypatch.setattr(dynamics.np.linalg, "eig", refuse)
        states = lindblad_trajectory(css_x4, tact_hamiltonian(ops4, 0.12), *DRIVEN, times)
        assert states.shape == (len(times), 9, 9)

    @pytest.mark.parametrize("rate", [1e20, 1e100])
    def test_overflow_names_the_propagation(self, ops4, css_x4, rate):
        # the propagation overflows, with or without an eigen-solution; the
        # eigenbasis is not blamed
        h = compensated_hamiltonian(ops4, 2.0 * rate, residual=0.15)
        message = r"^propagation overflowed at t_max=0.8 ms: \|\|L\|\|_1 t_max = \d\.\d\de\+\d+$"
        for times in ([0.0, 0.8], [0.8]):
            with pytest.raises(PhysicalityError, match=message):
                lindblad_trajectory(css_x4, h, *DRIVEN, times)

    @pytest.mark.parametrize("t", [0.0, 0.8, 6.0, 60.0])
    def test_guard_expm_matches_scipy_on_liouvillian(self, ops4, t):
        h = compensated_hamiltonian(ops4, 0.24, residual=0.15)
        a = dynamics._liouvillian(h, *DRIVEN, ops4[0]) * t
        assert a.dtype == np.float64  # the real generator the guard checks
        reference = expm(a)
        assert np.abs(dynamics._expm(a) - reference).max() <= 1e-13 * np.abs(reference).max()

    @pytest.mark.parametrize("norm", [0.1, 5.3, 5.5, 500.0])
    def test_guard_expm_matches_scipy_around_theta13(self, norm):
        # 1-norms on both sides of theta_13 = 5.37; 500 needs seven squarings
        rng = np.random.default_rng(int(norm * 10))
        a = rng.standard_normal((81, 81)) + 1j * rng.standard_normal((81, 81))
        a *= norm / np.abs(a).sum(axis=0).max()
        reference = expm(a)
        assert np.abs(dynamics._expm(a) - reference).max() <= 1e-13 * np.abs(reference).max()

    def test_expm_guard_catches_bad_eigenbasis(self, ops4, css_x4, monkeypatch):
        h = tact_hamiltonian(ops4, 0.12)
        eig = np.linalg.eig

        def corrupted_eig(a):
            w, v = eig(a)
            return w * (1.0 + 1e-6), v

        monkeypatch.setattr(dynamics.np.linalg, "eig", corrupted_eig)
        with pytest.raises(PhysicalityError, match=r"t_max=2 ms.*differs from expm"):
            lindblad_trajectory(css_x4, h, *DARK, [0.5, 2.0])


class TestHamiltonianContainer:
    def test_rejects_non_hermitian(self, ops4, css_x4):
        # lindblad_trajectory takes a Hamiltonian only if it is the state's (d, d) Hermitian matrix
        h = tact_hamiltonian(ops4, 0.12)
        skew = np.zeros((9, 9), dtype=complex)
        skew[0, 1] = 2e-12
        with pytest.raises(PhysicalityError, match="not Hermitian: residue 2e-12"):
            lindblad_trajectory(css_x4, h + skew, *DARK, [1.0])
        with pytest.raises(PhysicalityError, match="not Hermitian: residue nan"):
            lindblad_trajectory(css_x4, np.full((9, 9), np.nan), *DARK, [1.0])
        with pytest.raises(ValueError, match=r"shape \(3, 3\) does not match state dimension 9"):
            lindblad_trajectory(css_x4, tact_hamiltonian(spin_operators(1), 1.0), *DARK, [1.0])
        # a skew part within the 1e-12 tolerance passes
        lindblad_trajectory(css_x4, h + skew / 4.0, *DARK, [1.0])

    @pytest.mark.parametrize("f", HALF_STEPS)
    def test_constructors_hermitian(self, f):
        ops = spin_operators(f)
        for h in (
            oat_hamiltonian(ops, 0.3),
            tact_hamiltonian(ops, -1.2),
            compensated_hamiltonian(ops, 0.7, residual=0.02),
        ):
            assert np.abs(h - h.conj().T).max() <= 1e-12
