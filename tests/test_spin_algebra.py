import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from spintomo import (
    PhysicalityError,
    QuantumState,
    SpinQuantumNumber,
    coherent_spin_state,
    coherent_state_vector,
    moments,
    spin_operators,
    variance_extrema,
)
from conftest import covariance, expectation, random_density_matrix, rotate, variances_from_rho

ALL_F = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]


class TestSpinQuantumNumber:
    def test_coerce_and_dimension(self):
        f = SpinQuantumNumber.coerce(4)
        assert f.two_f == 8
        assert f.dimension == 9
        assert f.f_value == 4.0
        assert SpinQuantumNumber.coerce(1.5).two_f == 3
        assert SpinQuantumNumber.coerce(f) is f

    def test_m_values_ordering(self):
        assert_allclose(SpinQuantumNumber.coerce(1).m_values, [1.0, 0.0, -1.0])

    def test_rejects_bad_spin(self):
        with pytest.raises(ValueError):
            SpinQuantumNumber(-1)
        with pytest.raises(ValueError):
            SpinQuantumNumber.coerce(0.7)
        for f in (float("inf"), float("nan"), 8.0):
            with pytest.raises(ValueError):
                SpinQuantumNumber.coerce(f)
        assert SpinQuantumNumber.coerce(7.5).dimension == 16


class TestSpinOperators:
    def test_pauli_half(self):
        ops = spin_operators(0.5)
        assert_allclose(ops.fz, np.diag([0.5, -0.5]), atol=1e-15)
        assert_allclose(ops.fx, 0.5 * np.array([[0, 1], [1, 0]]), atol=1e-15)
        assert_allclose(ops.fy, 0.5 * np.array([[0, -1j], [1j, 0]]), atol=1e-15)

    def test_ladder_f1(self):
        ops = spin_operators(1)
        assert_allclose(ops.fz, np.diag([1.0, 0.0, -1.0]), atol=1e-15)
        expected = np.zeros((3, 3))
        expected[0, 1] = expected[1, 2] = np.sqrt(2.0)
        assert_allclose(ops.fx + 1j * ops.fy, expected, atol=1e-15)

    @pytest.mark.parametrize("f", ALL_F)
    def test_commutators(self, f):
        ops = spin_operators(f)
        for a, b, c in ((ops.fy, ops.fz, ops.fx), (ops.fz, ops.fx, ops.fy), (ops.fx, ops.fy, ops.fz)):
            assert np.abs(a @ b - b @ a - 1j * c).max() <= 1e-12

    @pytest.mark.parametrize("f", ALL_F)
    def test_casimir(self, f):
        ops = spin_operators(f)
        fval = ops.f.f_value
        total = ops.fx @ ops.fx + ops.fy @ ops.fy + ops.fz @ ops.fz
        assert np.abs(total - fval * (fval + 1.0) * np.eye(ops.dimension)).max() <= 1e-12

    @pytest.mark.parametrize("f", ALL_F)
    def test_ladder_combinations(self, f):
        # F+ = Fx + i Fy raises m by one with <m+1|F+|m> = sqrt(F(F+1) - m(m+1)),
        # and F- = Fx - i Fy is its adjoint
        ops = spin_operators(f)
        m = ops.f.m_values[1:]
        f_plus = np.diag(np.sqrt(f * (f + 1.0) - m * (m + 1.0)), k=1)
        assert np.abs(f_plus - (ops.fx + 1j * ops.fy)).max() <= 1e-14
        assert np.abs(f_plus.T - (ops.fx - 1j * ops.fy)).max() <= 1e-14

    @pytest.mark.parametrize("f", ALL_F)
    def test_hermiticity(self, f):
        ops = spin_operators(f)
        for m in (ops.fx, ops.fy, ops.fz):
            assert np.abs(m - m.conj().T).max() <= 1e-15

    def test_f4_casimir_value(self, ops4):
        total = ops4.fx @ ops4.fx + ops4.fy @ ops4.fy + ops4.fz @ ops4.fz
        assert_allclose(total, 20.0 * np.eye(9), atol=1e-12)


class TestCoherentState:
    def test_stretched_along_x(self, ops4, css_x4):
        assert abs(expectation(css_x4, ops4.fx) - 4.0) <= 1e-12
        assert abs(covariance(css_x4, ops4.fy, ops4.fy) - 2.0) <= 1e-12
        assert abs(covariance(css_x4, ops4.fz, ops4.fz) - 2.0) <= 1e-12

    def test_half_spin_along_z(self):
        state = coherent_spin_state(0.5, 0.0, 0.0)
        assert_allclose(state.rho, np.diag([1.0, 0.0]), atol=1e-15)

    def test_generic_direction_matches_rotation_construction(self):
        # oracle: apply the exact rotation exp(-i phi Fz) exp(-i theta Fy)
        # to the stretched state and compare density matrices
        theta, phi = np.pi / 3.0, np.pi / 4.0
        ops = spin_operators(4)
        stretched = np.zeros(9, dtype=complex)
        stretched[0] = 1.0
        u = expm(-1j * phi * np.asarray(ops.fz)) @ expm(-1j * theta * np.asarray(ops.fy))
        psi_oracle = u @ stretched
        state = coherent_spin_state(4, theta, phi)
        assert np.abs(state.rho - np.outer(psi_oracle, psi_oracle.conj())).max() <= 1e-12
        mean = np.array([expectation(state, m) for m in (ops.fx, ops.fy, ops.fz)])
        assert abs(np.linalg.norm(mean) - 4.0) <= 1e-12

    @pytest.mark.parametrize("theta,phi", [(0.3, 1.1), (2.1, -0.4), (np.pi / 2, np.pi)])
    def test_mean_direction(self, theta, phi):
        ops = spin_operators(2)
        state = coherent_spin_state(2, theta, phi)
        mean = np.array([expectation(state, m) for m in (ops.fx, ops.fy, ops.fz)])
        expected = 2.0 * np.array(
            [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
        )
        assert_allclose(mean, expected, atol=1e-12)

    @pytest.mark.parametrize("f", [1.0, 2.5, 4.0])
    def test_transverse_uncertainty_product(self, f):
        # both transverse variances equal F/2, saturating the uncertainty bound
        ops = spin_operators(f)
        state = coherent_spin_state(f, np.pi / 2.0, 0.0)
        vy = covariance(state, ops.fy, ops.fy)
        vz = covariance(state, ops.fz, ops.fz)
        fval = ops.f.f_value
        assert abs(vy * vz - (fval / 2.0) ** 2) <= 1e-12
        assert vy * vz >= expectation(state, ops.fx) ** 2 / 4.0 - 1e-12

    def test_vector_is_normalized(self):
        psi = coherent_state_vector(3, 1.234, -2.1)
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12

    @pytest.mark.parametrize("f", [0.5, 1.0, 1.5, 4.0, 7.5])
    def test_grid_matches_rotated_stretched_state(self, f):
        # second method: exp(-i phi Fz) exp(-i theta Fy)|F, F> from the
        # eigendecompositions of the spin matrices, node by node
        ops = spin_operators(f)
        d = ops.dimension
        thetas = np.array([0.0, 0.3, np.pi / 2.0, 2.9, np.pi])
        phis = np.array([-2.1, 0.0, 1.0, 4.5])
        wy, vy = np.linalg.eigh(ops.fy)
        wz, vz = np.linalg.eigh(ops.fz)
        stretched = np.eye(d)[0]
        grid = coherent_state_vector(f, thetas[:, None], phis[None, :])
        assert grid.shape == (len(thetas), len(phis), d)
        assert coherent_state_vector(f, 0.3, 1.0).shape == (d,)
        for i, theta in enumerate(thetas):
            for j, phi in enumerate(phis):
                ry = (vy * np.exp(-1j * theta * wy)) @ vy.conj().T
                rz = (vz * np.exp(-1j * phi * wz)) @ vz.conj().T
                assert_allclose(grid[i, j], rz @ ry @ stretched, rtol=0, atol=1e-12)


class TestExpectationCovariance:
    def test_identity_covariance_zero(self, css_x4):
        eye = np.eye(9)
        assert abs(covariance(css_x4, eye, eye)) <= 1e-14

    def test_cross_covariance_stretched(self, ops4, css_x4):
        assert abs(covariance(css_x4, ops4.fy, ops4.fz)) <= 1e-12

    def test_symmetric_in_arguments(self, ops4):
        rng = np.random.default_rng(11)
        state = random_density_matrix(9, rng)
        ab = covariance(state, ops4.fy, ops4.fz)
        ba = covariance(state, ops4.fz, ops4.fy)
        assert abs(ab - ba) <= 1e-12

    def test_self_covariance_nonnegative(self, ops4):
        rng = np.random.default_rng(5)
        for _ in range(10):
            state = random_density_matrix(9, rng)
            assert covariance(state, ops4.fz, ops4.fz) >= -1e-12

    def test_dimension_mismatch(self, css_x4):
        with pytest.raises(ValueError):
            expectation(css_x4, np.eye(4))
        with pytest.raises(ValueError):
            covariance(css_x4, np.eye(9), np.eye(4))


class TestMomentsKernel:
    @pytest.mark.parametrize("f", [0.5, 1.0, 1.5, 4.0, 7.5])
    def test_coherent_state_closed_form(self, f):
        # mean F n and covariance (F/2)(I - n n^T) at any direction n
        ops = spin_operators(f)
        spin = (ops.fx, ops.fy, ops.fz)
        rng = np.random.default_rng(int(4 * f))
        for theta, phi in zip(rng.uniform(0.0, np.pi, 6), rng.uniform(-np.pi, np.pi, 6)):
            n = np.array(
                [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
            )
            mean, cov = moments(coherent_spin_state(f, theta, phi).rho, spin)
            assert np.abs(mean - f * n).max() <= 1e-12
            assert np.abs(cov - (f / 2.0) * (np.eye(3) - np.outer(n, n))).max() <= 1e-12

    @pytest.mark.parametrize("f", [0.5, 1.0, 2.5, 4.0])
    def test_dicke_states(self, f):
        ops = spin_operators(f)
        d = ops.dimension
        for i, m in enumerate(ops.f.m_values):
            mean, cov = moments(np.diag(np.eye(d)[i]).astype(complex), (ops.fx, ops.fy, ops.fz))
            transverse = (f * (f + 1.0) - m**2) / 2.0
            assert np.abs(mean - [0.0, 0.0, m]).max() <= 1e-12
            assert np.abs(cov - np.diag([transverse, transverse, 0.0])).max() <= 1e-12

    def test_batch_matches_one_by_one(self, ops4):
        rng = np.random.default_rng(21)
        spin = (ops4.fx, ops4.fy, ops4.fz)
        stack = np.array([random_density_matrix(9, rng).rho for _ in range(6)]).reshape(2, 3, 9, 9)
        mean, cov = moments(stack, spin)
        assert mean.shape == (2, 3, 3) and cov.shape == (2, 3, 3, 3)
        for idx in np.ndindex(2, 3):
            rho = stack[idx]
            one_mean, one_cov = moments(rho, spin)
            assert np.abs(mean[idx] - one_mean).max() <= 1e-12
            assert np.abs(cov[idx] - one_cov).max() <= 1e-12
            # and both against traces written out directly
            direct = [np.trace(rho @ a).real for a in spin]
            assert np.abs(one_mean - direct).max() <= 1e-12
            for j, a in enumerate(spin):
                for k, b in enumerate(spin):
                    sym = np.trace(rho @ (a @ b + b @ a)).real / 2.0
                    assert abs(one_cov[j, k] - (sym - direct[j] * direct[k])) <= 1e-12

    @pytest.mark.parametrize("n", [0, 1, 4, 7])
    def test_fock_state_quadratures(self, n):
        rho = np.zeros((8, 8), dtype=complex)
        rho[n, n] = 1.0
        mean, cov = variances_from_rho(rho)
        assert np.abs(mean).max() <= 1e-12
        assert np.abs(cov - (n + 0.5) * np.eye(2)).max() <= 1e-12

    def test_variance_extrema_match_eigvalsh(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((50, 2, 2))
        covs = np.concatenate([a @ a.transpose(0, 2, 1), [np.eye(2) * 1.7, np.diag([3.0, 1.0])]])
        lo, hi = variance_extrema(covs)
        expected = np.linalg.eigvalsh(covs)
        assert np.abs(lo - expected[:, 0]).max() <= 1e-12
        assert np.abs(hi - expected[:, 1]).max() <= 1e-12


class TestRotate:
    def test_invariance_about_mean_axis(self, ops4, css_x4):
        for angle in (0.3, 1.7, -2.5):
            rotated = rotate(css_x4, [1.0, 0.0, 0.0], angle)
            assert abs(expectation(rotated, ops4.fx) - 4.0) <= 1e-10

    def test_z_to_x(self):
        css_z = coherent_spin_state(4, 0.0, 0.0)
        css_x = coherent_spin_state(4, np.pi / 2.0, 0.0)
        rotated = rotate(css_z, [0.0, 1.0, 0.0], np.pi / 2.0)
        assert np.abs(rotated.rho - css_x.rho).max() <= 1e-10

    def test_full_turn_integer_spin(self):
        rng = np.random.default_rng(3)
        state = random_density_matrix(9, rng)
        back = rotate(state, [0.0, 0.0, 1.0], 2.0 * np.pi)
        assert np.abs(back.rho - state.rho).max() <= 1e-10

    def test_group_action(self):
        rng = np.random.default_rng(7)
        state = random_density_matrix(5, rng)
        axis = np.array([1.0, 2.0, -1.0]) / np.sqrt(6.0)
        once = rotate(rotate(state, axis, 0.4), axis, 1.1)
        combined = rotate(state, axis, 1.5)
        assert np.abs(once.rho - combined.rho).max() <= 1e-10

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(9)
        state = random_density_matrix(7, rng)
        rotated = rotate(state, [0.0, 1.0, 0.0], 0.77)
        assert abs(np.trace(rotated.rho).real - 1.0) <= 1e-10
        assert_allclose(
            np.linalg.eigvalsh(rotated.rho), np.linalg.eigvalsh(state.rho), atol=1e-10
        )

    def test_zero_axis_rejected(self, css_x4):
        with pytest.raises(ValueError):
            rotate(css_x4, [0.0, 0.0, 0.0], 1.0)


class TestQuantumStateValidation:
    def test_trace_violation(self):
        with pytest.raises(PhysicalityError):
            QuantumState(np.eye(2))  # trace 2

    def test_hermiticity_violation(self):
        rho = np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex)
        with pytest.raises(PhysicalityError):
            QuantumState(rho)

    def test_negativity_violation(self):
        for eig in (-0.5, -5e-9):
            with pytest.raises(PhysicalityError):
                QuantumState(np.diag([1.0 - eig, eig]).astype(complex))
        QuantumState(np.diag([1.0 + 5e-10, -5e-10]).astype(complex))  # round-off passes

    def test_non_finite_entries_rejected(self):
        nan_coherence = np.diag([0.5, 0.5, 0.0]).astype(complex)
        nan_coherence[0, 1] = nan_coherence[1, 0] = np.nan
        for rho, message in (
            (np.diag([np.nan, 1.0, 0.0]), "trace"),
            (np.diag([np.inf, 1.0, 0.0]), "trace"),
            (np.diag([-np.inf, 1.0, 0.0]), "trace"),
            (nan_coherence, "not Hermitian"),
        ):
            with pytest.raises(PhysicalityError, match=message):
                QuantumState(rho)

    def test_from_vector_normalizes(self):
        state = QuantumState.from_vector(np.array([3.0, 4.0]))
        assert abs(np.trace(state.rho).real - 1.0) <= 1e-14
        assert abs(np.trace(state.rho @ state.rho).real - 1.0) <= 1e-14

    def test_rho_is_readonly(self, css_x4):
        with pytest.raises(ValueError):
            css_x4.rho[0, 0] = 99.0
