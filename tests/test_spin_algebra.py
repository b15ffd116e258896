import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from spintomo import (
    PhysicalityError,
    check_density,
    coherent_spin_state,
    coherent_state_vector,
    moments,
    spin_dimension,
    spin_operators,
    variance_extrema,
)
from conftest import covariance, expectation, random_density_matrix, rotate, variances_from_rho

ALL_F = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]


class TestSpinQuantumNumber:
    def test_coerce_and_dimension(self):
        assert spin_dimension(4) == 9
        assert spin_dimension(1.5) == 4
        assert spin_dimension(0) == 1
        assert spin_dimension(4 + 1e-10) == 9  # round-off in F is absorbed
        assert spin_operators(4 + 1e-10) is spin_operators(4.0)

    def test_m_values_ordering(self):
        # row 0 is the stretched state m = +F
        assert_allclose(np.diag(spin_operators(1)[2]).real, [1.0, 0.0, -1.0])

    def test_rejects_bad_spin(self):
        with pytest.raises(ValueError, match="two_f must be a non-negative integer, got -2"):
            spin_dimension(-1)
        with pytest.raises(ValueError, match="F must be a finite integer or half-integer, got 0.7"):
            spin_dimension(0.7)
        for f in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match=f"finite integer or half-integer, got {f}"):
                spin_dimension(f)
        with pytest.raises(ValueError, match="F=8 needs dimension 17 > 16"):
            spin_dimension(8.0)
        assert spin_dimension(7.5) == 16


class TestSpinOperators:
    def test_pauli_half(self):
        ops = spin_operators(0.5)
        assert_allclose(ops[2], np.diag([0.5, -0.5]), atol=1e-15)
        assert_allclose(ops[0], 0.5 * np.array([[0, 1], [1, 0]]), atol=1e-15)
        assert_allclose(ops[1], 0.5 * np.array([[0, -1j], [1j, 0]]), atol=1e-15)

    def test_ladder_f1(self):
        ops = spin_operators(1)
        assert_allclose(ops[2], np.diag([1.0, 0.0, -1.0]), atol=1e-15)
        expected = np.zeros((3, 3))
        expected[0, 1] = expected[1, 2] = np.sqrt(2.0)
        assert_allclose(ops[0] + 1j * ops[1], expected, atol=1e-15)

    @pytest.mark.parametrize("f", ALL_F)
    def test_commutators(self, f):
        ops = spin_operators(f)
        fx, fy, fz = ops
        for a, b, c in ((fy, fz, fx), (fz, fx, fy), (fx, fy, fz)):
            assert np.abs(a @ b - b @ a - 1j * c).max() <= 1e-12

    @pytest.mark.parametrize("f", ALL_F)
    def test_casimir(self, f):
        ops = spin_operators(f)
        total = ops[0] @ ops[0] + ops[1] @ ops[1] + ops[2] @ ops[2]
        assert np.abs(total - f * (f + 1.0) * np.eye(int(2 * f + 1))).max() <= 1e-12

    @pytest.mark.parametrize("f", ALL_F)
    def test_ladder_combinations(self, f):
        # F+ = Fx + i Fy raises m by one with <m+1|F+|m> = sqrt(F(F+1) - m(m+1)),
        # and F- = Fx - i Fy is its adjoint
        ops = spin_operators(f)
        m = f - np.arange(1, int(2 * f + 1))
        f_plus = np.diag(np.sqrt(f * (f + 1.0) - m * (m + 1.0)), k=1)
        assert np.abs(f_plus - (ops[0] + 1j * ops[1])).max() <= 1e-14
        assert np.abs(f_plus.T - (ops[0] - 1j * ops[1])).max() <= 1e-14

    @pytest.mark.parametrize("f", ALL_F)
    def test_hermiticity(self, f):
        ops = spin_operators(f)
        for m in ops:
            assert np.abs(m - m.conj().T).max() <= 1e-15

    def test_read_only_stack(self, ops4):
        assert ops4.shape == (3, 9, 9) and not ops4.flags.writeable
        assert spin_operators(4) is ops4  # cached per dimension

    def test_f4_casimir_value(self, ops4):
        total = ops4[0] @ ops4[0] + ops4[1] @ ops4[1] + ops4[2] @ ops4[2]
        assert_allclose(total, 20.0 * np.eye(9), atol=1e-12)


class TestCoherentState:
    def test_stretched_along_x(self, ops4, css_x4):
        assert abs(expectation(css_x4, ops4[0]) - 4.0) <= 1e-12
        assert abs(covariance(css_x4, ops4[1], ops4[1]) - 2.0) <= 1e-12
        assert abs(covariance(css_x4, ops4[2], ops4[2]) - 2.0) <= 1e-12

    def test_half_spin_along_z(self):
        state = coherent_spin_state(0.5, 0.0, 0.0)
        assert_allclose(state, np.diag([1.0, 0.0]), atol=1e-15)

    def test_generic_direction_matches_rotation_construction(self):
        # oracle: apply the exact rotation exp(-i phi Fz) exp(-i theta Fy)
        # to the stretched state and compare density matrices
        theta, phi = np.pi / 3.0, np.pi / 4.0
        ops = spin_operators(4)
        stretched = np.zeros(9, dtype=complex)
        stretched[0] = 1.0
        u = expm(-1j * phi * ops[2]) @ expm(-1j * theta * ops[1])
        psi_oracle = u @ stretched
        state = coherent_spin_state(4, theta, phi)
        assert np.abs(state - np.outer(psi_oracle, psi_oracle.conj())).max() <= 1e-12
        mean = np.array([expectation(state, m) for m in ops])
        assert abs(np.linalg.norm(mean) - 4.0) <= 1e-12

    @pytest.mark.parametrize("theta,phi", [(0.3, 1.1), (2.1, -0.4), (np.pi / 2, np.pi)])
    def test_mean_direction(self, theta, phi):
        ops = spin_operators(2)
        state = coherent_spin_state(2, theta, phi)
        mean = np.array([expectation(state, m) for m in ops])
        expected = 2.0 * np.array(
            [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
        )
        assert_allclose(mean, expected, atol=1e-12)

    @pytest.mark.parametrize("f", [1.0, 2.5, 4.0])
    def test_transverse_uncertainty_product(self, f):
        # both transverse variances equal F/2, saturating the uncertainty bound
        ops = spin_operators(f)
        state = coherent_spin_state(f, np.pi / 2.0, 0.0)
        vy = covariance(state, ops[1], ops[1])
        vz = covariance(state, ops[2], ops[2])
        assert abs(vy * vz - (f / 2.0) ** 2) <= 1e-12
        assert vy * vz >= expectation(state, ops[0]) ** 2 / 4.0 - 1e-12

    def test_state_is_pure_and_normalized(self):
        # coherent_spin_state normalizes the amplitudes it is built from
        for f in (1.5, 4.0, 7.5):
            state = coherent_spin_state(f, 1.234, -2.1)
            assert abs(np.trace(state).real - 1.0) <= 1e-14
            assert abs(np.trace(state @ state).real - 1.0) <= 1e-14

    def test_vector_is_normalized(self):
        psi = coherent_state_vector(3, 1.234, -2.1)
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12

    @pytest.mark.parametrize("f", [0.5, 1.0, 1.5, 4.0, 7.5])
    def test_grid_matches_rotated_stretched_state(self, f):
        # second method: exp(-i phi Fz) exp(-i theta Fy)|F, F> from the
        # eigendecompositions of the spin matrices, node by node
        ops = spin_operators(f)
        d = int(2 * f + 1)
        thetas = np.array([0.0, 0.3, np.pi / 2.0, 2.9, np.pi])
        phis = np.array([-2.1, 0.0, 1.0, 4.5])
        wy, vy = np.linalg.eigh(ops[1])
        wz, vz = np.linalg.eigh(ops[2])
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
        assert abs(covariance(css_x4, ops4[1], ops4[2])) <= 1e-12

    def test_symmetric_in_arguments(self, ops4):
        rng = np.random.default_rng(11)
        state = random_density_matrix(9, rng)
        ab = covariance(state, ops4[1], ops4[2])
        ba = covariance(state, ops4[2], ops4[1])
        assert abs(ab - ba) <= 1e-12

    def test_self_covariance_nonnegative(self, ops4):
        rng = np.random.default_rng(5)
        for _ in range(10):
            state = random_density_matrix(9, rng)
            assert covariance(state, ops4[2], ops4[2]) >= -1e-12

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
        rng = np.random.default_rng(int(4 * f))
        for theta, phi in zip(rng.uniform(0.0, np.pi, 6), rng.uniform(-np.pi, np.pi, 6)):
            n = np.array(
                [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
            )
            mean, cov = moments(coherent_spin_state(f, theta, phi), ops)
            assert np.abs(mean - f * n).max() <= 1e-12
            assert np.abs(cov - (f / 2.0) * (np.eye(3) - np.outer(n, n))).max() <= 1e-12

    @pytest.mark.parametrize("f", [0.5, 1.0, 2.5, 4.0])
    def test_dicke_states(self, f):
        ops = spin_operators(f)
        d = int(2 * f + 1)
        for i, m in enumerate(f - np.arange(d)):
            mean, cov = moments(np.diag(np.eye(d)[i]).astype(complex), ops)
            transverse = (f * (f + 1.0) - m**2) / 2.0
            assert np.abs(mean - [0.0, 0.0, m]).max() <= 1e-12
            assert np.abs(cov - np.diag([transverse, transverse, 0.0])).max() <= 1e-12

    def test_batch_matches_one_by_one(self, ops4):
        rng = np.random.default_rng(21)
        spin = ops4
        stack = np.array([random_density_matrix(9, rng) for _ in range(6)]).reshape(2, 3, 9, 9)
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
            assert abs(expectation(rotated, ops4[0]) - 4.0) <= 1e-10

    def test_z_to_x(self):
        css_z = coherent_spin_state(4, 0.0, 0.0)
        css_x = coherent_spin_state(4, np.pi / 2.0, 0.0)
        rotated = rotate(css_z, [0.0, 1.0, 0.0], np.pi / 2.0)
        assert np.abs(rotated - css_x).max() <= 1e-10

    def test_full_turn_integer_spin(self):
        rng = np.random.default_rng(3)
        state = random_density_matrix(9, rng)
        back = rotate(state, [0.0, 0.0, 1.0], 2.0 * np.pi)
        assert np.abs(back - state).max() <= 1e-10

    def test_group_action(self):
        rng = np.random.default_rng(7)
        state = random_density_matrix(5, rng)
        axis = np.array([1.0, 2.0, -1.0]) / np.sqrt(6.0)
        once = rotate(rotate(state, axis, 0.4), axis, 1.1)
        combined = rotate(state, axis, 1.5)
        assert np.abs(once - combined).max() <= 1e-10

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(9)
        state = random_density_matrix(7, rng)
        rotated = rotate(state, [0.0, 1.0, 0.0], 0.77)
        assert abs(np.trace(rotated).real - 1.0) <= 1e-10
        assert_allclose(
            np.linalg.eigvalsh(rotated), np.linalg.eigvalsh(state), atol=1e-10
        )

    def test_zero_axis_rejected(self, css_x4):
        with pytest.raises(ValueError):
            rotate(css_x4, [0.0, 0.0, 0.0], 1.0)


# unphysical states of each kind that check_density rejects, with the message it gives
NAN_COHERENCE = np.diag([0.5, 0.5, 0.0]).astype(complex)
NAN_COHERENCE[0, 1] = NAN_COHERENCE[1, 0] = np.nan
UNPHYSICAL = {
    "trace": [(np.eye(3) / 1.5, "trace")],
    "hermiticity": [(np.array([[0.5, 0.3, 0], [0.1, 0.5, 0], [0, 0, 0]]), "not Hermitian")],
    "negativity": [(np.diag([1.0 - eig, eig, 0.0]), "eigenvalue") for eig in (-0.5, -5e-9)],
    "non_finite": [
        (np.diag([np.nan, 1.0, 0.0]), "trace"),
        (np.diag([np.inf, 1.0, 0.0]), "trace"),
        (np.diag([-np.inf, 1.0, 0.0]), "trace"),
        (NAN_COHERENCE, "not Hermitian"),
    ],
}


class TestQuantumStateValidation:
    def test_trace_violation(self):
        for rho, message in UNPHYSICAL["trace"]:
            with pytest.raises(PhysicalityError, match=f"^{message}"):
                check_density(rho)

    def test_hermiticity_violation(self):
        for rho, message in UNPHYSICAL["hermiticity"]:
            with pytest.raises(PhysicalityError, match=f"^rho {message}"):
                check_density(rho)

    def test_negativity_violation(self):
        for rho, message in UNPHYSICAL["negativity"]:
            with pytest.raises(PhysicalityError, match=f"^rho has {message}"):
                check_density(rho)
        check_density(np.diag([1.0 + 5e-10, -5e-10]))  # round-off passes

    def test_non_finite_entries_rejected(self):
        for rho, message in UNPHYSICAL["non_finite"]:
            with pytest.raises(PhysicalityError, match=message):
                check_density(rho)

    @pytest.mark.parametrize(
        "rho,message",
        [case for cases in UNPHYSICAL.values() for case in cases],
        ids=[f"{kind}-{i}" for kind, cases in UNPHYSICAL.items() for i in range(len(cases))],
    )
    def test_bad_state_in_a_stack_names_its_index(self, rho, message):
        # every check runs once over the stack; NaN entries fail the trace or
        # Hermiticity test before the eigensolver sees them, so no LinAlgError
        stack = np.array([np.eye(3) / 3.0] * 6, dtype=complex)
        stack[4] = rho
        with pytest.raises(PhysicalityError, match=f"^state 4: .*{message}"):
            check_density(stack)
        with pytest.raises(PhysicalityError, match=f"^state 4: .*{message}"):
            check_density(stack.reshape(2, 3, 3, 3))  # the row-major index
        stack[1] = rho
        with pytest.raises(PhysicalityError, match=f"^state 1: .*{message}"):
            check_density(stack)

    def test_non_square_rejected(self):
        for shape in ((3,), (2, 3), (4, 2, 3)):
            with pytest.raises(ValueError, match="rho must be square"):
                check_density(np.zeros(shape))

    def test_rho_is_readonly(self, css_x4):
        with pytest.raises(ValueError):
            css_x4[0, 0] = 99.0
        rho = np.array([np.eye(3) / 3.0] * 2)
        checked = check_density(rho)
        assert not checked.flags.writeable and checked.dtype == complex
        assert_allclose(checked, rho, rtol=0, atol=0)
        rho[0, 0, 0] = 99.0  # the input is copied, not frozen
        assert checked[0, 0, 0] == 1.0 / 3.0
