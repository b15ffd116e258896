import contextlib
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import ndtr

from spintomo import (
    ConvergenceError,
    MeasurementRecord,
    OscillatorDensityMatrix,
    PhysicalityError,
    correct_covariance,
    mle_reconstruct,
    simulate_records,
)
from spintomo import ExperimentConfig, point_record, tomography
from spintomo.tomography import _binned_quadrature_povm

from conftest import (
    annihilation_operator,
    displaced,
    mle_likelihood_trace,
    quadrature_cov,
    reference_rrr_iteration,
    variances_from_rho,
)

VACUUM = quadrature_cov(0.5, 0.5)
SQUEEZED = quadrature_cov(1.1, 0.25)


def _member(edges, sigma, x):
    cdf = ndtr((edges[:, None] - x) / sigma)
    return np.diff(cdf, axis=0, prepend=0.0, append=1.0)


def hermite_povm(edges, sigma, dim, n_nodes=160):
    """Binned POVM by n-node Gauss-Hermite quadrature, with weights w exp(x^2).

    psi_k(x) exp(x^2 / 2) = H_k(x) / sqrt(2^k k! sqrt(pi)), from numpy's
    Hermite series rather than the package's recurrence.
    """
    x, w = np.polynomial.hermite.hermgauss(n_nodes)
    norm = [1.0 / math.sqrt(2.0**k * math.factorial(k) * math.sqrt(math.pi)) for k in range(dim)]
    phi = np.polynomial.hermite.hermvander(x, dim - 1) * norm
    return np.einsum("kx,xn,xm,x->knm", _member(edges, sigma, x), phi, phi, w, optimize=True)


def legendre_povm(edges, sigma, dim):
    """Binned POVM by 1600-node Gauss-Legendre quadrature over +-max(span + 4 sigma,
    sqrt(2 dim + 1) + 6), a window that also holds the outer edges, unlike the package's."""
    span = max(abs(edges[0]), abs(edges[-1]))
    half_width = max(span + 4.0 * sigma, np.sqrt(2.0 * dim + 1.0) + 6.0)
    nodes, weights = np.polynomial.legendre.leggauss(1600)
    x = nodes * half_width
    psi = tomography._hermite_functions(dim - 1, x)
    return np.einsum("kx,nx,mx,x->knm", _member(edges, sigma, x), psi, psi,
                     weights * half_width, optimize=True)


def _output_record(var_x, var_p, kappa2=0.8, n_shots=1000):
    """Record whose sample covariance is the closed-form output covariance to round-off.

    A normal block is centred and whitened to unit sample covariance, then
    coloured with the Cholesky factor of diag(noise + gain * var), where
    gain = kappa2/2 and noise = 1/2 + kappa2^2/12 * 1/2.
    """
    gain, noise = kappa2 / 2.0, 0.5 + kappa2**2 / 12.0 * 0.5
    z = np.random.default_rng(5).standard_normal((n_shots, 2))
    z -= z.mean(axis=0)
    white = z @ np.linalg.inv(np.linalg.cholesky(np.cov(z, rowvar=False)).T)
    output = np.diag([noise + gain * var_x, noise + gain * var_p])
    return MeasurementRecord(shots=white @ np.linalg.cholesky(output).T, kappa2=kappa2, seed=0)


class TestCorrectedVariance:
    def test_inverts_css_output(self):
        cc = correct_covariance(_output_record(0.5, 0.5))
        assert abs(cc.var_x - 0.5) <= 1e-12
        assert abs(cc.var_p - 0.5) <= 1e-12
        assert abs(cc.cov_xp) <= 1e-12

    def test_inverts_squeezed_output(self):
        cc = correct_covariance(_output_record(0.25, 1.0))
        assert abs(cc.var_x - 0.25) <= 1e-12
        assert abs(cc.var_p - 1.0) <= 1e-12
        assert abs(cc.cov_xp) <= 1e-12

    def test_zero_coupling_rejected(self):
        with pytest.raises(ValueError):
            correct_covariance(MeasurementRecord(shots=np.full((4, 2), 0.7), kappa2=0.0, seed=0))


class TestCorrectCovariance:
    def test_exact_four_shot_construction(self):
        # shots engineered so the sample moments are exact: variances
        # 4a^2/3 per quadrature (ddof=1), zero means, zero cross term
        kappa2 = 0.8
        target_total = 0.5 + 0.4 * 0.5 + kappa2**2 / 24.0
        a = np.sqrt(3.0 * target_total / 4.0)
        shots = np.array([[a, a], [a, -a], [-a, a], [-a, -a]])
        rec = MeasurementRecord(shots=shots, kappa2=kappa2, seed=0)
        cc = correct_covariance(rec)
        assert abs(cc.var_x - 0.5) <= 1e-12
        assert abs(cc.var_p - 0.5) <= 1e-12
        assert abs(cc.cov_xp) <= 1e-12
        assert abs(cc.mean_x) <= 1e-12
        assert abs(cc.statistical_error - np.sqrt(2.0 / 3.0)) <= 1e-12

    def test_statistical_round_trip(self):
        truth = quadrature_cov(1.1, 0.25, 0.1)
        rec = displaced(simulate_records(truth, 0.8, 100_000, seed=51), 0.3, -0.2)
        cc = correct_covariance(rec)
        sigma_var = cc.statistical_error * (0.5 + 0.4 * 1.1 + 0.8**2 / 24.0) * 2.5
        assert abs(cc.var_x - truth[0, 0]) <= 5 * sigma_var
        assert abs(cc.var_p - truth[1, 1]) <= 5 * sigma_var
        assert abs(cc.cov_xp - truth[0, 1]) <= 5 * sigma_var
        assert abs(cc.mean_x - 0.3) <= 5 * np.sqrt(1.0 / rec.n_shots) * 2.5
        assert abs(cc.mean_p + 0.2) <= 5 * np.sqrt(1.0 / rec.n_shots) * 2.5

    def test_zero_coupling_rejected(self):
        rec = MeasurementRecord(shots=np.random.default_rng(0).normal(size=(100, 2)),
                                kappa2=0.0, seed=0)
        with pytest.raises(ValueError, match="not invertible"):
            correct_covariance(rec)
        # a coupling whose gain kappa2/2 underflows to zero is no coupling either
        tiny = MeasurementRecord(shots=rec.shots, kappa2=5e-324, seed=0)
        with pytest.raises(ValueError, match="kappa2 = 4.94066e-324: the atomic signal is not invertible"):
            correct_covariance(tiny)

    def test_one_shot_rejected(self):
        one = MeasurementRecord(shots=np.array([[0.1, 0.2]]), kappa2=0.8, seed=0)
        with pytest.raises(ValueError, match="need at least 2 shots to estimate variances"):
            correct_covariance(one)

    def test_unphysical_correction_flagged(self):
        # a record with (numerically) zero variance cannot come from the
        # model: the corrected variance sits far below zero
        shots = np.zeros((5000, 2))
        shots[0] = (1e-6, 1e-6)
        rec = MeasurementRecord(shots=shots, kappa2=0.8, seed=0)
        with pytest.raises(PhysicalityError, match="unphysical correction"):
            correct_covariance(rec)

    def test_heisenberg_floor_propagates(self):
        for seed, atomic in ((61, VACUUM), (62, SQUEEZED), (63, quadrature_cov(2.0, 0.125))):
            rec = simulate_records(atomic, 0.8, 100_000, seed=seed)
            cc = correct_covariance(rec)
            det = cc.var_x * cc.var_p - cc.cov_xp**2
            assert det >= 0.25 - 5 * cc.statistical_error

    def test_statistical_error_formula(self):
        rec = simulate_records(VACUUM, 0.8, 1000, seed=64)
        cc = correct_covariance(rec)
        assert abs(cc.statistical_error - np.sqrt(2.0 / 999.0)) <= 1e-15


class TestPovm:
    def test_completeness(self):
        edges = np.linspace(-6.0, 6.0, 63)
        povm = _binned_quadrature_povm(edges, sigma_blur=1.147, dim=10)
        assert np.abs(povm.sum(axis=0) - np.eye(10)).max() <= 1e-10

    def test_normal_cdf_matches_ndtr(self):
        z = np.linspace(-40.0, 40.0, 8001)
        assert np.abs(tomography._normal_cdf(z) - ndtr(z)).max() <= 1e-15

    def test_matches_ndtr_construction(self, monkeypatch):
        edges = np.linspace(-4.0, 4.0, 62)
        povm = _binned_quadrature_povm(edges, sigma_blur=1.147, dim=10)
        assert np.abs(povm.sum(axis=0) - np.eye(10)).max() <= 1e-12
        monkeypatch.setattr(tomography, "_normal_cdf", ndtr)
        reference = _binned_quadrature_povm(edges, sigma_blur=1.147, dim=10)
        assert np.abs(povm - reference).max() <= 1e-14

    def test_elements_positive_semidefinite(self):
        edges = np.linspace(-5.0, 5.0, 31)
        povm = _binned_quadrature_povm(edges, sigma_blur=0.9, dim=8)
        for element in povm:
            assert np.linalg.eigvalsh(element).min() >= -1e-12

    # 3 ** -0.25 ~ 0.76 is the smallest blur the readout model gives (at kappa2 = sqrt 12)
    @pytest.mark.parametrize("sigma", [0.76, 1.147, 2.24])
    @pytest.mark.parametrize("span", [6.0, 18.0])
    @pytest.mark.parametrize("dim", [10, 16])
    def test_matches_gauss_hermite(self, sigma, span, dim):
        edges = np.linspace(-span, span, 63)
        povm = _binned_quadrature_povm(edges, sigma, dim)
        assert np.abs(povm - hermite_povm(edges, sigma, dim)).max() <= 1e-14

    def test_matches_gauss_legendre(self):
        # the 1600-node rule's own round-off is about 3e-14
        edges = np.linspace(-8.0, 8.0, 63)
        povm = _binned_quadrature_povm(edges, 1.147, 10)
        assert np.abs(povm - legendre_povm(edges, 1.147, 10)).max() <= 1e-13

    @pytest.mark.parametrize("kappa2", [0.8, 1e-12])
    def test_grid_is_set_by_the_basis(self, kappa2, monkeypatch):
        # 213 nodes at dim 10 whatever the record's spread: at kappa2 = 1e-12 the
        # unit-variance shots span about +-8e6 atomic units
        grids, hermite_functions = [], tomography._hermite_functions

        def spy(n_max, x):
            grids.append(len(x))
            return hermite_functions(n_max, x)

        monkeypatch.setattr(tomography, "_hermite_functions", spy)
        shots = np.random.default_rng(7).standard_normal((200, 2))
        tomography._binned_povm(MeasurementRecord(shots, kappa2, 0), tomography.BASIS_DIM)
        assert grids == [213]

    def test_needs_no_eigensolve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the POVM quadrature must not solve for nodes")

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        povm = _binned_quadrature_povm(np.linspace(-6.0, 6.0, 63), 1.147, 10)
        assert np.abs(povm.sum(axis=0) - np.eye(10)).max() <= 1e-12


class TestQuadratureRotation:
    def test_coherent_state_mean_outcome_follows_the_angle(self):
        # |alpha> with alpha = (<x> + i <p>) / sqrt 2 = i sqrt 2 has <x> = 0 and <p> = +2,
        # so the quadrature x cos(theta) + p sin(theta) has mean 2 sin(theta)
        dim = 40
        n = np.arange(dim)
        alpha = 1j * np.sqrt(2.0)
        factorials = np.array([math.factorial(k) for k in n], dtype=float)
        psi = np.exp(-abs(alpha) ** 2 / 2.0) * alpha**n / np.sqrt(factorials)
        rho = np.outer(psi, psi.conj())
        edges = np.linspace(-12.0, 12.0, 241)
        centres = np.concatenate([[edges[0]], (edges[1:] + edges[:-1]) / 2.0, [edges[-1]]])
        povm_x = _binned_quadrature_povm(edges, 1.147, dim)
        for theta, expected in ((np.pi / 2.0, 2.0), (np.pi / 4.0, np.sqrt(2.0))):
            povm = tomography._rotated_povm(povm_x, theta, dim)
            probs = np.einsum("kij,ji->k", povm, rho).real
            assert abs(probs @ centres - expected) <= 1e-9

    def test_rotated_shots_reconstruct_the_rotated_state(self, monkeypatch):
        # U = exp(-i pi n / 2) maps (x, p) to (p, -x): U^dag x U = p and U^dag p U = -x,
        # so the shots (y_s, -y_c) come from U rho U^dag
        rec = point_record(ExperimentConfig(), 0.8)
        turned = MeasurementRecord(np.column_stack([rec.y_s, -rec.y_c]), rec.kappa2, rec.seed)
        monkeypatch.setattr(tomography, "MAX_ITER", 300)
        with pytest.warns(RuntimeWarning, match="max_iter"):
            rho = mle_reconstruct(rec).rho
        with pytest.warns(RuntimeWarning, match="max_iter"):
            rho_turned = mle_reconstruct(turned).rho
        u = np.diag(np.exp(-0.5j * np.pi * np.arange(10)))
        assert np.abs(rho_turned - u @ rho @ u.conj().T).max() <= 1e-12


class TestLikelihoodKernel:
    def test_matches_traces_and_sums(self):
        # two loop steps against Tr(P_k rho) and R = sum_k f_k / p_k P_k written out per element
        rng = np.random.default_rng(71)
        edges = np.linspace(-6.0, 6.0, 63)
        povm_x = _binned_quadrature_povm(edges, 1.147, 10)
        povms = np.concatenate([povm_x, tomography._rotated_povm(povm_x, np.pi / 2.0, 10)])
        counts = rng.integers(1, 500, len(povms)).astype(float)
        rho, iterations, converged, history = tomography._rrr_iteration(povms, counts, 2, 0.0)

        def traces(state):
            return np.array([np.trace(p @ state).real for p in povms])

        state, expected = np.eye(10) / 10, []
        for _ in range(2):
            probs = traces(state)
            expected.append(counts @ np.log(probs))
            r = sum(c / counts.sum() / p * element for c, p, element in zip(counts, probs, povms))
            step = r @ state @ r
            state = step / np.trace(step).real
        expected.append(counts @ np.log(traces(state)))
        assert (iterations, converged) == (2, False)
        assert np.abs(rho - state).max() <= 1e-14
        assert_allclose(history, expected, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize(
        "t_r, dim, max_iter, tol, converges",
        [(0.0, 10, 5000, 1e-10, True), (0.8, 10, 300, 1e-10, False), (None, 12, 8000, 1e-9, True)],
        ids=["0.0", "0.8", "thermal"],
    )
    def test_iteration_matches_einsum_kernel(self, t_r, dim, max_iter, tol, converges,
                                             monkeypatch):
        if t_r is None:  # test_thermal_round_trip's record
            rec = simulate_records(quadrature_cov(1.0, 1.0), 0.8, 10_000, seed=21)
        else:
            rec = point_record(ExperimentConfig(), t_r)
        _, povms, counts = tomography._binned_povm(rec, dim)
        rho, iterations, converged, history = reference_rrr_iteration(povms, counts, max_iter, tol)
        assert converged == converges
        assert_allclose(tomography._rrr_iteration(povms, counts, max_iter, tol)[3], history,
                        rtol=1e-12, atol=0.0)
        monkeypatch.setattr(tomography, "BASIS_DIM", dim)
        monkeypatch.setattr(tomography, "MAX_ITER", max_iter)
        monkeypatch.setattr(tomography, "REL_TOL", tol)
        warns = contextlib.nullcontext() if converges else pytest.warns(RuntimeWarning, match="max_iter")
        with warns:
            odm = mle_reconstruct(rec)
        assert (odm.n_iterations, odm.converged) == (iterations, converged)
        assert np.abs(odm.rho - rho).max() <= 1e-12


class TestDilutedStep:
    def test_descending_step_is_diluted(self):
        # A projective number-basis measurement with counts 9 : 1.  Undiluted, R rho R
        # maps the log-odds u of the two levels to 2 u* - u about their optimum u*, so
        # from I/2 it goes to diag(81, 1)/82 and the second step back to I/2, lower.
        povms = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], dtype=complex)
        counts = np.array([9.0, 1.0])

        def log_likelihood(q):
            return 9.0 * math.log(q) + math.log(1.0 - q)

        assert log_likelihood(0.5) < log_likelihood(81.0 / 82.0)
        rho, _, converged, history = tomography._rrr_iteration(povms, counts, 500, 1e-10)
        assert_allclose(history[:2], [log_likelihood(0.5), log_likelihood(81.0 / 82.0)], rtol=1e-14)
        assert history[2] > history[1]
        assert np.diff(history).min() >= 0.0
        assert converged
        assert np.abs(rho - np.diag([0.9, 0.1])).max() <= 1e-5

    def test_no_ascending_step_raises_naming_the_iteration(self, monkeypatch):
        _, povms, counts = tomography._binned_povm(simulate_records(VACUUM, 0.8, 2_000, seed=45), 10)
        log, calls = np.log, []

        def sinking_log(x):
            # after the start state and two steps, each evaluation reads lower than the last
            calls.append(None)
            return log(x) - max(0, len(calls) - 3)

        monkeypatch.setattr(np, "log", sinking_log)
        with pytest.raises(ConvergenceError, match="stalled at iteration 3: no ascending step found"):
            tomography._rrr_iteration(povms, counts, 100, 1e-10)
        # the full step and the 27 diluted ones, eps = 1, 1/2, ..., 2^-26
        assert len(calls) == 3 + 1 + 27


class TestMleReconstruct:
    def test_vacuum_round_trip(self):
        rec = simulate_records(VACUUM, 0.8, 10_000, seed=42)
        odm = mle_reconstruct(rec)
        assert odm.populations[0] > 0.95
        assert odm.converged
        # likelihood never decreases along the iteration
        trace = mle_likelihood_trace(rec)
        assert len(trace) == odm.n_iterations + 1
        assert np.diff(trace).min() >= -1e-9 * abs(trace[0])

    def test_thermal_round_trip(self, monkeypatch):
        # mean occupation 1/2: geometric (Bose-Einstein) populations; the
        # 0.1 band is ~3 sigma of the seed-to-seed spread at 10^4 shots
        thermal = quadrature_cov(1.0, 1.0)
        rec = simulate_records(thermal, 0.8, 10_000, seed=21)
        monkeypatch.setattr(tomography, "BASIS_DIM", 12)
        monkeypatch.setattr(tomography, "MAX_ITER", 8000)
        monkeypatch.setattr(tomography, "REL_TOL", 1e-9)
        odm = mle_reconstruct(rec)
        weights = (2.0 / 3.0) * (1.0 / 3.0) ** np.arange(4)
        assert np.abs(odm.populations[:4] - weights).max() <= 0.1
        off_diag = np.abs(odm.rho - np.diag(np.diag(odm.rho))).max()
        assert off_diag < np.real(odm.rho[0, 0])  # diagonal-dominant

    def test_physicality_guarantees(self):
        rec = simulate_records(SQUEEZED, 0.8, 5_000, seed=43)
        odm = mle_reconstruct(rec)
        assert abs(np.trace(odm.rho).real - 1.0) <= 1e-8
        assert np.linalg.eigvalsh(odm.rho).min() >= -1e-8

    def test_means_reported_separately(self):
        rec = displaced(simulate_records(VACUUM, 0.8, 50_000, seed=44), 0.7, -0.3)
        odm = mle_reconstruct(rec)
        assert abs(odm.mean_x - 0.7) <= 0.05
        assert abs(odm.mean_p + 0.3) <= 0.05
        # the reconstructed state itself is centered
        mean, _ = variances_from_rho(odm)
        assert np.all(np.abs(mean) <= 0.05)

    def test_cross_method_variance_agreement(self):
        rec = simulate_records(SQUEEZED, 0.8, 10_000, seed=22)
        cc = correct_covariance(rec)
        odm = mle_reconstruct(rec)
        _, cov = variances_from_rho(odm)
        sigma_p = cc.statistical_error * (0.5 + 0.4 * cc.var_p + 0.8**2 / 24.0) * 2.5
        assert abs(cov[1, 1] - cc.var_p) <= 3 * sigma_p

    def test_paired_excitation_structure(self):
        # quadratic dynamics from vacuum populate even levels; odd levels
        # stay consistent with zero
        pure_squeezed = quadrature_cov(2.0, 0.125)
        rec = simulate_records(pure_squeezed, 0.8, 20_000, seed=31)
        odm = mle_reconstruct(rec)
        p = odm.populations
        assert p[1] < p[2]
        assert p[3] < p[4]
        assert p[2] > 0.05

    def test_consistency_improves_with_shots(self):
        errors = []
        for n in (1_000, 100_000):
            errs = []
            for seed in range(6):
                cc = correct_covariance(simulate_records(SQUEEZED, 0.8, n, seed=500 + seed))
                errs.append((cc.var_x - SQUEEZED[0, 0]) ** 2 + (cc.var_p - SQUEEZED[1, 1]) ** 2)
            errors.append(np.sqrt(np.mean(errs)))
        # two decades of shots should buy roughly one decade of accuracy
        ratio = errors[0] / errors[1]
        assert 3.0 <= ratio <= 33.0

    def test_non_convergence_warns(self, monkeypatch):
        rec = simulate_records(VACUUM, 0.8, 2_000, seed=45)
        monkeypatch.setattr(tomography, "MAX_ITER", 3)
        with pytest.warns(RuntimeWarning, match="max_iter=3"):
            odm = mle_reconstruct(rec)
        assert not odm.converged
        assert odm.n_iterations == 3

    def test_validation(self):
        # a record without gain fails as the covariance route fails on it; at
        # kappa2 = 5e-324 the gain kappa2/2 underflows to 0
        shots = simulate_records(VACUUM, 0.8, 100, seed=46).shots
        for kappa2 in (0.0, 5e-324):
            rec = MeasurementRecord(shots=shots, kappa2=kappa2, seed=0)
            with pytest.raises(ValueError) as covariance_route:
                correct_covariance(rec)
            with pytest.raises(ValueError, match="signal is not invertible") as mle_route:
                mle_reconstruct(rec)
            assert str(mle_route.value) == str(covariance_route.value)

    def test_zero_spread_rejected(self):
        constant = MeasurementRecord(shots=np.full((100, 2), 0.1), kappa2=0.8, seed=0)
        with pytest.raises(ValueError, match="record has zero spread: all 100 y_c shots equal 0.1"):
            mle_reconstruct(constant)
        shots = np.random.default_rng(72).normal(size=(100, 2))
        shots[:, 1] = -0.3
        with pytest.raises(ValueError, match="zero spread: all 100 y_s shots"):
            mle_reconstruct(MeasurementRecord(shots=shots, kappa2=0.8, seed=0))


class TestVariancesFromRho:
    def test_ground_state(self):
        rho = np.zeros((10, 10), dtype=complex)
        rho[0, 0] = 1.0
        _, cov = variances_from_rho(rho)
        assert abs(cov[0, 0] - 0.5) <= 1e-12
        assert abs(cov[1, 1] - 0.5) <= 1e-12

    def test_first_excited_state(self):
        rho = np.zeros((10, 10), dtype=complex)
        rho[1, 1] = 1.0
        _, cov = variances_from_rho(rho)
        assert abs(cov[0, 0] - 1.5) <= 1e-12
        assert abs(cov[1, 1] - 1.5) <= 1e-12

    def test_top_level_still_exact(self):
        # padding keeps second moments exact even for the highest level
        rho = np.zeros((4, 4), dtype=complex)
        rho[3, 3] = 1.0
        _, cov = variances_from_rho(rho)
        assert abs(cov[0, 0] - 3.5) <= 1e-12

    def test_annihilation_operator(self):
        a = annihilation_operator(4)
        n_op = a.conj().T @ a
        assert_allclose(np.diag(n_op).real, [0, 1, 2, 3], atol=1e-14)


class TestOscillatorDensityMatrix:
    def test_serialization_round_trip_values(self):
        rec = simulate_records(VACUUM, 0.8, 3_000, seed=47)
        odm = mle_reconstruct(rec)
        d = odm.to_dict()
        flat = np.array(d["rho_row_major_re_im"])
        rebuilt = (flat[:, 0] + 1j * flat[:, 1]).reshape(10, 10)
        assert np.abs(rebuilt - odm.rho).max() <= 1e-15

    def test_invariants_enforced(self):
        with pytest.raises(PhysicalityError):
            OscillatorDensityMatrix(rho=np.eye(4, dtype=complex))  # trace 4
        bad_top = np.zeros((4, 4), dtype=complex)
        bad_top[0, 0] = 0.9
        bad_top[3, 3] = 0.1
        with pytest.raises(PhysicalityError, match="truncation validity bound 1e-3$"):
            OscillatorDensityMatrix(rho=bad_top)
        # an unconverged iterate is flagged, not rejected
        assert not OscillatorDensityMatrix(rho=bad_top, converged=False).converged

    def test_dim_is_the_size_of_rho(self):
        d = OscillatorDensityMatrix(rho=np.diag([0.75, 0.25, 0.0])).to_dict()
        assert d["dim"] == 3
        assert list(d) == ["dim", "mean_x", "mean_p", "n_iterations", "converged",
                           "rho_row_major_re_im"]
