import math
import statistics

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import eigh as scipy_eigh
from scipy.special import ndtr
from scipy.stats import chi2

from spintomo import (
    MeasurementRecord,
    OscillatorDensityMatrix,
    PhysicalityError,
    RecordStatistics,
    canonical_moments,
    check_density,
    correct_covariance,
    evolved_state,
    mle_reconstruct,
    simulate_records,
    simulated_statistics,
    squeezing_report,
)
from spintomo import ExperimentConfig, point_record, readout_model, tomography
from spintomo.tomography import _binned_quadrature_povm

from conftest import (
    annihilation_operator,
    bartlett_corrected_covariances,
    displaced,
    einsum_kernel,
    mle_likelihood_trace,
    quadrature_cov,
    random_density_matrix,
    rrr_iteration,
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
        cc = correct_covariance(_output_record(0.5, 0.5).statistics)
        assert abs(cc.var_x - 0.5) <= 1e-12
        assert abs(cc.var_p - 0.5) <= 1e-12
        assert abs(cc.cov_xp) <= 1e-12

    def test_inverts_squeezed_output(self):
        cc = correct_covariance(_output_record(0.25, 1.0).statistics)
        assert abs(cc.var_x - 0.25) <= 1e-12
        assert abs(cc.var_p - 1.0) <= 1e-12
        assert abs(cc.cov_xp) <= 1e-12

    def test_zero_coupling_rejected(self):
        rec = MeasurementRecord(shots=np.full((4, 2), 0.7), kappa2=0.0, seed=0)
        with pytest.raises(ValueError):
            correct_covariance(rec.statistics)


class TestCorrectCovariance:
    def test_exact_four_shot_construction(self):
        # shots engineered so the sample moments are exact: variances
        # 4a^2/3 per quadrature (ddof=1), zero means, zero cross term
        kappa2 = 0.8
        target_total = 0.5 + 0.4 * 0.5 + kappa2**2 / 24.0
        a = np.sqrt(3.0 * target_total / 4.0)
        shots = np.array([[a, a], [a, -a], [-a, a], [-a, -a]])
        rec = MeasurementRecord(shots=shots, kappa2=kappa2, seed=0)
        cc = correct_covariance(rec.statistics)
        assert abs(cc.var_x - 0.5) <= 1e-12
        assert abs(cc.var_p - 0.5) <= 1e-12
        assert abs(cc.cov_xp) <= 1e-12
        assert abs(cc.mean_x) <= 1e-12
        assert abs(cc.statistical_error - np.sqrt(2.0 / 3.0)) <= 1e-12

    def test_statistical_round_trip(self):
        truth = quadrature_cov(1.1, 0.25, 0.1)
        rec = displaced(simulate_records(truth, 0.8, 100_000, seed=51), 0.3, -0.2)
        cc = correct_covariance(rec.statistics)
        sigma_var = cc.statistical_error * (0.5 + 0.4 * 1.1 + 0.8**2 / 24.0) * 2.5
        assert abs(cc.var_x - truth[0, 0]) <= 5 * sigma_var
        assert abs(cc.var_p - truth[1, 1]) <= 5 * sigma_var
        assert abs(cc.cov_xp - truth[0, 1]) <= 5 * sigma_var
        assert abs(cc.mean_x - 0.3) <= 5 * np.sqrt(1.0 / rec.n_shots) * 2.5
        assert abs(cc.mean_p + 0.2) <= 5 * np.sqrt(1.0 / rec.n_shots) * 2.5

    def test_matches_statistics_module(self):
        # correlated, displaced quadratures; the oracle is the standard
        # library's sample moments inverted through gain kappa2/2 and noise
        # 1/2 + kappa2^2/24
        kappa2 = 0.8
        rec = displaced(simulate_records(quadrature_cov(1.1, 0.25, 0.1), kappa2, 10_000, seed=65),
                        0.3, -0.2)
        y_c, y_s = rec.shots[:, 0].tolist(), rec.shots[:, 1].tolist()
        gain, noise = kappa2 / 2.0, 0.5 + kappa2**2 / 24.0
        cc = correct_covariance(rec.statistics)
        assert cc.var_x == pytest.approx((statistics.variance(y_c) - noise) / gain, rel=1e-12)
        assert cc.var_p == pytest.approx((statistics.variance(y_s) - noise) / gain, rel=1e-12)
        assert cc.cov_xp == pytest.approx(statistics.covariance(y_c, y_s) / gain, rel=1e-12)
        assert cc.mean_x == pytest.approx(statistics.fmean(y_c) / math.sqrt(gain), rel=1e-12)
        assert cc.mean_p == pytest.approx(statistics.fmean(y_s) / math.sqrt(gain), rel=1e-12)

    def test_zero_coupling_rejected(self):
        rec = MeasurementRecord(shots=np.random.default_rng(0).normal(size=(100, 2)),
                                kappa2=0.0, seed=0)
        with pytest.raises(ValueError, match="not invertible"):
            correct_covariance(rec.statistics)
        # a coupling whose gain kappa2/2 underflows to zero is no coupling either
        tiny = MeasurementRecord(shots=rec.shots, kappa2=5e-324, seed=0)
        with pytest.raises(ValueError, match="kappa2 = 4.94066e-324: the atomic signal is not invertible"):
            correct_covariance(tiny.statistics)

    def test_one_shot_rejected(self):
        one = MeasurementRecord(shots=np.array([[0.1, 0.2]]), kappa2=0.8, seed=0)
        with pytest.raises(ValueError, match="need at least 2 shots to estimate variances"):
            correct_covariance(one.statistics)

    def test_unphysical_correction_flagged(self):
        # a record with (numerically) zero variance cannot come from the
        # model: the corrected variance sits far below zero
        shots = np.zeros((5000, 2))
        shots[0] = (1e-6, 1e-6)
        rec = MeasurementRecord(shots=shots, kappa2=0.8, seed=0)
        with pytest.raises(PhysicalityError, match="unphysical correction"):
            correct_covariance(rec.statistics)

    @pytest.mark.parametrize("n", [2, 3, 5, 10, 30])
    def test_small_physical_records_pass_the_floor(self, n):
        # records from physical states: a 5-standard-error Gaussian floor
        # rejected 41 % of them at n = 2 and 1.5 % at n = 10
        squeezed = quadrature_cov(0.27, 1.0 / (4 * 0.27))
        for atomic in (VACUUM, squeezed):
            for seed in range(2000):
                correct_covariance(simulated_statistics(atomic, 0.8, n, seed=10_000 * n + seed))

    @pytest.mark.parametrize("n", [2, 30, 10_000])
    def test_floor_sits_at_its_level(self, n):
        # at the largest rejected ratio r = s^2/noise the exact chi-square tail
        # of the least-variance physical state is below the stated level
        _, noise = readout_model(0.8)

        def rejected(r):
            stats = RecordStatistics(n, 0.8, np.zeros(2), np.diag([r * noise, noise]))
            try:
                correct_covariance(stats)
            except PhysicalityError as exc:
                assert "unphysical correction: var_x = " in str(exc)
                assert f"probability below {tomography.FLOOR_LEVEL:.3g}" in str(exc)
                return True
            return False

        lo, hi = 0.0, 1.0
        assert rejected(lo) and not rejected(hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if rejected(mid) else (lo, mid)
        k = n - 1
        assert chi2.cdf(k * lo, k) <= tomography.FLOOR_LEVEL
        assert tomography.FLOOR_LEVEL == pytest.approx(2.8665157e-7, rel=1e-7)
        if n == 10_000:
            assert lo == pytest.approx(0.924, abs=5e-4)

    def test_heisenberg_floor_propagates(self):
        for seed, atomic in ((61, VACUUM), (62, SQUEEZED), (63, quadrature_cov(2.0, 0.125))):
            rec = simulate_records(atomic, 0.8, 100_000, seed=seed)
            cc = correct_covariance(rec.statistics)
            det = cc.var_x * cc.var_p - cc.cov_xp**2
            assert det >= 0.25 - 5 * cc.statistical_error

    @pytest.mark.parametrize("t_r", [0.0, 0.8])
    def test_sampling_distribution_matches_exact_wishart_draws(self, t_r):
        # 200 seeded records of the default point against 10^5 exact Bartlett
        # draws of the same corrected covariance: equal means, equal spreads
        config = ExperimentConfig()
        report = squeezing_report(evolved_state(config, t_r))
        cov = canonical_moments(report.cov, report.length)
        sampled = []
        for seed in range(200):
            rec = simulate_records(cov, config.kappa2, config.n_shots, seed)
            cc = correct_covariance(rec.statistics)
            sampled.append((cc.var_x, cc.var_p, cc.cov_xp))
        sampled = np.array(sampled)
        exact = bartlett_corrected_covariances(
            cov, config.kappa2, config.n_shots, 100_000, np.random.default_rng(8)
        )
        truth = np.array([cov[0, 0], cov[1, 1], cov[0, 1]])
        spread, exact_spread = sampled.std(axis=0, ddof=1), exact.std(axis=0, ddof=1)
        # the oracle itself is unbiased
        assert np.all(np.abs(exact.mean(axis=0) - truth) <= 4 * exact_spread / np.sqrt(len(exact)))
        standard_error = np.hypot(spread / np.sqrt(len(sampled)), exact_spread / np.sqrt(len(exact)))
        assert np.all(np.abs(sampled.mean(axis=0) - exact.mean(axis=0)) <= 4 * standard_error)
        assert np.all((0.85 <= spread / exact_spread) & (spread / exact_spread <= 1.15))

    def test_statistical_error_formula(self):
        rec = simulate_records(VACUUM, 0.8, 1000, seed=64)
        cc = correct_covariance(rec.statistics)
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
        # 213 nodes at dim 10 whatever the bins' span and blur: at kappa2 = 1e-12
        # unit-variance shots span about +-8e6 atomic units, and the blur is 1e6
        grids, hermite_functions = [], tomography._hermite_functions

        def spy(n_max, x):
            grids.append(len(x))
            return hermite_functions(n_max, x)

        monkeypatch.setattr(tomography, "_hermite_functions", spy)
        gain, noise = readout_model(kappa2)
        span = 6.0 / np.sqrt(gain)
        _binned_quadrature_povm(np.linspace(-span, span, 63), np.sqrt(noise / gain),
                                tomography.BASIS_DIM)
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

    def test_rotated_shots_reconstruct_the_rotated_state(self):
        # U = exp(-i pi n / 2) maps (x, p) to (p, -x): U^dag x U = p and U^dag p U = -x,
        # so the shots (y_s, -y_c) come from U rho U^dag.  The two problems hold the
        # same bins in another order and pairing, so their round-off differs, and the
        # solver, whose trial step grows to the edge of stability, amplifies it by a
        # realisation-dependent factor (3e-14 to 6e-10 on the converged 0.8 ms records
        # of seeds 0-19, 7e-12 on this one); a wrong rotation would show at the size
        # of the off-diagonal elements, about 1e-2
        rec = point_record(ExperimentConfig(), 0.8)
        y_c, y_s = rec.shots.T
        turned = MeasurementRecord(np.column_stack([y_s, -y_c]), rec.kappa2, rec.seed)
        odm, odm_turned = mle_reconstruct(rec), mle_reconstruct(turned)
        assert odm.converged and odm_turned.converged
        u = np.diag(np.exp(-0.5j * np.pi * np.arange(10)))
        assert np.abs(odm_turned.rho - u @ odm.rho @ u.conj().T).max() <= 1e-8


SOLVER_POINTS_MS = [0.0, 0.3, 0.8, 2.0, 6.0]


def _default_povms(t_r):
    return tomography._binned_povm(point_record(ExperimentConfig(), t_r), tomography.BASIS_DIM)[1:]


class TestLikelihoodKernel:
    def test_matches_traces_and_sums(self, monkeypatch):
        # the trace and the gap bound against Tr(P_k rho) and R = sum_k f_k / p_k P_k
        # written out per element, after 10 steps
        rng = np.random.default_rng(71)
        edges = np.linspace(-6.0, 6.0, 63)
        povm_x = _binned_quadrature_povm(edges, 1.147, 10)
        povms = np.concatenate([povm_x, tomography._rotated_povm(povm_x, np.pi / 2.0, 10)])
        counts = rng.integers(1, 500, len(povms)).astype(float)
        monkeypatch.setattr(tomography, "MAX_ITER", 10)
        rho, iterations, gap, history = tomography._apg_mle(povms, counts)

        def log_likelihood(state):
            return counts @ np.log([np.trace(p @ state).real for p in povms])

        probs = np.array([np.trace(p @ rho).real for p in povms])
        r = sum(c / counts.sum() / p * element for c, p, element in zip(counts, probs, povms))
        assert (iterations, len(history)) == (10, 11)
        assert_allclose([history[0], history[-1]],
                        [log_likelihood(np.eye(10) / 10), log_likelihood(rho)], rtol=1e-14, atol=0.0)
        assert abs(gap - counts.sum() * (np.linalg.eigvalsh(r)[-1] - 1.0)) <= 1e-8

    @pytest.mark.parametrize(
        "t_r, dim, max_iter, converges",
        [(0.0, 10, 5000, True), (0.8, 10, 100, False), (None, 12, 5000, True)],
        ids=["0.0", "0.8", "thermal"],
    )
    def test_iteration_matches_einsum_kernel(self, t_r, dim, max_iter, converges, monkeypatch):
        # the reported likelihood and gap bound recomputed with per-element einsum products,
        # and mle_reconstruct reporting the solver's result, or refusing it while its bound
        # is open
        if t_r is None:  # test_thermal_round_trip's record
            rec = simulate_records(quadrature_cov(1.0, 1.0), 0.8, 10_000, seed=21)
        else:
            rec = point_record(ExperimentConfig(), t_r)
        _, povms, counts = tomography._binned_povm(rec, dim)
        monkeypatch.setattr(tomography, "MAX_ITER", max_iter)
        rho, iterations, gap, history = tomography._apg_mle(povms, counts)
        probabilities, weighted_sum = einsum_kernel(povms)
        probs = probabilities(rho)
        assert_allclose(history[-1], counts @ np.log(probs), rtol=1e-13, atol=0.0)
        lambda_max = np.linalg.eigvalsh(weighted_sum(counts / counts.sum() / probs))[-1]
        assert abs(gap - counts.sum() * (lambda_max - 1.0)) <= 1e-8
        assert (gap < tomography.GAP_TOL) == converges
        monkeypatch.setattr(tomography, "BASIS_DIM", dim)
        if not converges:
            with pytest.raises(ArithmeticError, match=f"max_iter={max_iter} with likelihood-gap "
                                                      f"bound {gap:.3g} "):
                mle_reconstruct(rec)
            return
        odm = mle_reconstruct(rec)
        assert (odm.n_iterations, odm.converged, odm.gap_bound) == (iterations, True, gap)
        assert np.abs(odm.rho - rho).max() <= 1e-12


class TestSolver:
    @pytest.mark.parametrize("t_r", SOLVER_POINTS_MS)
    def test_second_method_gains_at_most_the_gap_bound(self, t_r):
        # 30 000 RrhoR steps, six times the solver's step cap, find no state more likely
        # than the solver's result by more than the bound it reports
        povms, counts = _default_povms(t_r)
        _, iterations, gap, history = tomography._apg_mle(povms, counts)
        assert gap < tomography.GAP_TOL
        assert max(rrr_iteration(povms, counts, 30_000)[1]) - history[-1] <= gap

    @pytest.mark.parametrize("t_r", SOLVER_POINTS_MS)
    def test_density_matrix_from_ascending_steps_without_floating_point_errors(self, t_r):
        povms, counts = _default_povms(t_r)
        with np.errstate(all="raise"):
            rho, iterations, gap, history = tomography._apg_mle(povms, counts)
        assert abs(np.trace(rho).real - 1.0) <= 1e-12
        assert np.abs(rho - rho.conj().T).max() <= 1e-12
        assert np.linalg.eigvalsh(rho).min() >= -1e-12
        assert len(history) == iterations + 1
        assert np.diff(history).min() >= -1e-12 * abs(history[0])  # round-off, not a step back

    def test_unreachable_bin_rejected(self):
        # an element that is zero gives every state of the basis probability zero
        povms = np.array([np.eye(2), np.diag([0.0, 0.0]), np.zeros((2, 2))], dtype=complex)
        with pytest.raises(PhysicalityError, match="2 occupied bins lie beyond the reach"):
            tomography._apg_mle(povms, np.array([5.0, 1.0, 1.0]))

    @pytest.mark.parametrize("t_r", [0.0, 0.8])
    def test_stops_at_the_first_step_whose_exact_gap_is_below_the_tolerance(self, t_r, monkeypatch):
        # runs cut short by MAX_ITER follow the same steps and each returns the exact gap
        # bound N (lambda_max(R) - 1) at its state, recomputed per element: at or above
        # GAP_TOL on every step before the one the full run stops at
        povms, counts = _default_povms(t_r)
        rho_n, n, gap_n, history_n = tomography._apg_mle(povms, counts)
        probabilities, weighted_sum = einsum_kernel(povms)

        def exact_gap(rho):
            weights = counts / counts.sum() / probabilities(rho)
            return counts.sum() * (np.linalg.eigvalsh(weighted_sum(weights))[-1] - 1.0)

        assert gap_n < tomography.GAP_TOL
        assert abs(gap_n - exact_gap(rho_n)) <= 1e-8
        for m in sorted({*range(1, n, max(1, n // 16)), n - 1}):
            monkeypatch.setattr(tomography, "MAX_ITER", m)
            rho, iterations, gap, history = tomography._apg_mle(povms, counts)
            assert (iterations, history) == (m, history_n[: m + 1])
            assert gap >= tomography.GAP_TOL
            assert abs(gap - exact_gap(rho)) <= 1e-8

    @pytest.mark.parametrize("t_r", [0.0, 0.8])
    def test_solves_for_the_gap_on_fewer_than_a_quarter_of_the_steps(self, t_r, monkeypatch):
        povms, counts = _default_povms(t_r)
        solves = []
        eigvalsh = np.linalg.eigvalsh

        def counted_eigvalsh(a):
            solves.append(a)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
        _, n, gap, _ = tomography._apg_mle(povms, counts)
        assert gap < tomography.GAP_TOL
        assert 1 <= len(solves) < n / 4


def _projection_by_bisection(h):
    """The density matrix nearest to ``h``: scipy's eigenvectors of ``h``, with eigenvalues
    max(w - tau, 0) for the tau that bisection finds to make them sum to 1."""
    w, v = scipy_eigh(h)
    lo, hi = w.min() - 1.0, w.max()  # the sum is at least 1 at lo and 0 at hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.maximum(w - mid, 0.0).sum() > 1.0:
            lo = mid
        else:
            hi = mid
    return (v * np.maximum(w - 0.5 * (lo + hi), 0.0)) @ v.conj().T


def _hermitian_with_eigenvalues(eigenvalues, seed):
    u = np.linalg.qr(random_density_matrix(len(eigenvalues), np.random.default_rng(seed)))[0]
    h = (u * np.asarray(eigenvalues, dtype=float)) @ u.conj().T
    return (h + h.conj().T) / 2.0


class TestDensityProjection:
    @pytest.mark.parametrize("dim", [1, 2, 10])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e2])
    def test_matches_bisection_on_random_hermitian_inputs(self, dim, scale):
        rng = np.random.default_rng(dim + int(1e3 * scale))
        for _ in range(20):
            a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            h = scale * (a + a.conj().T)
            out = tomography._density_projection(h)
            assert np.abs(out - _projection_by_bisection(h)).max() <= 1e-12 * max(1.0, scale)
            check_density(out)

    def test_density_matrix_comes_back_as_itself(self):
        rng = np.random.default_rng(5)
        vector = np.linalg.qr(random_density_matrix(10, rng))[0][:, 3]
        for rho in (random_density_matrix(10, rng), np.diag(rng.dirichlet(np.ones(10))),
                    np.eye(10) / 10, np.outer(vector, vector.conj())):
            assert np.abs(tomography._density_projection(rho) - rho).max() <= 1e-15

    @pytest.mark.parametrize(
        "eigenvalues",
        [[0.4] * 3 + [-0.2] * 7, [2.0] * 10, [0.7, 0.7, 0.2, 0.2, 0.2, 0.0, 0.0, -1.0, -1.0, -1.0],
         [-3.0, -2.5, -2.5, -2.0, -1.0, -1.0, -0.5, -0.5, -0.5, -0.4]],
        ids=["degenerate-top", "multiple-of-identity", "degenerate-kept-and-dropped",
             "negative-definite"],
    )
    def test_degenerate_and_negative_definite_inputs(self, eigenvalues):
        h = _hermitian_with_eigenvalues(eigenvalues, seed=len(set(eigenvalues)))
        out = tomography._density_projection(h)
        assert np.abs(out - _projection_by_bisection(h)).max() <= 1e-13
        check_density(out)

    def test_rank_one_output(self):
        # the top eigenvalue exceeds the next by more than 1: only its eigenvector is kept
        h = _hermitian_with_eigenvalues([3.5, 1.2, 0.3, 0.0, -1.0, -2.0, -4.0, 0.1, 0.2, 1.0], seed=9)
        top = np.linalg.eigh(h)[1][:, -1]
        out = tomography._density_projection(h)
        assert np.abs(out - np.outer(top, top.conj())).max() <= 1e-13
        assert np.abs(out - _projection_by_bisection(h)).max() <= 1e-13
        assert np.count_nonzero(np.linalg.eigvalsh(out) > 1e-12) == 1


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
        cc = correct_covariance(rec.statistics)
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
                rec = simulate_records(SQUEEZED, 0.8, n, seed=500 + seed)
                cc = correct_covariance(rec.statistics)
                errs.append((cc.var_x - SQUEEZED[0, 0]) ** 2 + (cc.var_p - SQUEEZED[1, 1]) ** 2)
            errors.append(np.sqrt(np.mean(errs)))
        # two decades of shots should buy roughly one decade of accuracy
        ratio = errors[0] / errors[1]
        assert 3.0 <= ratio <= 33.0

    def test_non_convergence_raises(self, monkeypatch):
        # an open gap bound at MAX_ITER is an error that names the cap and the bound
        rec = simulate_records(VACUUM, 0.8, 2_000, seed=45)
        _, povms, counts = tomography._binned_povm(rec, tomography.BASIS_DIM)
        monkeypatch.setattr(tomography, "MAX_ITER", 3)
        gap = tomography._apg_mle(povms, counts)[2]
        assert gap >= tomography.GAP_TOL
        with pytest.raises(ArithmeticError) as error:
            mle_reconstruct(rec)
        assert str(error.value) == (f"likelihood iteration stopped at max_iter=3 with "
                                    f"likelihood-gap bound {gap:.3g} (tol 0.1)")

    def test_validation(self):
        # a record without gain fails as the covariance route fails on it; at
        # kappa2 = 5e-324 the gain kappa2/2 underflows to 0
        shots = simulate_records(VACUUM, 0.8, 100, seed=46).shots
        for kappa2 in (0.0, 5e-324):
            rec = MeasurementRecord(shots=shots, kappa2=kappa2, seed=0)
            with pytest.raises(ValueError) as covariance_route:
                correct_covariance(rec.statistics)
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

    def test_every_state_is_converged(self):
        # no constructor argument makes a flagged iterate
        rho = np.diag([0.75, 0.25, 0.0])
        with pytest.raises(TypeError, match="converged"):
            OscillatorDensityMatrix(rho=rho, converged=False)
        assert OscillatorDensityMatrix(rho=rho).to_dict()["converged"] is True

    def test_dim_is_the_size_of_rho(self):
        d = OscillatorDensityMatrix(rho=np.diag([0.75, 0.25, 0.0])).to_dict()
        assert d["dim"] == 3
        assert list(d) == ["dim", "mean_x", "mean_p", "n_iterations", "converged", "gap_bound",
                           "rho_row_major_re_im"]
