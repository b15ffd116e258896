import numpy as np
import pytest
from numpy.testing import assert_allclose

from spintomo import (
    CanonicalMoments,
    MeasurementRecord,
    OscillatorDensityMatrix,
    PhysicalityError,
    correct_covariance,
    corrected_variance,
    mle_reconstruct,
    simulate_records,
    variances_from_rho,
)
from spintomo.tomography import _binned_quadrature_povm, annihilation_operator

VACUUM = CanonicalMoments(0.0, 0.0, 0.5, 0.5, 0.0)
SQUEEZED = CanonicalMoments(0.0, 0.0, 1.1, 0.25, 0.0)


class TestCorrectedVariance:
    def test_inverts_css_output(self):
        total = 0.5 + 0.4 * 0.5 + (0.8**2 / 12.0) * 0.5
        assert abs(corrected_variance(total, 0.8) - 0.5) <= 1e-12

    def test_inverts_squeezed_output(self):
        total = 0.5 + 0.4 * 0.25 + (0.8**2 / 12.0) * 0.5
        assert abs(corrected_variance(total, 0.8) - 0.25) <= 1e-12

    def test_zero_coupling_rejected(self):
        with pytest.raises(ValueError):
            corrected_variance(0.7, 0.0)


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
        truth = CanonicalMoments(0.3, -0.2, 1.1, 0.25, 0.1)
        rec = simulate_records(truth, 0.8, 100_000, seed=51)
        cc = correct_covariance(rec)
        sigma_var = cc.statistical_error * (0.5 + 0.4 * 1.1 + 0.8**2 / 24.0) * 2.5
        assert abs(cc.var_x - truth.var_x) <= 5 * sigma_var
        assert abs(cc.var_p - truth.var_p) <= 5 * sigma_var
        assert abs(cc.cov_xp - truth.cov_xp) <= 5 * sigma_var
        assert abs(cc.mean_x - truth.mean_x) <= 5 * np.sqrt(1.0 / rec.n_shots) * 2.5
        assert abs(cc.mean_p - truth.mean_p) <= 5 * np.sqrt(1.0 / rec.n_shots) * 2.5

    def test_zero_coupling_rejected(self):
        rec = MeasurementRecord(shots=np.random.default_rng(0).normal(size=(100, 2)),
                                kappa2=0.0, seed=0)
        with pytest.raises(ValueError, match="not invertible"):
            correct_covariance(rec)

    def test_unphysical_correction_flagged(self):
        # a record with (numerically) zero variance cannot come from the
        # model: the corrected variance sits far below zero
        shots = np.zeros((5000, 2))
        shots[0] = (1e-6, 1e-6)
        rec = MeasurementRecord(shots=shots, kappa2=0.8, seed=0)
        with pytest.raises(PhysicalityError, match="unphysical correction"):
            correct_covariance(rec)

    def test_heisenberg_floor_propagates(self):
        for seed, moments in ((61, VACUUM), (62, SQUEEZED), (63, CanonicalMoments(0.0, 0.0, 2.0, 0.125, 0.0))):
            rec = simulate_records(moments, 0.8, 100_000, seed=seed)
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

    def test_elements_positive_semidefinite(self):
        edges = np.linspace(-5.0, 5.0, 31)
        povm = _binned_quadrature_povm(edges, sigma_blur=0.9, dim=8)
        for element in povm:
            assert np.linalg.eigvalsh(element).min() >= -1e-12


class TestMleReconstruct:
    def test_vacuum_round_trip(self):
        rec = simulate_records(VACUUM, 0.8, 10_000, seed=42)
        odm = mle_reconstruct(rec)
        assert odm.populations[0] > 0.95
        assert odm.converged
        # likelihood never decreases along the iteration
        diffs = np.diff(odm.log_likelihoods)
        assert diffs.min() >= -1e-9 * abs(odm.log_likelihoods[0])

    def test_thermal_round_trip(self):
        # mean occupation 1/2: geometric (Bose-Einstein) populations; the
        # 0.1 band is ~3 sigma of the seed-to-seed spread at 10^4 shots
        thermal = CanonicalMoments(0.0, 0.0, 1.0, 1.0, 0.0)
        rec = simulate_records(thermal, 0.8, 10_000, seed=21)
        odm = mle_reconstruct(rec, dim=12, max_iter=8000, tol=1e-9)
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
        moments = CanonicalMoments(0.7, -0.3, 0.5, 0.5, 0.0)
        rec = simulate_records(moments, 0.8, 50_000, seed=44)
        odm = mle_reconstruct(rec)
        assert abs(odm.mean_x - 0.7) <= 0.05
        assert abs(odm.mean_p + 0.3) <= 0.05
        # the reconstructed state itself is centered
        vm = variances_from_rho(odm)
        assert abs(vm.mean_x) <= 0.05
        assert abs(vm.mean_p) <= 0.05

    def test_cross_method_variance_agreement(self):
        rec = simulate_records(SQUEEZED, 0.8, 10_000, seed=22)
        cc = correct_covariance(rec)
        odm = mle_reconstruct(rec)
        vm = variances_from_rho(odm)
        sigma_p = cc.statistical_error * (0.5 + 0.4 * cc.var_p + 0.8**2 / 24.0) * 2.5
        assert abs(vm.var_p - cc.var_p) <= 3 * sigma_p

    def test_paired_excitation_structure(self):
        # quadratic dynamics from vacuum populate even levels; odd levels
        # stay consistent with zero
        pure_squeezed = CanonicalMoments(0.0, 0.0, 2.0, 0.125, 0.0)
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
                errs.append((cc.var_x - SQUEEZED.var_x) ** 2 + (cc.var_p - SQUEEZED.var_p) ** 2)
            errors.append(np.sqrt(np.mean(errs)))
        # two decades of shots should buy roughly one decade of accuracy
        ratio = errors[0] / errors[1]
        assert 3.0 <= ratio <= 33.0

    def test_non_convergence_warns(self):
        rec = simulate_records(VACUUM, 0.8, 2_000, seed=45)
        with pytest.warns(RuntimeWarning, match="max_iter"):
            odm = mle_reconstruct(rec, max_iter=3)
        assert not odm.converged
        assert odm.n_iterations == 3

    def test_validation(self):
        rec = simulate_records(VACUUM, 0.8, 100, seed=46)
        with pytest.raises(ValueError):
            mle_reconstruct(rec, dim=1)
        vac_rec = MeasurementRecord(shots=np.ones((10, 2)), kappa2=0.0, seed=0)
        with pytest.raises(ValueError):
            mle_reconstruct(vac_rec)


class TestVariancesFromRho:
    def test_ground_state(self):
        rho = np.zeros((10, 10), dtype=complex)
        rho[0, 0] = 1.0
        vm = variances_from_rho(rho)
        assert abs(vm.var_x - 0.5) <= 1e-12
        assert abs(vm.var_p - 0.5) <= 1e-12

    def test_first_excited_state(self):
        rho = np.zeros((10, 10), dtype=complex)
        rho[1, 1] = 1.0
        vm = variances_from_rho(rho)
        assert abs(vm.var_x - 1.5) <= 1e-12
        assert abs(vm.var_p - 1.5) <= 1e-12

    def test_top_level_still_exact(self):
        # padding keeps second moments exact even for the highest level
        rho = np.zeros((4, 4), dtype=complex)
        rho[3, 3] = 1.0
        vm = variances_from_rho(rho)
        assert abs(vm.var_x - 3.5) <= 1e-12

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
            OscillatorDensityMatrix(dim=4, rho=np.eye(4, dtype=complex))  # trace 4
        bad_top = np.zeros((4, 4), dtype=complex)
        bad_top[0, 0] = 0.9
        bad_top[3, 3] = 0.1
        with pytest.raises(PhysicalityError, match="truncation"):
            OscillatorDensityMatrix(dim=4, rho=bad_top)
