import io

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import chi2 as chi2_dist

from spintomo import (
    CanonicalMoments,
    MeasurementRecord,
    PhysicalityError,
    QuantumState,
    THERMAL_TRANSVERSE_VARIANCE,
    canonical_moments,
    coherent_spin_state,
    evolve_unitary,
    output_variance,
    record_from_csv,
    record_to_csv,
    rotate,
    simulate_records,
    simulate_thermal_records,
    simulate_vacuum_records,
    spin_operators,
    squeezing_report,
    tact_hamiltonian,
    thermal_calibration,
    vacuum_calibration,
)


def _tact_state(tau):
    css = coherent_spin_state(4, np.pi / 2.0, 0.0)
    return evolve_unitary(css, tact_hamiltonian(spin_operators(4), 1.0), tau)


class TestCanonicalMoments:
    def test_css_is_vacuum(self, ops4, css_x4):
        m = canonical_moments(css_x4, ops4, pump_jx=4.0)
        assert_allclose(
            [m.mean_x, m.mean_p, m.var_x, m.var_p, m.cov_xp],
            [0.0, 0.0, 0.5, 0.5, 0.0],
            atol=1e-12,
        )

    def test_squeezed_to_quarter_has_antisqueezed_partner(self, ops4):
        # find the evolution time where the squeezed quadrature variance
        # crosses 1/4 (3 dB), aligning the squeezed axis with p first
        def aligned_var_p(tau):
            state = _tact_state(tau)
            report = squeezing_report(state)
            # rotate the squeezed axis onto z
            angle = report.optimal_angle - np.pi / 2.0
            rotated = rotate(state, [1.0, 0.0, 0.0], -angle)
            jx = squeezing_report(rotated).mean_spin_length
            return canonical_moments(rotated, ops4, pump_jx=jx), tau

        lo, hi = 0.005, 0.1375
        for _ in range(60):  # bisect var_p(tau) = 1/4
            mid = (lo + hi) / 2.0
            m, _ = aligned_var_p(mid)
            if m.var_p > 0.25:
                lo = mid
            else:
                hi = mid
        m, tau = aligned_var_p((lo + hi) / 2.0)
        assert abs(m.var_p - 0.25) <= 1e-9
        assert m.var_x >= 0.5 - 1e-12

    def test_conversion_matches_squeezing_report(self, ops4):
        # rescaled to the initial spin, the canonical minimum variance
        # equals zeta2 * (|<F>|/F) / 2; the moments themselves are built
        # with the current mean spin, which keeps the commutator canonical
        state = _tact_state(0.1375)
        report = squeezing_report(state, j_initial=4.0)
        jx = report.mean_spin_length
        m = canonical_moments(state, ops4, pump_jx=jx)
        rescaled_to_initial = m.min_variance * (jx / 4.0)
        expected = report.zeta2 * (jx / 4.0) / 2.0
        assert abs(rescaled_to_initial - expected) <= 1e-12
        assert abs(m.min_variance - report.zeta2 / 2.0) <= 1e-12

    def test_heisenberg_validation(self):
        with pytest.raises(PhysicalityError):
            CanonicalMoments(0.0, 0.0, 0.3, 0.3, 0.0)  # det 0.09 < 1/4
        with pytest.raises(PhysicalityError):
            CanonicalMoments(0.0, 0.0, -0.5, 1.0, 0.0)

    def test_pump_jx_validation(self, ops4, css_x4):
        with pytest.raises(ValueError):
            canonical_moments(css_x4, ops4, pump_jx=0.0)


class TestOutputVariance:
    def test_no_coupling_is_shot_noise(self):
        m = CanonicalMoments(0.0, 0.0, 0.5, 0.5, 0.0)
        assert output_variance(m, 0.0) == (0.5, 0.5)

    def test_css_at_kappa2_08(self):
        m = CanonicalMoments(0.0, 0.0, 0.5, 0.5, 0.0)
        var_yc, var_ys = output_variance(m, 0.8)
        expected = 0.5 + 0.4 * 0.5 + (0.64 / 12.0) * 0.5
        assert abs(var_yc - expected) <= 1e-15
        assert abs(var_ys - expected) <= 1e-15
        assert abs(var_yc - 0.72667) <= 5e-6

    def test_squeezed_quadrature(self):
        m = CanonicalMoments(0.0, 0.0, 1.0, 0.25, 0.0)
        _, var_ys = output_variance(m, 0.8)
        assert abs(var_ys - (0.5 + 0.1 + 0.64 / 24.0)) <= 1e-15
        assert abs(var_ys - 0.62667) <= 5e-6

    def test_monotone_in_coupling(self):
        m = CanonicalMoments(0.0, 0.0, 0.5, 0.5, 0.0)
        kappas = np.linspace(0.0, 2.0, 21)
        vals = [output_variance(m, k)[0] for k in kappas]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestSimulateRecords:
    def test_deterministic_under_seed(self):
        m = CanonicalMoments(0.1, -0.2, 0.6, 0.45, 0.05)
        a = simulate_records(m, 0.8, 500, seed=99)
        b = simulate_records(m, 0.8, 500, seed=99)
        assert np.array_equal(a.shots, b.shots)
        c = simulate_records(m, 0.8, 500, seed=100)
        assert not np.array_equal(a.shots, c.shots)

    def test_zero_coupling_gives_shot_noise(self):
        m = CanonicalMoments(0.0, 0.0, 0.5, 0.5, 0.0)
        rec = simulate_records(m, 0.0, 100_000, seed=1)
        se = 0.5 * np.sqrt(2.0 / (rec.n_shots - 1))
        assert abs(np.var(rec.y_c, ddof=1) - 0.5) <= 3 * se
        assert abs(np.var(rec.y_s, ddof=1) - 0.5) <= 3 * se

    def test_mean_transfers_linearly(self):
        m = CanonicalMoments(1.0, 0.0, 0.5, 0.5, 0.0)
        rec = simulate_records(m, 0.8, 200_000, seed=2)
        expected = np.sqrt(0.8 / 2.0)
        se = np.sqrt(np.var(rec.y_c, ddof=1) / rec.n_shots)
        assert abs(np.mean(rec.y_c) - expected) <= 4 * se

    def test_sample_variance_in_chi2_band(self):
        # self-consistency with the closed-form output variance at 99%
        m = CanonicalMoments(0.0, 0.0, 0.5, 0.5, 0.0)
        n = 10_000
        rec = simulate_records(m, 0.8, n, seed=3)
        var_yc, var_ys = output_variance(m, 0.8)
        lo = var_yc * chi2_dist.ppf(0.005, n - 1) / (n - 1)
        hi = var_yc * chi2_dist.ppf(0.995, n - 1) / (n - 1)
        assert lo <= np.var(rec.y_c, ddof=1) <= hi
        assert lo <= np.var(rec.y_s, ddof=1) <= hi

    def test_moment_round_trip_large_n(self):
        moments = CanonicalMoments(0.3, -0.1, 0.8, 0.4, 0.15)
        kappa2 = 0.8
        n = 1_000_000
        rec = simulate_records(moments, kappa2, n, seed=4)
        gain = kappa2 / 2.0
        var_yc, var_ys = output_variance(moments, kappa2)
        for column, mean_true, var_true in (
            (rec.y_c, moments.mean_x, var_yc),
            (rec.y_s, moments.mean_p, var_ys),
        ):
            se_mean = np.sqrt(var_true / n)
            assert abs(np.mean(column) - np.sqrt(gain) * mean_true) <= 5 * se_mean
            se_var = var_true * np.sqrt(2.0 / (n - 1))
            assert abs(np.var(column, ddof=1) - var_true) <= 5 * se_var
        cov = np.cov(rec.y_c, rec.y_s, ddof=1)[0, 1]
        se_cov = np.sqrt(var_yc * var_ys / n)
        assert abs(cov - gain * moments.cov_xp) <= 5 * se_cov

    def test_validation(self):
        m = CanonicalMoments(0.0, 0.0, 0.5, 0.5, 0.0)
        with pytest.raises(ValueError):
            simulate_records(m, 0.8, 0, seed=1)
        with pytest.raises(ValueError):
            simulate_records(m, -0.1, 10, seed=1)


class TestThermalCalibration:
    def test_sixteen_level_oracle_fixes_thermal_factor(self):
        # brute force: uniform mixture over every Cs ground sublevel.  Only
        # the F=4 manifold precesses at the probed phase; its per-atom Fz
        # variance is P(F=4) * <Fz^2>_uniform = (9/16)(20/3) = 15/4, and the
        # canonical normalization divides by the fully pumped <Fx> = 4.
        ops = spin_operators(4)
        rho_f4 = np.eye(9) / 16.0  # each of the 16 sublevels equally likely
        var_fz_per_atom = float(np.real(np.trace(rho_f4 @ ops.fz @ ops.fz)))
        assert abs(var_fz_per_atom - 15.0 / 4.0) <= 1e-12
        assert abs(var_fz_per_atom / 4.0 - THERMAL_TRANSVERSE_VARIANCE) <= 1e-15
        assert abs(THERMAL_TRANSVERSE_VARIANCE - 15.0 / 16.0) <= 1e-15

    def test_round_trip(self):
        rec = simulate_thermal_records(0.8, 200_000, seed=5)
        est = thermal_calibration(rec)
        # kappa2 error propagated from the pooled variance estimate
        total = 0.5 + 0.4 * THERMAL_TRANSVERSE_VARIANCE
        se = total * np.sqrt(2.0 / (2 * rec.n_shots - 1)) * 2.0 / THERMAL_TRANSVERSE_VARIANCE
        assert abs(est - 0.8) <= 4 * se

    def test_consistency_improves_with_n(self):
        errs = []
        for n in (2_000, 200_000):
            errors = [abs(thermal_calibration(simulate_thermal_records(0.8, n, seed=s)) - 0.8)
                      for s in range(8)]
            errs.append(np.mean(errors))
        assert errs[1] < errs[0]

    def test_pump_fraction_reference_scaling(self):
        rec = simulate_thermal_records(0.8, 100_000, seed=6)
        full = thermal_calibration(rec, pump_fraction_reference=1.0)
        partial = thermal_calibration(rec, pump_fraction_reference=0.98)
        assert abs(partial - 0.98 * full) <= 1e-12

    def test_no_atomic_noise_rejected(self):
        rec = simulate_vacuum_records(50_000, seed=7)
        with pytest.raises(PhysicalityError, match="no atomic noise"):
            thermal_calibration(rec)

    def test_exactly_vacuum_variance_rejected(self):
        shots = np.array([[0.5, 0.5], [-0.5, -0.5], [0.5, -0.5], [-0.5, 0.5]]) * np.sqrt(1.5)
        rec = MeasurementRecord(shots=shots, kappa2=0.8, seed=0)
        assert abs(np.var(rec.y_c, ddof=1) - 0.5) <= 1e-12
        with pytest.raises(PhysicalityError):
            thermal_calibration(rec)


class TestVacuumCalibration:
    def test_exact_scale_example(self):
        # raw variance 2.0 -> amplitude scale 1/2 brings it to vacuum 1/2
        shots = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]]) * np.sqrt(1.5)
        rec = MeasurementRecord(shots=shots, kappa2=0.0, seed=0)
        assert abs(np.var(rec.y_c, ddof=1) - 2.0) <= 1e-12
        scale = vacuum_calibration(rec)
        assert abs(scale - 0.5) <= 1e-12
        scaled = rec.scaled(scale)
        assert abs(np.var(scaled.y_c, ddof=1) - 0.5) <= 1e-12

    def test_zero_variance_rejected(self):
        rec = MeasurementRecord(shots=np.zeros((10, 2)), kappa2=0.0, seed=0)
        with pytest.raises(PhysicalityError):
            vacuum_calibration(rec)

    def test_gain_pipeline_round_trip(self):
        # raw-unit records: vacuum sets the scale, thermal then yields kappa2
        gain = 3.7
        vac = simulate_vacuum_records(200_000, seed=8, raw_scale=gain)
        thermal = simulate_thermal_records(0.8, 200_000, seed=9).scaled(gain)
        scale = vacuum_calibration(vac)
        assert abs(scale - 1.0 / gain) <= 0.01 / gain
        est = thermal_calibration(thermal.scaled(scale))
        assert abs(est - 0.8) <= 0.05


class TestRecordSerialization:
    def test_csv_round_trip_bit_exact(self):
        m = CanonicalMoments(0.123, -0.456, 0.7, 0.5, 0.1)
        rec = simulate_records(m, 0.8, 257, seed=10)
        buf = io.StringIO()
        record_to_csv(rec, buf, header_comments={"note": "test"})
        back = record_from_csv(io.StringIO(buf.getvalue()))
        assert np.array_equal(back.shots, rec.shots)
        assert back.kappa2 == rec.kappa2
        assert back.seed == rec.seed

    def test_header_required(self):
        with pytest.raises(ValueError, match="kappa2"):
            record_from_csv(io.StringIO("y_c,y_s\n0.1,0.2\n"))
        buf = io.StringIO()
        record_to_csv(MeasurementRecord(np.ones((2, 2)), 0.5, 1), buf)

    def test_empty_record_rejected(self):
        with pytest.raises(ValueError, match="no shots"):
            record_from_csv(io.StringIO("# kappa2=0.8\ny_c,y_s\n"))

    def test_record_shape_validation(self):
        with pytest.raises(ValueError):
            MeasurementRecord(shots=np.zeros((5, 3)), kappa2=0.1, seed=0)
        with pytest.raises(ValueError):
            MeasurementRecord(shots=np.zeros((0, 2)), kappa2=0.1, seed=0)
        with pytest.raises(ValueError):
            MeasurementRecord(shots=np.zeros((5, 2)), kappa2=-0.1, seed=0)
