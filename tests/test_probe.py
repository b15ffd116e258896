import io
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import chi2 as chi2_dist, ks_2samp, kstest

from spintomo import (
    MeasurementRecord,
    PhysicalityError,
    RecordStatistics,
    canonical_moments,
    correct_covariance,
    coherent_spin_state,
    readout_model,
    record_from_csv,
    record_to_csv,
    simulate_records,
    simulated_statistics,
    spin_operators,
    squeezing_report,
    tact_hamiltonian,
    variance_extrema,
)
from spintomo.probe import _draw_shots, _sample_moments
from conftest import (
    covariance,
    displaced,
    evolve_unitary,
    expectation,
    quadrature_cov,
    rotate,
    three_term_simulate_records,
)

VACUUM = quadrature_cov(0.5, 0.5)


def output_variance(cov, kappa2):
    """Variances of the demodulated outputs (y_c, y_s) for a given atomic (x, p) covariance."""
    gain, noise = readout_model(kappa2)
    return noise + gain * cov[0, 0], noise + gain * cov[1, 1]


def _tact_state(tau):
    css = coherent_spin_state(4, np.pi / 2.0, 0.0)
    return evolve_unitary(css, tact_hamiltonian(spin_operators(4), 1.0), tau)


class TestCanonicalMoments:
    def test_css_is_vacuum(self):
        # any coherent state is the vacuum in the frame of its own mean spin
        rng = np.random.default_rng(17)
        for f in np.repeat([1.0, 4.0, 7.5], 4):
            theta, phi = rng.uniform(0.1, np.pi - 0.1), rng.uniform(0.0, 2.0 * np.pi)
            report = squeezing_report(coherent_spin_state(f, theta, phi))
            cov = canonical_moments(report.cov, report.length)
            assert_allclose(cov, VACUUM, atol=1e-12)

    def test_squeezed_to_quarter_has_antisqueezed_partner(self):
        # find the evolution time where the squeezed quadrature variance
        # crosses 1/4 (3 dB), aligning the squeezed axis with p first
        def aligned_var_p(tau):
            state = _tact_state(tau)
            report = squeezing_report(state)
            # rotate the squeezed axis, the eigenvector of the smaller
            # eigenvalue of the transverse covariance, onto z
            squeezed = np.linalg.eigh(report.cov)[1][:, 0]
            angle = np.arctan2(squeezed[1], squeezed[0]) - np.pi / 2.0
            rotated = rotate(state, [1.0, 0.0, 0.0], -angle)
            report = squeezing_report(rotated)
            return canonical_moments(report.cov, report.length), tau

        lo, hi = 0.005, 0.1375
        for _ in range(60):  # bisect var_p(tau) = 1/4
            mid = (lo + hi) / 2.0
            m, _ = aligned_var_p(mid)
            if m[1, 1] > 0.25:
                lo = mid
            else:
                hi = mid
        m, tau = aligned_var_p((lo + hi) / 2.0)
        assert abs(m[1, 1] - 0.25) <= 1e-9
        assert m[0, 0] >= 0.5 - 1e-12

    def test_conversion_matches_squeezing_report(self, ops4):
        # oracle: for a state polarized along +x the transverse frame is the lab
        # (y, z) pair, so the moments are the lab-frame (Fy, Fz) covariance
        # over |<Fx>|; the minimum variance is then zeta2 / 2
        for tau in (0.05, 0.1, 0.1375):
            state = _tact_state(tau)
            report = squeezing_report(state)
            cov = canonical_moments(report.cov, report.length)
            jx = abs(expectation(state, ops4[0]))
            pair = (ops4[1], ops4[2])
            lab = np.array([[covariance(state, a, b) for b in pair] for a in pair]) / jx
            assert np.abs(cov - lab).max() <= 1e-12
            assert abs(variance_extrema(cov)[0] - report.zeta2 / 2.0) <= 1e-12

    def test_heisenberg_validation(self):
        # simulate_records refuses a covariance no quantum state has
        with pytest.raises(PhysicalityError, match="determinant 0.09 below the Heisenberg floor"):
            simulate_records(quadrature_cov(0.3, 0.3), 0.8, 10, seed=1)
        with pytest.raises(PhysicalityError, match="determinant 0.24 below the Heisenberg floor"):
            simulate_records(quadrature_cov(0.5, 0.5, 0.1), 0.8, 10, seed=1)
        with pytest.raises(PhysicalityError, match="variances must be positive"):
            simulate_records(quadrature_cov(-0.5, -1.0), 0.8, 10, seed=1)
        # the floor itself, a minimum-uncertainty squeezed state, is accepted
        assert simulate_records(quadrature_cov(1.0, 0.25), 0.8, 10, seed=1).n_shots == 10


class TestOutputVariance:
    def test_no_coupling_is_shot_noise(self):
        assert output_variance(VACUUM, 0.0) == (0.5, 0.5)

    def test_css_at_kappa2_08(self):
        var_yc, var_ys = output_variance(VACUUM, 0.8)
        expected = 0.5 + 0.4 * 0.5 + (0.64 / 12.0) * 0.5
        assert abs(var_yc - expected) <= 1e-15
        assert abs(var_ys - expected) <= 1e-15
        assert abs(var_yc - 0.72667) <= 5e-6

    def test_squeezed_quadrature(self):
        _, var_ys = output_variance(quadrature_cov(1.0, 0.25), 0.8)
        assert abs(var_ys - (0.5 + 0.1 + 0.64 / 24.0)) <= 1e-15
        assert abs(var_ys - 0.62667) <= 5e-6

    def test_monotone_in_coupling(self):
        kappas = np.linspace(0.0, 2.0, 21)
        vals = [output_variance(VACUUM, k)[0] for k in kappas]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestSimulateRecords:
    def test_deterministic_under_seed(self):
        m = quadrature_cov(0.6, 0.45, 0.05)
        a = simulate_records(m, 0.8, 500, seed=99)
        b = simulate_records(m, 0.8, 500, seed=99)
        assert np.array_equal(a.shots, b.shots)
        c = simulate_records(m, 0.8, 500, seed=100)
        assert not np.array_equal(a.shots, c.shots)

    def test_zero_coupling_gives_shot_noise(self):
        rec = simulate_records(VACUUM, 0.0, 100_000, seed=1)
        se = 0.5 * np.sqrt(2.0 / (rec.n_shots - 1))
        assert abs(np.var(rec.shots[:, 0], ddof=1) - 0.5) <= 3 * se
        assert abs(np.var(rec.shots[:, 1], ddof=1) - 0.5) <= 3 * se

    def test_sample_variance_in_chi2_band(self):
        # self-consistency with the closed-form output variance at 99%
        n = 10_000
        rec = simulate_records(VACUUM, 0.8, n, seed=3)
        var_yc, var_ys = output_variance(VACUUM, 0.8)
        lo = var_yc * chi2_dist.ppf(0.005, n - 1) / (n - 1)
        hi = var_yc * chi2_dist.ppf(0.995, n - 1) / (n - 1)
        assert lo <= np.var(rec.shots[:, 0], ddof=1) <= hi
        assert lo <= np.var(rec.shots[:, 1], ddof=1) <= hi

    def test_moment_round_trip_large_n(self):
        atomic = quadrature_cov(0.8, 0.4, 0.15)
        kappa2 = 0.8
        n = 1_000_000
        rec = simulate_records(atomic, kappa2, n, seed=4)
        gain = kappa2 / 2.0
        var_yc, var_ys = output_variance(atomic, kappa2)
        for column, var_true in ((rec.shots[:, 0], var_yc), (rec.shots[:, 1], var_ys)):
            se_mean = np.sqrt(var_true / n)
            assert abs(np.mean(column)) <= 5 * se_mean
            se_var = var_true * np.sqrt(2.0 / (n - 1))
            assert abs(np.var(column, ddof=1) - var_true) <= 5 * se_var
        cov = np.cov(rec.shots[:, 0], rec.shots[:, 1], ddof=1)[0, 1]
        se_cov = np.sqrt(var_yc * var_ys / n)
        assert abs(cov - gain * atomic[0, 1]) <= 5 * se_cov

    @pytest.mark.parametrize("kappa2", [0.0, 0.8, 2.0])
    @pytest.mark.parametrize(
        "atomic",
        [quadrature_cov(0.5, 0.5), quadrature_cov(1.2, 0.3, 0.25)],
        ids=["vacuum", "squeezed-correlated"],
    )
    def test_matches_three_term_oracle(self, atomic, kappa2):
        # the one-pair draw against the sum of its three terms drawn apart, and both
        # against the closed form: zero means and (xx, pp, xp) covariance within 5 sigma
        n = 200_000
        one = simulate_records(atomic, kappa2, n, seed=71).shots
        three = three_term_simulate_records(atomic, kappa2, n, seed=72).shots
        gain = kappa2 / 2.0
        mean = np.zeros(2)
        cov = gain * atomic + (0.5 + kappa2**2 / 24.0) * np.eye(2)
        se_mean = np.sqrt(np.diag(cov) / n)
        rows, cols = [0, 1, 0], [0, 1, 1]  # the xx, pp and xp entries
        # var of a sample covariance: (S_aa S_bb + S_ab^2) / n for Gaussian data
        se_cov = np.sqrt((cov[rows, rows] * cov[cols, cols] + cov[rows, cols] ** 2) / n)

        def stats(shots):
            return shots.mean(axis=0), np.cov(shots, rowvar=False)[rows, cols]

        (mean_one, cov_one), (mean_three, cov_three) = stats(one), stats(three)
        for sample_mean, sample_cov in ((mean_one, cov_one), (mean_three, cov_three)):
            assert np.all(np.abs(sample_mean - mean) <= 5 * se_mean)
            assert np.all(np.abs(sample_cov - cov[rows, cols]) <= 5 * se_cov)
        assert np.all(np.abs(mean_one - mean_three) <= 5 * np.sqrt(2) * se_mean)
        assert np.all(np.abs(cov_one - cov_three) <= 5 * np.sqrt(2) * se_cov)

    def test_validation(self):
        with pytest.raises(ValueError, match="n_shots must be >= 1, got 0"):
            simulate_records(VACUUM, 0.8, 0, seed=1)
        with pytest.raises(ValueError, match="kappa2 must be finite and >= 0, got -0.1"):
            simulate_records(VACUUM, -0.1, 10, seed=1)


def _exact_moments(pairs):
    """(mean, ddof=1 covariance) of the stored floats in exact rational arithmetic."""
    columns = [[Fraction(v) for v in column] for column in np.asarray(pairs).T.tolist()]
    n = len(columns[0])
    means = [sum(column) / n for column in columns]
    centred = [[v - m for v in column] for column, m in zip(columns, means)]
    cov = [[sum(a * b for a, b in zip(u, v)) / (n - 1) for v in centred] for u in centred]
    return np.array([float(m) for m in means]), np.array([[float(c) for c in row] for row in cov])


class TestSampleMoments:
    @pytest.mark.parametrize("n", [2, 3, 50])
    def test_matches_exact_arithmetic(self, n):
        pairs = np.random.default_rng(80 + n).standard_normal((n, 2)) @ [[1.3, 0.4], [0.0, 0.7]]
        mean, cov = _sample_moments(pairs + [0.3, -0.2])
        exact_mean, exact_cov = _exact_moments(pairs + [0.3, -0.2])
        assert_allclose(mean, exact_mean, rtol=1e-15, atol=0)
        assert_allclose(cov, exact_cov, rtol=1e-15, atol=0)

    def test_large_offset_keeps_the_spread(self):
        # at an offset of 1e8 the squared shots carry 1e16, so a one-pass Gram
        # formula sum(y^2) - n mean^2 loses every digit of a unit variance
        pairs = np.random.default_rng(83).standard_normal((10_000, 2)) + 1e8
        mean, cov = _sample_moments(pairs)
        exact_mean, exact_cov = _exact_moments(pairs)
        assert_allclose(mean, exact_mean, rtol=1e-15, atol=0)
        assert_allclose(cov, exact_cov, rtol=1e-8, atol=0)
        n = len(pairs)
        mean_row = pairs.mean(axis=0)
        one_pass = (pairs.T @ pairs - n * np.outer(mean_row, mean_row)) / (n - 1)
        assert np.max(np.abs(one_pass - exact_cov) / np.abs(exact_cov)) > 1e-2

    def test_one_shot_rejected(self):
        with pytest.raises(ValueError, match="^need at least 2 shots to estimate variances$"):
            _sample_moments(np.array([[0.1, 0.2]]))
        with pytest.raises(ValueError, match="^need at least 2 shots to estimate variances$"):
            MeasurementRecord(shots=np.array([[0.1, 0.2]]), kappa2=0.8, seed=0).statistics

    def test_record_statistics_fields(self):
        rec = simulate_records(quadrature_cov(0.7, 0.5, 0.1), 0.8, 300, seed=84)
        stats = rec.statistics
        assert isinstance(stats, RecordStatistics)
        assert (stats.n_shots, stats.kappa2) == (300, 0.8)
        assert_allclose(stats.mean, rec.shots.mean(axis=0), rtol=1e-13)
        assert_allclose(stats.cov, np.cov(rec.shots, rowvar=False, ddof=1), rtol=1e-13)


def _raised(call):
    """(exception type, text) that ``call()`` raises."""
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


class TestSimulatedStatistics:
    @pytest.mark.parametrize("atomic, kappa2, n_shots, seed", [
        (VACUUM, 0.8, 2, 1),
        (VACUUM, 0.0, 10_000, 2),
        (quadrature_cov(1.1, 0.25, 0.1), 0.8, 10_000, 3),
        (quadrature_cov(2.0, 0.125), 2.0, 257, 4),
        (quadrature_cov(0.6, 0.6, 0.3), 1e3, 5_000, 2**63 + 5),
    ])
    def test_equals_the_records_statistics(self, atomic, kappa2, n_shots, seed):
        stats = simulated_statistics(atomic, kappa2, n_shots, seed)
        of_record = simulate_records(atomic, kappa2, n_shots, seed).statistics
        assert (stats.n_shots, stats.kappa2) == (of_record.n_shots, of_record.kappa2)
        assert_allclose(stats.mean, of_record.mean, rtol=1e-13, atol=0)
        assert_allclose(stats.cov, of_record.cov, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("atomic, kappa2, n_shots", [
        (quadrature_cov(0.0, 0.5), 0.8, 100),
        (quadrature_cov(-0.5, 0.5), 0.8, 100),
        (quadrature_cov(0.5, 0.4), 0.8, 100),
        (VACUUM, 0.8, 0),
        (VACUUM, 0.8, 1),
        (VACUUM, -0.1, 100),
    ])
    def test_rejects_what_the_record_rejects(self, atomic, kappa2, n_shots):
        raised = _raised(lambda: simulated_statistics(atomic, kappa2, n_shots, seed=5))
        of_record = _raised(lambda: simulate_records(atomic, kappa2, n_shots, seed=5).statistics)
        assert raised == of_record

    def test_zero_coupling_fails_in_the_correction_alike(self):
        stats = simulated_statistics(VACUUM, 0.0, 100, seed=6)
        raised = _raised(lambda: correct_covariance(stats))
        assert raised[0] is ValueError and "not invertible" in raised[1]
        of_record = simulate_records(VACUUM, 0.0, 100, seed=6).statistics
        assert raised == _raised(lambda: correct_covariance(of_record))


SQUEEZED = quadrature_cov(1.1, 0.25, 0.1)


def _output_cov(atomic, kappa2):
    """The output covariance gain * atomic + noise * I, written out from the module docstring."""
    return kappa2 / 2.0 * atomic + (0.5 + kappa2**2 / 24.0) * np.eye(2)


def _replayed_draws(rng, n_shots):
    """The raw numbers that ``_draw_shots`` takes from ``rng``, in its documented order."""
    mean_normals = rng.standard_normal(2)
    chi_a, chi_b = rng.gamma((n_shots - 1) / 2.0, 2.0), rng.gamma((n_shots - 2) / 2.0, 2.0)
    return mean_normals, chi_a, chi_b, rng.standard_normal(), rng.standard_normal((2, n_shots))


def _law_draws(rng, n_shots, n_draws):
    """A batch of those raw numbers drawn from their law: normals and chi-squares."""
    return (rng.standard_normal((n_draws, 2)), rng.chisquare(n_shots - 1, n_draws),
            rng.chisquare(n_shots - 2, n_draws), rng.standard_normal(n_draws),
            rng.standard_normal((n_draws, 2, n_shots)))


def _batched_shots(chol, raw):
    """(n_draws, n_shots, 2) shots 1 (L m_z)^T + F^T A^T L^T of a batch of raw numbers.

    Written from the formulas of ``simulate_records``: m_z the normals over
    sqrt(n), A the Bartlett factor, and F the centred frame normals turned
    orthonormal by solving with the Cholesky factor of their Gram matrix.
    Needs n_shots >= 3, where that Gram matrix is positive definite.
    """
    mean_normals, chi_a, chi_b, a21, frame_normals = raw
    n_shots = frame_normals.shape[2]
    factor = np.zeros((len(a21), 2, 2))
    factor[:, 0, 0], factor[:, 1, 0], factor[:, 1, 1] = np.sqrt(chi_a), a21, np.sqrt(chi_b)
    centred = frame_normals - frame_normals.mean(axis=2, keepdims=True)
    gram = centred @ centred.transpose(0, 2, 1)
    frame = np.linalg.solve(np.linalg.cholesky(gram), centred)
    return ((mean_normals / np.sqrt(n_shots)) @ chol.T)[:, None, :] + frame.transpose(0, 2, 1) @ (
        chol @ factor).transpose(0, 2, 1)


class TestDrawnLaw:
    """The drawn statistics and shots against iid normals drawn here, an independent oracle."""

    @pytest.mark.parametrize("n_shots, n_draws", [(2, 2000), (3, 2000), (50, 2000), (10_000, 1000)])
    def test_statistics_match_iid_normals(self, n_shots, n_draws):
        # two-sample KS tests of each mean and covariance entry, over n_draws seeds,
        # against the sample moments of coloured iid standard normal pairs
        kappa2 = 0.8
        drawn = [simulated_statistics(SQUEEZED, kappa2, n_shots, seed) for seed in range(n_draws)]
        chol = np.linalg.cholesky(_output_cov(SQUEEZED, kappa2))
        rng = np.random.default_rng(1000 + n_shots)
        chunk = max(1, 500_000 // n_shots)
        oracle = []
        for start in range(0, n_draws, chunk):
            normals = rng.standard_normal((min(chunk, n_draws - start), 2, n_shots))
            shots = chol @ normals  # (draws, 2, n): each column a coloured pair
            centred = shots - shots.mean(axis=2, keepdims=True)
            cov = centred @ centred.transpose(0, 2, 1) / (n_shots - 1)
            oracle.append(np.column_stack([shots.mean(axis=2), cov[:, 0, 0], cov[:, 1, 1],
                                           cov[:, 0, 1]]))
        oracle = np.concatenate(oracle)
        ours = np.array([[*d.mean, d.cov[0, 0], d.cov[1, 1], d.cov[0, 1]] for d in drawn])
        for column in range(5):  # mean_c, mean_s, var_c, var_s, cov_cs
            assert ks_2samp(ours[:, column], oracle[:, column]).pvalue > 1e-3

    @pytest.mark.parametrize("n_shots, n_draws", [(1, 10_000), (2, 10_000), (3, 100_000)])
    def test_shots_are_iid_normal(self, n_shots, n_draws):
        # every shot is N(0, Sigma), the shots are exchangeable and uncorrelated, and
        # their fourth moments are Gaussian: checked on the standardized shots
        # z = L^-1 y, within 5 standard errors, over draws of the record's own helper
        # or, at n = 3, of its formulas batched (test_batched_formulas_are_draw_shots)
        cov = _output_cov(SQUEEZED, 0.8)
        chol = np.linalg.cholesky(cov)
        rng = np.random.default_rng(90 + n_shots)
        if n_shots < 3:
            shots = np.array([_draw_shots(chol, n_shots, rng) for _ in range(n_draws)])
        else:
            shots = _batched_shots(chol, _law_draws(rng, n_shots, n_draws))
        z = shots @ np.linalg.inv(chol).T  # (n_draws, n_shots, 2)
        se = 5.0 / np.sqrt(n_draws)
        for i in range(n_shots):
            zi = z[:, i]
            assert np.all(np.abs(zi.mean(axis=0)) <= se)
            second = zi.T @ zi / n_draws
            assert abs(second[0, 0] - 1.0) <= se * np.sqrt(2.0)
            assert abs(second[1, 1] - 1.0) <= se * np.sqrt(2.0)
            assert abs(second[0, 1]) <= se
            for column in zi.T:
                assert kstest(column, "norm").pvalue > 1e-3
            x, p = zi.T
            assert abs(np.mean(x**4) - 3.0) <= se * np.sqrt(96.0)
            assert abs(np.mean(p**4) - 3.0) <= se * np.sqrt(96.0)
            assert abs(np.mean(x**2 * p**2) - 1.0) <= se * np.sqrt(8.0)
            assert abs(np.mean(x**3 * p)) <= se * np.sqrt(15.0)
            assert abs(np.mean(x * p**3)) <= se * np.sqrt(15.0)
            for j in range(i + 1, n_shots):
                cross = zi.T @ z[:, j] / n_draws
                assert np.all(np.abs(cross) <= se)

    @pytest.mark.parametrize("n_shots", [3, 50])
    def test_batched_formulas_are_draw_shots(self, n_shots):
        # the record's helper, fed by its own generator, against the batched formulas
        # fed by the numbers it draws; at n = 3 a nearly singular Gram matrix of the
        # frame costs both routes digits (each within 5e-13 of 40-digit arithmetic
        # over these seeds), while a wrong formula would differ at order one
        chol = np.linalg.cholesky(_output_cov(SQUEEZED, 0.8))
        seeds = range(300)
        raw = zip(*(_replayed_draws(np.random.default_rng(seed), n_shots) for seed in seeds))
        expected = _batched_shots(chol, [np.array(column) for column in raw])
        for seed, shots in zip(seeds, expected):
            drawn = _draw_shots(chol, n_shots, np.random.default_rng(seed))
            assert_allclose(drawn, shots, rtol=0, atol=1e-11 * np.abs(shots).max())

    def test_one_shot_is_the_mean(self):
        rec = simulate_records(SQUEEZED, 0.8, 1, seed=7)
        chol = np.linalg.cholesky(_output_cov(SQUEEZED, 0.8))
        first_two = np.random.default_rng(7).standard_normal(2)
        assert rec.n_shots == 1
        assert_allclose(rec.shots[0], chol @ first_two, rtol=1e-14, atol=0)
        with pytest.raises(ValueError, match="^need at least 2 shots to estimate variances$"):
            rec.statistics

    def test_two_shots_span_one_direction(self):
        # at n = 2 the sample covariance has rank one, and its record matches it
        for seed in range(50):
            rec = simulate_records(SQUEEZED, 0.8, 2, seed)
            stats = simulated_statistics(SQUEEZED, 0.8, 2, seed)
            assert np.isfinite(rec.shots).all()
            assert abs(np.linalg.det(stats.cov)) <= 1e-14 * np.trace(stats.cov) ** 2
            assert_allclose(rec.statistics.cov, stats.cov, rtol=1e-12, atol=0)
            assert_allclose(rec.statistics.mean, stats.mean, rtol=1e-12, atol=1e-15)


class TestRecordSerialization:
    def test_csv_round_trip_bit_exact(self):
        rec = displaced(simulate_records(quadrature_cov(0.7, 0.5, 0.1), 0.8, 257, seed=10),
                        0.123, -0.456)
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

    @pytest.mark.parametrize("kappa2", [np.nan, np.inf])
    def test_non_finite_kappa2_rejected(self, kappa2):
        with pytest.raises(ValueError, match="kappa2 must be finite and >= 0"):
            MeasurementRecord(shots=np.zeros((5, 2)), kappa2=kappa2, seed=0)
        with pytest.raises(ValueError, match="kappa2 must be finite and >= 0"):
            readout_model(kappa2)

    def test_first_non_finite_shot_is_named(self):
        shots = np.zeros((6, 2))
        shots[4, 0] = np.nan
        shots[2, 1] = -np.inf
        with pytest.raises(ValueError, match=r"^shot 2 is not finite: \[0.0, -inf\]$"):
            MeasurementRecord(shots=shots, kappa2=0.1, seed=0)
