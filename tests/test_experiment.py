import pickle
import random
import re
import tracemalloc
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np
import pytest

from spintomo import (
    ExperimentConfig,
    canonical_moments,
    PhysicalityError,
    SweepPointError,
    correct_covariance,
    mle_reconstruct,
    point_record,
    prepare_initial_state,
    run_sweep,
    simulate_records,
    simulated_statistics,
    squeezing_report,
)
from spintomo import experiment
from spintomo.experiment import _evolved_states, _point_seed, _zeta2_estimate
from conftest import covariance, expectation, fail_at_call, variances_from_rho


def short_config(**overrides):
    defaults = dict(raman_durations=(0.0, 0.4, 0.8), n_shots=4000, seed=77)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestConfig:
    def test_defaults_are_consistent(self):
        cfg = ExperimentConfig()
        assert cfg.f == 4.0
        assert cfg.raman_durations[0] == 0.0
        assert cfg.raman_durations[-1] == pytest.approx(6.0)
        assert len(cfg.raman_durations) == 61

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment line\n"
            "f = 4\n"
            "twisting_rate = 0.1  # inline comment\n"
            "raman_durations = 0,0.5,1.0\n"
            "n_shots = 500\n"
            "seed = 3\n"
            "t1 = inf\n"
        )
        cfg = ExperimentConfig.from_file(path)
        assert cfg.twisting_rate == 0.1
        assert cfg.raman_durations == (0.0, 0.5, 1.0)
        assert cfg.n_shots == 500
        assert np.isinf(cfg.t1)

    def test_documented_keys_are_the_fields(self, tmp_path):
        # the README example and the docstring schema name every key and no other
        names = {field.name for field in fields(ExperimentConfig)}
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Config files", 1)[1].split("```\n")[1]
        path = tmp_path / "readme.cfg"
        path.write_text(block)
        assert ExperimentConfig.from_file(path) == ExperimentConfig()
        assert {line.partition("=")[0].strip() for line in block.splitlines()} == names
        schema = ExperimentConfig.__doc__.split("::", 1)[1].split("\n\n")[1]
        assert {line.split()[0] for line in schema.splitlines() if line[8] != " "} == names

    def test_range_syntax(self):
        cfg = ExperimentConfig.from_mapping({"raman_durations": "0:1:0.25"})
        assert cfg.raman_durations == (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_mapping({"power": "5"})

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just some text\n")
        with pytest.raises(ValueError, match="key=value"):
            ExperimentConfig.from_file(path)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(pump_fraction=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(raman_durations=(1.0, 0.5))
        with pytest.raises(ValueError):
            ExperimentConfig(raman_durations=(-0.5, 1.0))
        with pytest.raises(ValueError):
            ExperimentConfig(n_shots=0)
        with pytest.raises(ValueError, match="dimension 17"):
            ExperimentConfig(f=8.0)
        with pytest.raises(ValueError, match="finite"):
            ExperimentConfig(f=float("inf"))
        with pytest.raises(ValueError, match="seed must be an integer, got 2.5"):
            ExperimentConfig(seed=2.5)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            ExperimentConfig().with_seed(-3)

    @pytest.mark.parametrize(
        "mapping, message",
        [({"t1": "10", "t2": "30"}, "0 < t2 <= t1, got t1=10.0, t2=30.0"),
         ({"t2": "inf"}, "0 < t2 <= t1, got t1=80.0, t2=inf"),
         ({"t1": "-1", "t2": "-2"}, "0 < t2 <= t1, got t1=-1.0, t2=-2.0"),
         ({"extra_scatter_rate": "-0.1"}, "extra_scatter_rate must be >= 0, got -0.1")],
        ids=["t2-above-t1", "t2-inf", "negative-times", "negative-scatter"],
    )
    def test_decay_rules_checked_at_load(self, mapping, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_mapping(mapping)

    def test_sizes_are_bounded(self):
        # each bound is checked before anything of that size is built
        largest = ExperimentConfig.from_mapping({"raman_durations": "0:99999:1"})
        assert len(largest.raman_durations) == 100_000
        for text, count in (("0:6:1e-5", "600001"), ("0:6:5e-324", "inf"), ("0:1e300:1", "1e+300"),
                            (",".join(["1"] * 100_001), "100001")):
            message = f"raman_durations must hold at most 100000 values, got {count}"
            with pytest.raises(ValueError, match=re.escape(message) + "$"):
                ExperimentConfig.from_mapping({"raman_durations": text})
        assert ExperimentConfig(n_shots=10**7).n_shots == 10**7
        with pytest.raises(ValueError, match="n_shots must be <= 10000000, got 10000001"):
            ExperimentConfig.from_mapping({"n_shots": "10000001"})

    def test_integral_counts_parse_as_int(self):
        cfg = ExperimentConfig.from_mapping({"n_shots": "1e4", "seed": "12345.0"})
        assert cfg == ExperimentConfig()
        assert type(cfg.n_shots) is int and type(cfg.seed) is int

    def test_seed_above_2_53_is_read_exactly(self, tmp_path):
        path = tmp_path / "big.cfg"
        path.write_text("seed = 2968926473542706253\n")
        cfg = ExperimentConfig.from_file(path)
        assert cfg.seed == 2968926473542706253
        assert "seed=2968926473542706253\n" in cfg.canonical_text()

    def test_integer_fields_of_any_size(self):
        # checked without numpy, which cannot hold 2^70
        assert ExperimentConfig().with_seed(2**70).seed == 2**70
        with pytest.raises(ValueError, match="seed must be finite, got nan"):
            ExperimentConfig(seed=float("nan"))

    def test_default_hash_is_pinned(self):
        # the config hash tags every output file; parsing changes must not move it
        assert ExperimentConfig().config_hash == (
            "480f87112063cc6cefdcd57e2d0f69db06ea2bcdb80758d8223ed6f920cb40db"
        )

    @pytest.mark.parametrize(
        "text", ["5:1:0.5", "0:-1:1", ""], ids=["reversed", "negative-stop", "empty"]
    )
    def test_empty_durations_rejected(self, text):
        # an empty grid is an error, not the default 0-6 ms grid
        with pytest.raises(ValueError, match="raman_durations is empty"):
            ExperimentConfig.from_mapping({"raman_durations": text})

    def test_hash_tracks_content(self):
        a = ExperimentConfig(seed=1)
        b = ExperimentConfig(seed=2)
        assert a.config_hash != b.config_hash
        assert a.config_hash == ExperimentConfig(seed=1).config_hash
        assert a.with_seed(2).config_hash == b.config_hash


class TestPrepareInitialState:
    def test_full_pumping_is_coherent_state(self, ops4):
        cfg = ExperimentConfig(pump_fraction=1.0)
        state = prepare_initial_state(cfg)
        assert abs(expectation(state, ops4[0]) - 4.0) <= 1e-12
        assert abs(np.trace(state @ state).real - 1.0) <= 1e-12

    def test_partial_pumping_mean_spin(self, ops4):
        state = prepare_initial_state(ExperimentConfig())  # 98% pumped
        assert abs(expectation(state, ops4[0]) - 3.92) <= 1e-12

    def test_partial_pumping_variance_oracle(self, ops4):
        # direct density-matrix arithmetic: the mixed fraction adds the
        # unpolarized manifold variance <Fz^2> = F(F+1)/3 = 20/3
        state = prepare_initial_state(ExperimentConfig())
        expected = 0.98 * 2.0 + 0.02 * (20.0 / 3.0)
        assert abs(covariance(state, ops4[2], ops4[2]) - expected) <= 1e-12


def _row_bytes(rows) -> bytes:
    """The float64 bits of every value of every sweep row."""
    return np.array([astuple(row) for row in rows]).tobytes()


class TestRunSweep:
    def test_one_squeezing_report_for_all_durations(self, monkeypatch):
        shapes = []
        report = experiment.squeezing_report

        def spy(rho):
            shapes.append(np.shape(rho))
            return report(rho)

        monkeypatch.setattr(experiment, "squeezing_report", spy)
        run_sweep(short_config())
        assert shapes == [(3, 9, 9)]

    def test_zero_duration_row_is_baseline(self):
        row = run_sweep(short_config())[0]
        # 98% pumping lifts the reference slightly above the ideal CSS
        expected_zeta2 = 2.0 * (0.98 * 2.0 + 0.02 * 20.0 / 3.0) / 3.92
        assert row.t_r == 0.0
        assert abs(row.zeta2_true - expected_zeta2) <= 1e-10
        assert 0.9 <= row.zeta2_true <= 1.1
        assert abs(row.mean_spin_fraction - 1.0) <= 1e-12
        assert abs(row.css_reference_variance - 1.96) <= 1e-10

    def test_reconstruction_tracks_truth(self):
        for row in run_sweep(short_config(n_shots=20_000)):
            assert abs(row.zeta2_reconstructed - row.zeta2_true) <= 4 * row.zeta2_error

    @pytest.mark.parametrize("n_shots", [10, 4000])
    def test_zeta2_error_closed_form(self, n_shots):
        # sigma = 2 sqrt(2/(n-1)) (max(v_min, 0) + noise/gain), with the probe's
        # gain kappa2/2 and noise 1/2 + kappa2^2/24, so noise/gain = 1/kappa2 +
        # kappa2/12; at 10 shots some corrected v_min fall below zero
        cfg = short_config(raman_durations=(0.0, 0.4, 0.8, 1.2, 2.0, 3.0), n_shots=n_shots)
        rows = run_sweep(cfg)
        k = cfg.kappa2
        for row in rows:
            v_min = row.zeta2_reconstructed / 2.0
            expected = 2.0 * np.sqrt(2.0 / (n_shots - 1)) * (max(v_min, 0.0) + 1.0 / k + k / 12.0)
            assert abs(row.zeta2_error - expected) <= 1e-12 * expected
        if n_shots == 10:
            zeta2 = [row.zeta2_reconstructed for row in rows]
            assert min(zeta2) < 0.0 < max(zeta2)

    def test_deterministic_bytes(self):
        cfg = short_config()
        a = _row_bytes(run_sweep(cfg))
        b = _row_bytes(run_sweep(cfg))
        assert a == b
        c = _row_bytes(run_sweep(cfg.with_seed(123)))
        assert a != c

    def test_near_integer_spin_gives_the_same_rows(self):
        # every F is read back from the dimension as (d - 1)/2, so round-off in
        # the config's f moves no bit of any row
        rows = run_sweep(short_config(f=4.0 + 1e-10))
        assert _row_bytes(rows) == _row_bytes(run_sweep(short_config()))

    def test_decay_monotone_mean_spin_weak_drive(self):
        # in the decay-dominated regime the mean-spin fraction only shrinks
        cfg = ExperimentConfig(
            twisting_rate=0.03,
            compensation_residual=0.0,
            raman_durations=tuple(np.round(np.arange(0.0, 6.01, 0.5), 10)),
            n_shots=100,
            seed=5,
        )
        fr = [row.mean_spin_fraction for row in run_sweep(cfg)]
        assert all(b <= a + 1e-12 for a, b in zip(fr, fr[1:]))

    def test_default_config_monotone_before_revival(self):
        cfg = ExperimentConfig(
            raman_durations=tuple(np.round(np.arange(0.0, 3.01, 0.25), 10)),
            n_shots=100,
            seed=5,
        )
        fr = [row.mean_spin_fraction for row in run_sweep(cfg)]
        assert all(b <= a + 1e-12 for a, b in zip(fr, fr[1:]))

    def test_error_carries_duration(self):
        # kappa2 = 0 fails in the covariance correction, a collapsed mean
        # spin in the squeezing report
        for overrides, cause in (
            ({"kappa2": 0.0}, ValueError),
            ({"pump_fraction": 1e-12}, PhysicalityError),
        ):
            with pytest.raises(SweepPointError, match="t_r=0") as info:
                run_sweep(short_config(**overrides))
            assert info.value.t_r == 0.0
            assert isinstance(info.value.__cause__, cause)

    def test_later_collapse_names_its_point(self):
        # with t1 = t2 = 1 us the mean spin has decayed to round-off by 0.4 ms,
        # while the point at 0 still stands
        with pytest.raises(SweepPointError, match="t_r=0.4 ms: mean spin collapsed") as info:
            run_sweep(short_config(t1=1e-3, t2=1e-3, raman_durations=(0.0, 0.4)))
        assert info.value.t_r == 0.4
        assert isinstance(info.value.__cause__, PhysicalityError)

    @pytest.mark.parametrize(
        "injected",
        [
            UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte"),
            PhysicalityError("covariance below the Heisenberg floor"),
        ],
        ids=["unicode-decode", "physicality"],
    )
    def test_point_error_chains_cause(self, monkeypatch, injected):
        # the original exception survives whatever its constructor signature
        monkeypatch.setattr(experiment, "correct_covariance", fail_at_call(2, injected))
        with pytest.raises(SweepPointError) as info:
            run_sweep(short_config())
        assert info.value.t_r == 0.4
        assert info.value.__cause__ is injected
        assert str(info.value) == f"sweep point t_r=0.4 ms: {injected}"
        assert str(pickle.loads(pickle.dumps(info.value))) == str(info.value)

    def test_truth_vs_reconstruction_coverage(self):
        # 3-sigma agreement in at least 95% of rows over 20 seeded runs
        cfg = short_config(raman_durations=(0.3, 0.8, 1.5), n_shots=10_000)
        states = _evolved_states(cfg, cfg.raman_durations)
        total, hits = 0, 0
        for seed in range(20):
            for t_r, state in zip(cfg.raman_durations, states):
                report = squeezing_report(state)
                cov = canonical_moments(report.cov, report.length)
                rec = simulate_records(cov, cfg.kappa2, cfg.n_shots, seed=9000 + 31 * seed + total)
                cc = correct_covariance(rec.statistics)
                zeta2_rec = 2.0 * cc.min_variance
                sigma = 2.0 * cc.statistical_error * (0.5 + 0.4 * cc.min_variance + 0.8**2 / 24.0) * 2.5
                total += 1
                if abs(zeta2_rec - report.zeta2) <= 3 * sigma:
                    hits += 1
        assert hits / total >= 0.95


class TestPointRecord:
    def test_matches_sweep_row(self):
        cfg = short_config()
        sweep = run_sweep(cfg)
        rec = point_record(cfg, 0.4)
        cc = correct_covariance(rec.statistics)
        row = sweep[1]
        assert abs(2.0 * cc.min_variance - row.zeta2_reconstructed) <= 1e-12

    def test_two_shot_sweep_runs(self):
        # every point of a 2-shot sweep comes from a physical state; a Gaussian
        # 5-standard-error floor called the 0.1 ms point unphysical
        rows = run_sweep(ExperimentConfig(n_shots=2))
        assert len(rows) == 61 and all(np.isfinite(row.zeta2_reconstructed) for row in rows)

    @pytest.mark.parametrize("grid", ["uniform", "nonuniform"])
    def test_every_row_matches_its_record(self, grid):
        # the sweep's shotless statistics against the records route, at every
        # point of the default config and of a 61-point grid drawn as the
        # benchmark draws its non-uniform ones
        cfg = ExperimentConfig()
        if grid == "nonuniform":
            interior = random.Random(33).sample(range(1, 60000), 59)
            cfg = ExperimentConfig(raman_durations=(0.0, *sorted(i / 10000 for i in interior), 6.0))
        report = squeezing_report(_evolved_states(cfg, cfg.raman_durations))
        rows = run_sweep(cfg)
        assert len(rows) == 61
        for i, row in enumerate(rows):
            rec = point_record(cfg, row.t_r)
            zeta2, sigma = _zeta2_estimate(correct_covariance(rec.statistics), cfg.kappa2)
            assert row.zeta2_reconstructed == pytest.approx(zeta2, rel=1e-12, abs=0)
            assert row.zeta2_error == pytest.approx(sigma, rel=1e-12, abs=0)
            cov = canonical_moments(report.cov[i], report.length[i])
            stats = simulated_statistics(cov, cfg.kappa2, cfg.n_shots, _point_seed(cfg, row.t_r))
            of_record = simulate_records(cov, cfg.kappa2, cfg.n_shots, _point_seed(cfg, row.t_r))
            # relative to the shot spread: a mean far below its standard error
            # keeps only the digits that survive the cancellation in its sum
            spread = np.sqrt(np.diag(of_record.statistics.cov))
            assert np.all(np.abs(stats.mean - of_record.statistics.mean) <= 1e-13 * spread)
            assert np.all(np.abs(stats.cov - of_record.statistics.cov)
                          <= 1e-13 * np.outer(spread, spread))

    def test_seed_depends_on_duration(self):
        cfg = short_config()
        assert _point_seed(cfg, 0.4) != _point_seed(cfg, 0.8)
        assert _point_seed(cfg, 0.4) == _point_seed(cfg, 0.4)

    def test_distinct_points_get_distinct_seeds(self):
        # every (seed, duration) pair of a grid that holds neighbours in both keys,
        # where a sum or a fixed-width packing of the two would collide, and master
        # seeds beyond 2^64
        seeds = [*range(40), 2**53 + 1, 2**64 - 1, 2**64, 2**64 + 1, 2**64 + 40, 3**80]
        durations = [k * 1e-9 for k in range(40)] + [0.1, 0.8, 6.0, 1e3, 2**64 * 1e-9]
        keys = [_point_seed(short_config(seed=seed), t_r) for seed in seeds for t_r in durations]
        assert len(set(keys)) == len(seeds) * len(durations)
        assert all(isinstance(key, int) and key >= 0 for key in keys)

    def test_sweep_memory_does_not_grow_with_the_shot_count(self):
        # a sweep point draws its statistics, not its shots: at MAX_SHOTS one
        # point's shots alone would take 160 MB
        cfg = ExperimentConfig(n_shots=experiment.MAX_SHOTS)
        tracemalloc.start()
        try:
            rows = run_sweep(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == 61 and all(np.isfinite(row.zeta2_reconstructed) for row in rows)
        assert peak < 4 * 2**20

    def test_collapsed_mean_spin_rejected(self):
        cfg = short_config(pump_fraction=1e-12)  # <F> = 4e-12 before the drive
        with pytest.raises(PhysicalityError, match="mean spin collapsed"):
            point_record(cfg, 0.0)


class TestReconstructSweep:
    def test_round_trip_and_cross_method(self):
        cfg = short_config(raman_durations=(0.0, 0.8), n_shots=8000)
        vacuum_like = mle_reconstruct(point_record(cfg, 0.0))
        assert vacuum_like.converged
        assert vacuum_like.populations[0] > 0.9
        # the 10-level basis is too small for the state at 2.4 ms: every record's
        # maximum puts more than the 1e-3 bound in the top level
        seeds = range(8)
        truncation = r"population \S+ of the highest level breaks the truncation validity bound"
        for seed in seeds:
            with pytest.raises(PhysicalityError, match=truncation):
                mle_reconstruct(point_record(short_config(n_shots=8000, seed=seed), 2.4))
        # at 0.8 ms it is marginal: over the same seeds some records fail the check and
        # the others converge to a valid state
        failed = 0
        for seed in seeds:
            try:
                result = mle_reconstruct(point_record(short_config(n_shots=8000, seed=seed), 0.8))
            except PhysicalityError as exc:
                assert re.search(truncation, str(exc))
                failed += 1
            else:
                assert result.converged and result.populations[-1] <= 1e-3
        assert 0 < failed < len(seeds)
        # variance agreement between the two reconstruction routes where the basis holds:
        # the default config at 0.8 ms, top population 1.1e-4
        rec = point_record(ExperimentConfig(), 0.8)
        squeezed = mle_reconstruct(rec)
        assert squeezed.converged
        assert abs(np.trace(squeezed.rho).real - 1.0) <= 1e-8
        assert np.linalg.eigvalsh(squeezed.rho).min() >= -1e-8
        cc = correct_covariance(rec.statistics)
        _, cov = variances_from_rho(squeezed)
        sigma_p = cc.statistical_error * (0.5 + 0.4 * cc.var_p + 0.8**2 / 24.0) * 2.5
        assert abs(cov[1, 1] - cc.var_p) <= 3 * sigma_p
