import pickle
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from spintomo import (
    ExperimentConfig,
    PhysicalityError,
    SweepPointError,
    correct_covariance,
    expectation,
    point_record,
    prepare_initial_state,
    reconstruct_sweep,
    run_sweep,
    simulate_records,
    squeezing_report,
    variances_from_rho,
)
from spintomo import experiment
from spintomo.experiment import _evolved_states, _point_seed
from conftest import fail_at_call


def short_config(**overrides):
    defaults = dict(raman_durations=(0.0, 0.4, 0.8), n_shots=4000, seed=77)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestConfig:
    def test_defaults_are_consistent(self):
        cfg = ExperimentConfig()
        assert cfg.spin.two_f == 8
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

    def test_integral_counts_parse_as_int(self):
        cfg = ExperimentConfig.from_mapping({"n_shots": "1e4", "seed": "12345.0"})
        assert cfg == ExperimentConfig()
        assert type(cfg.n_shots) is int and type(cfg.seed) is int

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
        assert abs(expectation(state, ops4.fx) - 4.0) <= 1e-12
        assert abs(state.purity() - 1.0) <= 1e-12

    def test_partial_pumping_mean_spin(self, ops4):
        state = prepare_initial_state(ExperimentConfig())  # 98% pumped
        assert abs(expectation(state, ops4.fx) - 3.92) <= 1e-12

    def test_partial_pumping_variance_oracle(self, ops4):
        # direct density-matrix arithmetic: the mixed fraction adds the
        # unpolarized manifold variance <Fz^2> = F(F+1)/3 = 20/3
        from spintomo import covariance

        state = prepare_initial_state(ExperimentConfig())
        expected = 0.98 * 2.0 + 0.02 * (20.0 / 3.0)
        assert abs(covariance(state, ops4.fz, ops4.fz) - expected) <= 1e-12


class TestRunSweep:
    def test_zero_duration_row_is_baseline(self):
        sweep = run_sweep(short_config())
        row = sweep.rows[0]
        # 98% pumping lifts the reference slightly above the ideal CSS
        expected_zeta2 = 2.0 * (0.98 * 2.0 + 0.02 * 20.0 / 3.0) / 3.92
        assert row.t_r == 0.0
        assert abs(row.zeta2_true - expected_zeta2) <= 1e-10
        assert 0.9 <= row.zeta2_true <= 1.1
        assert abs(row.mean_spin_fraction - 1.0) <= 1e-12
        assert abs(row.css_reference_variance - 1.96) <= 1e-10

    def test_reconstruction_tracks_truth(self):
        sweep = run_sweep(short_config(n_shots=20_000))
        for row in sweep.rows:
            assert abs(row.zeta2_reconstructed - row.zeta2_true) <= 4 * row.zeta2_error

    def test_deterministic_bytes(self):
        cfg = short_config()
        a = run_sweep(cfg).to_csv_text()
        b = run_sweep(cfg).to_csv_text()
        assert a == b
        c = run_sweep(cfg.with_seed(123)).to_csv_text()
        assert a != c

    def test_json_mirrors_csv(self):
        sweep = run_sweep(short_config())
        payload = sweep.to_dict()
        assert payload["config_sha256"] == sweep.config_hash
        assert len(payload["rows"]) == len(sweep.rows)
        assert payload["rows"][0]["t_r"] == sweep.rows[0].t_r

    def test_decay_monotone_mean_spin_weak_drive(self):
        # in the decay-dominated regime the mean-spin fraction only shrinks
        cfg = ExperimentConfig(
            twisting_rate=0.03,
            compensation_residual=0.0,
            raman_durations=tuple(np.round(np.arange(0.0, 6.01, 0.5), 10)),
            n_shots=100,
            seed=5,
        )
        fr = [row.mean_spin_fraction for row in run_sweep(cfg).rows]
        assert all(b <= a + 1e-12 for a, b in zip(fr, fr[1:]))

    def test_default_config_monotone_before_revival(self):
        cfg = ExperimentConfig(
            raman_durations=tuple(np.round(np.arange(0.0, 3.01, 0.25), 10)),
            n_shots=100,
            seed=5,
        )
        fr = [row.mean_spin_fraction for row in run_sweep(cfg).rows]
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

    @pytest.mark.parametrize(
        "sweep, target, injected",
        [
            (run_sweep, "correct_covariance",
             UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")),
            (run_sweep, "correct_covariance",
             PhysicalityError("covariance below the Heisenberg floor")),
            (reconstruct_sweep, "mle_reconstruct",
             PhysicalityError("population 0.002 of the highest level breaks the truncation")),
        ],
        ids=["unicode-decode", "physicality", "mle-top-level"],
    )
    def test_point_error_chains_cause(self, monkeypatch, sweep, target, injected):
        # the original exception survives whatever its constructor signature;
        # the MLE stand-in skips the real fit at the first point
        stand_in = correct_covariance if target == "correct_covariance" else lambda *a, **k: None
        monkeypatch.setattr(experiment, target, fail_at_call(2, injected, stand_in))
        with pytest.raises(SweepPointError) as info:
            sweep(short_config())
        assert info.value.t_r == 0.4
        assert info.value.__cause__ is injected
        assert str(info.value) == f"sweep point t_r=0.4 ms: {injected}"
        assert str(pickle.loads(pickle.dumps(info.value))) == str(info.value)

    def test_truth_vs_reconstruction_coverage(self):
        # 3-sigma agreement in at least 95% of rows over 20 seeded runs
        cfg = short_config(raman_durations=(0.3, 0.8, 1.5), n_shots=10_000)
        states = _evolved_states(cfg, cfg.raman_durations)
        from spintomo import canonical_moments

        total, hits = 0, 0
        for seed in range(20):
            for t_r, state in zip(cfg.raman_durations, states):
                report = squeezing_report(state)
                moments = canonical_moments(report)
                rec = simulate_records(moments, cfg.kappa2, cfg.n_shots, seed=9000 + 31 * seed + total)
                cc = correct_covariance(rec)
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
        cc = correct_covariance(rec)
        row = sweep.rows[1]
        assert abs(2.0 * cc.min_variance - row.zeta2_reconstructed) <= 1e-12

    def test_seed_depends_on_duration(self):
        cfg = short_config()
        assert _point_seed(cfg, 0.4) != _point_seed(cfg, 0.8)
        assert _point_seed(cfg, 0.4) == _point_seed(cfg, 0.4)

    def test_collapsed_mean_spin_rejected(self):
        cfg = short_config(pump_fraction=1e-12)  # <F> = 4e-12 before the drive
        with pytest.raises(PhysicalityError, match="mean spin collapsed"):
            point_record(cfg, 0.0)


class TestReconstructSweep:
    # the MLE's known non-convergence stays visible as a warning, not an error
    @pytest.mark.filterwarnings("default:likelihood iteration stopped:RuntimeWarning")
    def test_round_trip_and_cross_method(self):
        cfg = short_config(raman_durations=(0.0, 0.8), n_shots=8000)
        out = reconstruct_sweep(cfg, durations=(0.0, 0.8))
        assert [t for t, _ in out] == [0.0, 0.8]
        vacuum_like = out[0][1]
        assert vacuum_like.populations[0] > 0.9
        squeezed = out[1][1]
        assert abs(np.trace(squeezed.rho).real - 1.0) <= 1e-8
        assert np.linalg.eigvalsh(squeezed.rho).min() >= -1e-8
        # variance agreement between the two reconstruction routes
        rec = point_record(cfg, 0.8)
        cc = correct_covariance(rec)
        vm = variances_from_rho(squeezed)
        sigma_p = cc.statistical_error * (0.5 + 0.4 * cc.var_p + 0.8**2 / 24.0) * 2.5
        assert abs(vm.var_p - cc.var_p) <= 3 * sigma_p
