import hashlib
import io
import json
import os
import stat
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from spintomo import (ExperimentConfig, PhysicalityError, cli, evolved_state, experiment, husimi,
                      record_from_csv, squeezing, tables, tomography)
from spintomo.cli import main
from spintomo.tables import read_table
from conftest import csv_module_write_table, fail_at_call, meshgrid_rows


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "f = 4\n"
        "raman_durations = 0,0.8\n"
        "n_shots = 3000\n"
        "seed = 11\n"
    )
    return str(path)


def run_cli(*argv):
    return main(list(argv))


def default_record(tmp_path, t_r):
    """Path of the default config's ``records`` file at ``t_r`` ms."""
    cfg, rec = tmp_path / "default.cfg", tmp_path / f"rec_{t_r}.csv"
    cfg.write_text("")
    assert run_cli("records", "--config", str(cfg), "--tr", t_r, "--out", str(rec)) == 0
    return str(rec)


class TestLimits:
    def test_table_values(self, tmp_path):
        out = tmp_path / "limits.csv"
        assert run_cli("limits", "4", "--out", str(out)) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        assert header[0] == "f"
        rows = {float(l.split(",")[0]): [float(x) for x in l.split(",")[1:]] for l in lines[1:]}
        assert set(rows) == {1.0, 2.0, 3.0, 4.0}
        chi2, _, zeta2, _, xi2, _ = rows[4.0]
        assert abs(chi2 - 0.163) <= 0.005
        assert abs(zeta2 - 0.247) <= 0.005
        assert abs(xi2 - 0.327) <= 0.005

    def test_json_format(self, tmp_path):
        out = tmp_path / "limits.json"
        assert run_cli("limits", "2", "--out", str(out), "--format", "json") == 0
        payload = json.loads(out.read_text())
        assert payload["rows"][0]["f"] == 1.0
        assert "params_sha256" in payload

    def test_half_spin_refused(self, capsys):
        assert run_cli("limits", "0.5") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "cannot squeeze" in err

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("limits", "1", "--out", str(a))
        run_cli("limits", "1", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "f, message",
        [("inf", "F must be a finite integer or half-integer, got inf"),
         ("8", "F=8 needs dimension 17 > 16")],
        ids=["inf", "dimension-17"],
    )
    def test_unsupported_spin_refused(self, tmp_path, capsys, monkeypatch, f, message):
        # refused before any scan runs
        monkeypatch.setattr(cli, "tact_optimum", fail_at_call(1, AssertionError("scanned")))
        out = tmp_path / "limits.csv"
        assert run_cli("limits", f, "--out", str(out)) == 2
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not out.exists()

    def test_every_supported_spin_is_finite(self, tmp_path):
        # main runs under numpy errors that raise; F = 1's limits at the
        # collapse, a 0/0 of the parameters, are finite values too
        csv_out, json_out = tmp_path / "limits.csv", tmp_path / "limits.json"
        assert run_cli("limits", "7", "--out", str(csv_out)) == 0
        _, _, data = read_table(csv_out.open())
        assert data.shape == (7, 7) and np.isfinite(data).all()
        assert run_cli("limits", "7", "--out", str(json_out), "--format", "json") == 0
        json.dumps(json.loads(json_out.read_text()), allow_nan=False)

    def test_failed_premise_is_numerical(self, tmp_path, capsys, monkeypatch):
        # a scan too coarse to see F = 2's minima reaches the collapse with v_min > 0
        monkeypatch.setattr(squeezing, "SCAN_POINTS", 8)
        out = tmp_path / "limits.csv"
        assert run_cli("limits", "2", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: F=2: ") and err.count("\n") == 1
        assert not out.exists()

    def test_csv_header_lines(self, tmp_path):
        out = tmp_path / "limits.csv"
        assert run_cli("limits", "2", "--out", str(out)) == 0
        comments, columns, _ = read_table(out.open())
        assert len(comments[0].removeprefix("params_sha256=")) == 64
        assert comments[1:] == ["scan_points=2000", "units: spin,1,rad,1,rad,1,rad"]
        assert columns == ["f", "chi2_min", "alpha_t_chi2", "zeta2_min", "alpha_t_zeta2",
                           "xi2_min", "alpha_t_xi2"]


@pytest.mark.parametrize("command", [["limits", "2"], ["sweep", "--config"]], ids=["limits", "sweep"])
def test_csv_and_json_carry_the_same_table(command, config_path, tmp_path):
    argv = command + [config_path] if command[0] == "sweep" else command
    csv_out, json_out = tmp_path / "t.csv", tmp_path / "t.json"
    assert run_cli(*argv, "--out", str(csv_out)) == 0
    assert run_cli(*argv, "--out", str(json_out), "--format", "json") == 0
    comments, columns, data = read_table(csv_out.open())
    meta = dict(line.split("=", 1) for line in comments if "=" in line)
    (units,) = [line.removeprefix("units: ").split(",") for line in comments if "=" not in line]
    payload = json.loads(json_out.read_text())
    assert payload["columns"] == columns
    assert payload["units"] == units
    assert {key: str(value) for key, value in payload.items()
            if key not in ("columns", "units", "rows")} == meta
    values = np.array([[row[name] for name in columns] for row in payload["rows"]])
    assert values.tobytes() == data.tobytes()


def _modules_loaded_by_import(package: str) -> str:
    """Sorted names of ``package`` and its submodules in a fresh interpreter after ``import spintomo.cli``."""
    code = (
        "import sys, spintomo, spintomo.cli; "
        f"print(sorted(m for m in sys.modules if m == {package!r} or m.startswith({package + '.'!r})))"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_import_loads_no_scipy():
    # the package needs only numpy; importing scipy would slow every command
    assert _modules_loaded_by_import("scipy") == "[]"


def test_import_loads_no_csv():
    # tables are formatted and parsed as whole arrays, not field by field
    assert _modules_loaded_by_import("csv") == "[]"


class TestSweep:
    def test_single_duration_csv(self, tmp_path):
        cfg = tmp_path / "one.cfg"
        cfg.write_text("raman_durations = 0.5\nn_shots = 500\nseed = 2\n")
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--config", str(cfg), "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        comments = [l for l in lines if l.startswith("#")]
        data = [l for l in lines if not l.startswith("#")]
        assert any(l.startswith("# config_sha256=") for l in comments)
        assert len(data) == 2  # header + one row

    def test_deterministic_and_seed_override(self, config_path, tmp_path):
        a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        assert run_cli("sweep", "--config", config_path, "--out", str(a)) == 0
        assert run_cli("sweep", "--config", config_path, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()
        assert run_cli("sweep", "--config", config_path, "--out", str(c), "--seed", "99") == 0
        assert a.read_bytes() != c.read_bytes()

    def test_seed_beyond_int64_runs(self, config_path, tmp_path, capsys):
        # 2^70 is a valid seed: the sweep runs under it and its hash names it
        out = tmp_path / "big.csv"
        seed = 2**70
        assert run_cli("sweep", "--config", config_path, "--out", str(out), "--seed", str(seed)) == 0
        assert capsys.readouterr().err == ""
        config = ExperimentConfig.from_file(config_path).with_seed(seed)
        assert f"# config_sha256={config.config_hash}\n" in out.read_text()

    def test_json_format(self, config_path, tmp_path):
        out = tmp_path / "sweep.json"
        assert run_cli("sweep", "--config", config_path, "--out", str(out), "--format", "json") == 0
        payload = json.loads(out.read_text())
        assert len(payload["rows"]) == 2

    def test_missing_config(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.cfg")
        assert run_cli("sweep", "--config", missing, "--out", str(tmp_path / "x.csv")) == 2
        err = capsys.readouterr().err
        assert "config not found" in err
        assert err.count("\n") == 1

    def test_no_partial_output_on_failure(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("kappa2 = 0\nraman_durations = 0.5\nn_shots = 100\n")
        out = tmp_path / "out.csv"
        assert run_cli("sweep", "--config", str(cfg), "--out", str(out)) == 2
        assert not out.exists()
        assert not list(tmp_path.glob(".spintomo-*"))

    def test_retired_dt_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "old.cfg"
        retired = (("dt", "1e-3"), ("n_atoms", "1e12"), ("omega_l", "2023.0"), ("beta", "0.24"))
        for key, value in retired:
            cfg.write_text(f"raman_durations = 0.5\nn_shots = 100\n{key} = {value}\n")
            assert run_cli("sweep", "--config", str(cfg), "--out", str(tmp_path / "o.csv")) == 2
            assert f"unknown config keys: ['{key}']" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "injected, code, prefix",
        [
            (UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte"), 2, "usage error"),
            (PhysicalityError("covariance below the Heisenberg floor"), 1, "numerical failure"),
            (np.linalg.LinAlgError("Matrix is not positive definite"), 1, "numerical failure"),
        ],
        ids=["unicode-decode", "physicality", "linalg"],
    )
    def test_point_failure_exit_code(self, config_path, tmp_path, capsys, monkeypatch,
                                     injected, code, prefix):
        monkeypatch.setattr(experiment, "correct_covariance", fail_at_call(2, injected))
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--config", config_path, "--out", str(out)) == code
        err = capsys.readouterr().err
        assert err == f"{prefix}: sweep point t_r=0.8 ms: {injected}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, message",
        [("f = 8", "F=8 needs dimension 17 > 16"),
         ("raman_durations = 5:1:0.5", "raman_durations is empty"),
         ("kappa2 = nan", "kappa2 must be finite, got nan"),
         ("twisting_rate = nan", "twisting_rate must be finite, got nan"),
         ("extra_scatter_rate = nan", "extra_scatter_rate must be finite, got nan"),
         ("t1 = nan", "t1 must be finite, got nan"),
         ("compensation_residual = inf", "compensation_residual must be finite, got inf"),
         ("raman_durations = 0,nan", "raman_durations must be finite, got (0.0, nan)"),
         ("raman_durations = 0,inf", "raman_durations must be finite, got (0.0, inf)"),
         ("raman_durations = 0:inf:1", "raman_durations range must be finite, got '0:inf:1'"),
         ("seed = -1", "seed must be >= 0, got -1"),
         ("seed = nan", "seed must be finite, got nan"),
         ("n_shots = inf", "n_shots must be finite, got inf"),
         ("n_shots = 1.5", "n_shots must be an integer, got 1.5"),
         ("kappa2 = abc", "kappa2: 'abc' is not a number"),
         ("raman_durations = 0,x", "raman_durations: 'x' is not a number"),
         ("seed = 1e", "seed: '1e' is not a number")],
        ids=["dimension-17", "empty-durations", "nan-kappa2", "nan-twisting-rate",
             "nan-extra-scatter", "nan-t1", "inf-residual", "nan-duration", "inf-duration",
             "inf-duration-range", "negative-seed", "nan-seed", "inf-shots", "fractional-shots",
             "text-kappa2", "text-duration", "text-seed"],
    )
    def test_invalid_config_is_usage_error(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "bad.cfg"
        # a key may be set only once, so a bad n_shots line replaces the small default
        base = "" if line.startswith("n_shots") else "n_shots = 100\n"
        cfg.write_text(f"{base}{line}\n")
        out = tmp_path / "o.csv"
        assert run_cli("sweep", "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and message in err
        assert not out.exists()

    def test_key_set_twice_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("kappa2 = 0.8\nraman_durations = 0.5\n# note\nkappa2 = 0.5\n")
        out = tmp_path / "o.csv"
        assert run_cli("sweep", "--config", str(cfg), "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            f"usage error: {cfg}:4: kappa2 is set again, first set on line 1\n"
        )
        assert not out.exists()

    def test_decay_off_config_runs(self, tmp_path):
        # the README's decay-off scenario: infinite t1 and t2 are the one
        # non-finite values a config may hold
        cfg = tmp_path / "nodecay.cfg"
        cfg.write_text("t1 = inf\nt2 = inf\nextra_scatter_rate = 0\n"
                       "raman_durations = 0,0.8\nn_shots = 500\n")
        out = tmp_path / "sweep.json"
        assert run_cli("sweep", "--config", str(cfg), "--out", str(out), "--format", "json") == 0
        rows = json.loads(out.read_text())["rows"]
        assert len(rows) == 2 and np.isfinite(rows[1]["zeta2_true"])

    def test_unwritable_output_dir(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "missing_dir" / "sweep.csv")
        assert run_cli("sweep", "--config", config_path, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:")  # not misreported as a config problem


class TestRecordsAndReconstruct:
    def test_pipeline(self, config_path, tmp_path):
        rec_path = tmp_path / "rec.csv"
        assert run_cli("records", "--config", config_path, "--tr", "0.8", "--out", str(rec_path)) == 0
        text = rec_path.read_text()
        assert "# kappa2=" in text
        assert "# t_r_ms=0.8" in text
        assert "# config_sha256=" in text

        out = tmp_path / "cc.json"
        assert run_cli("reconstruct", str(rec_path), "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert "corrected_covariance" in payload
        assert "mle" not in payload
        assert payload["corrected_covariance"]["n_shots"] == 3000

    def test_reconstruct_with_mle(self, config_path, tmp_path):
        rec_path = tmp_path / "rec.csv"
        run_cli("records", "--config", config_path, "--tr", "0", "--out", str(rec_path))
        out = tmp_path / "full.json"
        assert run_cli("reconstruct", str(rec_path), "--out", str(out), "--mle") == 0
        payload = json.loads(out.read_text())
        assert payload["mle"]["dim"] == 10
        flat = np.array(payload["mle"]["rho_row_major_re_im"])
        p0 = flat[0, 0]
        assert p0 > 0.8  # undriven point reconstructs to near-vacuum

    def test_unconverged_mle_fails_on_one_line(self, tmp_path, capsys, monkeypatch):
        # a gap bound still open at MAX_ITER is an error naming the point, not a flagged result
        rec = default_record(tmp_path, "0.8")
        monkeypatch.setattr(tomography, "MAX_ITER", 20)
        out = tmp_path / "o.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("reconstruct", rec, "--mle", "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            "numerical failure: sweep point t_r=0.8 ms: likelihood iteration stopped at "
            "max_iter=20 with likelihood-gap bound 30.9 (tol 0.1)\n"
        )
        assert not caught
        assert not out.exists()

    def test_mle_failure_names_the_records_point(self, tmp_path, capsys):
        out = tmp_path / "o.json"
        assert run_cli("reconstruct", default_record(tmp_path, "3"), "--mle", "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            "numerical failure: sweep point t_r=3 ms: population 0.0771 of the highest level "
            "breaks the truncation validity bound 1e-3\n"
        )
        assert not out.exists()

    def test_covariance_failure_names_the_records_point(self, tmp_path, capsys):
        # shots far narrower than the readout noise are unphysical on the covariance route
        shots = 0.1 * np.random.default_rng(5).standard_normal((200, 2))
        rec = tmp_path / "rec.csv"
        rec.write_text("# kappa2=0.8\n# t_r_ms=0.5\ny_c,y_s\n"
                       + "".join(f"{a:.17g},{b:.17g}\n" for a, b in shots))
        out = tmp_path / "o.json"
        assert run_cli("reconstruct", str(rec), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: sweep point t_r=0.5 ms: unphysical correction: "
                              "var_x = ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_source_hash_is_of_the_text_read(self, tmp_path):
        # text mode reads CRLF line ends as LF, so both files hash as the LF bytes
        lf = b"# kappa2=0.8\ny_c,y_s\n2.5,-1.5\n-1.75,2\n0.5,1.25\n-2,-0.5\n"
        for name, data in (("lf.csv", lf), ("crlf.csv", lf.replace(b"\n", b"\r\n"))):
            rec_path, out = tmp_path / name, tmp_path / f"{name}.json"
            rec_path.write_bytes(data)
            assert run_cli("reconstruct", str(rec_path), "--out", str(out)) == 0
            assert json.loads(out.read_text())["source_sha256"] == hashlib.sha256(lf).hexdigest()

    def test_records_deterministic(self, config_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("records", "--config", config_path, "--tr", "0.8", "--out", str(a))
        run_cli("records", "--config", config_path, "--tr", "0.8", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_records_file_reads_back_its_point_seed(self, config_path, tmp_path):
        # a per-point seed pairs the master seed with the duration in ps, so at 0.8 ms
        # it is above 2^53, where float would round it
        out = tmp_path / "rec.csv"
        assert run_cli("records", "--config", config_path, "--tr", "0.8", "--out", str(out)) == 0
        seed = experiment._point_seed(ExperimentConfig.from_file(config_path), 0.8)
        assert seed > 2**53 and float(seed) != seed
        with open(out) as fh:
            assert record_from_csv(fh).seed == seed

    @pytest.mark.parametrize(
        "command, t_r",
        [("records", "nan"), ("records", "inf"), ("qpd", "nan"), ("qpd", "inf")],
    )
    def test_non_finite_duration_is_usage_error(self, config_path, tmp_path, capsys,
                                                command, t_r):
        out = tmp_path / "o.csv"
        assert run_cli(command, "--config", config_path, "--tr", t_r, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err == f"usage error: evolution time {t_r} ms is not finite\n"
        assert not out.exists()

    def test_extreme_duration_fails_on_one_line(self, config_path, tmp_path, capsys):
        # the propagation overflows at 1e30 ms; that is one error line, not numpy warnings
        out = tmp_path / "o.csv"
        assert run_cli("records", "--config", config_path, "--tr", "1e30", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1
        assert not out.exists()

    def test_n_shots_header_in_exponent_form(self, tmp_path):
        # a config accepts n_shots = 1e4, and so does a record header
        rows = np.random.default_rng(3).standard_normal((10_000, 2))
        rec_path = tmp_path / "rec.csv"
        rec_path.write_text("# kappa2=0.8\n# n_shots=1e4\ny_c,y_s\n"
                            + "".join(f"{a:.17g},{b:.17g}\n" for a, b in rows))
        out = tmp_path / "o.json"
        assert run_cli("reconstruct", str(rec_path), "--out", str(out)) == 0
        assert json.loads(out.read_text())["corrected_covariance"]["n_shots"] == 10_000

    def test_missing_records_file(self, tmp_path, capsys):
        assert run_cli("reconstruct", str(tmp_path / "none.csv"), "--out", str(tmp_path / "o.json")) == 2
        assert "records file not found" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "body, message",
        [
            ("y_c,y_s\n0.1,0.2\n0.3\n", "line 4: 1 fields, header has 2"),
            ("y_c,y_s\n0.1,0.2\n0.3,0.4,0.5\n", "line 4: 3 fields, header has 2"),
            ("0.1,0.2\n0.3,0.4\n", "header must be y_c,y_s, got '0.1,0.2'"),
            ("y_c,y_s\n0.1,0.2\nnan,0.4\n", "shot 1 is not finite: [nan, 0.4]"),
            ("y_c,y_s\n0.1,0.2\n0.3,-inf\n", "shot 1 is not finite: [0.3, -inf]"),
        ],
        ids=["short-row", "long-row", "no-header", "nan-row", "inf-row"],
    )
    def test_malformed_records_file(self, tmp_path, capsys, body, message):
        rec_path = tmp_path / "bad.csv"
        rec_path.write_text("# kappa2=0.8\n" + body)
        out = tmp_path / "o.json"
        assert run_cli("reconstruct", str(rec_path), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "header, n_rows, message",
        [
            ("# kappa2=nan\n# n_shots=200\n", 200, "kappa2 must be finite and >= 0, got nan"),
            ("# kappa2=inf\n# n_shots=200\n", 200, "kappa2 must be finite and >= 0, got inf"),
            ("# kappa2=1e200\n# n_shots=200\n", 200, "kappa2 must be <= 1e+100, got 1e+200"),
            ("# kappa2=0.8\n# n_shots=200\n", 54,
             "record file holds 54 shots, its n_shots header says 200"),
            ("# kappa2=abc\n# n_shots=200\n", 200, "kappa2: 'abc' is not a number"),
            ("# kappa2=0.8\n# n_shots=200\n# seed=1.5\n", 200, "seed must be an integer, got 1.5"),
            ("# kappa2=0.8\n# n_shots=9999\n", 10_000,
             "record file holds 10000 shots, its n_shots header says 9999"),
            ("# kappa2=0.8\n# n_shots=abc\n", 200, "n_shots: 'abc' is not a number"),
            ("# kappa2=0.8\n# n_shots=199.5\n", 200, "n_shots must be an integer, got 199.5"),
            ("# kappa2=0.8\n# n_shots=200\n# kappa2=0.5\n", 200,
             "record file sets its kappa2 header twice"),
            ("# kappa2=0.8\n# n_shots=200\n# t_r_ms=abc\n", 200, "t_r_ms: 'abc' is not a number"),
        ],
        ids=["nan-kappa2", "inf-kappa2", "overflowing-kappa2", "truncated", "abc-kappa2",
             "fractional-seed", "short-n_shots", "abc-n_shots", "fractional-n_shots",
             "kappa2-twice", "abc-t_r_ms"],
    )
    def test_malformed_records_header(self, tmp_path, capsys, header, n_rows, message):
        rows = np.random.default_rng(3).standard_normal((n_rows, 2))
        rec_path = tmp_path / "bad.csv"
        rec_path.write_text(header + "y_c,y_s\n" + "".join(f"{a:.17g},{b:.17g}\n" for a, b in rows))
        out = tmp_path / "o.json"
        assert run_cli("reconstruct", str(rec_path), "--out", str(out)) == 2
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not out.exists()


class TestQpd:
    def test_grid_output(self, config_path, tmp_path):
        out = tmp_path / "qpd.csv"
        assert run_cli("qpd", "--config", config_path, "--tr", "0.8",
                       "--grid", "12x24", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        data = [l for l in lines if not l.startswith("#") and not l.startswith("theta")]
        assert len(data) == 12 * 24
        values = np.array([float(l.split(",")[2]) for l in data])
        assert values.min() >= 0.0
        assert values.max() <= 1.0

    @pytest.mark.parametrize("grid", ["4x8", "3x5"])
    def test_file_matches_the_csv_module_writer(self, config_path, tmp_path, grid):
        out = tmp_path / "qpd.csv"
        assert run_cli("qpd", "--config", config_path, "--tr", "0.8", "--grid", grid,
                       "--out", str(out)) == 0
        config = ExperimentConfig.from_file(config_path)
        q = husimi(evolved_state(config, 0.8), *map(int, grid.split("x")))
        oracle = io.StringIO()
        csv_module_write_table(
            oracle,
            [f"config_sha256={config.config_hash}", f"t_r_ms={0.8:.17g}"],
            ("theta_rad", "phi_rad", "q_value"),
            meshgrid_rows(q.thetas, q.phis, q.values),
        )
        assert out.read_bytes() == oracle.getvalue().encode()

    def test_bad_grid_spec(self, config_path, tmp_path, capsys):
        assert run_cli("qpd", "--config", config_path, "--tr", "0.5",
                       "--grid", "12", "--out", str(tmp_path / "q.csv")) == 2
        assert "usage error" in capsys.readouterr().err

    def test_takes_no_seed(self, config_path, tmp_path, capsys):
        # a Husimi grid does not depend on the seed
        out = tmp_path / "q.csv"
        assert run_cli("qpd", "--config", config_path, "--tr", "0.8", "--grid", "4x8",
                       "--out", str(out), "--seed", "3") == 2
        assert capsys.readouterr().err == "usage error: unrecognized arguments: --seed 3\n"
        assert not out.exists()


class TestInputBounds:
    @pytest.mark.parametrize("command", ["sweep", "records", "qpd"])
    @pytest.mark.parametrize(
        "lines, message",
        [("t1 = 10\nt2 = 30", "decay times need 0 < t2 <= t1, got t1=10.0, t2=30.0"),
         ("t2 = inf", "decay times need 0 < t2 <= t1, got t1=80.0, t2=inf"),
         ("extra_scatter_rate = -0.1", "extra_scatter_rate must be >= 0, got -0.1"),
         # both decay rates are bounded by experiment.MAX_RATE when the config loads
         ("extra_scatter_rate = 1e307",
          "decay rate 1/t1 + extra_scatter_rate must be <= 1e+100 1/ms, got 1e+307"),
         ("t1 = 1e-300\nt2 = 1e-300",
          "decay rate 1/t1 + extra_scatter_rate must be <= 1e+100 1/ms, got 9.999999999999999e+299"),
         ("t2 = 1e-300",
          "decay rate 2 (1/t2 - 1/t1) must be <= 1e+100 1/ms, got 1.9999999999999998e+300")],
        ids=["t2-above-t1", "t2-inf", "negative-scatter", "overflowing-scatter",
             "overflowing-t1-t2", "overflowing-t2"],
    )
    def test_decay_rules_fail_on_one_line(self, tmp_path, capsys, command, lines, message):
        cfg = tmp_path / "decay.cfg"
        cfg.write_text(f"raman_durations = 0.8\nn_shots = 100\n{lines}\n")
        out = tmp_path / "o.csv"
        point = [] if command == "sweep" else ["--tr", "0.8"]
        assert run_cli(command, "--config", str(cfg), *point, "--out", str(out)) == 2
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep", "records", "qpd"])
    def test_spinless_atom_fails_on_one_line(self, tmp_path, capsys, command):
        # a spin-0 atom has no mean spin to squeeze or probe: the config is refused at load
        cfg = tmp_path / "f0.cfg"
        cfg.write_text("f = 0\nraman_durations = 0.8\nn_shots = 100\n")
        out = tmp_path / "o.csv"
        point = [] if command == "sweep" else ["--tr", "0.8"]
        assert run_cli(command, "--config", str(cfg), *point, "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            "usage error: f must be >= 1/2 (spin 0 has no mean spin), got 0.0\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, line, message",
        [(["records"], "raman_durations = 0:6:1e-5",
          "raman_durations must hold at most 100000 values, got 600001"),
         (["records"], "raman_durations = 0:6:5e-324",
          "raman_durations must hold at most 100000 values, got inf"),
         (["qpd"], "n_shots = 10000001", "n_shots must be <= 10000000, got 10000001"),
         (["records"], "kappa2 = 1e200", "kappa2 must be <= 1e+100, got 1e+200"),
         (["qpd", "--grid", "1001x1000"], "n_shots = 100",
          "grid must have at most 1000000 nodes, got 1001x1000")],
        ids=["durations", "durations-step-underflow", "n_shots", "kappa2", "grid"],
    )
    def test_sizes_beyond_their_bound_fail_on_one_line(self, tmp_path, capsys, command, line,
                                                       message):
        cfg = tmp_path / "big.cfg"
        cfg.write_text(f"{line}\n")
        out = tmp_path / "o.csv"
        assert run_cli(*command, "--config", str(cfg), "--tr", "0.8", "--out", str(out)) == 2
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "kappa2, code, message",
        [("1e200", 2, "usage error: kappa2 must be <= 1e+100, got 1e+200"),
         # the bins of a tiny gain hold no information on the state
         ("1e-12", 2, "usage error: record with kappa2 = 1e-12 and 200 shots cannot resolve "
                      "the state: the outcome variance has standard error 1.71e+11 in atomic "
                      "units, above the Heisenberg-floor signal 1/2")],
        ids=["overflowing", "tiny"],
    )
    def test_mle_on_extreme_kappa2_fails_on_one_line(self, tmp_path, capsys, kappa2, code,
                                                     message):
        shots = np.random.default_rng(7).standard_normal((200, 2))
        rec = tmp_path / "rec.csv"
        rec.write_text(f"# kappa2={kappa2}\ny_c,y_s\n"
                       + "".join(f"{a:.17g},{b:.17g}\n" for a, b in shots))
        out = tmp_path / "o.json"
        assert run_cli("reconstruct", str(rec), "--mle", "--out", str(out)) == code
        assert capsys.readouterr().err == message + "\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep", "records", "qpd"])
    @pytest.mark.parametrize("rate", ["1e307", "-1e307"])
    def test_overflowing_twisting_rate_fails_on_one_line(self, tmp_path, capsys, command, rate):
        # both Hamiltonian rates are bounded by experiment.MAX_RATE when the config loads
        point = [] if command == "sweep" else ["--tr", "0.8"]
        for key in ("twisting_rate", "compensation_residual"):
            cfg = tmp_path / "rate.cfg"
            cfg.write_text(f"raman_durations = 0.8\nn_shots = 100\n{key} = {rate}\n")
            out = tmp_path / "o.csv"
            assert run_cli(command, "--config", str(cfg), *point, "--out", str(out)) == 2
            assert capsys.readouterr().err == (
                f"usage error: |{key}| must be <= 1e+100 rad/ms, got {float(rate)!r}\n"
            )
            assert not out.exists()


class TestOutputFile:
    def test_new_output_takes_the_umask(self, tmp_path):
        out = tmp_path / "limits.csv"
        umask = os.umask(0o027)
        try:
            assert run_cli("limits", "2", "--out", str(out)) == 0
        finally:
            os.umask(umask)
        assert stat.S_IMODE(out.stat().st_mode) == 0o640

    @pytest.mark.parametrize(
        "argv",
        [
            ["limits", "2"],
            ["sweep", "--config", "{config}"],
            ["sweep", "--config", "{config}", "--format", "json"],
            ["records", "--config", "{config}", "--tr", "0.8"],
            ["reconstruct", "{record}"],
            ["reconstruct", "{record}", "--mle"],
            ["qpd", "--config", "{config}", "--tr", "0.8", "--grid", "6x10"],
        ],
        ids=["limits", "sweep-csv", "sweep-json", "records", "reconstruct", "reconstruct-mle",
             "qpd"],
    )
    def test_stdout_gives_the_file_bytes(self, config_path, tmp_path, capsys, argv):
        record = tmp_path / "rec.csv"
        assert run_cli("records", "--config", config_path, "--tr", "0", "--out", str(record)) == 0
        argv = [arg.format(config=config_path, record=record) for arg in argv]
        out = tmp_path / "out"
        assert run_cli(*argv, "--out", str(out)) == 0
        capsys.readouterr()
        assert run_cli(*argv, "--out", "-") == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()

    @pytest.mark.parametrize("old", [None, b"old bytes\n"], ids=["new-target", "old-target"])
    def test_failure_while_writing_leaves_nothing_behind(self, config_path, tmp_path, capsys,
                                                         monkeypatch, old):
        def write_half_then_fail(stream, *args):
            whole = io.StringIO()
            tables.write_grid_table(whole, *args)
            text = whole.getvalue()
            stream.write(text[: len(text) // 2])
            stream.flush()
            assert len(list(tmp_path.glob(".spintomo-*"))) == 1  # the half is in the file
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(squeezing, "write_grid_table", write_half_then_fail)
        out = tmp_path / "qpd.csv"
        if old is not None:
            out.write_bytes(old)
        assert run_cli("qpd", "--config", config_path, "--tr", "0.8", "--out", str(out)) == 2
        assert capsys.readouterr().err == "usage error: [Errno 28] No space left on device\n"
        assert (out.read_bytes() if out.exists() else None) == old
        assert not list(tmp_path.glob(".spintomo-*"))

    def test_grid_text_is_not_held_whole(self, config_path, tmp_path, monkeypatch):
        # in blocks of 1024 values, the peak is a fraction of the 20000-row file
        monkeypatch.setattr(tables, "GRID_BLOCK_CELLS", 1024)
        out = tmp_path / "qpd.csv"
        argv = ["qpd", "--config", config_path, "--tr", "0.8", "--grid", "100x200",
                "--out", str(out)]
        assert run_cli(*argv) == 0  # warm: imports and caches are not counted
        tracemalloc.start()
        try:
            assert run_cli(*argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.stat().st_size

    def test_record_text_is_not_held_whole(self, tmp_path, monkeypatch):
        # in blocks of 1024 values, the peak is below the size of the 10^5-shot file
        monkeypatch.setattr(tables, "GRID_BLOCK_CELLS", 1024)
        cfg, out = tmp_path / "big.cfg", tmp_path / "rec.csv"
        cfg.write_text("n_shots = 100000\n")
        argv = ["records", "--config", str(cfg), "--tr", "0.8", "--out", str(out)]
        assert run_cli(*argv) == 0  # warm: imports and caches are not counted
        tracemalloc.start()
        try:
            assert run_cli(*argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.stat().st_size


class TestParser:
    def test_unknown_command(self, capsys):
        assert run_cli("frobnicate") == 2

    def test_missing_required_flag(self, capsys):
        assert run_cli("sweep", "--out", "x.csv") == 2

    def test_stdout_output(self, capsys):
        assert run_cli("limits", "1") == 0
        out = capsys.readouterr().out
        assert "zeta2_min" in out

    def test_one_process_matches_separate_processes(self, config_path, tmp_path):
        # main reuses one parser per process: a run of commands, a usage error among them,
        # gives each command the exit code, stderr and output file of a fresh interpreter
        rec, qpd = tmp_path / "rec.csv", tmp_path / "qpd.csv"
        calls = [
            ["records", "--config", config_path, "--tr", "0.8", "--out", str(rec)],
            ["reconstruct", str(rec), "--mle", "--out", str(tmp_path / "mle.json")],
            ["qpd", "--config", config_path, "--tr", "zero", "--out", str(tmp_path / "none.csv")],
            ["qpd", "--config", config_path, "--tr", "0.8", "--grid", "8x16", "--out", str(qpd)],
        ]
        outputs = [argv[-1] for argv in calls]
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = {**os.environ, "PYTHONPATH": src}

        def read_outputs():
            return [open(path, "rb").read() if os.path.exists(path) else None for path in outputs]

        separate = []
        for argv in calls:
            done = subprocess.run([sys.executable, "-m", "spintomo.cli", *argv], env=env,
                                  capture_output=True, text=True)
            separate.append((done.returncode, done.stderr))
        separate_files = read_outputs()
        for path in (rec, qpd, tmp_path / "mle.json"):
            path.unlink()
        code = (
            "import contextlib, io, json\n"
            "from spintomo.cli import main\n"
            "results = []\n"
            f"for argv in {calls!r}:\n"
            "    err = io.StringIO()\n"
            "    with contextlib.redirect_stderr(err):\n"
            "        results.append((main(argv), err.getvalue()))\n"
            "print(json.dumps(results))\n"
        )
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert [tuple(result) for result in json.loads(done.stdout)] == separate
        assert [code for code, _ in separate] == [0, 0, 2, 0]
        assert read_outputs() == separate_files
        assert separate_files[2] is None
