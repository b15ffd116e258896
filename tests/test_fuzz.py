"""The CLI's error contract under odd input: exit code 0, 1 or 2, exactly one
stderr line on failure, and no exception escaping ``main``.

Every value of a fixed corpus, written by hand, goes into every config key
and every record header, and each record is reconstructed with and without
the MLE; a seeded draw adds configs that set two keys at once.  The valid
base is one duration and 200 shots, so each run is cheap.
"""

import random
from dataclasses import fields

import numpy as np
import pytest

from spintomo import ExperimentConfig
from spintomo.cli import main

CORPUS = (
    "", "nan", "inf", "-inf", "1e400", "5e-324", "-0", "0", "1", "-1", "0.5", "2.5", "7.5",
    "1e4", "1e307", "-1e307", "1e-12", "0x10", "1_000", "４",  # a full-width 4
    "1234567890123456789012345678901234567890",
    "-1234567890123456789012345678901234567890",
    "5:1:0.5", "0:6:5e-324", "0:1e300:1", "0:1:0", "1:2:3:4", "0.8,0.4", "0,0.4,,0.8",
    "abc", "1e", "--1",
)
CONFIG_KEYS = tuple(spec.name for spec in fields(ExperimentConfig))
BASE = {"raman_durations": "0.8", "n_shots": "200"}
RECORD_HEADER = {"kappa2": "0.8", "n_shots": "200", "seed": "1"}


def check_contract(argv, capsys) -> None:
    """Run ``main(argv)`` and check the error contract."""
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (argv, code)
    if code:
        assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)


def check_config(settings, tmp_path, capsys) -> None:
    cfg = tmp_path / "fuzz.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in {**BASE, **settings}.items()),
                   encoding="utf-8")
    out = str(tmp_path / "out")
    for argv in (["sweep", "--config", str(cfg), "--out", out],
                 ["records", "--config", str(cfg), "--tr", "0.8", "--out", out],
                 ["qpd", "--config", str(cfg), "--tr", "0.8", "--grid", "4x8", "--out", out]):
        check_contract(argv, capsys)


@pytest.mark.parametrize("key", CONFIG_KEYS)
def test_every_config_key_keeps_the_error_contract(key, tmp_path, capsys):
    for value in CORPUS:
        check_config({key: value}, tmp_path, capsys)


def test_seeded_key_pairs_keep_the_error_contract(tmp_path, capsys):
    rng = random.Random(2024)
    for _ in range(40):
        keys = rng.sample(CONFIG_KEYS, 2)
        check_config({key: rng.choice(CORPUS) for key in keys}, tmp_path, capsys)


# a likelihood iteration that hits its step cap warns and still exits 0
@pytest.mark.filterwarnings("ignore:likelihood iteration stopped:RuntimeWarning")
@pytest.mark.parametrize("key", tuple(RECORD_HEADER))
def test_every_record_header_keeps_the_error_contract(key, tmp_path, capsys):
    shots = np.random.default_rng(7).standard_normal((200, 2))
    rows = "".join(f"{a:.17g},{b:.17g}\n" for a, b in shots)
    path, out = tmp_path / "rec.csv", str(tmp_path / "out.json")
    for value in CORPUS:
        header = "".join(f"# {k}={value if k == key else v}\n" for k, v in RECORD_HEADER.items())
        path.write_text(header + "y_c,y_s\n" + rows, encoding="utf-8")
        check_contract(["reconstruct", str(path), "--out", out], capsys)
        check_contract(["reconstruct", str(path), "--out", out, "--mle"], capsys)
