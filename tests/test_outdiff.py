"""tools/outdiff.py: the per-column report and the coverage of its command set."""

import argparse
from pathlib import Path

import pytest

from spintomo.cli import build_parser

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture
def outdiff(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    import outdiff

    return outdiff


OLD = """# config_sha256=abc
# units: ms,1,1
t_r,zeta2,error
0,1.0,0.5
0.1,2.0,0.25
0.2,-4.0,0.125
"""


def test_byte_identical(outdiff):
    assert outdiff.diff_output("sweep.csv", OLD, OLD) == ["sweep.csv: byte-identical"]


def test_changed_cells_give_counts_and_maxima(outdiff):
    new = OLD.replace("0.1,2.0,0.25", "0.1,2.5,0.25").replace("0.2,-4.0,0.125", "0.2,-3.0,0.125")
    assert outdiff.diff_output("sweep.csv", OLD, new) == [
        "sweep.csv: 2 cells changed",
        "  zeta2: 2 of 3 cells changed, max abs 1, max rel 0.25",
    ]


def test_changed_comment_line_is_reported(outdiff):
    new = OLD.replace("config_sha256=abc", "config_sha256=abd")
    assert outdiff.diff_output("sweep.csv", OLD, new) == [
        "sweep.csv: 0 cells changed",
        "  comment 1: '# config_sha256=abc' -> '# config_sha256=abd'",
    ]


def test_json_leaves_are_columns(outdiff):
    old = '{"hash": "aa", "rows": [{"x": 1.0, "y": 0.0}, {"x": 2.0, "y": 3.0}]}'
    new = '{"hash": "ab", "rows": [{"x": 1.0, "y": 1e-9}, {"x": 2.0, "y": 3.0}]}'
    assert outdiff.diff_output("sweep.json", old, new) == [
        "sweep.json: 2 cells changed",
        "  hash: 1 of 1 cells changed, 1 as text",
        "  rows[].y: 1 of 2 cells changed, max abs 1e-09, max rel inf",
    ]


def test_missing_and_reshaped_outputs(outdiff):
    assert outdiff.diff_output("limits_4.csv", None, OLD) == [
        "limits_4.csv: written only in the working tree"
    ]
    new = OLD.replace("t_r,zeta2,error", "t_r,zeta2,sigma") + "0.3,5.0,0.0625\n"
    assert outdiff.diff_output("sweep.csv", OLD, new) == [
        "sweep.csv: 0 cells changed",
        "  error: column only at REV",
        "  sigma: column only in the working tree",
        "  t_r: 3 cells at REV, 4 in the working tree",
        "  zeta2: 3 cells at REV, 4 in the working tree",
    ]


def test_command_set_covers_every_subcommand(outdiff):
    (subcommands,) = [action.choices for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction)]
    assert {argv[0] for _, argv in outdiff.COMMANDS} == set(subcommands)
    for _, argv in outdiff.COMMANDS:
        build_parser().parse_args(argv)  # every command line parses
    assert any(argv[argv.index("--out") + 1] == "-" for _, argv in outdiff.COMMANDS)  # stdout


def test_stdout_is_saved_as_the_output_file(outdiff, monkeypatch, tmp_path):
    commands = (("file.csv", ["limits", "1", "--out", "file.csv"]),
                ("stdout.csv", ["limits", "1", "--out", "-"]))
    monkeypatch.setattr(outdiff, "COMMANDS", commands)
    assert outdiff.run_commands(str(Path(outdiff.ROOT) / "src"), str(tmp_path)) == [(0, "")] * 2
    assert (tmp_path / "stdout.csv").read_bytes() == (tmp_path / "file.csv").read_bytes()


def test_unknown_revision_is_a_usage_error(outdiff, capsys):
    assert outdiff.main(["no-such-revision-anywhere"]) == 2
    assert capsys.readouterr().err.startswith("usage error: ")
