"""The benchmark's traced run against the real package.

perfbench's tracer wraps the package's functions under the names their
callers look them up by.  A renamed or re-routed call leaves a wrap point
absent, a counter at 0 or a per-layer metric null, and the traced benchmark
run then has no result to report.  This runs each CLI command once, on tiny
inputs, under that tracer.
"""

import json
from pathlib import Path

import spintomo.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_command_keeps_the_traced_run_contract(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    sweep_cfg, records_cfg = tmp_path / "sweep.cfg", tmp_path / "records.cfg"
    sweep_cfg.write_text("raman_durations = 0,0.8\nn_shots = 200\nseed = 11\n")
    # the MLE needs more than 200 shots to pass its truncation check at every seed
    records_cfg.write_text("n_shots = 1000\nseed = 11\n")
    rec, out = str(tmp_path / "rec.csv"), str(tmp_path / "out")
    commands = [
        ["sweep", "--config", str(sweep_cfg), "--out", out],
        ["records", "--config", str(records_cfg), "--tr", "0", "--out", rec],
        ["reconstruct", rec, "--mle", "--out", out],
        ["qpd", "--config", str(sweep_cfg), "--tr", "0.8", "--grid", "4x8", "--out", out],
        ["limits", "2", "--out", out],
    ]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for argv in commands:
            # looked up on the module, where the tracer wrapped it
            assert spintomo.cli.main(argv) == 0, argv
    finally:
        tracer.uninstall()

    assert tracer.absent == []
    metrics = tracing.per_layer_metrics(tracer, 1, 0.0)
    for name in tracing._COUNTED_BY:
        assert metrics[name]["value"] > 0, name
    json.dumps(metrics, allow_nan=False)
    assert [name for name, metric in metrics.items() if metric["value"] is None] == []
