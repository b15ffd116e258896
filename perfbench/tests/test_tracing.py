import sys
import types

import pytest

import tracing


def span(name, start, end, parent=-1, job="0/a"):
    return [name, start, end, parent, job]


def test_self_time_subtracts_the_children_it_covers():
    spans = [
        span("cli.main", 0.0, 10.0),
        span("experiment.run_sweep", 1.0, 5.0, 0),
        span("dynamics.lindblad_trajectory", 2.0, 4.0, 1),
        span("probe.record_to_csv", 6.0, 7.5, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([10.0 - 4.0 - 1.5, 4.0 - 2.0, 2.0, 1.5])


def test_self_time_counts_overlapping_children_once():
    spans = [span("cli.main", 0.0, 10.0), span("a.x", 1.0, 4.0, 0), span("a.y", 3.0, 6.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(5.0)


def test_layer_times_count_nested_spans_of_one_layer_once():
    spans = [
        span("cli.main", 0.0, 10.0),
        span("squeezing.husimi", 1.0, 5.0, 0),
        span("spin_algebra.coherent_state_vector", 2.0, 3.0, 1),
        span("squeezing.csv_write", 6.0, 7.0, 0),
        span("cli.main", 20.0, 22.0, job="0/b"),
    ]
    totals = tracing.layer_times(spans)
    assert totals == pytest.approx({"cli": 12.0, "squeezing": 5.0, "spin_algebra": 1.0})
    assert tracing.layer_times(spans, {"0/b"}) == pytest.approx({"cli": 2.0})


@pytest.fixture()
def fake_package(monkeypatch):
    module = types.ModuleType("fake_layers")

    def work(n_shots):
        return n_shots * 2

    def outer(n):
        return module.work(n) + 1

    module.work, module.outer = work, outer
    monkeypatch.setitem(sys.modules, "fake_layers", module)
    return module


def test_wrapped_calls_record_nested_spans_and_counters(fake_package):
    tracer = tracing.Tracer()
    tracer.install((
        ("fake_layers:outer", "experiment.outer", None),
        ("fake_layers:work", "probe.simulate_records", tracing._shots),
    ))
    tracer.job = "0/x"
    assert fake_package.outer(5) == 11
    tracer.uninstall()
    assert fake_package.outer(5) == 11
    names = [(s[0], s[3], s[4]) for s in tracer.spans]
    assert names == [("experiment.outer", -1, "0/x"), ("probe.simulate_records", 0, "0/x")]
    assert tracer.counters["probe.shots"] == 5
    assert tracer.absent == []


def test_missing_wrap_points_are_absent_not_fatal(fake_package):
    tracer = tracing.Tracer()
    tracer.install((
        ("fake_layers:renamed_away", "dynamics.lindblad_trajectory", tracing._simulated_ms),
        ("no_such_module_anywhere:f", "squeezing.husimi", tracing._husimi_cells),
        ("fake_layers:work", "probe.simulate_records", tracing._shots),
    ))
    assert tracer.absent == ["dynamics.lindblad_trajectory", "squeezing.husimi"]
    fake_package.work(n_shots=3)
    tracer.uninstall()
    metrics = tracing.per_layer_metrics(tracer, rounds=1, span_cost=0.0)
    assert metrics["dynamics.lindblad_trajectory.s"]["value"] is None
    assert metrics["dynamics.simulated_ms"]["value"] is None
    assert metrics["squeezing.husimi.s"]["value"] is None
    assert metrics["squeezing.husimi.cells"]["value"] is None
    assert metrics["probe.shots"]["value"] == 3
    assert metrics["probe.simulate_records.s"]["value"] >= 0.0


def test_a_counter_that_no_longer_fits_is_absent(fake_package):
    tracer = tracing.Tracer()
    # the hook expects an argument named n_theta, which work() does not have
    tracer.install((("fake_layers:work", "squeezing.husimi", tracing._husimi_cells),))
    assert fake_package.work(4) == 8
    tracer.uninstall()
    assert tracer.absent == ["_husimi_cells"]
    metrics = tracing.per_layer_metrics(tracer, rounds=1, span_cost=0.0)
    assert metrics["squeezing.husimi.cells"]["value"] is None
    assert metrics["squeezing.husimi.s"]["value"] >= 0.0
