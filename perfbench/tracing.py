"""Span tracer for the traced run.

The package binds its public functions with from-imports, so a function is
wrapped under the name its caller looks up, e.g. ``spintomo.experiment``'s
``lindblad_trajectory`` rather than ``spintomo.dynamics``'s.  Each call
records a span ``[name, start, end, parent, job]``; spans stay in memory
until the run ends.  A wrap point whose module or attribute no longer
exists is reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict


def _simulated_ms(counters, args, result):
    counters["dynamics.simulated_ms"] += max((float(t) for t in args["times"]), default=0.0)


def _shots(counters, args, result):
    counters["probe.shots"] += int(args["n_shots"])


def _csv_bytes(counters, args, result):
    counters["probe.csv_bytes"] += args["stream"].tell()


def _husimi_cells(counters, args, result):
    counters["squeezing.husimi.cells"] += int(args["n_theta"]) * int(args["n_phi"])


def _mle_result(counters, args, result):
    counters["tomography.mle_iterations"] += result.n_iterations
    counters["tomography.mle_converged"] += bool(result.converged)
    top = float(result.populations[-1])
    counters["tomography.mle_top_population_max"] = max(
        counters["tomography.mle_top_population_max"], top
    )


# (where the caller looks the function up, span name, counter hook)
WRAP_POINTS = (
    ("spintomo.cli:main", "cli.main", None),
    ("spintomo.cli:run_sweep", "experiment.run_sweep", None),
    ("spintomo.cli:point_record", "experiment.point_record", None),
    ("spintomo.cli:evolved_state", "experiment.evolved_state", None),
    ("spintomo.cli:record_to_csv", "probe.record_to_csv", _csv_bytes),
    ("spintomo.cli:record_from_csv", "probe.record_from_csv", None),
    ("spintomo.cli:correct_covariance", "tomography.correct_covariance", None),
    ("spintomo.cli:mle_reconstruct", "tomography.mle_reconstruct", _mle_result),
    ("spintomo.cli:husimi", "squeezing.husimi", _husimi_cells),
    ("spintomo.cli:tact_optimum", "squeezing.tact_optimum", None),
    ("spintomo.squeezing:HusimiGrid.to_csv_text", "squeezing.csv_write", None),
    ("spintomo.squeezing:coherent_state_vector", "spin_algebra.coherent_state_vector", None),
    ("spintomo.experiment:lindblad_trajectory", "dynamics.lindblad_trajectory", _simulated_ms),
    ("spintomo.experiment:compensated_hamiltonian", "dynamics.compensated_hamiltonian", None),
    ("spintomo.experiment:squeezing_report", "squeezing.squeezing_report", None),
    ("spintomo.experiment:simulate_records", "probe.simulate_records", _shots),
    ("spintomo.experiment:canonical_moments", "probe.canonical_moments", None),
    ("spintomo.experiment:correct_covariance", "tomography.correct_covariance", None),
)

LAYERS = ("cli", "experiment", "dynamics", "squeezing", "spin_algebra", "probe", "tomography")

# per-layer metrics of the traced run: (name, unit); times and counts are per round
PER_LAYER = (
    ("dynamics.lindblad_trajectory.s", "s/round"),
    ("dynamics.lindblad_trajectory.calls", "count/round"),
    ("dynamics.simulated_ms", "ms/round"),
    ("dynamics.compensated_hamiltonian.s", "s/round"),
    ("squeezing.squeezing_report.s", "s/round"),
    ("squeezing.squeezing_report.calls", "count/round"),
    ("squeezing.husimi.s", "s/round"),
    ("squeezing.husimi.cells", "count/round"),
    ("spin_algebra.coherent_state_vector.calls", "count/round"),
    ("squeezing.csv_write.s", "s/round"),
    ("squeezing.tact_optimum.s", "s/round"),
    ("probe.simulate_records.s", "s/round"),
    ("probe.shots", "count/round"),
    ("probe.record_to_csv.s", "s/round"),
    ("probe.record_from_csv.s", "s/round"),
    ("probe.csv_bytes", "bytes/round"),
    ("tomography.correct_covariance.s", "s/round"),
    ("tomography.mle_reconstruct.s", "s/round"),
    ("tomography.mle_iterations", "count/call"),
    ("tomography.mle_converged_ratio", "1"),
    ("tomography.mle_top_population_max", "1"),
    ("experiment.self_s", "s/round"),
    ("cli.self_s", "s/round"),
    ("trace.overhead_s", "s/round"),
)


def _resolve(target: str):
    """(owner object, attribute name) for ``module:attr[.attr...]``."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    getattr(owner, attr)  # AttributeError if it is gone
    return owner, attr


class Tracer:
    """Records spans and counters of wrapped calls; one instance per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.absent: list[str] = []  # span or counter names that could not be recorded
        self.job = None
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def install(self, points=WRAP_POINTS) -> None:
        for target, name, hook in points:
            try:
                owner, attr = _resolve(target)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            original = inspect.getattr_static(owner, attr)
            setattr(owner, attr, self.wrap(getattr(owner, attr), name, hook))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def wrap(self, fn, name: str, hook=None):
        signature = inspect.signature(fn) if hook else None
        spans, stack, now = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, now(), None, stack[-1] if stack else -1, self.job])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = now()
            if hook is not None:
                self._count(hook, signature, args, kwargs, result)
            return result

        return traced

    def _count(self, hook, signature, args, kwargs, result) -> None:
        try:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            hook(self.counters, bound.arguments, result)
        except (TypeError, KeyError, AttributeError, IndexError, ValueError):
            # a renamed parameter or result field: report, never break the job
            if hook.__name__ not in self.absent:
                self.absent.append(hook.__name__)

    def span_cost(self, calls: int = 20000) -> float:
        """Seconds one wrapped call adds over a plain call, measured in place."""

        def noop():
            return None

        traced = self.wrap(noop, "calibration")
        mark = len(self.spans)
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        plain = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        wrapped = time.perf_counter() - start
        del self.spans[mark:]
        return max(wrapped - plain, 0.0) / calls


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, job in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (name, start, end, parent, job) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_times(spans, jobs=None) -> dict[str, float]:
    """Wall time under each layer, over all spans or those of ``jobs``.

    A span nested inside a span of its own layer is not counted again.
    """
    totals: dict[str, float] = defaultdict(float)
    for name, start, end, parent, job in spans:
        if jobs is not None and job not in jobs:
            continue
        layer = layer_of(name)
        ancestor = parent
        while ancestor >= 0 and layer_of(spans[ancestor][0]) != layer:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            totals[layer] += end - start
    return dict(totals)


# counter metrics of PER_LAYER and the span whose hook fills them
_COUNTED_BY = {
    "dynamics.simulated_ms": ("dynamics.lindblad_trajectory", _simulated_ms),
    "probe.shots": ("probe.simulate_records", _shots),
    "probe.csv_bytes": ("probe.record_to_csv", _csv_bytes),
    "squeezing.husimi.cells": ("squeezing.husimi", _husimi_cells),
    "tomography.mle_iterations": ("tomography.mle_reconstruct", _mle_result),
    "tomography.mle_converged_ratio": ("tomography.mle_reconstruct", _mle_result),
    "tomography.mle_top_population_max": ("tomography.mle_reconstruct", _mle_result),
}


def per_layer_metrics(tracer: Tracer, rounds: int, span_cost: float, time_scale: float = 1.0) -> dict:
    """Values of :data:`PER_LAYER`; ``None`` marks a metric whose wrap point is absent.

    Every time is multiplied by ``time_scale``, which maps the run's wall
    times to the reference machine speed.
    """
    spans = tracer.spans
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    self_by_layer: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        seconds[span[0]] += span[2] - span[1]
        calls[span[0]] += 1
        self_by_layer[layer_of(span[0])] += own
    counters = tracer.counters
    mle_calls = max(calls["tomography.mle_reconstruct"], 1)
    values = {
        "dynamics.simulated_ms": counters["dynamics.simulated_ms"] / rounds,
        "probe.shots": counters["probe.shots"] / rounds,
        "probe.csv_bytes": counters["probe.csv_bytes"] / rounds,
        "squeezing.husimi.cells": counters["squeezing.husimi.cells"] / rounds,
        "tomography.mle_iterations": counters["tomography.mle_iterations"] / mle_calls,
        "tomography.mle_converged_ratio": counters["tomography.mle_converged"] / mle_calls,
        "tomography.mle_top_population_max": counters["tomography.mle_top_population_max"],
        "experiment.self_s": self_by_layer["experiment"] * time_scale / rounds,
        "cli.self_s": self_by_layer["cli"] * time_scale / rounds,
        "trace.overhead_s": len(spans) * span_cost * time_scale / rounds,
    }
    out = {}
    for name, unit in PER_LAYER:
        if name in _COUNTED_BY:
            span, hook = _COUNTED_BY[name]
            absent = span in tracer.absent or hook.__name__ in tracer.absent
        elif name in values:
            absent = False
        else:
            span, _, stat = name.rpartition(".")
            absent = span in tracer.absent
            values[name] = (seconds[span] * time_scale if stat == "s" else calls[span]) / rounds
        out[name] = {"value": None if absent else values[name], "unit": unit}
    return out
