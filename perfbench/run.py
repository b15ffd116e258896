"""Benchmark of the spintomo command-line jobs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {sweep,tomography,figures} \\
        --seed N --seconds S --trace {0,1}

Every job goes through ``spintomo.cli.main(argv)``, one at a time, inside a
fresh worker interpreter (worker.py), on inputs generated from ``--seed``
(plan.py).  Each output is checked against an independent oracle
(oracle.py, checks.py).  Whole rounds of jobs run until ``--seconds`` have
passed.  Set-up time is sampled in further fresh interpreters that only
import the package and parse the first round's configs; the first of them
warms the file and bytecode caches and is not counted.

With ``--trace 0`` the result holds the end-to-end metrics.  Job times are
medians over the run, each job's time scaled to a reference machine speed
by a calibration kernel timed around it (calibrate.py); the highest
percentile with ten samples above it and the median scale factor are
printed beside them.  Set-up time is the unscaled median over fresh
interpreters.  The two error metrics are root-mean-square deviations in
units of the pipeline's own error bar; the maxima are printed beside them.
With ``--trace 1`` the same jobs run with every layer boundary wrapped
(tracing.py) and the result holds the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A job failed when
it did not complete (an exception, or the CLI's usage and I/O exit code 2)
or when its output is wrong; the run is incorrect when an output the
program presented as valid is wrong.  A job that ran but has no valid
result, because the CLI exited with its numerical-failure code 1, its MLE
is flagged as not converged or its estimate misses the model truth by more
than its error bar allows, is not a failed operation: the program ran and
reported it.  It counts against ``ops_ok_ratio``, the end-to-end
metric 1 - (failed + invalid) / attempted (1 - ops_failed_ratio), so those
results stay in the measured baseline.
Without the package sources under ``src/`` the script exits with code 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

import calibrate
import plan
import summary
from tracing import PER_LAYER, LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench_work")
SETUP_SAMPLES = 4  # fresh set-ups besides the worker's own
TIMEOUT_S = 170.0  # for the whole run, so it ends within three minutes

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sweep_s", "s"),
    ("records_s", "s"),
    ("reconstruct_s", "s"),
    ("qpd_s", "s"),
    ("limits_s", "s"),
    ("ops_ok_ratio", "1"),
    ("zeta2_rec_err_sigma", "1"),
    ("mle_zeta2_err_sigma", "1"),
)
JOB_METRICS = {
    "sweep": "sweep_s",
    "records": "records_s",
    "reconstruct": "reconstruct_s",
    "qpd": "qpd_s",
    "limits": "limits_s",
}
MAIN_LAYER = {"sweep": "dynamics", "tomography": "tomography", "figures": "squeezing"}


class WorkerError(RuntimeError):
    pass


def start_worker(arguments: list[str], deadline: float) -> tuple[subprocess.Popen, float]:
    """Start worker.py; return it and the seconds until it reported READY.

    The worker is killed if it is still running at ``deadline``
    (``time.monotonic()`` seconds).
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT, *arguments],
        stdout=subprocess.PIPE,
        text=True,
    )
    proc.watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    proc.watchdog.start()
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "READY":
        finish_worker(proc, relay=False)
        raise WorkerError(f"worker did not start: {line.strip() or 'no output'}")
    return proc, ready


def finish_worker(proc: subprocess.Popen, relay: bool) -> None:
    """Relay or drain the worker's output, wait for it and check its exit code."""
    try:
        for line in proc.stdout:
            if relay:
                sys.stdout.write(line)
        code = proc.wait()
    finally:
        proc.watchdog.cancel()
        proc.kill()
        proc.wait()
    if code != 0:
        raise WorkerError(f"worker exited with code {code}")


def git_commit(root: str) -> str:
    """Commit of the checkout from ``.git`` files, or 'unknown' outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "not installed"


def failures(jobs) -> int:
    """Jobs that did not complete or whose output is wrong."""
    return sum(bool(j["failed"] or j["wrong"]) for j in jobs)


def not_ok(jobs) -> int:
    """Failed jobs plus completed jobs whose result is not a valid one."""
    return sum(bool(j["failed"] or j["wrong"] or j["invalid"]) for j in jobs)


def sweep_z(jobs) -> list[float]:
    """(zeta2_reconstructed - zeta2_true) / zeta2_error at every sweep point."""
    return [v for j in jobs if j["kind"] == "sweep" for v in j["values"].get("z", ())]


def mle_e(jobs) -> list[float]:
    """(2 v_min(MLE) - 2 v_min(truth)) / sigma of every reconstruction."""
    return [j["values"]["e"] for j in jobs if "e" in j["values"]]


def job_times(results: dict, kind: str) -> list[float]:
    """Wall times of the jobs of one kind, each scaled to the reference speed."""
    scales = calibrate.job_scales(results["kernel_s"])
    return [j["seconds"] * scale for j, scale in zip(results["jobs"], scales) if j["kind"] == kind]


def end_to_end(results: dict, setup: list[float]) -> dict:
    """End-to-end metric values, with job times scaled to the reference machine speed.

    Set-up time stays unscaled: importing the package is bound by loading
    files and libraries as much as by the processor, and does not follow the
    calibration kernel.
    """
    jobs = results["jobs"]
    values = {"setup_s": statistics.median(setup), "peak_rss_mb": results["peak_rss_mb"]}
    for kind, name in JOB_METRICS.items():
        times = job_times(results, kind)
        values[name] = statistics.median(times) if times else None
    values["ops_ok_ratio"] = 1.0 - not_ok(jobs) / len(jobs)
    z, e = sweep_z(jobs), mle_e(jobs)
    values["zeta2_rec_err_sigma"] = summary.rms(z) if z else None
    values["mle_zeta2_err_sigma"] = summary.rms(e) if e else None
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def print_environment(args, results: dict) -> None:
    jobs = results["jobs"]
    inputs = hashlib.sha256("".join(j["config_sha256"] for j in jobs).encode()).hexdigest()
    print("# environment")
    print(f"nproc: {os.cpu_count()} (usable {len(os.sched_getaffinity(0))})")
    print(f"python: {platform.python_version()}  numpy: {version('numpy')}  scipy: {version('scipy')}")
    threads = {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")}
    print(f"blas threads: {results['blas_threads']}  env: {threads or 'unset'}")
    print(f"git commit: {git_commit(ROOT)}")
    print(f"workload: {args.workload}  seed: {args.seed}  seconds: {args.seconds}  trace: {args.trace}")
    print(f"rounds: {results['rounds']}  jobs: {len(jobs)}  inputs sha256: {inputs}")


def print_end_to_end(metrics: dict, results: dict, setup: list[float]) -> None:
    jobs = results["jobs"]
    scale = statistics.median(calibrate.job_scales(results["kernel_s"]))
    print(f"# end-to-end metrics (job times scaled by a median {scale:.4f} to the reference speed of calibrate.py)")
    for name, unit in END_TO_END:
        value = metrics[name]["value"]
        shown = "n/a" if value is None else f"{value:.6g}"
        note = ""
        kind = next((k for k, m in JOB_METRICS.items() if m == name), None)
        if kind is not None:
            times = job_times(results, kind)
            tail = summary.tail_percentile(times)
            note = f"median of n={len(times)}; " + (
                f"p{tail[0]:.0f} {tail[1]:.6g} s" if tail else "no percentile has 10 samples above it"
            )
        elif name == "setup_s":
            note = "median of " + ", ".join(f"{s:.4f}" for s in setup)
        elif name == "ops_ok_ratio":
            bad, failed = not_ok(jobs), failures(jobs)
            note = (f"{bad} of {len(jobs)} jobs not ok (ops_failed_ratio {bad / len(jobs):.4f}): "
                    f"{failed} failed, {bad - failed} ran without a valid result")
        elif name == "zeta2_rec_err_sigma":
            z = [abs(v) for v in sweep_z(jobs)]
            note = f"rms over {len(z)} sweep points; max {max(z, default=float('nan')):.3f}"
        elif name == "mle_zeta2_err_sigma":
            e = [abs(v) for v in mle_e(jobs)]
            warned = sum(j["warnings"] for j in jobs if j["kind"] == "reconstruct")
            note = (f"rms over {len(e)} reconstructions; max {max(e, default=float('nan')):.3f}; "
                    f"{warned} MLE RuntimeWarnings captured")
        print(f"{name:<22} {shown:>12} {unit:<6} {note}")


def print_per_layer(workload: str, results: dict) -> None:
    print("# per-layer metrics (per round unless the unit says otherwise)")
    for name, unit in PER_LAYER:
        value = results["per_layer"][name]["value"]
        print(f"{name:<42} {'absent' if value is None else f'{value:.6g}':>12} {unit}")
    if results["absent"]:
        print(f"absent wrap points or counters: {', '.join(results['absent'])}")
    total, main_total = results["layer_seconds"].get("cli"), results["main_layer_seconds"].get("cli")
    print("# share of job time under each layer: all jobs / the workload's main jobs")
    for layer in LAYERS[1:]:
        shares = [
            results[key].get(layer, 0.0) / whole if whole else float("nan")
            for key, whole in (("layer_seconds", total), ("main_layer_seconds", main_total))
        ]
        mark = "  <- main layer" if layer == MAIN_LAYER[workload] else ""
        print(f"{layer:<14} {shares[0]:.3f} / {shares[1]:.3f}{mark}")


def measure(args, work: str) -> int:
    deadline = time.monotonic() + TIMEOUT_S
    plan.write_configs(plan.make_round(args.workload, args.seed, 0), os.path.join(work, "round0"))
    setup = []
    for sample in range(SETUP_SAMPLES + 1):
        proc, ready = start_worker(["--workdir", work, "--setup-only"], deadline)
        finish_worker(proc, relay=False)
        if sample:  # the first set-up warms the file and bytecode caches
            setup.append(ready)
    results_path = os.path.join(work, "results.json")
    proc, ready = start_worker([
        "--workdir", work, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--results", results_path,
    ], deadline)
    setup.append(ready)
    finish_worker(proc, relay=True)
    with open(results_path, encoding="utf-8") as fh:
        results = json.load(fh)
    print_environment(args, results)
    if args.trace:
        print_per_layer(args.workload, results)
        metrics = results["per_layer"]
    else:
        metrics = end_to_end(results, setup)
        print_end_to_end(metrics, results, setup)
    jobs = results["jobs"]
    print(json.dumps({
        "correct": not any(j["wrong"] for j in jobs),
        "attempted": len(jobs),
        "failed": failures(jobs),
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=plan.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "spintomo", "__init__.py")):
        print(f"error: no spintomo sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    work = os.path.join(WORKDIR, f"run-{os.getpid()}")
    os.makedirs(work)
    try:
        return measure(args, work)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORKDIR)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
