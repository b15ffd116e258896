"""One workload run in a fresh interpreter; started by run.py, not by hand.

It imports spintomo from the checkout's ``src`` directory, parses the
generated configs of round 0 and prints ``READY``: run.py takes the time up
to that line as one set-up sample.  With ``--setup-only`` it stops there.
Otherwise it runs whole rounds of jobs through ``spintomo.cli.main`` until
``--seconds`` have passed, checks every output, and writes the job records
as JSON to ``--results``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import glob
import io
import json
import os
import resource
import sys
import time
import traceback
import warnings

import plan
from tracing import Tracer, layer_times, per_layer_metrics

READY = "READY"


def setup(root: str, config_dir: str):
    """Import the package under test and parse the first round's configs."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import spintomo
    import spintomo.cli

    if not os.path.abspath(spintomo.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"spintomo was imported from {spintomo.__file__}, not from {src}")
    for path in sorted(glob.glob(os.path.join(config_dir, "*.cfg"))):
        spintomo.ExperimentConfig.from_file(path)
    return spintomo.cli


def run_job(cli, job: plan.Job, directory: str, round_index: int, tracer=None) -> dict:
    """Run one job through ``cli.main``, time it and check its output."""
    import checks  # after set-up, so the oracle's imports are not timed as set-up

    if tracer is not None:
        tracer.job = f"{round_index}/{job.label}"
    argv = job.argv(directory)
    gc.collect()
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a crash is one failed job; the run goes on
            code = None
            crash = traceback.format_exc(limit=3).strip().splitlines()[-1]
        seconds = time.perf_counter() - start
    message = stderr.getvalue().strip()
    if code == 0:
        verdict = checks.check(job, directory)
    elif code == 1:
        # the CLI's documented numerical-failure exit: the job ran and the
        # program reported that it has no valid result for this input
        verdict = checks.Verdict(invalid=[f"exit code 1: {message}"])
    else:
        reason = f"exit code {code}" if code is not None else f"raised {crash}"
        verdict = checks.Verdict(failed=[f"{reason}: {message}" if message else reason])
    return {
        "round": round_index,
        "kind": job.kind,
        "label": job.label,
        "t_r": job.t_r,
        "config_sha256": job.config_sha256(),
        "seconds": seconds,
        "exit": code,
        "warnings": sum(issubclass(w.category, RuntimeWarning) for w in caught),
        "wrong": verdict.wrong,
        "failed": verdict.failed,
        "invalid": verdict.invalid,
        "values": verdict.values,
    }


def describe(record: dict) -> str:
    status = "ok"
    if record["wrong"]:
        status = "WRONG: " + "; ".join(record["wrong"])
    elif record["failed"]:
        status = "failed: " + "; ".join(record["failed"])
    elif record["invalid"]:
        status = "invalid: " + "; ".join(record["invalid"])
    t_r = "" if record["t_r"] is None else f" t_r={record['t_r']:g}"
    warned = f" runtime_warnings={record['warnings']}" if record["warnings"] else ""
    return (
        f"job {record['round']}/{record['label']} {record['kind']}{t_r} "
        f"cfg={record['config_sha256'][:12]} {record['seconds']:.4f} s{warned} {status}"
    )


def blas_threads() -> str:
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return str(getattr(lib, symbol)())
    return "unknown"


def run(args, cli) -> dict:
    import calibrate

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    records = []
    kernel = [calibrate.kernel_seconds()]
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < args.seconds:
        directory = os.path.join(args.workdir, f"round{rounds}")
        jobs = plan.make_round(args.workload, args.seed, rounds)
        plan.write_configs(jobs, directory)
        for job in jobs:
            records.append(run_job(cli, job, directory, rounds, tracer))
            print(describe(records[-1]), flush=True)
            kernel.append(calibrate.kernel_seconds())
        rounds += 1
    result = {
        "rounds": rounds,
        "jobs": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas_threads": blas_threads(),
        "kernel_s": kernel,
    }
    if tracer is not None:
        tracer.uninstall()
        result["per_layer"] = per_layer_metrics(
            tracer, rounds, tracer.span_cost(), calibrate.time_scale(kernel)
        )
        main_kinds = plan.MAIN_KINDS[args.workload]
        main_jobs = {f"{r['round']}/{r['label']}" for r in records if r["kind"] in main_kinds}
        result["layer_seconds"] = layer_times(tracer.spans)
        result["main_layer_seconds"] = layer_times(tracer.spans, main_jobs)
        result["absent"] = tracer.absent
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload", choices=plan.WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results")
    args = parser.parse_args(argv)
    cli = setup(args.root, os.path.join(args.workdir, "round0"))
    print(READY, flush=True)
    if args.setup_only:
        return 0
    result = run(args, cli)
    with open(args.results, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
