"""Checks of each job's output files against the oracle in :mod:`oracle`.

A check returns a :class:`Verdict`.  ``wrong`` lists outputs that are
wrong although the program presented them as valid: a malformed file, a
model-exact value that disagrees with the oracle, an unnormalized Husimi
grid.  Any such problem makes the run incorrect.  ``failed`` lists why a
job did not complete: an exception or the CLI's usage and I/O exit code 2.
``invalid`` lists why a job that ran has no valid result: the CLI's
numerical-failure exit code 1, an estimate further from the model truth
than its own error bar allows, or an MLE flagged as not converged.  Invalid
results are the statistical and convergence behaviour the benchmark
measures, counted in ``ops_ok_ratio``; they are neither broken output nor
a job that did not run.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

import oracle
from plan import QPD_GRID, Job

SWEEP_Z_LIMIT = 5.0  # |zeta2_reconstructed - zeta2_true| / zeta2_error, any sweep point
MLE_SIGMA_LIMIT = 3.0  # |2 v_min(MLE) - 2 v_min(truth)| / zeta2_error
MODEL_TOL = 1e-6  # model-exact sweep columns against the oracle
HUSIMI_TOL = 1e-8


@dataclass
class Verdict:
    wrong: list[str] = field(default_factory=list)
    failed: list[str] = field(default_factory=list)
    invalid: list[str] = field(default_factory=list)
    values: dict = field(default_factory=dict)


def read_table(path: str) -> tuple[dict, list[str], np.ndarray]:
    """Header comments (``# key=value``), column names and the numeric rows."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    comments = {}
    i = 0
    while i < len(lines) and lines[i].startswith("#"):
        key, sep, value = lines[i].lstrip("# ").partition("=")
        if sep:
            comments[key.strip()] = value.strip()
        i += 1
    columns = lines[i].split(",")
    data = np.loadtxt(io.StringIO("\n".join(lines[i + 1 :])), delimiter=",", ndmin=2)
    return comments, columns, data


def check(job: Job, directory: str) -> Verdict:
    path = job.output(directory)
    try:
        return _CHECKS[job.kind](job, path)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return Verdict(wrong=[f"unreadable output {path}: {type(exc).__name__}: {exc}"])


def _check_limits(job: Job, path: str) -> Verdict:
    _, columns, data = read_table(path)
    verdict = Verdict()
    col = {name: k for k, name in enumerate(columns)}
    if list(data[:, col["f"]]) != [1.0, 2.0, 3.0, 4.0]:
        verdict.wrong.append(f"limits rows are f={list(data[:, col['f']])}, expected 1..4")
        return verdict
    row = data[-1]
    for name, expected in zip(("chi2_min", "zeta2_min", "xi2_min"), oracle.LIMITS_F4):
        if abs(row[col[name]] - expected) > oracle.LIMITS_TOL:
            verdict.wrong.append(f"F=4 {name}={row[col[name]]:.4f}, expected {expected}")
    return verdict


def _check_sweep(job: Job, path: str) -> Verdict:
    comments, columns, data = read_table(path)
    verdict = Verdict()
    durations = job.durations
    if "config_sha256" not in comments:
        verdict.wrong.append("sweep CSV lacks its config_sha256 header")
    if data.shape[0] != len(durations):
        verdict.wrong.append(f"{data.shape[0]} sweep rows for {len(durations)} durations")
        return verdict
    col = {name: data[:, k] for k, name in enumerate(columns)}
    if np.abs(col["t_r"] - np.array(durations)).max() > 1e-9:
        verdict.wrong.append("sweep t_r column differs from the configured durations")
    model = oracle.Model(job.physics)
    truth = [model.squeezing(rho) for rho in model.states(durations)]
    for name in truth[0]:
        err = max(abs(row[name] - got) for row, got in zip(truth, col[name]))
        if err > MODEL_TOL:
            verdict.wrong.append(f"sweep {name} off the exact model by {err:.3g}")
    if not (col["zeta2_error"] > 0).all():
        verdict.wrong.append("sweep reports a non-positive zeta2_error")
        return verdict
    z = (col["zeta2_reconstructed"] - col["zeta2_true"]) / col["zeta2_error"]
    verdict.values["z"] = z.tolist()
    worst = int(np.argmax(np.abs(z)))
    if abs(z[worst]) > SWEEP_Z_LIMIT:
        verdict.invalid.append(
            f"zeta2_reconstructed off by {z[worst]:.2f} sigma at t_r={durations[worst]:g} ms"
        )
    return verdict


def _check_records(job: Job, path: str) -> Verdict:
    comments, columns, data = read_table(path)
    verdict = Verdict()
    if columns != ["y_c", "y_s"]:
        verdict.wrong.append(f"record columns {columns}, expected y_c,y_s")
    expected = {"n_shots": job.physics["n_shots"], "kappa2": job.physics["kappa2"], "t_r_ms": job.t_r}
    for key, value in expected.items():
        if key not in comments or float(comments[key]) != float(value):
            verdict.wrong.append(f"record header {key}={comments.get(key)}, expected {value}")
    if "config_sha256" not in comments:
        verdict.wrong.append("record lacks its config_sha256 header")
    if data.shape != (job.physics["n_shots"], 2) or not np.isfinite(data).all():
        verdict.wrong.append(f"record holds {data.shape} values, expected {job.physics['n_shots']} finite pairs")
    return verdict


def _check_reconstruct(job: Job, path: str) -> Verdict:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    verdict = Verdict()
    mle = payload["mle"]
    dim = mle["dim"]
    rho = np.array(mle["rho_row_major_re_im"], dtype=float).reshape(dim, dim, 2)
    rho = rho[..., 0] + 1j * rho[..., 1]
    if abs(np.trace(rho) - 1) > 1e-6:
        verdict.wrong.append(f"MLE rho has trace {np.trace(rho):.8g}")
    if np.abs(rho - rho.conj().T).max() > 1e-8:
        verdict.wrong.append("MLE rho is not Hermitian")
    model = oracle.Model(job.physics)
    truth = model.canonical_zeta2(model.states([job.t_r])[0])
    sigma = oracle.zeta2_sigma(payload["corrected_covariance"], job.physics["kappa2"])
    e = (oracle.oscillator_zeta2(rho) - truth) / sigma
    verdict.values["e"] = e
    if not mle["converged"]:
        verdict.invalid.append(f"MLE not converged at t_r={job.t_r:g} ms")
    if not math.isfinite(e) or abs(e) > MLE_SIGMA_LIMIT:
        verdict.invalid.append(f"MLE 2*v_min off the model truth by {e:.2f} sigma at t_r={job.t_r:g} ms")
    return verdict


def _check_qpd(job: Job, path: str) -> Verdict:
    _, _, data = read_table(path)
    verdict = Verdict()
    thetas, phis = np.unique(data[:, 0]), np.unique(data[:, 1])
    n_theta, n_phi = (int(n) for n in QPD_GRID.split("x"))
    if data.shape[0] != n_theta * n_phi or len(thetas) != n_theta or len(phis) != n_phi:
        verdict.wrong.append(f"Husimi grid has {len(thetas)}x{len(phis)} nodes, expected {n_theta}x{n_phi}")
        return verdict
    q = data[:, 2]
    if q.min() < 0 or q.max() > 1:
        verdict.wrong.append(f"Husimi values leave [0, 1]: [{q.min():.3g}, {q.max():.3g}]")
    f = 4.0
    norm = (q * np.sin(data[:, 0])).sum() * (np.pi / n_theta) * (2 * np.pi / n_phi) * (2 * f + 1) / (4 * np.pi)
    if abs(norm - 1) > 1e-3:
        verdict.wrong.append(f"Husimi normalization {norm:.6f}, expected 1")
    rho = oracle.Model(job.physics).states([job.t_r])[0]
    for k in {int(np.argmax(q)), 0, len(q) // 3, 2 * len(q) // 3}:
        ref = oracle.husimi_value(rho, f, data[k, 0], data[k, 1])
        if abs(ref - q[k]) > HUSIMI_TOL:
            verdict.wrong.append(f"Husimi value {q[k]:.10f} at node {k}, oracle {ref:.10f}")
    return verdict


_CHECKS = {
    "limits": _check_limits,
    "sweep": _check_sweep,
    "records": _check_records,
    "reconstruct": _check_reconstruct,
    "qpd": _check_qpd,
}
