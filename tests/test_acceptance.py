"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import numpy as np
import pytest

from spintomo import (
    ExperimentConfig,
    coherent_spin_state,
    compensated_hamiltonian,
    correct_covariance,
    lindblad_trajectory,
    mle_reconstruct,
    run_sweep,
    simulate_records,
    spin_operators,
    squeezing_report,
    tact_hamiltonian,
)
from spintomo.cli import main as cli_main
from conftest import (
    covariance,
    displaced,
    evolve_unitary,
    mle_likelihood_trace,
    quadrature_cov,
    secular_compensated_matrix,
    variances_from_rho,
)

HALF_STEPS = [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]


def _report(number: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {status} - {label} ({detail})")
    assert ok, f"criterion {number} failed: {label}: {detail}"


def test_criterion_1_countertwisting_limits(tmp_path):
    out = tmp_path / "limits.csv"
    start = time.monotonic()
    code = cli_main(["limits", "4", "--out", str(out)])
    elapsed = time.monotonic() - start
    rows = {}
    for line in out.read_text().splitlines():
        if line.startswith("#") or line.startswith("f,"):
            continue
        parts = [float(x) for x in line.split(",")]
        rows[parts[0]] = parts[1:]
    chi2, _, zeta2, _, xi2, _ = rows[4.0]
    ok = (
        code == 0
        and abs(chi2 - 0.163) <= 0.005
        and abs(zeta2 - 0.247) <= 0.005
        and abs(xi2 - 0.327) <= 0.005
        and elapsed < 5.0
    )
    _report(
        1,
        "limits 4 reproduces chi2/zeta2/xi2 = 0.163/0.247/0.327 within 0.005",
        ok,
        f"got {chi2:.4f}/{zeta2:.4f}/{xi2:.4f} in {elapsed:.2f} s",
    )


def test_criterion_2_compensation_identity():
    worst = 0.0
    for f in HALF_STEPS:
        ops = spin_operators(f)
        beta = 0.41
        h = compensated_hamiltonian(ops, beta)
        average = secular_compensated_matrix(ops, beta)
        offset = beta * f * (f + 1.0)
        twisting = (beta / 2.0) * (ops.fz @ ops.fz - ops.fy @ ops.fy)
        resid = average - offset * np.eye(ops.dimension) - twisting
        worst = max(worst, float(np.abs(resid).max()), float(np.abs(h - average).max()))
    ok = worst <= 1e-12
    _report(
        2,
        "tuned light shift + quadratic Zeeman average to (beta/2)(Fz^2 - Fy^2)",
        ok,
        f"max operator residual {worst:.2e} over F = 1..4, numerical average vs closed form",
    )


def test_criterion_3_coherent_state_baseline():
    ops = spin_operators(4)
    css = coherent_spin_state(4, np.pi / 2.0, 0.0)
    var_y = covariance(css, ops.fy, ops.fy)
    var_z = covariance(css, ops.fz, ops.fz)
    report = squeezing_report(css)
    ok = (
        abs(var_y - 2.0) <= 1e-12
        and abs(var_z - 2.0) <= 1e-12
        and abs(report.chi2 - 1.0) <= 1e-10
        and abs(report.zeta2 - 1.0) <= 1e-10
        and abs(report.xi2 - 1.0) <= 1e-10
    )
    _report(
        3,
        "coherent-state variances equal F/2 and all squeezing parameters equal 1",
        ok,
        f"vars ({var_y:.15f}, {var_z:.15f}), params "
        f"({report.chi2:.12f}, {report.zeta2:.12f}, {report.xi2:.12f})",
    )


def test_criterion_4_output_variance_round_trip():
    truth = quadrature_cov(1.1, 0.25, 0.1)
    kappa2, n_shots, n_runs = 0.8, 10_000, 20
    gain = 2.0 / kappa2
    sigma_x = np.sqrt(2.0 / (n_shots - 1)) * (0.5 + truth[0, 0] / gain + kappa2**2 / 24.0) * gain
    sigma_p = np.sqrt(2.0 / (n_shots - 1)) * (0.5 + truth[1, 1] / gain + kappa2**2 / 24.0) * gain
    hits, slowest = 0, 0.0
    for seed in range(n_runs):
        start = time.monotonic()
        rec = displaced(simulate_records(truth, kappa2, n_shots, seed=300 + seed), 0.3, -0.2)
        cc = correct_covariance(rec)
        slowest = max(slowest, time.monotonic() - start)
        var_x, var_p = truth[0, 0], truth[1, 1]
        if abs(cc.var_x - var_x) <= 3 * sigma_x and abs(cc.var_p - var_p) <= 3 * sigma_p:
            hits += 1
    ok = hits / n_runs >= 0.95 and slowest < 10.0
    _report(
        4,
        "corrected variances within 3 sigma of ground truth in >= 95% of runs",
        ok,
        f"{hits}/{n_runs} runs agree, slowest run {slowest:.3f} s",
    )


def test_criterion_5_mle_round_trip():
    vacuum = quadrature_cov(0.5, 0.5)
    rec = simulate_records(vacuum, 0.8, 10_000, seed=42)
    start = time.monotonic()
    odm = mle_reconstruct(rec)
    elapsed = time.monotonic() - start
    trace = mle_likelihood_trace(rec)
    gains = np.diff(trace)
    monotone = gains.min() >= -1e-9 * abs(trace[0])
    ok = odm.populations[0] > 0.95 and monotone and elapsed < 60.0
    _report(
        5,
        "vacuum records reconstruct <0|rho|0> > 0.95 with monotone likelihood",
        ok,
        f"p0 = {odm.populations[0]:.4f}, min gain {gains.min():.2e}, "
        f"{odm.n_iterations} iterations in {elapsed:.1f} s",
    )


def test_criterion_6_physics_invariant_suite():
    violations = []

    # operator algebra
    for f in [0.5] + HALF_STEPS:
        ops = spin_operators(f)
        fval = ops.f.f_value
        comm = np.abs(ops.fy @ ops.fz - ops.fz @ ops.fy - 1j * ops.fx).max()
        casimir = np.abs(
            ops.fx @ ops.fx + ops.fy @ ops.fy + ops.fz @ ops.fz
            - fval * (fval + 1.0) * np.eye(ops.dimension)
        ).max()
        if comm > 1e-12:
            violations.append(f"commutator F={f}: {comm:.2e}")
        if casimir > 1e-12:
            violations.append(f"casimir F={f}: {casimir:.2e}")

    # trace preservation and positivity over the full drive window
    ops = spin_operators(4)
    css = coherent_spin_state(4, np.pi / 2.0, 0.0)
    rates = (1.0 / 80.0 + 0.01, 2.0 * (1.0 / 20.0 - 1.0 / 80.0))  # t1 = 80, t2 = 20 ms
    h = compensated_hamiltonian(ops, 0.24, residual=0.15)
    evolved = lindblad_trajectory(css, h, *rates, [6.0])[0]
    trace_dev = abs(np.trace(evolved.rho).real - 1.0)
    min_eig = float(np.linalg.eigvalsh(evolved.rho).min())
    if trace_dev > 1e-8:
        violations.append(f"trace drift {trace_dev:.2e}")
    if min_eig < -1e-7:
        violations.append(f"negative eigenvalue {min_eig:.2e}")

    # Heisenberg floor on evolved states
    h_tact = tact_hamiltonian(ops, 1.0)
    states = [evolve_unitary(css, h_tact, tau) for tau in (0.05, 0.1375, 0.25)]
    states += lindblad_trajectory(css, h, *rates, [0.8, 3.0])
    for state in states:
        report = squeezing_report(state)
        floor = report.mean_spin_length**2 / 4.0
        if np.linalg.det(report.cov) < floor - 1e-9:
            violations.append("uncertainty floor broken on an evolved state")

    # Heisenberg floor on reconstructed states, both routes
    squeezed = quadrature_cov(1.1, 0.25, 0.1)
    for seed in range(5):
        rec = simulate_records(squeezed, 0.8, 20_000, seed=700 + seed)
        cc = correct_covariance(rec)
        det = cc.var_x * cc.var_p - cc.cov_xp**2
        if det < 0.25 - 5 * cc.statistical_error:
            violations.append(f"corrected covariance det {det:.4f} under floor")
    odm = mle_reconstruct(simulate_records(squeezed, 0.8, 10_000, seed=22))
    _, cov = variances_from_rho(odm)
    det_mle = cov[0, 0] * cov[1, 1] - cov[0, 1] ** 2
    if det_mle < 0.25 - 1e-9:
        violations.append(f"MLE moments det {det_mle:.6f} under floor")

    ok = not violations
    _report(
        6,
        "physics invariants hold across the property corpus",
        ok,
        "zero violations" if ok else "; ".join(violations),
    )


def test_criterion_7_experiment_band():
    sweep = run_sweep(ExperimentConfig())
    zetas = np.array([row.zeta2_true for row in sweep])
    times = np.array([row.t_r for row in sweep])
    i = int(np.argmin(zetas))
    in_band = 0.35 <= zetas[i] <= 0.6 and 0.5 < times[i] < 4.0

    control = ExperimentConfig(
        t1=np.inf,
        t2=np.inf,
        extra_scatter_rate=0.0,
        pump_fraction=1.0,
        compensation_residual=0.0,
        raman_durations=tuple(np.round(np.arange(0.0, 2.0001, 0.05), 10)),
    )
    control_min = min(row.zeta2_true for row in run_sweep(control))
    control_ok = abs(control_min - 0.247) <= 0.02

    ok = in_band and control_ok
    _report(
        7,
        "decay-limited sweep minimum in [0.35, 0.6]; zero-decay control hits the "
        "countertwisting bound",
        ok,
        f"min zeta2 {zetas[i]:.3f} at t_r = {times[i]:.2f} ms; control min {control_min:.4f}",
    )


def test_criterion_8_estimator_consistency():
    truth = quadrature_cov(1.1, 0.25, 0.1)
    shot_counts = [1_000, 10_000, 100_000, 1_000_000]
    rms = []
    for n in shot_counts:
        errs = []
        for seed in range(24):
            cc = correct_covariance(simulate_records(truth, 0.8, n, seed=1000 + seed))
            errs.append((cc.var_x - truth[0, 0]) ** 2 + (cc.var_p - truth[1, 1]) ** 2)
        rms.append(float(np.sqrt(np.mean(errs))))
    slope = float(np.polyfit(np.log10(shot_counts), np.log10(rms), 1)[0])
    ok = abs(slope + 0.5) <= 0.1
    _report(
        8,
        "variance-estimate error scales as n_shots^(-1/2)",
        ok,
        f"log-log slope {slope:.3f} over 10^3..10^6 shots",
    )
