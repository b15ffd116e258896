import random

import calibrate
import plan
import run
import worker


def test_failing_job_counts_without_stopping_the_run(tmp_path):
    import spintomo.cli

    physics = dict(plan.draw_physics(random.Random(1)), t1=10.0, t2=50.0)  # t2 > t1 is refused
    jobs = [plan.Job("records", "bad", physics, 0.8), plan.Job("limits", "limits")]
    plan.write_configs(jobs, str(tmp_path))
    records = [worker.run_job(spintomo.cli, job, str(tmp_path), 0) for job in jobs]
    assert records[0]["exit"] == 2
    assert records[0]["failed"][0].startswith("exit code 2: ") and records[0]["wrong"] == []
    assert records[1]["exit"] == 0 and records[1]["failed"] == [] and records[1]["invalid"] == []
    assert run.failures(records) == 1
    results = {"jobs": records, "peak_rss_mb": 1.0, "kernel_s": [calibrate.REFERENCE_S] * 3}
    metrics = run.end_to_end(results, setup=[1.0])
    assert metrics["ops_ok_ratio"]["value"] == 0.5
    assert metrics["limits_s"]["value"] == records[1]["seconds"]
    assert metrics["sweep_s"]["value"] is None


def test_invalid_result_counts_against_ops_ok_but_is_not_a_failed_operation():
    def record(kind, invalid):
        return {"kind": kind, "seconds": 1.0, "wrong": [], "failed": [], "invalid": invalid, "values": {}}

    jobs = [record("reconstruct", ["MLE not converged at t_r=0.8 ms"]), record("limits", [])]
    results = {"jobs": jobs, "peak_rss_mb": 1.0, "kernel_s": [calibrate.REFERENCE_S] * 3}
    assert run.failures(jobs) == 0
    assert run.end_to_end(results, setup=[1.0])["ops_ok_ratio"]["value"] == 0.5
