import plan


def test_same_seed_gives_identical_configs_and_durations(tmp_path):
    for workload in plan.WORKLOADS:
        for index in (0, 3):
            first = plan.make_round(workload, 7, index)
            again = plan.make_round(workload, 7, index)
            assert [j.config_text() for j in first] == [j.config_text() for j in again]
            assert [(j.t_r, j.durations) for j in first] == [(j.t_r, j.durations) for j in again]
            a, b = tmp_path / f"{workload}{index}a", tmp_path / f"{workload}{index}b"
            plan.write_configs(first, str(a))
            plan.write_configs(again, str(b))
            names = sorted(p.name for p in a.iterdir())
            assert names and names == sorted(p.name for p in b.iterdir())
            assert all((a / n).read_bytes() == (b / n).read_bytes() for n in names)


def test_seed_and_round_change_the_inputs():
    base = [j.config_text() for j in plan.make_round("sweep", 7, 0)]
    assert base != [j.config_text() for j in plan.make_round("sweep", 8, 0)]
    assert base != [j.config_text() for j in plan.make_round("sweep", 7, 1)]


def test_sweep_durations_are_sorted_and_span_the_window():
    jobs = [j for j in plan.make_round("sweep", 3, 0) if j.kind == "sweep"]
    assert jobs[0].durations == jobs[2].durations == plan.DEFAULT_GRID
    durations = jobs[1].durations
    assert len(durations) == 61 and durations[0] == 0.0 and durations[-1] == 6.0
    assert list(durations) == sorted(set(durations))


def test_tomography_keeps_the_optimum_and_a_late_point():
    for seed in range(20):
        times = sorted(
            j.t_r for index in (0, 1) for j in plan.make_round("tomography", seed, index)
            if j.kind == "reconstruct"
        )
        assert len(times) == 8 and times[0] == 0.0 and times[-1] > 2.4
        assert times[2:6] == [plan.OPTIMUM_MS] * 4  # the median point


def test_every_round_runs_every_job_kind():
    for workload in plan.WORKLOADS:
        kinds = {j.kind for j in plan.make_round(workload, 1, 0)}
        assert kinds == {"limits", "sweep", "records", "reconstruct", "qpd"}
