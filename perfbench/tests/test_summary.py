import pytest

import calibrate
import summary


def test_tail_percentile_has_ten_samples_above_it():
    samples = list(range(100, 0, -1))
    percentile, value = summary.tail_percentile(samples)
    assert percentile == 90.0
    assert value == 90
    assert sum(s > value for s in samples) == 10


def test_tail_percentile_needs_twenty_samples():
    assert summary.tail_percentile(range(19)) is None
    percentile, value = summary.tail_percentile(range(20))
    assert (percentile, value) == (50.0, 9)


def test_tail_percentile_between_ladder_steps():
    percentile, value = summary.tail_percentile([float(i) for i in range(37)])
    assert percentile == pytest.approx(100 * 27 / 37)
    assert value == 26.0


def test_rms():
    assert summary.rms([3.0, -4.0]) == pytest.approx((12.5) ** 0.5)


def test_job_scales_follow_the_kernel_times_around_each_job():
    r = calibrate.REFERENCE_S
    kernel = [r, r, r, 2 * r, 2 * r, 2 * r, 2 * r, 2 * r]  # before job 0, then after jobs 0..6
    scales = calibrate.job_scales(kernel)
    assert len(scales) == 7
    assert scales[0] == pytest.approx(1.0)  # median of r, r, r, 2r
    assert scales[2] == pytest.approx(1 / 1.5)  # median of r, r, r, 2r, 2r, 2r
    assert scales[3] == pytest.approx(0.5)  # median of r, r, 2r, 2r, 2r, 2r
    assert scales[6] == pytest.approx(0.5)
