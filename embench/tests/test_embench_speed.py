"""The host-speed scale is the median reference time over nominal."""

import pytest

import speed


def test_scale_is_the_median_reference_time_over_nominal(monkeypatch):
    times = iter([0.05, 0.025, 0.03, 1.0, 0.02])
    monkeypatch.setattr(speed, "reference_loop", lambda: next(times))
    host = speed.HostSpeed()
    host.sample(2)
    host.sample(3)
    assert host.samples == [0.05, 0.025, 0.03, 1.0, 0.02]
    # One stalled sample (1.0 s) does not move the median.
    assert host.scale() == pytest.approx(0.03 / speed.REFERENCE_S)


def test_reference_loop_times_the_loop():
    assert 0.0 < speed.reference_loop() < 5.0
