"""Tests of the benchmark's host-speed sampling.

    python3 -m pytest -q perfbench/test_hostspeed.py
"""

import signal
import statistics
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from hostspeed import CALIBRATE_REF_S, LOCAL_SAMPLES, HostSpeed  # noqa: E402


def busy(seconds):
    end = time.perf_counter() + seconds
    n = 0
    while time.perf_counter() < end:
        n += 1
    return n


def test_samples_fall_inside_the_timed_interval_and_are_subtracted():
    with HostSpeed(interval=0.005) as speed:
        start = speed.mark()
        busy(0.2)
        end = speed.mark()
    inside = speed.samples[start[2]:end[2]]
    assert len(inside) > 5
    wall = end[0] - start[0]
    own = HostSpeed.own(start, end)
    assert own == pytest.approx(wall - (end[1] - start[1]))
    assert 0 < own < wall - sum(inside)
    assert speed.scale(start[2], end[2]) == pytest.approx(
        statistics.fmean(speed.local[start[2]:end[2]]))


def test_local_scale_is_reference_over_median_of_neighbours():
    speed = HostSpeed()
    speed.samples = [1e-3, 2e-3, 9e-3, 2e-3, 1e-3, 4e-3]
    with speed:
        pass                    # exits before the first sample is due
    half = LOCAL_SAMPLES // 2
    assert len(speed.local) == 6
    for j, scale in enumerate(speed.local):
        window = speed.samples[max(0, j - half):j + half + 1]
        assert scale == pytest.approx(CALIBRATE_REF_S / statistics.median(window))
    # An interval with no sample inside takes the next sample's scale.
    assert speed.scale(2, 2) == speed.local[2]
    assert speed.scale(6, 6) == speed.local[5]


def test_timer_and_handler_are_restored():
    previous = signal.getsignal(signal.SIGALRM)
    with HostSpeed(interval=0.005) as speed:
        busy(0.02)
    samples = len(speed.samples)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    busy(0.02)
    assert len(speed.samples) == samples


def test_never_entered_it_is_an_unscaled_wall_clock():
    clock = HostSpeed()
    start = clock.mark()
    busy(0.01)
    end = clock.mark()
    assert clock.own(start, end) == end[0] - start[0]
    assert clock.scale(start[2], end[2]) == 1.0
