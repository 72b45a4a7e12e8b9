"""Open-loop timing (latency from due time, generator lag) and the closed
loop's window of requests in flight."""

import math

import numpy as np
import pytest

from loadgen import LEAD_S, poisson_offsets, run_closed_loop, run_open_loop


class Clock:
    def __init__(self):
        self.now = 100.0
        self.slept = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.slept += seconds
        self.now += seconds


class Refused(Exception):
    pass


def test_latency_counts_from_due_time_and_lag_is_reported():
    clock = Clock()
    offsets = [0.0, 0.010, 0.020, 0.030]

    def submit(k):
        if k == 1:
            clock.now += 0.025       # the generator stalls 25 ms
        if k == 3:
            raise Refused()
        return k

    sent = run_open_loop(submit, offsets, Refused, clock=clock,
                         sleep=clock.sleep)
    start = 100.0 + LEAD_S
    assert sent.due == pytest.approx([start + o for o in offsets])
    # Request 2 was due 10 ms after request 1 but sent 15 ms late.
    assert sent.lags() == pytest.approx([0.0, 0.0, 0.015, 0.005])
    assert isinstance(sent.results[3], Refused)
    done = [start + 0.004, start + 0.036, start + 0.041, None]
    latencies = sent.latencies(done)
    # Request 2 completed 1 ms after it was *sent* but 21 ms after due.
    assert latencies[:3] == pytest.approx([0.004, 0.026, 0.021])
    assert latencies[3] == math.inf


def test_open_loop_does_not_wait_for_completions():
    clock = Clock()
    offsets = [0.0, 0.001, 0.002]
    sent = run_open_loop(lambda k: k, offsets, Refused, clock=clock,
                         sleep=clock.sleep)
    assert sent.sent == pytest.approx(sent.due)
    assert clock.slept == pytest.approx(LEAD_S + 0.002)


def test_poisson_offsets_are_seeded_and_at_the_rate():
    a = poisson_offsets(np.random.default_rng(3), 1000.0, 20000)
    b = poisson_offsets(np.random.default_rng(3), 1000.0, 20000)
    assert np.array_equal(a, b)
    assert np.all(np.diff(a) >= 0)
    assert len(a) / a[-1] == pytest.approx(1000.0, rel=0.03)


def test_closed_loop_keeps_the_window_in_flight():
    in_flight = set()
    peak = []
    order = []

    def submit(k):
        if k == 4:
            raise Refused()
        in_flight.add(k)
        peak.append(len(in_flight))
        return k

    def wait(k):
        order.append(k)
        in_flight.discard(k)

    clock = Clock()
    sent = run_closed_loop(submit, 10, 3, wait, Refused, clock=clock)
    # The oldest request is awaited before each new one is sent, and a
    # refusal is recorded, never awaited.
    assert max(peak) == 3
    assert order == [0, 1, 2, 3, 5, 6, 7, 8, 9]
    assert isinstance(sent.results[4], Refused)
    assert sent.results[:4] == [0, 1, 2, 3] and not in_flight
    assert (sent.start, sent.end) == (100.0, 100.0)
