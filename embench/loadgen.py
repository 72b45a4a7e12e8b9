"""Single-thread load generators: open-loop Poisson and closed loop.

In the open loop, requests are sent on a fixed schedule, whether or not
earlier ones have completed, so a stalled service builds a queue instead
of slowing the load.  Latency is timed from each request's *due* time,
which charges a stall to every request scheduled behind it; how late the
generator itself sent each request is reported separately as its lag.

The closed loop keeps a fixed number of requests in flight and sends the
next one only when the oldest completes, so it offers as much load as the
service can take: its completions per second are the service's capacity.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

__all__ = ["poisson_offsets", "OpenLoop", "run_open_loop", "ClosedLoop",
           "run_closed_loop"]

#: Delay between reading the start time and the first due time, so the
#: first request is not late by construction.
LEAD_S = 0.002


def poisson_offsets(rng: np.random.Generator, rate: float,
                    count: int) -> np.ndarray:
    """Due offsets (seconds from phase start) of ``count`` Poisson
    arrivals at ``rate`` requests per second."""
    return np.cumsum(rng.exponential(1.0 / rate, size=count))


@dataclass
class OpenLoop:
    """One phase as sent: due and send times, and what ``submit`` gave
    back per request (a ticket, or the exception it raised)."""

    due: list
    sent: list
    results: list

    def lags(self) -> list:
        return [sent - due for due, sent in zip(self.due, self.sent)]

    def latencies(self, completed_at) -> list:
        """Completion minus due time per request; ``inf`` where
        ``completed_at`` is None (failed or refused)."""
        return [math.inf if done is None else done - due
                for due, done in zip(self.due, completed_at)]


def run_open_loop(submit, offsets, errors, clock=time.monotonic,
                  sleep=time.sleep) -> OpenLoop:
    """Call ``submit(k)`` at ``start + offsets[k]`` for every ``k``.

    ``errors`` are the exception types that mean a refusal (recorded as
    the request's result, not raised).
    """
    start = clock() + LEAD_S
    due, sent, results = [], [], []
    for k, offset in enumerate(offsets):
        target = start + float(offset)
        now = clock()
        if target > now:
            sleep(target - now)
            now = clock()
        due.append(target)
        sent.append(now)
        try:
            results.append(submit(k))
        except errors as exc:
            results.append(exc)
    return OpenLoop(due, sent, results)


@dataclass
class ClosedLoop:
    """One closed-loop phase: what ``submit`` gave back per request, and
    the clock when the first was sent and when the last completed."""

    results: list
    start: float
    end: float


def run_closed_loop(submit, count: int, concurrency: int, wait, errors,
                    clock=time.monotonic) -> ClosedLoop:
    """Send ``count`` requests keeping ``concurrency`` in flight.

    ``submit(k)`` sends request ``k``; ``wait(result)`` blocks until that
    request has completed.  The generator waits on the oldest request in
    flight, which keeps the window full for a service that answers in
    order.  ``errors`` are the exception types that mean a refusal.
    """
    results = []

    def settle(result):
        if not isinstance(result, Exception):
            wait(result)

    start = clock()
    for k in range(count):
        if k >= concurrency:
            settle(results[k - concurrency])
        try:
            results.append(submit(k))
        except errors as exc:
            results.append(exc)
    for result in results[max(0, count - concurrency):]:
        settle(result)
    return ClosedLoop(results, start, clock())
