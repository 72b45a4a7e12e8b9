"""Deterministic load simulation for :class:`repro.serve.MatchService`.

Two halves:

* :func:`generate_workload` — a seeded workload generator producing a
  fixed arrival schedule over a pool of record pairs.  Patterns:
  ``"poisson"`` (exponential inter-arrivals at the offered rate, the
  classic open-loop model), ``"burst"`` (whole groups arriving at the
  same instant, stressing coalescing and backpressure), and
  ``"adversarial"`` (Poisson arrivals but pairs reordered into an
  alternating shortest/longest length mix, stressing the length
  bucketer with maximally heterogeneous batches).  Same seed, same
  schedule — byte for byte.
* :func:`run_simulation` — an open-loop driver that replays a workload
  against a service on *any* clock.  On a
  :class:`~repro.serve.clock.VirtualClock` the whole run is simulated:
  ``clock.run_for`` advances virtual time between arrivals, worker
  wake-ups fire deterministically, and a ten-minute soak completes in
  milliseconds of wall time with zero real sleeps.  On a
  :class:`~repro.serve.clock.SystemClock` the same driver becomes a
  real load run (``repro bench resilient`` drives it this way).

The resulting :class:`SimReport` carries exact latency samples (clock
seconds, submit to complete) plus the rejection/timeout/degradation
tallies, so tests can assert on precise counts rather than statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..utils import child_rng
from .clock import VirtualClock
from .service import MatchService, RequestTimeout, ServiceOverloaded

__all__ = ["Arrival", "Workload", "SimReport", "generate_workload",
           "run_simulation"]

PATTERNS = ("poisson", "burst", "adversarial")


@dataclass
class Arrival:
    """One scheduled request: offset seconds from workload start."""

    at: float
    entity_a: object
    entity_b: object


@dataclass
class Workload:
    """A fixed, seeded arrival schedule (sorted by time)."""

    arrivals: list[Arrival]
    pattern: str
    rate: float
    seed: int

    def __len__(self) -> int:
        return len(self.arrivals)

    @property
    def duration(self) -> float:
        """Offset of the last arrival (seconds)."""
        return self.arrivals[-1].at if self.arrivals else 0.0


def _pair_length(pair) -> int:
    total = 0
    for entity in pair:
        if hasattr(entity, "text_blob"):  # a repro.data.Record
            total += len(entity.text_blob())
        else:
            total += len(" ".join(str(v) for v in dict(entity).values()))
    return total


def _adversarial_order(pairs: list) -> list:
    """Alternate shortest / longest — worst case for length bucketing."""
    ranked = sorted(range(len(pairs)),
                    key=lambda i: (_pair_length(pairs[i]), i))
    order = []
    lo, hi = 0, len(ranked) - 1
    while lo <= hi:
        order.append(ranked[lo])
        if lo != hi:
            order.append(ranked[hi])
        lo += 1
        hi -= 1
    return [pairs[i] for i in order]


def generate_workload(pairs, num_requests: int, rate: float,
                      seed: int = 0, pattern: str = "poisson",
                      burst_size: int = 8) -> Workload:
    """A seeded schedule of ``num_requests`` arrivals at ``rate`` req/s.

    ``pairs`` is the pool of ``(entity_a, entity_b)`` tuples to draw
    from (cycled if shorter than ``num_requests``).  ``burst_size``
    only applies to the ``"burst"`` pattern: that many requests land at
    the same instant, with bursts spaced to preserve the average rate.
    """
    if pattern not in PATTERNS:
        raise ValueError(f"unknown pattern {pattern!r}; "
                         f"choose from {PATTERNS}")
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    if num_requests < 1:
        raise ValueError(f"num_requests must be >= 1, got {num_requests}")
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one pair to build a workload")
    rng = child_rng(seed, "serve-workload", pattern)
    if pattern == "burst":
        times = []
        gap = burst_size / rate
        for index in range(num_requests):
            times.append((index // burst_size) * gap)
    else:
        gaps = rng.exponential(1.0 / rate, size=num_requests)
        gaps[0] = 0.0  # first request arrives at t=0
        times = list(gaps.cumsum())
    if pattern == "adversarial":
        pairs = _adversarial_order(pairs)
    arrivals = [
        Arrival(at=float(times[index]),
                entity_a=pairs[index % len(pairs)][0],
                entity_b=pairs[index % len(pairs)][1])
        for index in range(num_requests)]
    return Workload(arrivals=arrivals, pattern=pattern, rate=float(rate),
                    seed=seed)


@dataclass
class SimReport:
    """What happened when a workload ran against a service."""

    offered: int
    completed: int = 0
    rejected: int = 0
    timeouts: int = 0
    degraded: int = 0
    errors: int = 0
    duration: float = 0.0
    #: Submit-to-complete clock seconds, one per completed request,
    #: in submission order.
    latencies: list[float] = field(default_factory=list)
    #: MatchOutcomes of completed requests keyed by request id.
    outcomes: dict[int, object] = field(default_factory=dict)

    def latency_quantile(self, q: float) -> float:
        """Exact linear-interpolation quantile of completed latencies."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        ordered = sorted(self.latencies)
        if not ordered:
            return 0.0
        position = q * (len(ordered) - 1)
        low = int(position)
        high = min(low + 1, len(ordered) - 1)
        fraction = position - low
        return ordered[low] * (1 - fraction) + ordered[high] * fraction

    @property
    def throughput(self) -> float:
        """Completed requests per clock second."""
        return self.completed / self.duration if self.duration else 0.0


def _advance_settled(settled, clock: VirtualClock, gap: float) -> None:
    """Advance virtual time by ``gap`` — one timer firing at a time,
    letting worker threads settle (react, drain, re-arm) in between, so
    the same workload replays the same batch schedule every run.

    ``settled`` is a zero-argument quiescence predicate —
    ``MatchService.settled`` for the plain sim,
    ``ResilientClient.settled`` (all replicas plus the supervisor) for
    the resilient one.
    """
    target = clock.now() + gap
    while True:
        clock.settle(settled)
        now = clock.now()
        if now >= target:
            return
        deadline = clock.next_deadline()
        if deadline is None or deadline >= target:
            step = target - now
        else:
            step = max(deadline - now, 0.0)
        clock.advance(step)


def run_simulation(service: MatchService, workload: Workload,
                   timeout_ms: float | None = None) -> SimReport:
    """Replay ``workload`` against ``service`` on the service's clock.

    Open-loop: arrivals are submitted on schedule whether or not
    earlier requests finished; a full queue counts a rejection and the
    driver moves on (the client got its :class:`ServiceOverloaded`).
    On a :class:`~repro.serve.clock.VirtualClock` the driver advances
    in settled steps — no virtual time passes while a worker is
    mid-reaction — so the run is deterministic end to end.  After the
    last arrival the service is closed with ``drain=True``, which
    flushes the residual queue at the final instant.  Returns the
    :class:`SimReport`; the service is closed on return.
    """
    clock = service.clock
    virtual = isinstance(clock, VirtualClock)
    report = SimReport(offered=len(workload))
    start = clock.now()
    service.start()
    tickets = []
    elapsed = 0.0
    for arrival in workload.arrivals:
        if arrival.at > elapsed:
            if virtual:
                _advance_settled(lambda: service.settled, clock,
                                 arrival.at - elapsed)
            else:
                clock.run_for(arrival.at - elapsed)
            elapsed = arrival.at
        try:
            tickets.append(service.submit(arrival.entity_a,
                                          arrival.entity_b,
                                          timeout_ms=timeout_ms))
        except ServiceOverloaded:
            report.rejected += 1
    if virtual:
        # Play the tail out timer by timer until the queue is dry, so
        # flush deadlines (and request timeouts) fire on schedule.
        clock.settle(lambda: service.settled)
        while service.queue_depth or service.inflight:
            deadline = clock.next_deadline()
            if deadline is None:
                break  # close() flushes whatever is left synchronously
            clock.advance(max(deadline - clock.now(), 0.0))
            clock.settle(lambda: service.settled)
    service.close(drain=True)
    for ticket in tickets:
        error = ticket.exception()
        if error is None:
            outcome = ticket.result()
            report.completed += 1
            report.latencies.append(ticket.latency)
            report.outcomes[ticket.request_id] = outcome
            if outcome.degraded:
                report.degraded += 1
        elif isinstance(error, RequestTimeout):
            report.timeouts += 1
        else:
            report.errors += 1
    report.duration = clock.now() - start
    return report
