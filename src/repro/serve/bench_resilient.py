"""The resilience benchmark behind ``repro bench resilient``.

Two questions, one scorecard (``BENCH_resilient.json``):

* **What does the tier cost when nothing fails?**  A burst workload is
  drained twice — once through a bare :class:`MatchService`, once
  through a single-replica :class:`ResilientClient` with hedging off —
  and the throughput ratio is the tier's overhead (budget: ≤ 2%).
* **What does the tier buy when things fail?**  The same seeded chaos
  (worker kills, slow forwards, poisoned forwards) is injected into a
  naive single service and into a three-replica resilient tier, both
  at 1× the measured serial offered load.  Availability is the
  fraction of offered requests that complete non-error (matched or
  degraded).  The naive client must measurably lose requests
  (≤ 99%); the resilient tier must sustain ≥ 99.9%.

Timing, gates, host record, validation and writing are
:mod:`repro.bench`'s; the report goes to ``BENCH_resilient.json``.
"""

from __future__ import annotations

from ..bench import Suite, best_of, build_workload, fit_matcher, gate
from ..resilience.chaos import ChaosConfig, ChaosMonkey
from .backends import MatcherBackend
from .breaker import BreakerConfig
from .clock import SystemClock
from .resilient import (HedgeConfig, ReplicaSet, ResilientClient,
                        ResilientConfig, run_resilient_simulation)
from .retry import RetryConfig
from .service import MatchService, ServeConfig
from .sim import SimReport, generate_workload, run_simulation

__all__ = ["run_resilient_benchmark", "SUITE", "OVERHEAD_BUDGET",
           "AVAILABILITY_FLOOR", "NAIVE_CEILING"]

#: Chaos-off tier overhead budget: resilient throughput on the burst
#: drain must stay within this fraction of the bare service's.
OVERHEAD_BUDGET = 0.02
#: Under seeded chaos at 1× offered load the resilient tier must keep
#: this fraction of requests completing non-error (matched or degraded).
AVAILABILITY_FLOOR = 0.999
#: ...while the naive client must land measurably below this, or the
#: injected chaos was too soft to prove anything.
NAIVE_CEILING = 0.99

_STATS_KEYS = ("offered", "completed", "rejected", "timeouts",
               "degraded", "errors", "duration_seconds", "throughput",
               "availability", "p50_latency_ms", "p95_latency_ms")

SUITE = Suite("resilient", schema=1, required=tuple(
    ["baseline.pairs_per_sec", "overhead.overhead_fraction",
     "overhead.per_cycle_overhead"]
    + [f"{phase}.{side}.{key}" for phase in ("overhead", "chaos")
       for side in ("naive", "resilient") for key in _STATS_KEYS]))


def _sim_stats(report: SimReport) -> dict:
    failed = report.rejected + report.timeouts + report.errors
    return {
        "offered": report.offered,
        "completed": report.completed,
        "rejected": report.rejected,
        "timeouts": report.timeouts,
        "degraded": report.degraded,
        "errors": report.errors,
        "failed": failed,
        "duration_seconds": report.duration,
        "throughput": report.throughput,
        "availability": report.completed / max(report.offered, 1),
        "p50_latency_ms": report.latency_quantile(0.50) * 1000.0,
        "p95_latency_ms": report.latency_quantile(0.95) * 1000.0,
    }


def _serve_config(batch_size: int, max_wait_ms: float,
                  max_queue: int) -> ServeConfig:
    return ServeConfig(max_batch_size=batch_size, max_wait_ms=max_wait_ms,
                       max_queue=max_queue)


def _overhead_phase(matcher, pairs, rate: float, seed: int,
                    batch_size: int, max_wait_ms: float,
                    cycles: int = 5) -> dict:
    """Burst-drain the same workload bare and through the tier.

    The burst arrives far above capacity, so the run time is the drain
    time and throughput measures capacity — the regime where a
    per-request tier tax would actually show up (at 1× offered load the
    service idles and overhead hides in the gaps).

    A single before/after pair mostly measures scheduler and
    CPU-frequency noise, not the tier tax, so the two sides run
    interleaved for ``cycles`` back-to-back (naive, resilient) pairs
    and the gate takes the *best paired cycle*: a structural
    per-request tax slows the resilient side of every cycle, while
    noise is one-sided and lands on whichever side it lands — the
    cycle it spared on both sides shows the true floor (same
    reasoning as ``bench_lockset_overhead``; pairing matters because
    an unpaired best-vs-best can compare a lucky naive run against an
    unlucky resilient one and report noise as tax).
    """
    from ..obs import MetricsRegistry
    burst_rate = max(rate, 1.0) * 50.0
    # Three passes over the pair set per drain: each drain saturates
    # for a few hundred ms, so per-cycle scheduler noise amortizes to
    # well under the budget being gated.
    num_requests = 3 * len(pairs)
    max_queue = max(4 * batch_size, 2 * num_requests)
    workload = generate_workload(pairs, num_requests=num_requests,
                                 rate=burst_rate, seed=seed,
                                 pattern="poisson")

    def _drain_naive() -> SimReport:
        service = MatchService(
            MatcherBackend(matcher, batch_size=batch_size),
            _serve_config(batch_size, max_wait_ms, max_queue),
            clock=SystemClock(), registry=MetricsRegistry())
        return run_simulation(service, workload)

    def _drain_resilient() -> SimReport:
        registry = MetricsRegistry()
        clock = SystemClock()
        replicas = ReplicaSet(
            lambda index: MatchService(
                MatcherBackend(matcher, batch_size=batch_size),
                _serve_config(batch_size, max_wait_ms, max_queue),
                clock=clock, registry=registry),
            num_replicas=1, clock=clock, registry=registry)
        client = ResilientClient(
            replicas,
            ResilientConfig(hedge=HedgeConfig(enabled=False),
                            attempt_timeout_ms=120_000.0,
                            shed_queue_factor=1.0),
            registry=registry)
        return run_resilient_simulation(client, workload)

    _drain_naive()       # warm thread pools, allocator, token cache
    _drain_resilient()
    naive_runs = []
    resilient_runs = []
    for _ in range(max(cycles, 1)):
        naive_runs.append(_drain_naive())
        resilient_runs.append(_drain_resilient())

    per_cycle = sorted(
        1.0 - res.throughput / max(nav.throughput, 1e-9)
        for nav, res in zip(naive_runs, resilient_runs))
    best = min(
        range(len(naive_runs)),
        key=lambda i: 1.0 - resilient_runs[i].throughput
        / max(naive_runs[i].throughput, 1e-9))
    naive = naive_runs[best]
    resilient = resilient_runs[best]
    return {
        "naive": _sim_stats(naive),
        "resilient": _sim_stats(resilient),
        "overhead_fraction": per_cycle[0],
        "cycles": len(naive_runs),
        "per_cycle_overhead": per_cycle,
        "median_overhead_fraction": per_cycle[len(per_cycle) // 2],
        "budget": OVERHEAD_BUDGET,
    }


def _chaos_monkey(seed: int, num_requests: int, batch_size: int,
                  kill_fraction: float, delay_seconds: float) -> ChaosMonkey:
    """The per-service fault schedule used by both clients.

    Keyed off the service-local request sequence, so the same faults
    hit the naive service and the resilient tier's replica 0: a worker
    kill once ``kill_fraction`` of the load has been batched, poisoned
    forwards for three spread-out request keys (degradation, not
    error), and a seeded trickle of slow forwards.
    """
    kill_batch = max(2, int(kill_fraction * num_requests / batch_size))
    poison = frozenset({num_requests // 10, num_requests // 2,
                        (9 * num_requests) // 10})
    return ChaosMonkey(ChaosConfig(
        poison_forward_rows=poison,
        delay_forward_rows=frozenset(),
        delay_forward_seconds=delay_seconds,
        delay_forward_rate=0.05,
        kill_worker_batches=frozenset({kill_batch}),
        seed=seed))


def _chaos_phase(matcher, pairs, rate: float, seed: int,
                 batch_size: int, max_wait_ms: float,
                 num_requests: int) -> dict:
    """Seeded chaos at 1× offered load: naive vs resilient."""
    from ..obs import MetricsRegistry
    workload = generate_workload(pairs, num_requests=num_requests,
                                 rate=rate, seed=seed,
                                 pattern="poisson")
    max_queue = max(4 * batch_size, num_requests)
    delay_seconds = 0.25

    naive_service = MatchService(
        MatcherBackend(matcher, batch_size=batch_size),
        _serve_config(batch_size, max_wait_ms, max_queue),
        clock=SystemClock(), registry=MetricsRegistry(),
        chaos=_chaos_monkey(seed, num_requests, batch_size,
                            kill_fraction=0.4,
                            delay_seconds=delay_seconds))
    naive = run_simulation(naive_service, workload)

    registry = MetricsRegistry()
    clock = SystemClock()
    # One fault schedule per replica *slot* — shared across respawns,
    # so a respawned replica is not instantly re-killed.  Replica 0
    # takes the early kill; the others only see slow/poisoned forwards.
    monkeys = [
        _chaos_monkey(seed + index, num_requests, batch_size,
                      kill_fraction=0.1 if index == 0 else 10.0,
                      delay_seconds=delay_seconds)
        for index in range(3)]
    replicas = ReplicaSet(
        lambda index: MatchService(
            MatcherBackend(matcher, batch_size=batch_size),
            _serve_config(batch_size, max_wait_ms, max_queue),
            clock=clock, registry=registry, chaos=monkeys[index]),
        num_replicas=3, clock=clock, registry=registry,
        breaker_config=BreakerConfig(window_seconds=10.0, min_volume=4,
                                     cooldown_seconds=0.5),
        probe_interval_ms=50.0)
    client = ResilientClient(
        replicas,
        ResilientConfig(retry=RetryConfig(max_attempts=4,
                                          base_delay_ms=5.0,
                                          max_delay_ms=200.0,
                                          budget_ratio=0.5,
                                          seed=seed),
                        hedge=HedgeConfig(enabled=True, min_samples=20),
                        attempt_timeout_ms=2000.0,
                        shed_queue_factor=1.0),
        registry=registry)
    resilient = run_resilient_simulation(client, workload)
    respawns = sum(replica.respawns for replica in replicas.replicas)

    result = {
        "naive": _sim_stats(naive),
        "resilient": _sim_stats(resilient),
        "respawns": respawns,
        "retries": client.policy.budget.retries,
        "availability_floor": AVAILABILITY_FLOOR,
        "naive_ceiling": NAIVE_CEILING,
    }
    return result


def run_resilient_benchmark(arch: str = "bert", num_pairs: int = 200,
                            seed: int = 0, zoo_dir=None,
                            batch_size: int = 32,
                            max_wait_ms: float = 10.0,
                            num_requests: int = 1000,
                            smoke: bool = False) -> dict:
    """Run the resilience benchmark and return the report dict."""
    if smoke:
        num_pairs = min(num_pairs, 24)
        num_requests = min(num_requests, 32)
    splits, pairs = build_workload(num_pairs, seed)
    matcher = fit_matcher(arch, splits, seed, zoo_dir)
    matcher.match_many(pairs[:8], fast=True)  # warm the token cache/JIT
    seconds, outcomes = best_of(
        lambda: matcher.match_many(pairs, fast=True), 1)
    baseline = {
        "pairs": len(pairs),
        "seconds": seconds,
        "pairs_per_sec": len(pairs) / max(seconds, 1e-9),
        "degraded": sum(1 for outcome in outcomes if outcome.degraded),
    }
    rate = baseline["pairs_per_sec"]
    overhead = _overhead_phase(matcher, pairs, rate, seed, batch_size,
                               max_wait_ms, cycles=2 if smoke else 5)
    chaos = _chaos_phase(matcher, pairs, rate, seed, batch_size,
                         max_wait_ms, num_requests)
    # Smoke runs are too small for stable timing or for the 99.9%
    # resolution (32 requests); the gates are only enforced on full runs.
    return SUITE.report(
        smoke,
        {"arch": arch, "pairs": num_pairs, "seed": seed,
         "batch_size": batch_size, "max_wait_ms": max_wait_ms,
         "num_requests": num_requests},
        [gate("overhead.overhead_fraction", overhead["overhead_fraction"],
              OVERHEAD_BUDGET, better="lower"),
         gate("chaos.resilient.availability",
              chaos["resilient"]["availability"], AVAILABILITY_FLOOR),
         # The injected chaos must really hurt the naive client, or it
         # proved nothing.
         gate("chaos.naive.availability", chaos["naive"]["availability"],
              NAIVE_CEILING, better="lower")],
        baseline=baseline, overhead=overhead, chaos=chaos)
