"""Resilient serving tier: retries, breakers, hedging, supervision.

Four contracts anchor the fault-tolerance tier (DESIGN.md §15):

1. **bounded, deterministic retries** — backoff schedules are capped,
   monotone before the cap, jittered inside a seeded envelope, and
   bit-identical across runs; the retry budget is pure counter
   arithmetic;
2. **honest breakers** — a circuit never reaches ``half_open`` before
   its cooldown elapsed (proved over random event sequences via the
   transitions audit trail), probes are slot-limited, and a half-open
   failure restarts the cooldown;
3. **self-healing** — a chaos-killed replica is detected by the health
   probe, respawned into the same slot, and its stranded queue fails
   typed so the client retries it to completion;
4. **reproducibility** — an entire outage-and-recovery scenario (kills,
   slow forwards, hedges, failover, respawn) replays bit-identically
   under the :class:`VirtualClock`, and zero real sleeps appear in this
   file.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry, default_resilient_slos
from repro.resilience import ChaosConfig, ChaosMonkey, WorkerKilled
from repro.serve import (BreakerConfig, CallableBackend, CircuitBreaker,
                         HedgeConfig, MatchService, ReplicaSet,
                         RequestTimeout, ResilientClient,
                         ResilientConfig, RetryBudget, RetryConfig,
                         RetryPolicy, ServeConfig, ServiceClosed,
                         ServiceOverloaded, VirtualClock,
                         generate_workload, run_resilient_simulation)
from repro.serve.bench_resilient import SUITE

pytestmark = pytest.mark.resilient

ROOT = Path(__file__).resolve().parent.parent

def _digit_score(entity_a, entity_b):
    """Deterministic identity-revealing score for queueing tests."""
    return float(entity_a["i"]) / 10_000.0


def _pair(i):
    return ({"i": str(i)}, {"i": str(i)})


def _fleet(clock, registry, num_replicas=2, monkeys=None,
           service_config=None, breaker_config=None,
           probe_interval_ms=50.0):
    config = service_config or ServeConfig(max_batch_size=4,
                                           max_wait_ms=5.0, max_queue=16)
    return ReplicaSet(
        lambda index: MatchService(
            CallableBackend(_digit_score), config, clock=clock,
            registry=registry,
            chaos=monkeys[index] if monkeys else None),
        num_replicas=num_replicas, clock=clock, registry=registry,
        breaker_config=breaker_config,
        probe_interval_ms=probe_interval_ms)


def _drain(client, clock):
    """Step virtual time timer-by-timer until every flight resolves."""
    clock.settle(lambda: client.settled)
    while client.outstanding:
        deadline = clock.next_deadline()
        if deadline is None:
            break
        clock.advance(max(deadline - clock.now(), 0.0))
        clock.settle(lambda: client.settled)


class TestRetryPolicyProperties:
    """Satellite 3: the backoff schedule's contract, property-tested."""

    @staticmethod
    def _policy(base, spread, multiplier, jitter, seed):
        return RetryPolicy(RetryConfig(max_attempts=6,
                                       base_delay_ms=base,
                                       multiplier=multiplier,
                                       max_delay_ms=base + spread,
                                       jitter=jitter, seed=seed))

    @given(base=st.floats(0.0, 100.0), spread=st.floats(0.0, 1000.0),
           multiplier=st.floats(1.0, 4.0), jitter=st.floats(0.0, 0.9),
           seed=st.integers(0, 2**31), request_id=st.integers(0, 10**6),
           attempt=st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_backoff_is_bounded(self, base, spread, multiplier, jitter,
                                seed, request_id, attempt):
        policy = self._policy(base, spread, multiplier, jitter, seed)
        delay = policy.backoff(request_id, attempt)
        cap = (base + spread) / 1000.0 * (1.0 + jitter)
        assert 0.0 <= delay <= cap + 1e-12

    @given(base=st.floats(0.0, 100.0), spread=st.floats(0.0, 1000.0),
           multiplier=st.floats(1.0, 4.0))
    @settings(max_examples=100, deadline=None)
    def test_base_schedule_is_monotone_and_capped(self, base, spread,
                                                  multiplier):
        policy = self._policy(base, spread, multiplier, 0.0, 0)
        delays = [policy.base_delay(k) for k in range(1, 9)]
        assert all(a <= b + 1e-12 for a, b in zip(delays, delays[1:]))
        assert all(d <= (base + spread) / 1000.0 + 1e-12 for d in delays)

    @given(jitter=st.floats(0.0, 0.9), seed=st.integers(0, 2**31),
           request_id=st.integers(0, 10**6), attempt=st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_jitter_envelope(self, jitter, seed, request_id, attempt):
        policy = self._policy(10.0, 500.0, 2.0, jitter, seed)
        base = policy.base_delay(attempt)
        delay = policy.backoff(request_id, attempt)
        assert abs(delay - base) <= jitter * base + 1e-12

    @given(seed=st.integers(0, 2**31), request_id=st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_same_seed_same_schedule(self, seed, request_id):
        first = self._policy(10.0, 500.0, 2.0, 0.5, seed)
        second = self._policy(10.0, 500.0, 2.0, 0.5, seed)
        assert first.schedule(request_id) == second.schedule(request_id)

    @given(retry_after=st.floats(0.0, 10.0), attempt=st.integers(1, 8))
    @settings(max_examples=50, deadline=None)
    def test_retry_after_is_a_lower_bound(self, retry_after, attempt):
        policy = self._policy(10.0, 100.0, 2.0, 0.5, 0)
        delay = policy.backoff(7, attempt, retry_after=retry_after)
        assert delay >= retry_after

    def test_retryable_classification(self):
        from repro.serve import RequestCancelled, ServeError
        assert RetryPolicy.retryable(ServiceOverloaded(3, 0.1))
        assert RetryPolicy.retryable(ServiceClosed("gone"))
        assert RetryPolicy.retryable(RequestTimeout(1, waited=0.1))
        assert RetryPolicy.retryable(ServeError("boom"))
        assert not RetryPolicy.retryable(RequestCancelled(1))
        assert not RetryPolicy.retryable(KeyError("foreign"))
        assert not RetryPolicy.retryable(None)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RetryConfig(max_attempts=0)
        with pytest.raises(ValueError):
            RetryConfig(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryConfig(jitter=1.0)
        with pytest.raises(ValueError):
            RetryConfig(base_delay_ms=50.0, max_delay_ms=10.0)
        with pytest.raises(ValueError):
            RetryConfig(budget_ratio=-0.1)


class TestRetryBudget:
    def test_floor_then_ratio(self):
        budget = RetryBudget(ratio=0.5, min_retries=2)
        assert budget.allowance == 2
        assert budget.try_spend() and budget.try_spend()
        assert not budget.try_spend()  # floor exhausted, no requests yet
        for _ in range(10):
            budget.note_request()
        assert budget.allowance == 5
        assert all(budget.try_spend() for _ in range(3))
        assert not budget.try_spend()
        assert budget.retries == 5 and budget.requests == 10

    def test_zero_budget_fails_fast(self):
        budget = RetryBudget(ratio=0.0, min_retries=0)
        budget.note_request()
        assert not budget.try_spend()


class TestCircuitBreaker:
    """Satellite 3: the state machine, including the cooldown proof."""

    @staticmethod
    def _breaker(clock, **kwargs):
        defaults = dict(window_seconds=30.0, min_volume=4,
                        failure_threshold=0.5, cooldown_seconds=2.0,
                        half_open_probes=1, close_after=2)
        defaults.update(kwargs)
        return CircuitBreaker("replica-0", BreakerConfig(**defaults),
                              clock=clock)

    def test_trips_at_threshold_with_min_volume(self):
        clock = VirtualClock()
        breaker = self._breaker(clock)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"  # volume 2 < min_volume 4
        breaker.record_success()
        breaker.record_failure()  # 3 failures / 4 outcomes = 0.75
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_half_open_probe_slots_and_close(self):
        clock = VirtualClock()
        breaker = self._breaker(clock)
        for _ in range(4):
            breaker.record_failure()
        assert breaker.state == "open"
        clock.advance(2.0)
        assert breaker.allow()  # claims the single probe slot
        assert breaker.state == "half_open"
        assert not breaker.allow()  # no second slot
        breaker.record_success()
        assert breaker.state == "half_open"  # close_after = 2
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"

    def test_half_open_failure_restarts_cooldown(self):
        clock = VirtualClock()
        breaker = self._breaker(clock)
        for _ in range(4):
            breaker.record_failure()
        clock.advance(2.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        clock.advance(1.0)
        assert not breaker.allow()  # cooldown restarted at reopen
        clock.advance(1.0)
        assert breaker.allow()

    def test_release_returns_probe_slot(self):
        clock = VirtualClock()
        breaker = self._breaker(clock)
        for _ in range(4):
            breaker.record_failure()
        clock.advance(2.0)
        assert breaker.allow()
        breaker.release()
        assert breaker.allow()  # the slot came back

    def test_window_pruning_forgets_old_failures(self):
        clock = VirtualClock()
        breaker = self._breaker(clock, window_seconds=5.0)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)  # the three failures age out
        breaker.record_success()
        breaker.record_success()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"  # 1/4 below threshold

    def test_reset_and_state_gauge(self):
        clock = VirtualClock()
        registry = MetricsRegistry()
        breaker = CircuitBreaker(
            "replica-9", BreakerConfig(min_volume=2, cooldown_seconds=1.0),
            clock=clock, registry=registry)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "open"
        gauge = registry.gauge("serve.breaker.state",
                               labels={"replica": "replica-9"})
        assert gauge.value == 1
        breaker.reset()
        assert breaker.state == "closed" and gauge.value == 0

    @given(events=st.lists(
        st.tuples(st.sampled_from(["ok", "fail", "allow"]),
                  st.floats(0.0, 3.0)),
        max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_no_half_open_before_cooldown_elapsed(self, events):
        clock = VirtualClock()
        cooldown = 2.0
        breaker = self._breaker(clock, cooldown_seconds=cooldown,
                                min_volume=2)
        for action, dt in events:
            clock.advance(dt)
            if action == "ok":
                breaker.record_success()
            elif action == "fail":
                breaker.record_failure()
            else:
                breaker.allow()
        last_open = None
        for state, at in breaker.transitions:
            if state == "open":
                last_open = at
            elif state == "half_open":
                assert last_open is not None
                assert at - last_open >= cooldown - 1e-9

    def test_config_validation(self):
        for kwargs in ({"window_seconds": 0.0}, {"min_volume": 0},
                       {"failure_threshold": 0.0},
                       {"failure_threshold": 1.5},
                       {"cooldown_seconds": -1.0},
                       {"half_open_probes": 0}, {"close_after": 0}):
            with pytest.raises(ValueError):
                BreakerConfig(**kwargs)


class TestRetryAfterContract:
    """Satellite 2: the backpressure hint is consumable and surfaced."""

    def test_retry_after_non_negative_and_monotone_in_depth(self):
        hints = {}
        for max_queue in (4, 8):
            clock = VirtualClock()
            service = MatchService(
                CallableBackend(_digit_score),
                ServeConfig(max_batch_size=4, max_wait_ms=5.0,
                            max_queue=max_queue),
                clock=clock, registry=MetricsRegistry())
            # Not started: the queue only fills, so the overflow depth
            # is exactly max_queue.
            for i in range(max_queue):
                service.submit(*_pair(i))
            with pytest.raises(ServiceOverloaded) as excinfo:
                service.submit(*_pair(99))
            assert excinfo.value.retry_after >= 0.0
            hints[max_queue] = excinfo.value.retry_after
            service.close(drain=False)
        assert hints[8] >= hints[4]  # deeper backlog, longer hint

    def test_retry_after_surfaced_in_histogram(self):
        clock = VirtualClock()
        registry = MetricsRegistry()
        service = MatchService(
            CallableBackend(_digit_score),
            ServeConfig(max_batch_size=4, max_wait_ms=5.0, max_queue=2),
            clock=clock, registry=registry)
        service.submit(*_pair(0))
        service.submit(*_pair(1))
        with pytest.raises(ServiceOverloaded):
            service.submit(*_pair(2))
        histogram = registry.histogram("serve.retry_after_seconds")
        assert histogram.count == 1
        service.close(drain=False)


class TestChaosServingFaults:
    """Satellite 1: the serving-level fault injectors are exact."""

    def test_delay_forward_pinned_rows(self):
        monkey = ChaosMonkey(ChaosConfig(
            delay_forward_rows=frozenset({3}),
            delay_forward_seconds=0.25, seed=0))
        assert monkey.maybe_delay_forward([0, 1, 2]) == 0.0
        assert monkey.maybe_delay_forward([2, 3]) == 0.25
        assert monkey.maybe_delay_forward([3]) == 0.25  # every occurrence

    def test_delay_forward_rate_is_seeded(self):
        def draws(seed):
            monkey = ChaosMonkey(ChaosConfig(delay_forward_rate=0.5,
                                             delay_forward_seconds=0.1,
                                             seed=seed))
            return [monkey.maybe_delay_forward([i]) for i in range(32)]
        assert draws(7) == draws(7)
        assert any(d > 0 for d in draws(7))
        assert any(d == 0 for d in draws(7))

    def test_kill_worker_ordinals_fire_once(self):
        monkey = ChaosMonkey(ChaosConfig(kill_worker_batches=frozenset({2})))
        monkey.maybe_kill_worker()  # batch 1 survives
        with pytest.raises(WorkerKilled) as excinfo:
            monkey.maybe_kill_worker()
        assert excinfo.value.batch_index == 2
        monkey.maybe_kill_worker()  # ordinal already fired

    def test_killed_worker_service_closes_and_fails_typed(self):
        clock = VirtualClock()
        service = MatchService(
            CallableBackend(_digit_score),
            ServeConfig(max_batch_size=1, max_wait_ms=5.0, max_queue=8),
            clock=clock, registry=MetricsRegistry(),
            chaos=ChaosMonkey(ChaosConfig(
                kill_worker_batches=frozenset({1}))))
        service.start()
        first = service.submit(*_pair(1))
        clock.settle(lambda: service.settled)
        assert first.exception() is None
        assert not service.healthy  # the kill fired after batch 1
        stranded = service.submit(*_pair(2))
        service.close(drain=True)  # must not hang on the dead pool
        assert isinstance(stranded.exception(), ServiceClosed)


class TestReplicaSet:
    """Tentpole (c): the supervisor detects, respawns, and reroutes."""

    def test_probe_respawns_killed_replica(self):
        clock = VirtualClock()
        registry = MetricsRegistry()
        monkeys = [ChaosMonkey(ChaosConfig(
            kill_worker_batches=frozenset({1}) if index == 0
            else frozenset())) for index in range(2)]
        replicas = _fleet(clock, registry, monkeys=monkeys)
        replicas.start()
        victim = replicas.replicas[0]
        victim.service.submit(*_pair(1))
        clock.advance(0.005)  # the partial batch flushes at max_wait
        clock.settle(lambda: replicas.settled)
        assert not victim.service.healthy
        assert replicas.healthy_count == 1
        clock.advance(0.05)  # the probe interval
        clock.settle(lambda: replicas.settled)
        assert victim.respawns == 1 and victim.generation == 2
        assert victim.service.healthy and replicas.healthy_count == 2
        assert registry.counter("serve.replicas.respawns").value == 1
        assert registry.gauge("serve.replicas.alive").value == 2
        replicas.close()

    def test_pick_prefers_least_loaded_and_honors_breakers(self):
        clock = VirtualClock()
        replicas = _fleet(clock, MetricsRegistry(), num_replicas=3)
        replicas.start()
        # Queue depth is 0 everywhere: ties break by index.
        assert replicas.pick().index == 0
        assert replicas.pick(exclude={0}).index == 1
        # An open breaker takes its replica out of the rotation.
        config = replicas.breaker_config
        for _ in range(max(config.min_volume, 8)):
            replicas.replicas[0].breaker.record_failure()
        assert replicas.replicas[0].breaker.state == "open"
        assert replicas.pick().index == 1
        # Excluded-everywhere falls back to the excluded survivor.
        for replica in replicas.replicas[1:]:
            for _ in range(max(config.min_volume, 8)):
                replica.breaker.record_failure()
        assert replicas.pick(exclude={0, 1, 2}) is None
        replicas.close()

    def test_capacity_depth_and_drain_hint(self):
        clock = VirtualClock()
        replicas = _fleet(clock, MetricsRegistry(), num_replicas=2)
        replicas.start()
        assert replicas.capacity == 32  # 2 × max_queue 16
        assert replicas.total_queue_depth == 0
        assert replicas.drain_hint() > 0.0
        replicas.close()

    def test_validation(self):
        with pytest.raises(ValueError):
            _fleet(VirtualClock(), MetricsRegistry(), num_replicas=0)
        with pytest.raises(ValueError):
            _fleet(VirtualClock(), MetricsRegistry(),
                   probe_interval_ms=0.0)


class TestResilientClient:
    """Tentpole (a)+(d): flights ride out faults, shed saturation."""

    def test_plain_requests_complete(self):
        clock = VirtualClock()
        registry = MetricsRegistry()
        client = ResilientClient(_fleet(clock, registry),
                                 registry=registry)
        with client:
            tickets = [client.submit(*_pair(i)) for i in range(8)]
            _drain(client, clock)
            for i, ticket in enumerate(tickets):
                assert ticket.exception() is None
                assert ticket.result().probability \
                    == pytest.approx(i / 10_000.0)
        assert registry.counter("serve.client.completed").value == 8
        assert registry.counter("serve.client.errors").value == 0

    def test_failover_retries_after_respawn(self):
        clock = VirtualClock()
        registry = MetricsRegistry()
        monkeys = [ChaosMonkey(ChaosConfig(
            kill_worker_batches=frozenset({1})))]
        client = ResilientClient(
            _fleet(clock, registry, num_replicas=1, monkeys=monkeys,
                   service_config=ServeConfig(max_batch_size=1,
                                              max_wait_ms=5.0,
                                              max_queue=8)),
            ResilientConfig(retry=RetryConfig(max_attempts=4,
                                              base_delay_ms=25.0, seed=0),
                            hedge=HedgeConfig(enabled=False),
                            attempt_timeout_ms=500.0),
            registry=registry)
        with client:
            first = client.submit(*_pair(1))
            _drain(client, clock)
            assert first.exception() is None
            # The kill fired: routing finds no healthy replica, so the
            # flight backs off (25/50/100 ms, outlasting the 50 ms
            # probe) until the respawned service takes the retry.
            second = client.submit(*_pair(2))
            _drain(client, clock)
            assert second.exception() is None
        assert client.replicas.replicas[0].respawns == 1
        assert registry.counter("serve.client.retries").value >= 1
        assert registry.counter("serve.client.errors").value == 0

    def test_hedge_wins_against_straggler(self):
        clock = VirtualClock()
        registry = MetricsRegistry()
        # Replica 0 sleeps 1 s on its first request; replica 1 is clean.
        monkeys = [ChaosMonkey(ChaosConfig(
            delay_forward_rows=frozenset({0}),
            delay_forward_seconds=1.0)), ChaosMonkey(ChaosConfig())]
        client = ResilientClient(
            _fleet(clock, registry, monkeys=monkeys,
                   probe_interval_ms=5000.0),
            ResilientConfig(hedge=HedgeConfig(delay_ms=50.0),
                            attempt_timeout_ms=5000.0),
            registry=registry)
        with client:
            ticket = client.submit(*_pair(1))
            _drain(client, clock)
            assert ticket.exception() is None
            assert ticket.latency < 0.5  # the hedge won, not the sleeper
        assert registry.counter("serve.hedge.launched").value == 1
        assert registry.counter("serve.hedge.wins").value == 1

    def test_load_shedding_rejects_with_drain_hint(self):
        clock = VirtualClock()
        registry = MetricsRegistry()
        # One replica whose worker sleeps 10 s on request key 0: the
        # queue behind it only grows, so the shed threshold
        # (0.5 × capacity 4 = 2) is hit deterministically.
        monkeys = [ChaosMonkey(ChaosConfig(
            delay_forward_rows=frozenset({0}),
            delay_forward_seconds=10.0))]
        client = ResilientClient(
            _fleet(clock, registry, num_replicas=1, monkeys=monkeys,
                   service_config=ServeConfig(max_batch_size=1,
                                              max_wait_ms=5.0,
                                              max_queue=4),
                   probe_interval_ms=60000.0),
            ResilientConfig(hedge=HedgeConfig(enabled=False),
                            attempt_timeout_ms=60000.0,
                            shed_queue_factor=0.5),
            registry=registry)
        client.start()
        client.submit(*_pair(0))
        clock.settle(lambda: client.settled)  # worker now asleep on 0
        client.submit(*_pair(1))
        client.submit(*_pair(2))
        with pytest.raises(ServiceOverloaded) as excinfo:
            client.submit(*_pair(3))
        assert excinfo.value.retry_after > 0.0
        assert registry.counter("serve.client.shed").value == 1
        client.close(drain=False)

    def test_deadline_propagation_beats_attempt_timeout(self):
        clock = VirtualClock()
        registry = MetricsRegistry()
        monkeys = [ChaosMonkey(ChaosConfig(
            delay_forward_rows=frozenset({0}),
            delay_forward_seconds=10.0))]
        client = ResilientClient(
            _fleet(clock, registry, num_replicas=1, monkeys=monkeys,
                   service_config=ServeConfig(max_batch_size=1,
                                              max_wait_ms=5.0,
                                              max_queue=4),
                   probe_interval_ms=60000.0),
            ResilientConfig(hedge=HedgeConfig(enabled=False),
                            attempt_timeout_ms=5000.0),
            registry=registry)
        client.start()
        ticket = client.submit(*_pair(0), timeout_ms=150.0)
        _drain(client, clock)
        error = ticket.exception()
        assert isinstance(error, RequestTimeout)
        assert error.waited == pytest.approx(0.150)
        assert registry.counter("serve.client.timeouts").value == 1
        # No retry was scheduled after the logical deadline fired.
        assert registry.counter("serve.client.retries").value == 0
        client.close(drain=False)

    def test_budget_exhaustion_fails_fast(self):
        clock = VirtualClock()
        registry = MetricsRegistry()
        # Every replica's worker pool is dead from batch one... actually
        # simpler: no replica is ever healthy because the set is never
        # started — submissions fail synchronously and the zero budget
        # denies every retry.
        replicas = _fleet(clock, registry, num_replicas=1)
        client = ResilientClient(
            replicas,
            ResilientConfig(retry=RetryConfig(max_attempts=4,
                                              budget_ratio=0.0,
                                              min_retries=0, seed=0),
                            hedge=HedgeConfig(enabled=False)),
            registry=registry)
        # Start the set, then break the only replica hard by closing
        # its service out from under the router.
        client.start()
        replicas.replicas[0].service.close(drain=False)
        ticket = client.submit(*_pair(1))
        _drain(client, clock)
        assert ticket.exception() is not None
        assert registry.counter("serve.client.budget_exhausted").value == 1
        assert registry.counter("serve.client.retries").value == 0
        client.close(drain=False)

    def test_submit_after_close_raises(self):
        clock = VirtualClock()
        registry = MetricsRegistry()
        client = ResilientClient(_fleet(clock, registry),
                                 registry=registry)
        client.start()
        client.close()
        with pytest.raises(ServiceClosed):
            client.submit(*_pair(1))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            HedgeConfig(delay_ms=0.0)
        with pytest.raises(ValueError):
            HedgeConfig(percentile=1.0)
        with pytest.raises(ValueError):
            HedgeConfig(max_hedges=-1)
        with pytest.raises(ValueError):
            ResilientConfig(attempt_timeout_ms=0.0)
        with pytest.raises(ValueError):
            ResilientConfig(shed_queue_factor=0.0)


class TestChaosRecoveryDeterminism:
    """Tentpole acceptance: a full outage-and-recovery scenario —
    kills, slow forwards, attempt timeouts, hedges, failover, respawn —
    replays bit-identically under the virtual clock."""

    @staticmethod
    def _run_burst_scenario():
        clock = VirtualClock()
        registry = MetricsRegistry()
        monkeys = [ChaosMonkey(ChaosConfig(
            kill_worker_batches=frozenset({2}) if index == 0
            else frozenset(),
            delay_forward_rows=frozenset({7}),
            delay_forward_seconds=0.3, seed=index))
            for index in range(2)]
        replicas = _fleet(
            clock, registry, monkeys=monkeys,
            service_config=ServeConfig(max_batch_size=4, max_wait_ms=5.0,
                                       max_queue=8),
            breaker_config=BreakerConfig(min_volume=2,
                                         cooldown_seconds=0.5),
            probe_interval_ms=50.0)
        client = ResilientClient(
            replicas,
            ResilientConfig(retry=RetryConfig(max_attempts=4,
                                              base_delay_ms=5.0, seed=0),
                            hedge=HedgeConfig(delay_ms=100.0),
                            attempt_timeout_ms=200.0),
            registry=registry)
        pairs = [_pair(i) for i in range(8)]
        workload = generate_workload(pairs, num_requests=60, rate=400.0,
                                     seed=1, pattern="burst",
                                     burst_size=8)
        report = run_resilient_simulation(client, workload)
        return (report.completed, report.errors, report.timeouts,
                report.rejected,
                tuple(round(latency, 12) for latency in report.latencies),
                tuple(replica.respawns for replica in replicas.replicas),
                client.policy.budget.retries)

    def test_chaos_recovery_is_bit_reproducible(self):
        first = self._run_burst_scenario()
        second = self._run_burst_scenario()
        assert first == second
        completed, errors, timeouts, rejected = first[:4]
        assert completed + errors + timeouts + rejected == 60
        assert completed > 0

    def test_calm_simulation_is_bit_reproducible_and_lossless(self):
        def run():
            clock = VirtualClock()
            registry = MetricsRegistry()
            client = ResilientClient(_fleet(clock, registry),
                                     registry=registry)
            workload = generate_workload([_pair(i) for i in range(8)],
                                         num_requests=40, rate=200.0,
                                         seed=3)
            report = run_resilient_simulation(client, workload)
            return (report.completed, report.errors,
                    tuple(round(latency, 12)
                          for latency in report.latencies))
        first = run()
        second = run()
        assert first == second
        assert first[0] == 40 and first[1] == 0


class TestResilientSLOs:
    """Satellite: the tier's metrics feed the stock SLO recipe."""

    def test_slo_recipe_reads_client_metrics(self):
        clock = VirtualClock()
        registry = MetricsRegistry()
        client = ResilientClient(_fleet(clock, registry),
                                 registry=registry)
        with client:
            for i in range(10):
                client.submit(*_pair(i))
            _drain(client, clock)
        slos = {slo.name: slo for slo in default_resilient_slos()}
        good, total = slos["resilient-availability"].read(registry)
        assert (good, total) == (10.0, 10.0)
        good, total = slos["resilient-latency"].read(registry)
        assert total == 10.0 and good == 10.0  # virtual-time latencies


class TestBenchReport:
    """The resilience suite's report through the shared bench core."""

    def test_validate_flags_gaps(self):
        assert SUITE.validate({}) != []
        problems = SUITE.validate({"benchmark": "resilient"})
        assert any("chaos" in problem for problem in problems)

    def test_cli_smoke(self, tiny_zoo_dir, tmp_path):
        # A child process: the suite's serving threads each enter
        # ``no_grad`` on the process-global grad flag, and interleaved
        # exits can leave it disabled for every later test here.
        out = tmp_path / "BENCH_resilient.json"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "bench", "resilient", "--smoke",
             "--zoo-dir", str(tiny_zoo_dir), "--output", str(out)],
            capture_output=True, text=True, check=False,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        assert proc.returncode == 0, proc.stderr
        report = json.loads(out.read_text())
        assert SUITE.validate(report) == []
        assert report["smoke"] is True
        assert report["acceptance"]["enforced"] is False
        assert report["chaos"]["resilient"]["offered"] == 32


class TestNoRealSleeps:
    def test_no_real_sleeps_in_this_test_file(self):
        import ast
        tree = ast.parse(Path(__file__).read_text())
        sleeps = [
            node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "sleep"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "time"]
        imports = [
            node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "time"]
        assert sleeps == [] and imports == []
