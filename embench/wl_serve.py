"""``serve-poisson``: open-loop Poisson load on one ``MatchService``, then
a closed loop that saturates it.

One process: this thread generates the load and the service runs its one
worker thread (``num_workers=1``), so the benchmark uses at most ``nproc``
threads.  The service scores with a fine-tuned BERT through
``MatcherBackend``; everything not named here uses library defaults.
Each request is a distinct pair of distinct catalog records, so neither
pair- nor record-level caching can help.

Fixed absolute rates are offered open loop: a short unmeasured warm-up,
then ``lo`` and ``hi``.  ``latency_ms`` is the median latency at ``lo``,
from each request's due time.  Then a closed loop keeps
``SAT_CONCURRENCY`` requests in flight, in ``SAT_CHUNKS`` chunks; its
completions per second are ``throughput_per_s``, the service's capacity.
Every phase is offered at or below capacity, so no request should be
refused.
"""

from __future__ import annotations

import functools
import gc
import threading
from contextlib import ExitStack
from dataclasses import dataclass

import numpy as np

from repro.dedupe import generate_catalog
from repro.serve import (MatchService, MatcherBackend, ServeConfig,
                         ServeError)
from repro.utils import child_rng

import checks
import host
import layers
from fixtures import SMALL, catalog_splits, fit
from loadgen import poisson_offsets, run_closed_loop, run_open_loop
from outcome import Run
from spans import ATTRS, END, NAME, PARENT, START
from stats import median, tail_percentile, window_rates, windowed_tail

__all__ = ["Phase", "take_pairs", "Fixture", "PhaseResult", "setup",
           "measure", "LO_RPS", "HI_RPS", "SAT_CONCURRENCY"]

#: Offered rates for a 2-vCPU Xeon with one service worker and unique
#: pairs, where capacity measured 2.0k-4.1k requests/s as the host's
#: speed drifted: ``lo`` is about a quarter of capacity and ``hi`` about
#: a third.  Nearer capacity, host stalls overflow the default queue.
LO_RPS = 800.0
HI_RPS = 1200.0
#: The closed loop's rate is the median over windows of this many seconds
#: of the completions in each, across chunks, so a host stall sets one
#: window, not the rate.
RATE_WINDOW_S = 0.5
#: Requests the closed loop keeps in flight: two of the service's default
#: 32-row batches, well inside its default 256-request queue.
SAT_CONCURRENCY = 64
#: Nominal capacity that sizes the closed loop to its share of
#: ``--seconds``; the phase sends its requests however long they take.
SAT_NOMINAL_RPS = 3000.0
#: Unmeasured requests that warm the service before ``lo``.
WARM_REQUESTS = 300
#: Shares of ``--seconds`` offered at lo, at hi and in the closed loop.
LO_SHARE = 0.3
HI_SHARE = 0.2
SAT_SHARE = 0.4
#: The closed loop runs in this many chunks.
SAT_CHUNKS = 4
#: Reference-loop samples of the host's speed before each phase and
#: chunk, while the service idles.
SPEED_SAMPLES = 2
#: The lo and hi p99 are medians over windows of this many consecutive
#: requests, each of which keeps ten samples beyond its p99.
WINDOW = 1000
#: Records per catalog the requests are generated from.
POOL_RECORDS = 20_000
TRAIN_RECORDS = 600
EPOCHS = 3
MAX_LENGTH = 32
#: Served batches re-scored through ``match_many`` for the identity check.
CHECK_BATCHES = 40
#: Real seconds a ticket may take before the run is declared hung.
TICKET_TIMEOUT_S = 60.0


@dataclass
class Phase:
    name: str
    rate: float
    offsets: np.ndarray
    pairs: list


def take_pairs(seed: int, count: int) -> list:
    """``count`` pairs of records never used in another pair, from seeded
    catalogs of ``POOL_RECORDS``."""
    pairs: list = []
    catalogs = 0
    while len(pairs) < count:
        records = generate_catalog(
            POOL_RECORDS, seed=int(child_rng(seed, "pool", catalogs)
                                   .integers(2 ** 31))).records
        catalogs += 1
        pairs += zip(records[0::2], records[1::2])
    return pairs[:count]


@dataclass
class Fixture:
    matcher: object
    classifier: object
    phases: list           # warm-up, lo, hi and the closed loop
    seed: int


def setup(seed: int, zoo_dir, scratch: str, seconds: int) -> Fixture:
    splits = catalog_splits(TRAIN_RECORDS)
    matcher, classifier = fit("bert", SMALL, zoo_dir, splits.train,
                              splits.validation, EPOCHS, MAX_LENGTH)
    rng = child_rng(seed, "arrivals")
    shape = (("warm", LO_RPS, WARM_REQUESTS),
             ("lo", LO_RPS, round(LO_SHARE * seconds * LO_RPS)),
             ("hi", HI_RPS, round(HI_SHARE * seconds * HI_RPS)),
             *((f"sat.{k}", None,
                round(SAT_SHARE * seconds * SAT_NOMINAL_RPS / SAT_CHUNKS))
               for k in range(SAT_CHUNKS)))
    pairs = take_pairs(seed, sum(count for _, _, count in shape))
    phases = []
    for name, rate, count in shape:
        offsets = (None if rate is None
                   else poisson_offsets(rng, rate, count))
        phases.append(Phase(name, rate, offsets, pairs[:count]))
        pairs = pairs[count:]
    return Fixture(matcher, classifier, phases, seed)


@dataclass
class PhaseResult:
    phase: Phase
    latencies_ms: list     # open loop only
    lags_ms: list          # open loop only
    tickets: list          # MatchTicket, or None for a refused request
    outcomes: list         # MatchOutcome, or None for a failed request
    refused: int
    elapsed_s: float       # first send to last completion

    @property
    def completed(self) -> int:
        return sum(1 for o in self.outcomes
                   if o is not None and not o.degraded)


def _settle(results):
    """Tickets, outcomes and completion times of what was sent."""
    tickets, outcomes, done_at = [], [], []
    for result in results:
        if isinstance(result, Exception):
            tickets.append(None)
            outcomes.append(None)
            done_at.append(None)
            continue
        error = result.exception(timeout=TICKET_TIMEOUT_S)
        outcome = None if error is not None else result.result()
        ok = outcome is not None and not outcome.degraded
        tickets.append(result)
        outcomes.append(outcome)
        done_at.append(result.completed_at if ok else None)
    return tickets, outcomes, done_at


def _run_phase(service, phase: Phase) -> PhaseResult:
    pairs = phase.pairs
    submit = lambda k: service.submit(*pairs[k])
    if phase.rate is None:
        sent = run_closed_loop(
            submit, len(pairs), SAT_CONCURRENCY,
            lambda ticket: ticket.exception(timeout=TICKET_TIMEOUT_S),
            ServeError)
        tickets, outcomes, _ = _settle(sent.results)
        return PhaseResult(phase, [], [], tickets, outcomes,
                           tickets.count(None), sent.end - sent.start)
    sent = run_open_loop(submit, phase.offsets, ServeError)
    tickets, outcomes, done_at = _settle(sent.results)
    finished = [done for done in done_at if done is not None]
    return PhaseResult(phase, [1000.0 * x for x in sent.latencies(done_at)],
                       [1000.0 * x for x in sent.lags()], tickets, outcomes,
                       tickets.count(None),
                       max(finished, default=sent.due[0]) - sent.due[0])


def measure(fixture: Fixture, seconds: float, speed, recorder=None) -> Run:
    """Offer warm-up, lo and hi open loop, then the closed loop in chunks,
    sampling the host's ``speed`` before each.

    The pre-generated requests would not live in a real server's heap, so
    they are frozen out of the garbage collector's traversals for the run.
    """
    gc.collect()
    gc.freeze()
    try:
        return _measure(fixture, speed, recorder)
    finally:
        gc.unfreeze()


def _measure(fixture: Fixture, speed, recorder) -> Run:
    matcher = fixture.matcher
    matcher.ensure_token_cache().clear()
    batches: list = []          # request ids of every scored batch
    lookups: dict = {}
    results: list[PhaseResult] = []
    with ExitStack() as stack:
        if recorder is not None:
            layers.instrument_model(stack, recorder, "bert", matcher,
                                    fixture.classifier, lookups)
            layers.instrument_matcher_engines(stack, recorder, "bert",
                                              matcher)
            stack.enter_context(layers.traced_kernels(recorder))
        backend = MatcherBackend(matcher)
        score = backend.score
        if recorder is not None:
            score = recorder.wrap(score, "serve.score", attrs=_batch_attrs)

        @functools.wraps(score)
        def recorded_score(pairs, keys, **kwargs):
            batches.append(keys)
            return score(pairs, keys=keys, **kwargs)

        layers.patch(stack, backend, "score", recorded_score)
        service = stack.enter_context(
            MatchService(backend, ServeConfig(num_workers=1)))
        for phase in fixture.phases:
            speed.sample(SPEED_SAMPLES)
            with ExitStack() as scope:
                if recorder is not None:
                    scope.enter_context(recorder.root_span(phase.name))
                results.append(_run_phase(service, phase))
        threads = threading.active_count()
    return _report(fixture, results, batches, recorder, lookups, threads)


def _batch_attrs(args, kwargs, result) -> dict:
    return {"rows": len(result), "keys": kwargs["keys"]}


def _report(fixture, results, batches, recorder, lookups,
            threads: int) -> Run:
    lo, hi = (next(r for r in results if r.phase.name == name)
              for name in ("lo", "hi"))
    offered = sum(len(r.outcomes) for r in results)
    run = Run(attempted=offered,
              failed=offered - sum(r.completed for r in results))
    run.metrics = {
        "throughput_per_s": median(
            rate for r in results if r.phase.rate is None
            for rate in window_rates(
                [t.completed_at for t, o in zip(r.tickets, r.outcomes)
                 if o is not None and not o.degraded], RATE_WINDOW_S)),
        "latency_ms": tail_percentile(lo.latencies_ms, 0.5)[0],
    }
    run.details = {
        "p50_ms.lo": run.metrics["latency_ms"],
        "p99_ms.lo": windowed_tail(lo.latencies_ms, 0.99, WINDOW)[0],
        "p99_ms.hi": windowed_tail(hi.latencies_ms, 0.99, WINDOW)[0],
    }
    run.checks = [_identity_check(fixture, results, batches),
                  checks.within_threads("serve.threads", threads,
                                        host.nproc())]
    run.info = {"phases": {r.phase.name: _phase_info(r) for r in results}}
    if recorder is not None:
        run.totals = layers.LayerTotals(recorder.spans)
        run.layers = _layer_metrics(recorder, run.totals, results, lookups)
    return run


def _phase_info(result: PhaseResult) -> dict:
    info = {"rate": result.phase.rate, "requests": len(result.outcomes),
            "completed": result.completed, "refused": result.refused,
            "elapsed_s": result.elapsed_s}
    if result.latencies_ms:
        value, q_used, samples = tail_percentile(result.latencies_ms, 0.99)
        windowed, windows, smallest = windowed_tail(result.latencies_ms,
                                                    0.99, WINDOW)
        info.update(p99_ms=value, p99_q=q_used, p99_samples=samples,
                    p99_ms_windowed=windowed, windows=windows,
                    window_samples=smallest)
    return info


def _identity_check(fixture, results, batches) -> checks.Check:
    """Served outcomes of sampled batches are bit-identical to
    ``match_many`` over the same pairs."""
    served = {}
    for result in results:
        for pair, ticket, outcome in zip(result.phase.pairs, result.tickets,
                                         result.outcomes):
            if ticket is not None and outcome is not None:
                served[ticket.request_id] = (pair, outcome)
    rng = np.random.default_rng(fixture.seed)
    picked = rng.choice(len(batches), size=min(CHECK_BATCHES, len(batches)),
                        replace=False)
    reference, outcomes = [], []
    for index in sorted(picked):
        keys = [key for key in batches[index] if key in served]
        reference += fixture.matcher.match_many(
            [served[key][0] for key in keys], fast=True)
        outcomes += [served[key][1] for key in keys]
    return checks.bit_identical("serve.matches_match_many", reference,
                                outcomes)


def _layer_metrics(recorder, totals, results, lookups) -> dict:
    """Serving metrics of the ``hi`` phase, where the service is busiest
    short of overload; refusals count every phase."""
    hi = next(r for r in results if r.phase.name == "hi")
    submitted = {ticket.request_id: ticket.submitted_at
                 for ticket in hi.tickets if ticket is not None}
    scores = [span for span in recorder.spans
              if span[NAME] == "serve.score" and span[PARENT] is not None
              and span[PARENT][NAME] == "hi"]
    waits = [1000.0 * (span[START] - submitted[key]) for span in scores
             for key in span[ATTRS]["keys"] if key in submitted]
    root = next(span for span in recorder.spans if span[NAME] == "hi"
                and span[PARENT] is None)
    rows = sum(span[ATTRS]["rows"] for span in scores)
    metrics = {
        "serve.queue_wait_p50_ms": tail_percentile(waits, 0.5)[0],
        "serve.queue_wait_p99_ms": tail_percentile(waits, 0.99)[0],
        "serve.batch_rows_mean": rows / len(scores),
        "serve.batches": len(scores),
        "serve.busy_frac": (sum(span[END] - span[START] for span in scores)
                            / (root[END] - root[START])),
        "serve.rejected": sum(r.refused for r in results),
        "gen.lag_p99_ms": tail_percentile(hi.lags_ms, 0.99)[0],
    }
    metrics.update(totals.arch_metrics("bert", 1, lookups))
    return metrics
