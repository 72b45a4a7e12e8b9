"""``match-pairs``: the paper's task, offline pair classification.

All four architectures score the labelled test pairs of a paper dataset
through ``EntityMatcher.match_many`` (the fast path) at d_model 64 with
sequences up to 64 tokens.  Every pair is distinct and each repetition
starts from an empty token cache, so caches are bypassed and the
per-architecture tokenizer and kernel costs dominate.
"""

from __future__ import annotations

import time
from contextlib import ExitStack
from dataclasses import dataclass

from repro.data import load_benchmark, split_dataset
from repro.nn import fused_kernels
from repro.utils import child_rng

import checks
import layers
from catalogue import ARCHS
from fixtures import LARGE, fit
from outcome import Run
from stats import median

__all__ = ["Fixture", "setup", "measure"]

DATASET = "dblp-acm"
SCALE = 0.3            # 741 test pairs
TRAIN_PAIRS = 128
VALIDATION_PAIRS = 64
EPOCHS = 1
MAX_LENGTH = 64
#: Repetitions of the four-architecture round; medians need at least 3.
MIN_REPS = 3
#: Test pairs re-scored on the serial, unfused path for the decision check.
CHECK_SAMPLE = 32


@dataclass
class Fixture:
    models: dict          # arch -> (matcher, classifier)
    pairs: list


def setup(seed: int, zoo_dir, scratch: str, seconds: int) -> Fixture:
    data = load_benchmark(DATASET, seed=seed, scale=SCALE)
    splits = split_dataset(data, child_rng(seed, "match-split"))
    models = {arch: fit(arch, LARGE, zoo_dir, splits.train[:TRAIN_PAIRS],
                        splits.validation[:VALIDATION_PAIRS], EPOCHS,
                        MAX_LENGTH)
              for arch in ARCHS}
    pairs = [(pair.record_a, pair.record_b) for pair in splits.test.pairs]
    return Fixture(models, pairs)


def measure(fixture: Fixture, seconds: float, speed, recorder=None) -> Run:
    """Rounds of ``match_many`` over every architecture until ``seconds``,
    sampling the host's ``speed`` before each call.

    The architecture order rotates each round so no model always runs
    first.
    """
    pairs = fixture.pairs
    times = {arch: [] for arch in ARCHS}
    degraded = 0
    lookups: dict = {}
    rounds = 0
    with ExitStack() as stack:
        if recorder is not None:
            for arch, (matcher, classifier) in fixture.models.items():
                layers.instrument_model(stack, recorder, arch, matcher,
                                        classifier, lookups)
                layers.instrument_matcher_engines(stack, recorder, arch,
                                                  matcher)
            stack.enter_context(layers.traced_kernels(recorder))
        deadline = time.perf_counter() + seconds
        last_round = 0.0
        # A round starts only if one more like the last ends in time.
        while (rounds < MIN_REPS
               or time.perf_counter() + last_round <= deadline):
            round_start = time.perf_counter()
            with ExitStack() as scope:
                if recorder is not None:
                    scope.enter_context(recorder.root_span("round"))
                for k in range(len(ARCHS)):
                    arch = ARCHS[(rounds + k) % len(ARCHS)]
                    matcher = fixture.models[arch][0]
                    matcher.ensure_token_cache().clear()
                    speed.sample()
                    start = time.perf_counter()
                    outcomes = matcher.match_many(pairs, fast=True)
                    times[arch].append(time.perf_counter() - start)
                    degraded += sum(o.degraded for o in outcomes)
            rounds += 1
            last_round = time.perf_counter() - round_start

    run = Run(attempted=rounds * len(ARCHS) * len(pairs), failed=degraded)
    call_s = {arch: median(times[arch]) for arch in ARCHS}
    # One unit of work: the test set classified by all four architectures.
    unit_s = sum(call_s.values())
    run.metrics = {"throughput_per_s": len(ARCHS) * len(pairs) / unit_s,
                   "latency_ms": 1000.0 * unit_s}
    run.details = {f"pairs_per_s.{arch}": len(pairs) / call_s[arch]
                   for arch in ARCHS}
    run.checks = [_serial_check(arch, *fixture.models[arch],
                                pairs[:CHECK_SAMPLE]) for arch in ARCHS]
    run.info = {"rounds": rounds, "pairs": len(pairs)}
    if recorder is not None:
        run.totals = layers.LayerTotals(recorder.spans)
        for arch in ARCHS:
            run.layers.update(run.totals.arch_metrics(arch, rounds, lookups))
    return run


def _serial_check(arch: str, matcher, classifier, sample) -> checks.Check:
    """Fast-path decisions equal the serial, unfused path's."""
    fast = matcher.match_many(sample, fast=True)
    with fused_kernels(False):
        serial = matcher.match_many(sample, fast=False)
    return checks.same_decisions(f"match.{arch}.serial_unfused", serial,
                                 fast)
