"""``dedupe-jaccard`` and ``dedupe-cascade``: raw catalog -> block -> score
-> cluster through ``repro.dedupe.dedupe_records``.

``dedupe-jaccard`` scores with the model-free ``SimilarityEngine`` over a
catalog large enough that union-find chaining merges distinct entities, so
blocking, similarity and clustering do all the work.  ``dedupe-cascade``
scores a smaller catalog with the DistilBERT -> RoBERTa ``CascadeEngine``,
so tokenizers and models do most of the work; records recur in many
candidate pairs there, which is where record-level reuse would show.
"""

from __future__ import annotations

import os
import time
from contextlib import ExitStack
from dataclasses import dataclass

from repro.dedupe import (DedupeConfig, SimilarityEngine, dedupe_records,
                          generate_catalog, write_clusters)
from repro.matching import build_cascade

import checks
import layers
from fixtures import SMALL, catalog_splits, fit, gate_blocker
from outcome import Run
from stats import median, pair_quality

__all__ = ["Fixture", "setup_jaccard", "setup_cascade", "measure"]

JACCARD_RECORDS = 10_000
CASCADE_RECORDS = 3_000
#: Training catalog for the cascade; its MinHash candidates are the
#: gold-labelled fine-tuning pairs.
CASCADE_TRAIN_RECORDS = 600
CASCADE_EPOCHS = 3
CASCADE_MAX_LENGTH = 32
#: Every run makes at least two passes, so the determinism check always
#: has two same-seed artifacts to compare.
MIN_PASSES = 2

#: Reference-loop samples of the host's speed before each pass.
SPEED_SAMPLES = 2


@dataclass
class Fixture:
    catalog: object
    blocker: object
    engine: object
    config: DedupeConfig
    models: tuple = ()      # (arch, matcher, classifier) for cascade
    cascade: object = None
    scratch: str = "."


def setup_jaccard(seed: int, zoo_dir, scratch: str, seconds: int) -> Fixture:
    return Fixture(generate_catalog(JACCARD_RECORDS, seed=seed),
                   gate_blocker(),
                   SimilarityEngine(scorer="jaccard"), DedupeConfig(),
                   scratch=scratch)


def setup_cascade(seed: int, zoo_dir, scratch: str, seconds: int) -> Fixture:
    splits = catalog_splits(CASCADE_TRAIN_RECORDS)
    models = tuple(
        (arch, *fit(arch, SMALL, zoo_dir, splits.train,
                    splits.validation, CASCADE_EPOCHS, CASCADE_MAX_LENGTH))
        for arch in ("distilbert", "roberta"))
    cascade = build_cascade(models[0][1], models[1][1], splits.validation)
    return Fixture(generate_catalog(CASCADE_RECORDS, seed=seed),
                   gate_blocker(), cascade, DedupeConfig(),
                   models=models, cascade=cascade, scratch=scratch)


def _clusters_bytes(fixture: Fixture, result) -> bytes:
    path = os.path.join(fixture.scratch, "clusters.json")
    write_clusters(path, result)
    with open(path, "rb") as handle:
        data = handle.read()
    os.unlink(path)
    return data


def _instrument(stack, recorder, fixture: Fixture, on_batch, lookups):
    layers.instrument_blocker(stack, recorder, fixture.blocker, on_batch)
    pairs = lambda args, kwargs, result: {"pairs": len(result)}
    if fixture.cascade is None:
        layers.patch(stack, fixture.engine, "score_pairs",
                     recorder.wrap(fixture.engine.score_pairs,
                                   "similarity.score", attrs=pairs))
        return
    layers.patch(stack, fixture.cascade, "score_pairs",
                 recorder.wrap(fixture.cascade.score_pairs, "cascade",
                               attrs=pairs))
    engines = (fixture.cascade.primary, fixture.cascade.secondary)
    for (arch, matcher, classifier), engine in zip(fixture.models, engines):
        layers.instrument_model(stack, recorder, arch, matcher, classifier,
                                lookups)
        layers.patch(stack, engine, "score_pairs",
                     recorder.wrap(engine.score_pairs, f"{arch}.engine",
                                   attrs=pairs))
    stack.enter_context(layers.traced_kernels(recorder))


def measure(fixture: Fixture, seconds: float, speed, recorder=None) -> Run:
    """Dedupe the catalog in passes while one more fits in ``seconds``,
    sampling the host's ``speed`` before each."""
    records = fixture.catalog.records
    emitted: list = []      # candidate batches of the first traced pass
    lookups: dict = {}
    passes = []
    run_dedupe = dedupe_records

    def on_batch(batch):
        if not passes:
            emitted.append(batch)

    with ExitStack() as stack:
        if recorder is not None:
            _instrument(stack, recorder, fixture, on_batch, lookups)
            run_dedupe = recorder.wrap(dedupe_records, "dedupe")
        deadline = time.perf_counter() + seconds
        # A pass starts only if one more like the last ends in time.
        while (len(passes) < MIN_PASSES
               or time.perf_counter() + passes[-1][0] <= deadline):
            for _, matcher, _ in fixture.models:
                matcher.ensure_token_cache().clear()   # each pass is cold
            speed.sample(SPEED_SAMPLES)
            with ExitStack() as scope:
                if recorder is not None:
                    scope.enter_context(recorder.root_span("pass"))
                start = time.perf_counter()
                result = run_dedupe(records, fixture.blocker,
                                    fixture.engine, fixture.config)
                elapsed = time.perf_counter() - start
            passes.append((elapsed, result))

    first = passes[0][1]
    gold_ids = fixture.catalog.entity_ids
    quality = pair_quality(first.entity_ids, gold_ids)
    artifacts = [_clusters_bytes(fixture, result) for _, result in passes]
    run = Run(attempted=sum(r.num_candidates for _, r in passes),
              failed=sum(r.num_degraded for _, r in passes))
    pass_s = median(t for t, _ in passes)
    run.metrics = {"throughput_per_s": len(records) / pass_s,
                   "latency_ms": 1000.0 * pass_s}
    run.details = {"ari": quality.ari, "pair_f1": quality.f1}
    run.checks = [
        checks.identical_bytes("dedupe.artifacts_identical", artifacts[0],
                               artifact)
        for artifact in artifacts[1:]]
    run.checks += [
        checks.within_high_water("dedupe.streamed",
                                 result.max_candidate_batch,
                                 fixture.config.candidate_batch)
        for _, result in passes]
    run.checks.append(checks.canonical_clusters(
        "dedupe.clusters_canonical", first.entity_ids, gold_ids))
    run.info = {"passes": len(passes), "records": len(records),
                "candidates": first.num_candidates,
                "matches": first.num_matches,
                "entities": first.num_entities,
                "gold_entities": len(set(gold_ids))}
    if recorder is not None:
        run.totals = layers.LayerTotals(recorder.spans)
        run.layers = _layer_metrics(fixture, run.totals, passes, emitted,
                                    quality, lookups)
        # Reuse a record- or pair-level cache could exploit, against the
        # entries the token cache held after the last pass.
        run.info["distinct_records_in_pairs"] = len(
            {i for batch in emitted for pair in batch
             for i in (pair.index_a, pair.index_b)})
        run.info["distinct_pairs"] = len(
            {(pair.index_a, pair.index_b) for batch in emitted
             for pair in batch})
        run.info["token_cache_entries"] = {
            arch: len(matcher.ensure_token_cache())
            for arch, matcher, _ in fixture.models}
    return run


def _layer_metrics(fixture: Fixture, totals, passes, emitted, quality,
                   lookups) -> dict:
    units = len(passes)
    first = passes[0][1]
    gold = fixture.catalog.gold_pairs()
    found = sum(1 for batch in emitted for pair in batch
                if (pair.index_a, pair.index_b) in gold)
    sizes = {}
    for label in first.entity_ids:
        sizes[label] = sizes.get(label, 0) + 1
    metrics = {
        "blocking.signature_s": totals.duration["blocking.signatures"] / units,
        "blocking.emit_s": totals.self_s["blocking.emit"] / units,
        "blocking.candidates": first.num_candidates,
        "blocking.pc": found / len(gold) if gold else 1.0,
        "blocking.precision": (found / first.num_candidates
                               if first.num_candidates else 0.0),
        "dedupe.self_s": totals.self_s["dedupe"] / units,
        "dedupe.matches": first.num_matches,
        "cluster.max_size": max(sizes.values()),
        "cluster.pair_precision": quality.precision,
        "cluster.pair_recall": quality.recall,
    }
    if fixture.cascade is None:
        metrics["similarity.score_s"] = (
            totals.duration["similarity.score"] / units)
        return metrics
    scored = totals.attrs["cascade"]["pairs"]
    metrics["cascade.self_s"] = totals.self_s["cascade"] / units
    metrics["cascade.escalation_frac"] = (
        totals.attrs["roberta.engine"]["pairs"] / scored if scored else 0.0)
    for arch, _, _ in fixture.models:
        metrics.update(totals.arch_metrics(arch, units, lookups))
    return metrics
