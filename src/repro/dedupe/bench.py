"""Blocking benchmark: recall vs. reduction under an enforced gate.

Blocking trades candidate volume against match recall; this benchmark
measures exactly that trade-off and enforces the production floor
(``BlockingGates``): on a seeded 100k-record generated catalog, the
MinHash-LSH blocker must reach **pairs-completeness >= 0.95** at
**reduction ratio >= 0.99** — i.e. find at least 95% of true duplicate
pairs while pruning at least 99% of the ~5e9-pair cross product — and
an end-to-end ``repro dedupe`` run over the same catalog must complete
while streaming (its high-water candidate batch bounded by the
configured emission batch, evidence the cross product was never
materialized).

A small-scale comparison table also runs all four blockers side by
side, feeding the README trade-off table.  The report goes to
``BENCH_blocking.json`` through :mod:`repro.bench`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..bench import Suite, best_of, gate
from ..data.blocking import (MinHashLSHBlocker, SortedNeighborhoodBlocker,
                             TfIdfBlocker, TokenBlocker)
from .catalog import generate_catalog
from .pipeline import DedupeConfig, dedupe_records
from .similarity import SimilarityEngine

__all__ = ["BlockingGates", "BlockingBenchConfig", "SUITE",
           "run_blocking_benchmark"]

SUITE = Suite("blocking", schema=2, required=(
    "comparison", "gate.pairs_completeness", "gate.reduction_ratio",
    "dedupe.max_candidate_batch", "dedupe.streamed"))


@dataclass(frozen=True)
class BlockingGates:
    """Acceptance floors for the 100k-scale MinHash-LSH gate."""

    pairs_completeness: float = 0.95
    reduction_ratio: float = 0.99

    def as_dict(self) -> dict:
        return {"pairs_completeness": self.pairs_completeness,
                "reduction_ratio": self.reduction_ratio}


@dataclass(frozen=True)
class BlockingBenchConfig:
    """Benchmark shape knobs."""

    num_records: int = 100_000     # gate-scale catalog
    comparison_records: int = 2_000  # 4-blocker side-by-side scale
    seed: int = 7
    candidate_batch: int = 4096
    threshold: float = 0.5
    gates: BlockingGates = field(default_factory=BlockingGates)


def _gate_blocker(seed: int) -> MinHashLSHBlocker:
    """The tuned gate configuration: 128 perms in 32 bands of 4."""
    return MinHashLSHBlocker(num_permutations=128, band_size=4,
                             seed=seed, shingle_size=3)


def _comparison_blockers(seed: int) -> list[tuple[str, object]]:
    return [
        ("token", TokenBlocker(max_token_frequency=0.05)),
        ("sorted_neighborhood",
         SortedNeighborhoodBlocker("title", window=10)),
        ("tfidf", TfIdfBlocker(top_k=10, threshold=0.2)),
        ("minhash_lsh", _gate_blocker(seed)),
    ]


def _measure(blocker, catalog, candidate_batch: int) -> dict:
    """Stream one blocker over a catalog; quality + timing + volume."""
    gold = catalog.gold_pairs()

    def stream():
        found = num_candidates = high_water = 0
        for batch in blocker.iter_candidates(catalog.records,
                                             batch_size=candidate_batch):
            high_water = max(high_water, len(batch))
            num_candidates += len(batch)
            found += sum((pair.index_a, pair.index_b) in gold
                         for pair in batch)
        return found, num_candidates, high_water

    elapsed, (found, num_candidates, high_water) = best_of(stream, 1)
    n = len(catalog.records)
    cross = n * (n - 1) // 2
    # Streaming counterpart of evaluate_blocking: candidates are counted
    # and intersected with gold on the fly, never collected into a set.
    completeness = (found / len(gold)) if gold else 1.0
    reduction = (1.0 - num_candidates / cross) if cross else 1.0
    return {
        "pairs_completeness": round(completeness, 6),
        "reduction_ratio": round(reduction, 6),
        "num_candidates": num_candidates,
        "gold_pairs": len(gold),
        "seconds": round(elapsed, 3),
        "max_candidate_batch": high_water,
        "records": n,
        "cross_product": cross,
    }


def run_blocking_benchmark(config: BlockingBenchConfig | None = None,
                           smoke: bool = False,
                           log=print) -> dict:
    """Run the full blocking benchmark and return the report dict.

    ``smoke=True`` shrinks both catalogs so the whole thing runs in
    seconds (used by the test suite and ``--smoke`` CLI runs); the
    acceptance block then reports ``enforced: false``.
    """
    config = config if config is not None else BlockingBenchConfig()
    num_records = 2_000 if smoke else config.num_records
    comparison_records = 400 if smoke else config.comparison_records

    log(f"blocking bench: comparison at {comparison_records} records")
    small = generate_catalog(comparison_records, seed=config.seed)
    comparison = {}
    for name, blocker in _comparison_blockers(config.seed):
        comparison[name] = _measure(blocker, small, config.candidate_batch)
        log(f"  {name}: PC {comparison[name]['pairs_completeness']:.3f} "
            f"RR {comparison[name]['reduction_ratio']:.4f} "
            f"({comparison[name]['num_candidates']} candidates, "
            f"{comparison[name]['seconds']}s)")

    log(f"blocking bench: MinHash-LSH gate at {num_records} records")
    large = generate_catalog(num_records, seed=config.seed)
    gate_run = _measure(_gate_blocker(config.seed), large,
                        config.candidate_batch)
    log(f"  gate: PC {gate_run['pairs_completeness']:.4f} "
        f"RR {gate_run['reduction_ratio']:.6f} in {gate_run['seconds']}s")

    log("blocking bench: end-to-end dedupe over the gate catalog")
    dedupe_seconds, result = best_of(lambda: dedupe_records(
        large.records, _gate_blocker(config.seed),
        SimilarityEngine(scorer="jaccard"),
        DedupeConfig(threshold=config.threshold,
                     candidate_batch=config.candidate_batch)), 1)
    streaming_ok = result.max_candidate_batch <= config.candidate_batch
    dedupe = {
        "records": result.num_records,
        "candidates": result.num_candidates,
        "matches": result.num_matches,
        "entities": result.num_entities,
        "gold_entities": large.meta["num_entities"],
        "degraded": result.num_degraded,
        "seconds": round(dedupe_seconds, 3),
        "max_candidate_batch": result.max_candidate_batch,
        "candidate_batch_limit": config.candidate_batch,
        "streamed": streaming_ok,
    }
    log(f"  dedupe: {result.num_entities} entities from "
        f"{result.num_records} records in {dedupe_seconds:.1f}s "
        f"(gold {large.meta['num_entities']})")

    gates = config.gates
    return SUITE.report(
        smoke,
        {"num_records": num_records,
         "comparison_records": comparison_records, "seed": config.seed,
         "candidate_batch": config.candidate_batch,
         "threshold": config.threshold, "gates": gates.as_dict()},
        [gate("gate.pairs_completeness", gate_run["pairs_completeness"],
              gates.pairs_completeness),
         gate("gate.reduction_ratio", gate_run["reduction_ratio"],
              gates.reduction_ratio),
         # Streaming: the high-water batch never exceeds the emission
         # batch, so the cross product was never materialized.
         gate("dedupe.max_candidate_batch", result.max_candidate_batch,
              config.candidate_batch, better="lower")],
        comparison=comparison, gate=gate_run, dedupe=dedupe)
