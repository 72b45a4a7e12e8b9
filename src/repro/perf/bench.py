"""The performance suite behind ``repro bench perf`` (schema 4).

Measures ``match_many`` throughput (pairs/sec) for every architecture
under the pre-optimization path (serial per-pair matching, fused kernels
off, no tokenization cache) and the fast path (length-bucketed batches,
fused no-tape kernels, tokenization cache), plus the
**DistilBERT→RoBERTa confidence cascade** (see DESIGN.md §16).  The
cascade section reports its speedup against both RoBERTa baselines on
the same workload: ``aggregate_speedup`` over the serial path, gated at
≥4× with cascade F1 within tolerance of RoBERTa-only, and
``fast_speedup`` over the fast path, reported only.

Every acceptance floor lives in :class:`PerfGates`; :class:`PerfConfig`
bundles the gates with the cascade knobs.  Timing, gates, host record,
validation and writing are :mod:`repro.bench`'s; the report goes to
``BENCH_perf.json``.

Imports from ``repro.matching`` stay inside the functions: the matching
layer imports ``repro.perf`` for its scheduling/caching primitives, so a
module-level import here would be circular.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..bench import Suite, best_of, build_workload, fit_matcher, gate

__all__ = ["run_perf_benchmark", "DEFAULT_ARCHS", "SUITE", "PerfGates",
           "PerfConfig"]

DEFAULT_ARCHS = ("bert", "roberta", "distilbert", "xlnet")

SUITE = Suite("perf", schema=4, required=tuple(
    [f"architectures.*.{key}" for key in (
        "pairs", "baseline_seconds", "baseline_pairs_per_sec",
        "fast_seconds", "fast_pairs_per_sec", "speedup", "phases",
        "cache", "decision_agreement")]
    + [f"cascade.{key}" for key in (
        "primary", "secondary", "band", "pairs_per_sec",
        "aggregate_speedup", "fast_speedup", "escalation_rate", "f1")]))

# Per-architecture fast-path speedup floors.  XLNet's two-stream
# attention leaves less fusable work so its floor is lower.
_ARCH_SPEEDUP_FLOORS = (("bert", 2.0), ("roberta", 1.8),
                        ("distilbert", 1.8), ("xlnet", 1.5))

_CACHE_COUNTS = ("lookups/hits/misses: every cache lookup of the kept "
                 "repeat, i.e. one pair lookup per pair plus one text "
                 "lookup per side of each pair miss; pair_*: the pair "
                 "lookups alone")


@dataclass(frozen=True)
class PerfGates:
    """Every acceptance floor of the perf benchmark in one place.

    ``arch_speedups`` maps architecture -> fast-path speedup floor (as a
    name/floor tuple so the config stays hashable);
    ``cascade_speedup`` is the aggregate cascade-over-RoBERTa-baseline
    floor; ``f1_tolerance`` how far cascade F1 may trail RoBERTa-only
    F1.
    """

    arch_speedups: tuple[tuple[str, float], ...] = _ARCH_SPEEDUP_FLOORS
    cascade_speedup: float = 4.0
    f1_tolerance: float = 0.005

    def arch_floor(self, arch: str) -> float:
        """The fast-path speedup floor for ``arch`` (1.0 if unlisted)."""
        return dict(self.arch_speedups).get(arch, 1.0)

    def as_dict(self) -> dict:
        """JSON-ready view for the report's config section."""
        return {"arch_speedups": dict(self.arch_speedups),
                "cascade_speedup": self.cascade_speedup,
                "f1_tolerance": self.f1_tolerance}


@dataclass(frozen=True)
class PerfConfig:
    """Benchmark configuration: gates plus cascade knobs.

    ``cascade`` toggles the two-model cascade section;
    ``primary``/``secondary`` name the cascade's cheap and strong
    models; ``repeats`` is the best-of-N count for every timed path
    (single-shot timings of these tiny models swing 2x run to run on a
    busy host).
    """

    gates: PerfGates = field(default_factory=PerfGates)
    cascade: bool = True
    primary: str = "distilbert"
    secondary: str = "roberta"
    repeats: int = 3


def _bench_arch(matcher, pairs, batch_size: int, repeats: int) -> dict:
    from ..nn import fused_kernels
    from ..obs import default_registry
    tokenizer = matcher.pretrained.tokenizer

    # Baseline: the pre-optimization path — per-pair serial matching,
    # op-by-op kernels, no tokenization cache.
    tokenizer.cache = None
    with fused_kernels(False):
        baseline_seconds, baseline = best_of(
            lambda: matcher.match_many(pairs, fast=False), repeats)

    # Fast path: bucketed batches + fused no-tape kernels + cache.  The
    # phase gauges are last-write-wins and the cache counters run across
    # repeats, so each repeat returns its own readings and the report
    # keeps the ones of the repeat best_of keeps.
    cache = matcher.ensure_token_cache()
    registry = default_registry()

    def fast_run():
        hits, misses = cache.hits, cache.misses
        outcomes = matcher.match_many(pairs, fast=True,
                                      batch_size=batch_size)
        phases = {name: registry.gauge(f"perf.match.{name}").value
                  for name in ("encode_seconds", "forward_seconds")}
        return outcomes, phases, cache.hits - hits, cache.misses - misses

    fast_seconds, (fast, phases, hits, misses) = best_of(
        fast_run, repeats, setup=cache.clear)

    n = len(pairs)
    lookups = hits + misses
    pair_misses = (lookups - n) // 2
    agreement = sum(a.matched == b.matched
                    for a, b in zip(baseline, fast)) / max(n, 1)
    return {
        "pairs": n,
        "baseline_seconds": baseline_seconds,
        "baseline_pairs_per_sec": n / max(baseline_seconds, 1e-9),
        "fast_seconds": fast_seconds,
        "fast_pairs_per_sec": n / max(fast_seconds, 1e-9),
        "speedup": baseline_seconds / max(fast_seconds, 1e-9),
        "phases": phases,
        "cache": {"counts": _CACHE_COUNTS, "lookups": lookups,
                  "hits": hits, "misses": misses,
                  "hit_rate": hits / max(lookups, 1),
                  "pair_lookups": n, "pair_hits": n - pair_misses,
                  "pair_hit_rate": (n - pair_misses) / max(n, 1)},
        "decision_agreement": agreement,
    }


def _bench_cascade(primary, secondary, splits, pairs, batch_size: int,
                   config: PerfConfig, architectures: dict) -> dict:
    """Calibrate the ambiguity band and time the two-model cascade."""
    from ..matching import build_cascade, evaluate_predictions
    cascade = build_cascade(primary, secondary, splits.validation,
                            tolerance=config.gates.f1_tolerance,
                            batch_size=batch_size)
    band = cascade.calibration

    test_pairs = [(p.record_a, p.record_b) for p in splits.test.pairs]
    labels = splits.test.labels()
    outcomes = cascade.score_pairs(test_pairs, fallback=False,
                                   batch_size=batch_size)
    f1_cascade = evaluate_predictions(
        labels, [o.matched for o in outcomes]).f1
    reference = secondary.engine().score_pairs(test_pairs, fallback=False,
                                               batch_size=batch_size)
    f1_secondary = evaluate_predictions(
        labels, [o.matched for o in reference]).f1

    def _clear_caches():
        primary.ensure_token_cache().clear()
        secondary.ensure_token_cache().clear()

    seconds, _ = best_of(
        lambda: cascade.score_pairs(pairs, fallback=False,
                                    batch_size=batch_size),
        config.repeats, setup=_clear_caches)

    n = len(pairs)
    secondary_entry = architectures.get(config.secondary, {})
    baseline_seconds = secondary_entry.get("baseline_seconds")
    fast_seconds = secondary_entry.get("fast_seconds")

    def speedup(reference_seconds):
        return (reference_seconds / max(seconds, 1e-9)
                if reference_seconds else 0.0)

    def rate(reference_seconds):
        return (n / max(reference_seconds, 1e-9)
                if reference_seconds else 0.0)

    return {
        "primary": config.primary,
        "secondary": config.secondary,
        "band": {"lo": band.lo, "hi": band.hi,
                 "validation_escalation_rate": band.escalation_rate},
        "pairs": n,
        "seconds": seconds,
        "pairs_per_sec": n / max(seconds, 1e-9),
        # Two baselines on the same workload: the secondary's serial,
        # unfused path (gated) and its fast path (reported).
        "baseline_seconds": baseline_seconds,
        "baseline_pairs_per_sec": rate(baseline_seconds),
        "aggregate_speedup": speedup(baseline_seconds),
        "fast_baseline_seconds": fast_seconds,
        "fast_baseline_pairs_per_sec": rate(fast_seconds),
        "fast_speedup": speedup(fast_seconds),
        "escalation_rate": cascade.last_escalation_rate(),
        "f1": {"cascade": f1_cascade, "secondary": f1_secondary,
               "delta": f1_cascade - f1_secondary},
    }


def _gates(architectures: dict, cascade: dict | None,
           gates: PerfGates) -> list[dict]:
    checks = []
    for arch, entry in architectures.items():
        checks.append(gate(f"{arch}.speedup", entry["speedup"],
                           gates.arch_floor(arch)))
        # A speedup that changes answers is a bug, not an optimization.
        checks.append(gate(f"{arch}.decision_agreement",
                           entry["decision_agreement"], 1.0))
    if cascade is not None:
        checks.append(gate("cascade.aggregate_speedup",
                           cascade["aggregate_speedup"],
                           gates.cascade_speedup))
        # Matching or beating the secondary is a pass; only a drop
        # beyond tolerance fails.
        checks.append(gate("cascade.f1_delta", cascade["f1"]["delta"],
                           -gates.f1_tolerance))
    return checks


def run_perf_benchmark(archs=DEFAULT_ARCHS, num_pairs: int = 200,
                       seed: int = 0, zoo_dir=None, batch_size: int = 64,
                       smoke: bool = False,
                       config: PerfConfig | None = None) -> dict:
    """Run the benchmark and return the report dict (see module doc)."""
    if config is None:
        config = PerfConfig()
    if smoke:
        num_pairs = min(num_pairs, 24)
        # Smoke validates plumbing/schema, never timing — one repeat.
        config = replace(config, repeats=1)
    splits, pairs = build_workload(num_pairs, seed)
    architectures = {}
    matchers = {}
    for arch in archs:
        matcher = fit_matcher(arch, splits, seed, zoo_dir)
        matchers[arch] = matcher
        architectures[arch] = _bench_arch(matcher, pairs, batch_size,
                                          config.repeats)
    cascade = None
    if (config.cascade and config.primary in matchers
            and config.secondary in matchers):
        cascade = _bench_cascade(matchers[config.primary],
                                 matchers[config.secondary], splits,
                                 pairs, batch_size, config,
                                 architectures)
    return SUITE.report(
        smoke,
        {"archs": list(archs), "pairs": num_pairs, "seed": seed,
         "batch_size": batch_size, "cascade": config.cascade,
         "repeats": config.repeats, "gates": config.gates.as_dict()},
        _gates(architectures, cascade, config.gates),
        architectures=architectures, cascade=cascade)
