"""The performance benchmark behind ``repro bench perf`` (schema v3).

Measures ``match_many`` throughput (pairs/sec) for every architecture
under the pre-optimization path (serial per-pair matching, fused kernels
off, no tokenization cache) and the fast path (length-bucketed batches,
fused no-tape kernels, tokenization cache), plus the
**DistilBERT→RoBERTa confidence cascade** (see DESIGN.md §16).  The
cascade section reports its speedup against both RoBERTa baselines on
the same workload: ``aggregate_speedup`` over the serial path, gated at
≥4× with cascade F1 within tolerance of RoBERTa-only, and
``fast_speedup`` over the fast path, reported only.

Every acceptance floor lives in :class:`PerfGates` (per-architecture
speedups, the cascade aggregate, the F1 tolerance) instead of scattered
hard-coded constants; :class:`PerfConfig` bundles the gates with the
cascade knobs.  The report is written to ``BENCH_perf.json`` with
``"schema": 3`` so downstream consumers can detect field changes
instead of silently misreading older files.

Imports from ``repro.matching`` stay inside the functions: the matching
layer imports ``repro.perf`` for its scheduling/caching primitives, so a
module-level import here would be circular.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

__all__ = ["run_perf_benchmark", "write_report", "validate_report",
           "DEFAULT_ARCHS", "SPEEDUP_THRESHOLD", "SCHEMA_VERSION",
           "PerfGates", "PerfConfig"]

DEFAULT_ARCHS = ("bert", "roberta", "distilbert", "xlnet")

#: Report schema version stamped into BENCH_perf.json.
SCHEMA_VERSION = 3

#: Legacy alias (schema-1 name) for the BERT fast-path floor; kept so
#: existing consumers of the constant keep reading the same gate.
SPEEDUP_THRESHOLD = 2.0

# Per-architecture fast-path speedup floors.  BERT keeps the historical
# 2.0 gate; XLNet's two-stream attention leaves less fusable work so its
# floor is lower.
_ARCH_SPEEDUP_FLOORS = (("bert", 2.0), ("roberta", 1.8),
                        ("distilbert", 1.8), ("xlnet", 1.5))

_REPORT_KEYS = ("benchmark", "schema", "smoke", "config",
                "architectures", "cascade", "acceptance")
_ARCH_KEYS = ("pairs", "baseline_seconds", "baseline_pairs_per_sec",
              "fast_seconds", "fast_pairs_per_sec", "speedup", "phases",
              "cache", "decisions_consistent")
_CASCADE_KEYS = ("primary", "secondary", "band", "pairs_per_sec",
                 "aggregate_speedup", "fast_speedup", "escalation_rate",
                 "f1")
_ACCEPTANCE_KEYS = ("enforced", "passed", "architectures", "cascade",
                    "f1", "bert_speedup", "threshold")


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
    (scheduler interference only ever adds time, so the minimum is the
    noise-robust estimator — single-shot timings of these tiny models
    swing 2x run to run on a busy host).
    """

    gates: PerfGates = field(default_factory=PerfGates)
    cascade: bool = True
    primary: str = "distilbert"
    secondary: str = "roberta"
    repeats: int = 3


def _tiny_settings():
    from ..pretraining import ZooSettings
    return ZooSettings(base_steps=25, base_examples=150,
                       tokenizer_sentences=150, vocab_size=220,
                       d_model=32, num_layers=2, num_heads=2,
                       max_position=64, seq_len=32)


def _best_seconds(fn, repeats: int, setup=None):
    """Best-of-N wall time for ``fn`` plus its last result.

    ``setup`` runs before each repeat *outside* the timed region (cache
    clears, so every repeat measures the same cold-cache shape).  The
    minimum is the right estimator here: the forward passes are
    deterministic, so repeats differ only by scheduler interference,
    which strictly adds time.
    """
    best = float("inf")
    result = None
    for _ in range(max(1, repeats)):
        if setup is not None:
            setup()
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _build_workload(num_pairs: int, seed: int):
    """dblp-acm splits plus a cycled test-pair workload.

    The workload cycles the test split's pairs up to the requested
    count with the unique pool capped at half the workload, so every
    record really is re-matched at least once — the cacheable shape.
    Train/validation stay held out for fitting and cascade band
    selection.
    """
    from ..data import load_benchmark, split_dataset
    from ..utils import child_rng
    data = load_benchmark("dblp-acm", seed=seed, scale=0.05)
    splits = split_dataset(data, child_rng(seed, "split", "bench-perf"))
    base = [(p.record_a, p.record_b) for p in splits.test.pairs]
    if not base:
        raise RuntimeError("dblp-acm produced no test pairs")
    base = base[:max(1, num_pairs // 2)]
    pairs = [base[i % len(base)] for i in range(num_pairs)]
    return splits, pairs


def _fit_matcher(arch: str, splits, seed: int, zoo_dir):
    from ..matching import EntityMatcher, FineTuneConfig
    matcher = EntityMatcher(
        arch, seed=seed, zoo_settings=_tiny_settings(), zoo_dir=zoo_dir,
        # 3 epochs is the knee: 1 epoch leaves both models all-negative
        # (F1 0.0 — the cascade and F1 gates would pass vacuously),
        # 3 gives DistilBERT ~0.86 / RoBERTa ~1.0 on the test split so
        # band calibration has a real gap to close.
        finetune_config=FineTuneConfig(epochs=3, batch_size=8,
                                       max_length_cap=32))
    matcher.fit(splits.train, splits.validation)
    return matcher


def _bench_arch(matcher, pairs, batch_size: int, config: PerfConfig) -> dict:
    from ..nn import fused_kernels
    from ..obs import default_registry
    tokenizer = matcher.pretrained.tokenizer

    # Baseline: the pre-optimization path — per-pair serial matching,
    # op-by-op kernels, no tokenization cache.
    tokenizer.cache = None
    with fused_kernels(False):
        baseline_seconds, baseline = _best_seconds(
            lambda: matcher.match_many(pairs, fast=False),
            config.repeats)

    # Fast path: bucketed batches + fused no-tape kernels + cache.
    cache = matcher.ensure_token_cache()
    registry = default_registry()
    fast_seconds, fast = _best_seconds(
        lambda: matcher.match_many(pairs, fast=True,
                                   batch_size=batch_size),
        config.repeats, setup=cache.clear)

    n = len(pairs)
    return {
        "pairs": n,
        "baseline_seconds": baseline_seconds,
        "baseline_pairs_per_sec": n / max(baseline_seconds, 1e-9),
        "fast_seconds": fast_seconds,
        "fast_pairs_per_sec": n / max(fast_seconds, 1e-9),
        "speedup": baseline_seconds / max(fast_seconds, 1e-9),
        "phases": {
            "encode_seconds":
                registry.gauge("perf.match.encode_seconds").value,
            "forward_seconds":
                registry.gauge("perf.match.forward_seconds").value,
        },
        "cache": {"hits": int(cache.hits), "misses": int(cache.misses),
                  "hit_rate": cache.hit_rate},
        "decisions_consistent": all(
            a.matched == b.matched for a, b in zip(baseline, fast)),
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

    seconds, _ = _best_seconds(
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


def _acceptance(architectures: dict, cascade: dict | None,
                gates: PerfGates, smoke: bool) -> dict:
    """Evaluate every gate; smoke runs report but never enforce."""
    arch_results = {}
    for arch, entry in architectures.items():
        floor = gates.arch_floor(arch)
        arch_results[arch] = {
            "speedup": entry["speedup"], "floor": floor,
            "passed": bool(entry["speedup"] >= floor
                           and entry["decisions_consistent"])}
    cascade_result = None
    f1_result = None
    if cascade is not None:
        cascade_result = {
            "aggregate_speedup": cascade["aggregate_speedup"],
            "floor": gates.cascade_speedup,
            "passed": bool(cascade["aggregate_speedup"]
                           >= gates.cascade_speedup)}
        delta = cascade["f1"]["delta"]
        f1_result = {
            "delta": delta, "tolerance": gates.f1_tolerance,
            # Matching or beating the secondary is a pass; only a drop
            # beyond tolerance fails.
            "passed": bool(delta >= -gates.f1_tolerance)}
    checks = [result["passed"] for result in arch_results.values()]
    if cascade_result is not None:
        checks.append(cascade_result["passed"])
    if f1_result is not None:
        checks.append(f1_result["passed"])
    bert_speedup = architectures.get("bert", {}).get("speedup", 0.0)
    return {
        # Smoke runs are too small for stable timing; gates are only
        # enforced on full runs.
        "enforced": not smoke,
        "passed": bool(smoke or all(checks)),
        "architectures": arch_results,
        "cascade": cascade_result,
        "f1": f1_result,
        # Legacy schema-1 fields, kept for continuity of the historical
        # headline number.
        "bert_speedup": bert_speedup,
        "threshold": gates.arch_floor("bert"),
    }


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
    splits, pairs = _build_workload(num_pairs, seed)
    architectures = {}
    matchers = {}
    for arch in archs:
        matcher = _fit_matcher(arch, splits, seed, zoo_dir)
        matchers[arch] = matcher
        architectures[arch] = _bench_arch(matcher, pairs, batch_size,
                                          config)
    cascade = None
    if (config.cascade and config.primary in matchers
            and config.secondary in matchers):
        cascade = _bench_cascade(matchers[config.primary],
                                 matchers[config.secondary], splits,
                                 pairs, batch_size, config,
                                 architectures)
    report = {
        "benchmark": "perf",
        "schema": SCHEMA_VERSION,
        "smoke": bool(smoke),
        "config": {"archs": list(archs), "pairs": num_pairs,
                   "seed": seed, "batch_size": batch_size,
                   "cascade": config.cascade,
                   "repeats": config.repeats,
                   "gates": config.gates.as_dict()},
        "architectures": architectures,
        "cascade": cascade,
        "acceptance": _acceptance(architectures, cascade, config.gates,
                                  smoke),
    }
    return report


def validate_report(report: dict) -> list[str]:
    """Schema check; returns a list of problems (empty = valid)."""
    problems = []
    for key in _REPORT_KEYS:
        if key not in report:
            problems.append(f"missing top-level key {key!r}")
    if report.get("benchmark") != "perf":
        problems.append("benchmark field must be 'perf'")
    if report.get("schema") != SCHEMA_VERSION:
        problems.append(
            f"schema field must be {SCHEMA_VERSION}, "
            f"got {report.get('schema')!r}")
    for arch, entry in report.get("architectures", {}).items():
        for key in _ARCH_KEYS:
            if key not in entry:
                problems.append(f"architectures[{arch!r}] missing {key!r}")
    cascade = report.get("cascade")
    if cascade is not None:
        for key in _CASCADE_KEYS:
            if key not in cascade:
                problems.append(f"cascade missing {key!r}")
    acceptance = report.get("acceptance", {})
    for key in _ACCEPTANCE_KEYS:
        if key not in acceptance:
            problems.append(f"acceptance missing {key!r}")
    return problems


def write_report(report: dict, path: str | Path) -> Path:
    """Atomically write the report JSON to ``path``."""
    from ..utils import atomic_write_text
    path = Path(path)
    atomic_write_text(path, json.dumps(report, indent=2, sort_keys=True)
                      + "\n")
    return path
