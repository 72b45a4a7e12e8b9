"""Every metric the benchmark prints, with its unit.

Every workload prints every metric of its mode: ``END_TO_END`` with
``--trace 0`` and ``PER_LAYER`` with ``--trace 1``.  The end-to-end
metrics mean the same kind of thing on every workload (set-up time,
memory, work completed per second, the wait for one unit of work); the
README says what each measures per workload.  A per-layer metric of a
layer the workload never calls reads 0.  ``BENCHMARK.json`` lists the same
names and units; a test keeps the two in step.
"""

from __future__ import annotations

__all__ = ["END_TO_END", "PER_LAYER", "ARCHS", "KERNELS", "arch_names"]

ARCHS = ("bert", "roberta", "distilbert", "xlnet")
KERNELS = ("linear", "attention_core", "softmax", "layer_norm", "gelu",
           "feed_forward")

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "latency_ms": "ms",
}


def arch_names(arch: str) -> dict:
    """The 24 per-architecture metrics of ``arch``."""
    names = {
        f"{arch}.engine_s": "s",
        f"{arch}.tokenize_s": "s",
        f"{arch}.cache_hit_frac": "fraction",
        f"{arch}.forward_s": "s",
        f"{arch}.pad_frac": "fraction",
        f"{arch}.forward_other_s": "s",
    }
    for kernel in KERNELS:
        names[f"{arch}.kernel.{kernel}.self_s"] = "s"
        names[f"{arch}.kernel.{kernel}.calls"] = "count"
        names[f"{arch}.kernel.{kernel}.bytes"] = "bytes"
    return names


PER_LAYER = {
    # repro.data.blocking
    "blocking.signature_s": "s",
    "blocking.emit_s": "s",
    "blocking.candidates": "count",
    "blocking.pc": "ratio",
    "blocking.precision": "ratio",
    # repro.dedupe: similarity, pipeline, cluster
    "similarity.score_s": "s",
    "dedupe.self_s": "s",
    "dedupe.matches": "count",
    "cluster.max_size": "count",
    "cluster.pair_precision": "ratio",
    "cluster.pair_recall": "ratio",
    "ari": "ratio",
    "pair_f1": "ratio",
    # repro.matching.cascade
    "cascade.self_s": "s",
    "cascade.escalation_frac": "fraction",
}
for _arch in ARCHS:
    PER_LAYER.update(arch_names(_arch))
PER_LAYER.update({f"pairs_per_s.{arch}": "1/s" for arch in ARCHS})
PER_LAYER.update({
    # repro.serve
    "serve.queue_wait_p50_ms": "ms",
    "serve.queue_wait_p99_ms": "ms",
    "serve.batch_rows_mean": "count",
    "serve.batches": "count",
    "serve.busy_frac": "fraction",
    "serve.rejected": "count",
    "gen.lag_p99_ms": "ms",
    "p50_ms.lo": "ms",
    "p99_ms.lo": "ms",
    "p99_ms.hi": "ms",
    # the whole run
    "trace.overhead_frac": "fraction",
    "trace.remainder_frac": "fraction",
    "failed_frac": "fraction",
})
