"""Performance subsystem: no-tape inference, bucketing, caching, bench.

Four layers, one goal — make the matching hot path as fast as the
hardware allows without changing a single logit:

* **Fused no-tape kernels** live in :mod:`repro.nn` (``inference_mode``,
  ``fused_kernels``, ``repro.nn.fused``): with the tape off, the hot op
  chains run as single numpy kernels, bit-identical to the op-by-op
  path.
* **Length-bucketed batching** (:mod:`repro.perf.bucketing`): sort
  sequences by real token count, batch neighbors, trim right-padded
  batches to their own max length.
* **Tokenization caching** (:mod:`repro.perf.cache`): a bounded LRU over
  text -> token ids with hit/miss counters in :mod:`repro.obs`.
* **Benchmarking** (:mod:`repro.perf.bench`): the ``repro bench perf``
  suite emitting ``BENCH_perf.json`` through :mod:`repro.bench`.
"""

from .bench import (DEFAULT_ARCHS, SUITE, PerfConfig, PerfGates,
                    run_perf_benchmark)
from .bucketing import is_left_padded, plan_buckets, real_lengths, trim_length
from .cache import LRUCache, TokenizationCache, ensure_token_cache

__all__ = [
    "LRUCache", "TokenizationCache", "ensure_token_cache",
    "plan_buckets", "real_lengths", "is_left_padded", "trim_length",
    "run_perf_benchmark", "DEFAULT_ARCHS", "SUITE",
    "PerfConfig", "PerfGates",
]
