"""Summary statistics the benchmark reports: tail percentiles and pairwise
cluster quality against gold ids."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

__all__ = ["median", "tail_percentile", "windowed_tail", "window_rates",
           "PairQuality", "pair_quality"]

#: A reported percentile keeps at least this many samples beyond it.
MIN_BEYOND = 10


def median(values) -> float:
    values = sorted(values)
    if not values:
        raise ValueError("median of no values")
    mid = len(values) // 2
    if len(values) % 2:
        return float(values[mid])
    return (values[mid - 1] + values[mid]) / 2.0


def tail_percentile(samples, q: float) -> tuple[float, float, int]:
    """Nearest-rank percentile ``q`` capped so ``MIN_BEYOND`` samples lie
    beyond it.

    Returns ``(value, q_used, n)``: ``q_used`` is ``q`` when the sample
    supports it and the highest supported quantile otherwise.  Infinite
    samples (failed requests) sort last, so they count as missing any
    latency limit.
    """
    values = sorted(samples)
    n = len(values)
    if n <= MIN_BEYOND:
        raise ValueError(f"{n} samples cannot support any tail percentile")
    q_used = min(q, (n - MIN_BEYOND) / n)
    rank = max(1, math.ceil(q_used * n - 1e-9))
    return float(values[rank - 1]), q_used, n


def windowed_tail(samples, q: float, window: int) -> tuple[float, int, int]:
    """Median over consecutive windows of ``window`` samples of each
    window's :func:`tail_percentile` ``q``.

    A host stall raises the tail of the window it falls in, not the
    median over windows.  The last window takes the remainder.  Returns
    ``(value, windows, samples in the smallest window)``.
    """
    samples = list(samples)
    count = max(1, len(samples) // window)
    bounds = [k * window for k in range(count)] + [len(samples)]
    tails = [tail_percentile(samples[start:end], q)[0]
             for start, end in zip(bounds, bounds[1:])]
    return median(tails), count, min(b - a for a, b in zip(bounds, bounds[1:]))


def window_rates(times, window: float) -> list[float]:
    """Events per second in each consecutive window of ``window`` seconds.

    Windows start at the first event; the last, partial window is left
    out, so a slow start or drain sets at most one window.
    """
    times = sorted(times)
    count = int((times[-1] - times[0]) // window) if times else 0
    if count < 1:
        raise ValueError(f"events span less than one {window}-s window")
    counts = [0] * count
    for t in times:
        k = int((t - times[0]) // window)
        if k < count:
            counts[k] += 1
    return [c / window for c in counts]


@dataclass(frozen=True)
class PairQuality:
    """Pairwise agreement of a clustering with gold entity ids."""

    precision: float
    recall: float
    f1: float
    ari: float
    predicted_pairs: int
    gold_pairs: int
    true_pairs: int


def _pairs(count: int) -> int:
    return count * (count - 1) // 2


def pair_quality(predicted, gold) -> PairQuality:
    """Pairwise precision/recall/F1 and adjusted Rand index.

    ``predicted`` and ``gold`` hold one cluster label per record.  A pair
    of records is predicted when both share a predicted label, and true
    when both share a gold label; all counts come from the contingency
    table, so the cost is linear in the number of records.
    """
    if len(predicted) != len(gold):
        raise ValueError(f"{len(predicted)} predicted labels but "
                         f"{len(gold)} gold labels")
    true_pairs = sum(_pairs(c) for c in Counter(zip(predicted, gold))
                     .values())
    predicted_pairs = sum(_pairs(c) for c in Counter(predicted).values())
    gold_pairs = sum(_pairs(c) for c in Counter(gold).values())
    precision = true_pairs / predicted_pairs if predicted_pairs else 1.0
    recall = true_pairs / gold_pairs if gold_pairs else 1.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    total = _pairs(len(gold))
    expected = predicted_pairs * gold_pairs / total if total else 0.0
    maximum = (predicted_pairs + gold_pairs) / 2.0
    ari = (1.0 if maximum == expected
           else (true_pairs - expected) / (maximum - expected))
    return PairQuality(precision, recall, f1, ari, predicted_pairs,
                       gold_pairs, true_pairs)
