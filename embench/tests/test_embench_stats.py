"""Tail percentiles and pairwise cluster quality."""

import itertools
import math

import numpy as np
import pytest

from repro.dedupe import adjusted_rand_index, generate_catalog
from stats import (median, pair_quality, tail_percentile, window_rates,
                   windowed_tail)


def test_tail_percentile_keeps_ten_samples_beyond_it():
    samples = list(range(1, 1001))          # 1..1000
    value, q_used, n = tail_percentile(samples, 0.99)
    assert (value, q_used, n) == (990, 0.99, 1000)
    assert sum(1 for s in samples if s > value) == 10

    few = list(range(1, 201))               # p99 would leave 2 beyond
    value, q_used, n = tail_percentile(few, 0.99)
    assert n == 200 and q_used == pytest.approx(0.95)
    assert sum(1 for s in few if s > value) == 10


def test_tail_percentile_counts_failures_as_missing_the_limit():
    samples = [1.0] * 985 + [math.inf] * 15
    assert tail_percentile(samples, 0.99)[0] == math.inf


def test_tail_percentile_rejects_a_sample_too_small():
    with pytest.raises(ValueError):
        tail_percentile([1.0] * 10, 0.5)


def test_windowed_tail_is_the_median_of_window_tails():
    calm = list(range(1, 1001))              # p99 990
    stalled = list(range(1, 981)) + [5000] * 20
    value, windows, smallest = windowed_tail(calm + stalled + calm, 0.99,
                                             1000)
    assert (value, windows, smallest) == (990, 3, 1000)
    # The remainder joins the last window rather than forming a short one.
    assert windowed_tail(list(range(2500)), 0.99, 1000)[1:] == (2, 1000)
    # Fewer samples than one window: one window over all of them.
    assert windowed_tail(list(range(1, 201)), 0.99, 1000) == (190, 1, 200)


def test_median():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 2, 3]) == 2.5


def _oracle(predicted, gold):
    """Brute force over every pair of records."""
    tp = fp = fn = 0
    for i, j in itertools.combinations(range(len(gold)), 2):
        same_p = predicted[i] == predicted[j]
        same_g = gold[i] == gold[j]
        tp += same_p and same_g
        fp += same_p and not same_g
        fn += same_g and not same_p
    precision = tp / (tp + fp) if tp + fp else 1.0
    recall = tp / (tp + fn) if tp + fn else 1.0
    return precision, recall


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pair_quality_matches_a_brute_force_oracle(seed):
    catalog = generate_catalog(120, seed=seed)
    gold = catalog.entity_ids
    rng = np.random.default_rng(seed)
    # Merge and split gold clusters at random: both error kinds occur.
    predicted = [int(g) // 2 if rng.random() < 0.7 else 1000 + i
                 for i, g in enumerate(gold)]
    quality = pair_quality(predicted, gold)
    precision, recall = _oracle(predicted, gold)
    assert quality.precision == pytest.approx(precision)
    assert quality.recall == pytest.approx(recall)
    assert quality.f1 == pytest.approx(
        2 * precision * recall / (precision + recall))
    assert quality.ari == pytest.approx(
        adjusted_rand_index(predicted, gold))
    perfect = pair_quality(gold, gold)
    assert (perfect.precision, perfect.recall, perfect.ari) == (1, 1, 1)


def test_window_rates_count_whole_windows_only():
    # 10/s for two seconds, a one-second stall, 10/s again, then a
    # straggler that opens a partial window.
    times = ([k / 10 for k in range(20)] + [3 + k / 10 for k in range(20)]
             + [5.05])
    assert window_rates(times, 1.0) == [10.0, 10.0, 0.0, 10.0, 10.0]
    with pytest.raises(ValueError):
        window_rates([0.0, 0.5], 1.0)
