"""Sanitizer overhead — anomaly mode must be pay-for-what-you-use.

``repro.analysis.detect_anomalies`` hooks ``Tensor._make`` and
``Tensor.backward`` only while its context is active, so a training loop
that never enters the context must run on the pristine fast path.  This
benchmark guards that contract on a small fine-tune step (forward +
cross-entropy + backward + Adam step on a 2-layer BERT classifier):

1. structurally — after a sanitized step the hooks are restored to the
   exact original function objects, so the off path is byte-identical;
2. empirically — the min-of-reps step time measured after sanitizer use
   stays within 2% of the time measured before any sanitizer ran;
3. informationally — the sanitizer-on slowdown is reported (it is
   allowed to be large; anomaly mode is a debugging tool).
"""

from __future__ import annotations

import numpy as np

from repro.analysis import detect_anomalies
from repro.bench import best_of
from repro.models import SequenceClassifier, build_backbone, default_config
from repro.nn import Adam, Tensor, cross_entropy

from _shared import emit, run_once

_REPS = 20


def _make_step():
    rng = np.random.default_rng(0)
    config = default_config("bert", vocab_size=120, d_model=32,
                            num_layers=2, num_heads=2, max_position=64,
                            dropout=0.0)
    model = SequenceClassifier(build_backbone(config, rng), config, rng)
    optimizer = Adam(model.parameters(), lr=1e-3)
    input_ids = rng.integers(0, config.vocab_size, size=(4, 16))
    labels = rng.integers(0, 2, size=4)

    def step():
        optimizer.zero_grad()
        loss = cross_entropy(model(input_ids), labels)
        loss.backward()
        optimizer.step()
        return float(loss.item())

    return model, step


def test_sanitizer_off_overhead(benchmark):
    _, step = _make_step()
    pristine_make = Tensor._make
    pristine_backward = Tensor.backward

    def measure():
        before, _ = best_of(step, _REPS)
        # No parameters= audit here: the bench model legitimately leaves
        # its match-feature weights unused (no match_features input).
        with detect_anomalies(check_dead_leaves=False):
            on, _ = best_of(step, 3)
        after, _ = best_of(step, _REPS)
        return before, on, after

    before, on, after = run_once(benchmark, measure)

    # Contract 1: leaving the context restores the exact fast-path
    # functions, so "off" is structurally zero-overhead.
    assert Tensor._make is pristine_make
    assert Tensor.backward is pristine_backward

    # Contract 2: the measured off-path residual stays under 2%.
    residual = after / before - 1.0
    assert residual < 0.02, (
        f"sanitizer-off step slowed down by {residual:.1%} (>2%)")

    text = "\n".join([
        "Sanitizer overhead (min over "
        f"{_REPS} reps of one fine-tune step)",
        f"  off, before anomaly mode : {before * 1e3:8.2f} ms",
        f"  off, after anomaly mode  : {after * 1e3:8.2f} ms "
        f"(residual {residual:+.2%}, budget <2%)",
        f"  on (debug anomaly mode)  : {on * 1e3:8.2f} ms "
        f"({on / before:.2f}x, informational)",
    ])
    emit("sanitizer_overhead", text)
