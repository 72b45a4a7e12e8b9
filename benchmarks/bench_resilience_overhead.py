"""Resilience overhead — fault tolerance must be pay-for-what-you-use.

``fine_tune(..., resilience=None)`` (the default) must run the original
fast path: no guard checks, no snapshot packing, no chaos branches
beyond a handful of ``is None`` tests.  This benchmark guards that
contract on a complete miniature fine-tune run (2 epochs on a reduced
dblp-acm split with a 2-layer BERT):

1. empirically — the min-of-reps run time with ``resilience=None``
   stays within 2% of the same build measured before the resilience
   module was ever exercised;
2. informationally — the fully armed configuration (checkpoints every
   few steps + divergence guard) is timed and reported, it is allowed
   to cost more (it does real I/O).
"""

from __future__ import annotations

from repro.bench import best_of, tiny_zoo_settings
from repro.data import load_benchmark, split_dataset
from repro.matching import FineTuneConfig, fine_tune
from repro.pretraining import get_pretrained
from repro.resilience import ResilienceConfig
from repro.utils import child_rng

from _shared import emit, run_once

_REPS = 3


def _make_run(tmp_dir):
    pretrained = get_pretrained("bert", seed=0,
                                settings=tiny_zoo_settings(),
                                zoo_dir=tmp_dir / "zoo")
    data = load_benchmark("dblp-acm", seed=7, scale=0.03)
    splits = split_dataset(data, child_rng(7, "split", "dblp-acm"))
    config = FineTuneConfig(epochs=2, batch_size=8, max_length_cap=32)

    def run(resilience=None):
        return fine_tune(pretrained, splits.train, splits.test,
                         config=config, seed=3, resilience=resilience)

    return run


def test_resilience_off_overhead(benchmark, tmp_path):
    run = _make_run(tmp_path)

    def measure():
        baseline, _ = best_of(run, _REPS)
        armed = ResilienceConfig(checkpoint_dir=tmp_path / "ck",
                                 checkpoint_every=5)
        on, _ = best_of(lambda: run(resilience=armed), 1)
        off, _ = best_of(run, _REPS)
        return baseline, on, off

    baseline, on, off = run_once(benchmark, measure)

    # Contract: with resilience=None the loop takes its original fast
    # path — the residual after exercising the armed path stays under 2%.
    residual = off / baseline - 1.0
    assert residual < 0.02, (
        f"resilience-off fine-tune slowed down by {residual:.1%} (>2%)")

    text = "\n".join([
        f"Resilience overhead (min over {_REPS} reps of a 2-epoch "
        f"fine-tune)",
        f"  resilience=None, baseline : {baseline:8.2f} s",
        f"  resilience=None, after    : {off:8.2f} s "
        f"(residual {residual:+.2%}, budget <2%)",
        f"  armed (ckpt every 5 + guard): {on:8.2f} s "
        f"({on / baseline:.2f}x, informational)",
    ])
    emit("resilience_overhead", text)
