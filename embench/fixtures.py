"""Model zoo shapes, training data and fine-tuning shared by workloads.

The zoo checkpoints (in-repo pretraining) are built once per checkout by
:func:`ensure_zoo`, outside every timed region, the way downloaded
checkpoints would be.  Fine-tuning is part of each workload's set-up and
is redone on every run: no fine-tune result is cached.  It uses the fixed
``TRAIN_SEED``, so every run of a commit trains the same model and the
quality metrics vary only with the measured inputs.
"""

from __future__ import annotations

from repro.data import EMDataset, EntityPair, MinHashLSHBlocker, \
    split_dataset
from repro.dedupe import CATALOG_SCHEMA, generate_catalog
from repro.matching import EntityMatcher, FineTuneConfig
from repro.pretraining import ZooSettings, get_pretrained
from repro.utils import child_rng

__all__ = ["ZOO_SEED", "SMALL", "LARGE", "ensure_zoo", "gate_blocker",
           "catalog_splits", "fit", "TRAIN_SEED", "MAX_SEED"]

#: Pretraining seed: fixed, so every run of a commit loads the same zoo.
ZOO_SEED = 0
#: Workload seeds lie below MAX_SEED; the training catalog and fine-tuning
#: use TRAIN_SEED, so training data is disjoint from every measured input.
MAX_SEED = 2 ** 32
TRAIN_SEED = MAX_SEED

#: d_model 32, sequences up to 32 tokens: the dedupe and serving shape.
SMALL = ZooSettings(base_steps=25, base_examples=150,
                    tokenizer_sentences=150, vocab_size=220, d_model=32,
                    num_layers=2, num_heads=2, max_position=64, seq_len=32)

#: d_model 64, sequences up to 64 tokens: the ``match-pairs`` shape.
LARGE = ZooSettings(base_steps=25, base_examples=150,
                    tokenizer_sentences=150, vocab_size=220, d_model=64,
                    num_layers=2, num_heads=4, max_position=64, seq_len=64)

ZOO = ((SMALL, ("bert", "roberta", "distilbert")),
       (LARGE, ("bert", "roberta", "distilbert", "xlnet")))


def ensure_zoo(zoo_dir) -> None:
    """Pretrain (first call in a checkout) or load every checkpoint."""
    for settings, archs in ZOO:
        for arch in archs:
            get_pretrained(arch, seed=ZOO_SEED, settings=settings,
                           zoo_dir=zoo_dir)


def gate_blocker() -> MinHashLSHBlocker:
    """The dedupe gate blocker: 128 permutations, bands of 4, 3-shingles.

    Its permutation seed is a program setting, the same on every run.
    """
    return MinHashLSHBlocker(num_permutations=128, band_size=4, seed=0,
                             shingle_size=3)


def catalog_splits(num_records: int):
    """Gold-labelled MinHash candidate pairs of the training catalog,
    split into train, validation and test."""
    catalog = generate_catalog(num_records, seed=TRAIN_SEED)
    gold = catalog.gold_pairs()
    records = catalog.records
    pairs = [EntityPair(records[c.index_a], records[c.index_b],
                        int((c.index_a, c.index_b) in gold))
             for c in gate_blocker().candidates(records)]
    dataset = EMDataset("catalog", "products", list(CATALOG_SCHEMA), pairs)
    return split_dataset(dataset, child_rng(TRAIN_SEED, "split"))


def fit(arch: str, settings: ZooSettings, zoo_dir, train, validation,
        epochs: int, max_length: int):
    """Fine-tune ``arch``; returns ``(matcher, classifier)``."""
    matcher = EntityMatcher(
        arch, seed=TRAIN_SEED, zoo_settings=settings, zoo_dir=zoo_dir,
        pretrained=get_pretrained(arch, seed=ZOO_SEED, settings=settings,
                                  zoo_dir=zoo_dir),
        finetune_config=FineTuneConfig(epochs=epochs, batch_size=8,
                                       max_length_cap=max_length))
    result = matcher.fit(train, validation)
    return matcher, result.classifier
