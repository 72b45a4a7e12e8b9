"""Every correctness check passes on real output and fails on a
deliberately corrupted copy of it."""

import dataclasses

import numpy as np
import pytest

from repro.nn import DTYPE

import checks
from fixtures import gate_blocker
from repro.dedupe import (DedupeConfig, SimilarityEngine, dedupe_records,
                          generate_catalog, write_clusters)
from repro.resilience import MatchOutcome


@pytest.fixture(scope="module")
def dedupe_run(tmp_path_factory):
    catalog = generate_catalog(300, seed=4)
    config = DedupeConfig(candidate_batch=64)
    results = [dedupe_records(catalog.records, gate_blocker(),
                              SimilarityEngine(scorer="jaccard"), config)
               for _ in range(2)]
    blobs = []
    for index, result in enumerate(results):
        path = tmp_path_factory.mktemp("clusters") / f"{index}.json"
        write_clusters(path, result)
        blobs.append(path.read_bytes())
    return catalog, config, results, blobs


def test_identical_artifacts(dedupe_run):
    _, _, _, (first, second) = dedupe_run
    assert checks.identical_bytes("a", first, second).ok
    corrupted = bytearray(second)
    corrupted[len(corrupted) // 2] ^= 1
    failed = checks.identical_bytes("a", first, bytes(corrupted))
    assert not failed.ok and "differ" in failed.detail
    assert not checks.identical_bytes("a", first, second[:-1]).ok


def test_high_water(dedupe_run):
    _, config, results, _ = dedupe_run
    high = results[0].max_candidate_batch
    assert checks.within_high_water("s", high, config.candidate_batch).ok
    assert not checks.within_high_water("s", config.candidate_batch + 1,
                                        config.candidate_batch).ok


def test_canonical_clusters(dedupe_run):
    catalog, _, results, _ = dedupe_run
    labels = results[0].entity_ids
    gold = catalog.entity_ids
    assert checks.canonical_clusters("c", labels, gold).ok
    moved = list(labels)
    moved[0] = len(labels) - 1       # names no cluster by its minimum
    assert not checks.canonical_clusters("c", moved, gold).ok
    assert not checks.canonical_clusters("c", labels[:-1], gold).ok


def test_within_threads():
    assert checks.within_threads("t", 2, 2).ok
    assert not checks.within_threads("t", 3, 2).ok


def _outcomes(probabilities):
    return [MatchOutcome(index=i, probability=float(p), matched=p >= 0.5)
            for i, p in enumerate(probabilities)]


def test_same_decisions():
    reference = _outcomes([0.1, 0.7, 0.4])
    assert checks.same_decisions("d", reference, _outcomes([0.2, 0.9, 0.3])
                                 ).ok
    flipped = _outcomes([0.1, 0.3, 0.4])
    assert not checks.same_decisions("d", reference, flipped).ok
    degraded = [dataclasses.replace(o, degraded=True) for o in reference]
    assert not checks.same_decisions("d", reference, degraded).ok
    assert not checks.same_decisions("d", reference, reference[:2]).ok


def test_bit_identical():
    probabilities = np.asarray([0.1, 0.7, 0.4], dtype=DTYPE)
    reference = _outcomes(probabilities)
    assert checks.bit_identical("b", reference,
                                _outcomes(probabilities.copy())).ok
    nudged = probabilities.copy()
    nudged[1] = np.nextafter(nudged[1], DTYPE(1))   # one ulp
    assert not checks.bit_identical("b", reference, _outcomes(nudged)).ok
