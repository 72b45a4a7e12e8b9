"""Correctness checks on the program's outputs.

Each check is a pure function of outputs the workload collected and
returns a :class:`Check`; a run is ``correct`` only when every check it
made passed.  The tests feed each check a deliberately corrupted output
to show it can fail.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Check", "identical_bytes", "within_high_water", "within_threads",
           "same_decisions", "bit_identical", "canonical_clusters"]


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


def identical_bytes(name: str, first: bytes, second: bytes) -> Check:
    """Two same-input runs wrote byte-identical artifacts."""
    if first == second:
        return Check(name, True, f"{len(first)} bytes")
    where = next((i for i, (a, b) in enumerate(zip(first, second))
                  if a != b), min(len(first), len(second)))
    return Check(name, False, f"artifacts differ from byte {where} "
                              f"({len(first)} vs {len(second)} bytes)")


def within_high_water(name: str, high_water: int, limit: int) -> Check:
    """The largest candidate batch held stays within the emission batch."""
    return Check(name, 0 < high_water <= limit,
                 f"high-water {high_water}, emission batch {limit}")


def within_threads(name: str, threads: int, nproc: int) -> Check:
    """The load generator and the service together use at most ``nproc``
    threads."""
    return Check(name, 0 < threads <= nproc,
                 f"{threads} threads, nproc {nproc}")


def same_decisions(name: str, reference, outcomes) -> Check:
    """Every outcome's match decision equals the reference's."""
    if len(reference) != len(outcomes):
        return Check(name, False, f"{len(reference)} reference outcomes "
                                  f"but {len(outcomes)} outcomes")
    wrong = [i for i, (a, b) in enumerate(zip(reference, outcomes))
             if a.matched != b.matched or a.degraded or b.degraded]
    return Check(name, not wrong,
                 f"{len(wrong)} of {len(reference)} decisions differ"
                 + (f" (first at {wrong[0]})" if wrong else ""))


def bit_identical(name: str, reference, outcomes) -> Check:
    """Every outcome's probability and decision equal the reference's
    exactly."""
    if len(reference) != len(outcomes):
        return Check(name, False, f"{len(reference)} reference outcomes "
                                  f"but {len(outcomes)} outcomes")
    wrong = [i for i, (a, b) in enumerate(zip(reference, outcomes))
             if a.probability != b.probability or a.matched != b.matched
             or a.degraded != b.degraded]
    return Check(name, not wrong,
                 f"{len(wrong)} of {len(reference)} outcomes differ"
                 + (f" (first at {wrong[0]})" if wrong else ""))


def canonical_clusters(name: str, entity_ids, gold_ids) -> Check:
    """Cluster labels cover the gold catalog and name each cluster by its
    smallest record index, so quality is scored against the right ids."""
    if len(entity_ids) != len(gold_ids):
        return Check(name, False, f"{len(entity_ids)} labels for "
                                  f"{len(gold_ids)} gold records")
    first = {}
    for index, label in enumerate(entity_ids):
        first.setdefault(label, index)
    wrong = [i for i, label in enumerate(entity_ids) if first[label] != label]
    return Check(name, not wrong,
                 f"{len(first)} clusters over {len(gold_ids)} records"
                 + (f"; {len(wrong)} labels not canonical" if wrong else ""))
