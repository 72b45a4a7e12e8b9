"""Outside-in instrumentation of the program's layers for the traced run.

Every span comes from wrapping a public function or method of a layer
from here, for the duration of the traced run only:

===========================  =====================================
span                         wrapped call
===========================  =====================================
``dedupe``                   ``repro.dedupe.dedupe_records``
``blocking.emit``            one ``next()`` on ``Blocker.iter_candidates``
``blocking.signatures``      ``MinHashLSHBlocker.signatures``
``similarity.score``         ``SimilarityEngine.score_pairs``
``cascade``                  ``CascadeEngine.score_pairs``
``<arch>.engine``            ``MatchEngine.score_pairs``
``<arch>.tokenize``          the tokenizer's ``encode_pair``
``<arch>.forward``           the classifier's ``predict_proba``
``kernel.<k>``               the ``repro.nn.fused`` module attribute ``k``
``serve.score``              the serving backend's ``score``
===========================  =====================================

The models call the fused kernels through the module attribute, so
replacing it times every call; ``feed_forward`` nests ``linear`` and
``gelu``, and ``attention_core`` nests ``softmax``.  Kernel ``bytes`` are
computed from array shapes (``nbytes`` of each distinct array operand plus
the result), not measured memory traffic.  Token-cache hits are counted by
wrapping ``TokenizationCache.lookup_pair``: a lookup whose ``compute``
callback never runs is a hit.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from catalogue import KERNELS
from spans import END, NAME, PARENT, START, ATTRS, self_times

__all__ = ["KERNELS", "patch", "kernel_bytes", "traced_kernels",
           "instrument_model",
           "instrument_matcher_engines", "instrument_blocker",
           "LayerTotals"]

def patch(stack, obj, attr: str, value) -> None:
    """Set ``obj.attr`` for the life of ``stack`` (an ``ExitStack``)."""
    own = vars(obj)
    had, old = attr in own, own.get(attr)
    setattr(obj, attr, value)

    def restore():
        if had:
            setattr(obj, attr, old)
        else:
            delattr(obj, attr)

    stack.callback(restore)


def kernel_bytes(args, kwargs, result) -> dict:
    """Bytes of each distinct array operand read plus the result written."""
    seen = set()
    total = 0
    for value in (*args, *kwargs.values()):
        if isinstance(value, np.ndarray) and id(value) not in seen:
            seen.add(id(value))
            total += value.nbytes
    if isinstance(result, np.ndarray):
        total += result.nbytes
    return {"bytes": total}


@contextmanager
def traced_kernels(recorder):
    """Time every fused kernel call inside the block."""
    from repro.nn import fused
    originals = {name: getattr(fused, name) for name in KERNELS}
    try:
        for name, fn in originals.items():
            setattr(fused, name, recorder.wrap(fn, f"kernel.{name}",
                                               attrs=kernel_bytes))
        yield
    finally:
        for name, fn in originals.items():
            setattr(fused, name, fn)


def _pad_attrs(args, kwargs, result) -> dict:
    mask = kwargs.get("pad_mask")
    if mask is None:
        return {"pad": 0, "cells": int(np.asarray(args[0]).size)}
    return {"pad": int(mask.sum()), "cells": int(mask.size)}


def instrument_model(stack, recorder, arch: str, matcher, classifier,
                     lookups: dict) -> None:
    """Wrap ``arch``'s tokenizer, token cache and classifier forward.

    ``lookups[arch]`` collects ``[lookups, misses]`` of the token cache.
    """
    tokenizer = matcher.pretrained.tokenizer
    cache = matcher.ensure_token_cache()
    counts = lookups.setdefault(arch, [0, 0])
    lookup_pair = cache.lookup_pair

    def counted_lookup(text_a, text_b, max_length, pad_to_max, compute):
        counts[0] += 1

        def miss():
            counts[1] += 1
            return compute()

        return lookup_pair(text_a, text_b, max_length, pad_to_max, miss)

    patch(stack, cache, "lookup_pair", counted_lookup)
    patch(stack, tokenizer, "encode_pair",
          recorder.wrap(tokenizer.encode_pair, f"{arch}.tokenize"))
    patch(stack, classifier, "predict_proba",
          recorder.wrap(classifier.predict_proba, f"{arch}.forward",
                        attrs=_pad_attrs))


def instrument_matcher_engines(stack, recorder, arch: str, matcher) -> None:
    """Wrap every engine ``matcher.engine()`` builds (``match_many``)."""
    build = matcher.engine

    def engine(*args, **kwargs):
        built = build(*args, **kwargs)
        built.score_pairs = recorder.wrap(built.score_pairs,
                                          f"{arch}.engine")
        return built

    patch(stack, matcher, "engine", engine)


def instrument_blocker(stack, recorder, blocker, on_batch) -> None:
    """Time each emitted candidate batch and the signature pass.

    ``on_batch(batch)`` sees every emitted batch outside any span, so
    blocking quality can be scored after the pass.
    """
    iter_candidates = blocker.iter_candidates

    def traced_iter(*args, **kwargs):
        stream = iter_candidates(*args, **kwargs)
        while True:
            with recorder.span("blocking.emit"):
                batch = next(stream, None)
            if batch is None:
                return
            on_batch(batch)
            yield batch

    patch(stack, blocker, "iter_candidates", traced_iter)
    patch(stack, blocker, "signatures",
          recorder.wrap(blocker.signatures, "blocking.signatures"))


class LayerTotals:
    """Per-name sums over a recorder's spans: duration, self time, calls.

    Kernel spans are keyed ``<arch>.kernel.<k>`` by their nearest
    ``<arch>.forward`` ancestor.  ``roots`` sums the spans without a parent
    (the traced end-to-end time) and ``root_self`` the part of it no layer
    span covers — the remainder the per-layer self times leave unexplained.
    """

    def __init__(self, spans):
        own = self_times(spans)
        self.duration = defaultdict(float)
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.attrs = defaultdict(lambda: defaultdict(float))
        self.roots = 0.0
        self.root_self = 0.0
        self.spans = spans
        for span in spans:
            name = span[NAME]
            if name.startswith("kernel."):
                name = f"{_forward_arch(span)}.{name}"
            duration = span[END] - span[START]
            self.duration[name] += duration
            self.self_s[name] += own[id(span)]
            self.calls[name] += 1
            if span[ATTRS]:
                for key, value in span[ATTRS].items():
                    if isinstance(value, (int, float)):
                        self.attrs[name][key] += value
            if span[PARENT] is None:
                self.roots += duration
                self.root_self += own[id(span)]

    def arch_metrics(self, arch: str, units: int, lookups: dict) -> dict:
        """The 24 per-architecture metrics, per unit of work."""
        lookups_made, misses = lookups.get(arch, (0, 0))
        pad = self.attrs[f"{arch}.forward"]
        metrics = {
            f"{arch}.engine_s": self.self_s[f"{arch}.engine"] / units,
            f"{arch}.tokenize_s": self.duration[f"{arch}.tokenize"] / units,
            f"{arch}.cache_hit_frac": ((lookups_made - misses) / lookups_made
                                       if lookups_made else 0.0),
            f"{arch}.forward_s": self.duration[f"{arch}.forward"] / units,
            f"{arch}.pad_frac": (pad["pad"] / pad["cells"]
                                 if pad["cells"] else 0.0),
            f"{arch}.forward_other_s": self.self_s[f"{arch}.forward"] / units,
        }
        for kernel in KERNELS:
            key = f"{arch}.kernel.{kernel}"
            metrics[f"{key}.self_s"] = self.self_s[key] / units
            metrics[f"{key}.calls"] = self.calls[key] / units
            metrics[f"{key}.bytes"] = self.attrs[key]["bytes"] / units
        return metrics


def _forward_arch(span) -> str:
    parent = span[PARENT]
    while parent is not None:
        if parent[NAME].endswith(".forward"):
            return parent[NAME].split(".", 1)[0]
        parent = parent[PARENT]
    return "unscoped"
