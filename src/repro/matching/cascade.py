"""DistilBERT→RoBERTa confidence cascade over two match engines.

The paper's own speed/accuracy ordering — DistilBERT fastest but
weakest, RoBERTa slowest but best (Table 5) — makes a cascade a free
win: every pair is scored by the cheap *primary* first, and only pairs
whose probability lands inside a calibrated **ambiguity band**
``(lo, hi)`` escalate to the expensive *secondary*.  Outside the band
the primary's decision is already confident and is returned untouched —
bit-identical to primary-only matching (pinned by property tests in
``tests/test_cascade.py``).

Band selection (:func:`calibrate_band`) is empirical, on validation
data: both models score the validation pairs once, then the smallest
symmetric band around the decision threshold whose cascade F1 stays
within ``tolerance`` of secondary-only F1 wins.  The degenerate band
``[0.5, 0.5]`` escalates nothing (strict inequalities), and ``lo=0,
hi=1`` escalates everything — the cascade interpolates between the two
models' cost/quality points.

:class:`CascadeEngine` mirrors :meth:`MatchEngine.score_pairs`
signature-for-signature, so it drops into everything built on the
engine protocol: ``match_many``-style bulk calls, and — through
:class:`repro.serve.CascadeBackend` — the whole serving, resilience and
tracing stack.  Escalation telemetry lands in the metrics registry as
``cascade.*`` counters and an ``escalate`` trace stage.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass

import numpy as np

from ..obs import default_registry
from .metrics import evaluate_predictions

__all__ = ["CascadeBand", "CascadeEngine", "calibrate_band",
           "build_cascade"]


@dataclass(frozen=True)
class CascadeBand:
    """A calibrated ambiguity band plus its validation-set evidence.

    Pairs with primary probability strictly inside ``(lo, hi)``
    escalate.  ``escalation_rate``, ``f1`` (cascade) and
    ``secondary_f1`` describe the band's behavior on the validation
    data it was selected on.
    """

    lo: float
    hi: float
    escalation_rate: float
    f1: float
    secondary_f1: float

    @property
    def width(self) -> float:
        """Half-width of the band around the decision threshold."""
        return (self.hi - self.lo) / 2.0


def calibrate_band(primary_probs, secondary_probs, labels,
                   threshold: float = 0.5, tolerance: float = 0.005,
                   steps: int = 51) -> CascadeBand:
    """Pick the smallest ambiguity band that preserves secondary F1.

    ``primary_probs`` / ``secondary_probs`` are both models' match
    probabilities on the *same* validation pairs, ``labels`` the gold
    labels.  Symmetric candidate bands ``(threshold - w, threshold + w)``
    are swept from ``w = 0`` up; for each, the cascade decision is the
    secondary's inside the band and the primary's outside, and the first
    (narrowest → cheapest) band whose F1 is within ``tolerance`` of
    secondary-only F1 is returned.  Falls back to the widest candidate
    (escalate everything ambiguous) when none qualifies — the cascade
    then simply matches the secondary on every contested pair.
    """
    primary = np.asarray(primary_probs, dtype=float)
    secondary = np.asarray(secondary_probs, dtype=float)
    gold = np.asarray(labels, dtype=int)
    if not (primary.shape == secondary.shape == gold.shape):
        raise ValueError(
            f"probability/label arrays differ in shape: {primary.shape} "
            f"vs {secondary.shape} vs {gold.shape}")
    secondary_decisions = secondary >= threshold
    secondary_f1 = evaluate_predictions(gold, secondary_decisions).f1
    primary_decisions = primary >= threshold
    widths = np.linspace(0.0, max(threshold, 1.0 - threshold), steps)
    chosen = None
    for width in widths:
        lo, hi = threshold - width, threshold + width
        escalated = (primary > lo) & (primary < hi)
        decisions = np.where(escalated, secondary_decisions,
                             primary_decisions)
        f1 = evaluate_predictions(gold, decisions).f1
        chosen = CascadeBand(
            lo=float(lo), hi=float(hi),
            escalation_rate=float(escalated.mean()),
            f1=f1, secondary_f1=secondary_f1)
        if f1 >= secondary_f1 - tolerance:
            break
    return chosen


class CascadeEngine:
    """Two-stage engine: cheap primary for all, secondary for the band.

    ``primary`` and ``secondary`` follow the
    :meth:`repro.matching.MatchEngine.score_pairs` protocol (a
    :class:`MatchEngine` or another :class:`CascadeEngine`);
    ``band`` is a :class:`CascadeBand` or a plain ``(lo, hi)`` tuple.
    ``score_pairs`` keeps the engine protocol exactly, so the cascade
    drops into :class:`repro.serve.MatchService` unchanged.

    Telemetry: ``cascade.pairs`` / ``cascade.primary.pairs`` /
    ``cascade.escalated.pairs`` counters, a ``cascade.escalation_rate``
    gauge (per call), and an ``escalate`` trace stage around the
    secondary forward when a stages recorder is passed.
    """

    def __init__(self, primary, secondary, band, registry=None):
        lo, hi = ((band.lo, band.hi) if isinstance(band, CascadeBand)
                  else band)
        if not 0.0 <= lo <= hi <= 1.0:
            raise ValueError(f"invalid ambiguity band [{lo}, {hi}]")
        self.primary = primary
        self.secondary = secondary
        self.band = (float(lo), float(hi))
        self.calibration = band if isinstance(band, CascadeBand) else None
        self._last_rate = 0.0
        self._registry = registry if registry is not None \
            else default_registry()

    def score_pairs(self, pairs, threshold: float = 0.5,
                    fallback: bool = True, cb=None, batch_size: int = 64,
                    keys=None, forward_hook=None, stages=None) -> list:
        """Score pairs through the cascade; same contract as the engine.

        Every pair runs the primary; non-degraded outcomes whose
        probability falls strictly inside the band are re-scored by the
        secondary (under an ``escalate`` trace stage) and replaced
        in-place, keys preserved.  Degraded outcomes never escalate —
        the pair already failed the transformer path once.
        """
        pairs = list(pairs)
        keys = list(keys) if keys is not None else list(range(len(pairs)))
        outcomes = self.primary.score_pairs(
            pairs, threshold=threshold, fallback=fallback, cb=cb,
            batch_size=batch_size, keys=keys, forward_hook=forward_hook,
            stages=stages)
        lo, hi = self.band
        positions = [position for position, outcome in enumerate(outcomes)
                     if not outcome.degraded
                     and lo < outcome.probability < hi]
        registry = self._registry
        registry.counter("cascade.pairs").inc(len(pairs))
        registry.counter("cascade.primary.pairs").inc(len(pairs))
        registry.counter("cascade.escalated.pairs").inc(len(positions))
        rate = len(positions) / len(pairs) if pairs else 0.0
        registry.gauge("cascade.escalation_rate").set(rate)
        self._last_rate = rate
        if positions:
            with ExitStack() as scope:
                if stages is not None:
                    scope.enter_context(
                        stages.stage("escalate", pairs=len(positions)))
                escalated = self.secondary.score_pairs(
                    [pairs[position] for position in positions],
                    threshold=threshold, fallback=fallback, cb=cb,
                    batch_size=batch_size,
                    keys=[keys[position] for position in positions],
                    forward_hook=forward_hook)
            for position, outcome in zip(positions, escalated):
                outcomes[position] = outcome
        return outcomes

    def last_escalation_rate(self) -> float:
        """Escalation rate of the most recent ``score_pairs`` call."""
        return self._last_rate


def build_cascade(primary, secondary, validation,
                  threshold: float = 0.5, tolerance: float = 0.005,
                  batch_size: int = 64, registry=None) -> CascadeEngine:
    """Calibrate and assemble a cascade from two fitted matchers.

    ``primary`` / ``secondary`` are fitted
    :class:`~repro.matching.EntityMatcher` instances (typically
    DistilBERT and RoBERTa); ``validation`` an :class:`EMDataset` held
    out from fine-tuning.  Both models score the validation pairs once,
    :func:`calibrate_band` picks the narrowest F1-preserving band, and
    the returned :class:`CascadeEngine` wraps both engines.
    """
    pairs = [(pair.record_a, pair.record_b) for pair in validation.pairs]
    labels = validation.labels()
    primary_engine = primary.engine()
    secondary_engine = secondary.engine()
    primary_probs = [outcome.probability for outcome in
                     primary_engine.score_pairs(pairs, fallback=False,
                                                batch_size=batch_size)]
    secondary_probs = [outcome.probability for outcome in
                       secondary_engine.score_pairs(
                           pairs, fallback=False, batch_size=batch_size)]
    band = calibrate_band(primary_probs, secondary_probs, labels,
                          threshold=threshold, tolerance=tolerance)
    return CascadeEngine(primary_engine, secondary_engine, band,
                         registry=registry)
