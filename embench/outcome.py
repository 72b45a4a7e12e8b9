"""What one measured run of a workload hands back to ``run.py``."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Run"]


@dataclass
class Run:
    """Metric values by catalogue name, plus operation counts.

    ``metrics`` holds the workload's ``throughput_per_s`` and
    ``latency_ms``; ``run.py`` adds set-up time and memory.  ``details``
    holds per-layer catalogue metrics the untraced run measures itself
    (quality, per-architecture rates, serving latencies), and ``layers``
    the traced run's layer metrics.  The traced run's throughput against
    the untraced run's gives ``trace.overhead_frac``.  ``totals`` holds
    the traced run's :class:`layers.LayerTotals`.
    """

    metrics: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: list = field(default_factory=list)
    info: dict = field(default_factory=dict)
    totals: object = None
