"""Span-based tracing: nested wall-clock spans with exclusive time.

Also home of :func:`format_duration` (re-exported from
``repro.utils``).  Time a region with a span::

    with trace("epoch", epoch=3) as span:
        ...
    span.wall       # seconds inside the block
    span.exclusive  # wall minus time spent in child spans

Spans nest: a ``trace()`` opened while another is active becomes a child
of the active span, so a finished root span is a tree of where the time
went.  Completed root spans accumulate on the tracer
(:meth:`Tracer.mark` / :meth:`Tracer.since` let a caller collect just the
spans recorded during one run).
"""

from __future__ import annotations

import time
from contextlib import contextmanager

__all__ = ["Span", "Tracer", "trace", "default_tracer", "aggregate_spans",
           "format_duration"]


class Span:
    """One timed region; forms a tree through ``children``."""

    __slots__ = ("name", "attrs", "start", "end", "children")

    def __init__(self, name: str, attrs: dict | None = None):
        self.name = name
        self.attrs = attrs or {}
        self.start = time.perf_counter()
        self.end: float | None = None
        self.children: list["Span"] = []

    @property
    def wall(self) -> float:
        """Elapsed wall-clock seconds (0 while the span is still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def exclusive(self) -> float:
        """Wall time not attributed to any child span."""
        return max(self.wall - sum(c.wall for c in self.children), 0.0)

    def walk(self, depth: int = 0, path: str = ""):
        """Yield ``(span, depth, path)`` depth-first, parents before
        children; ``path`` is slash-joined ancestor names."""
        here = f"{path}/{self.name}" if path else self.name
        yield self, depth, here
        for child in self.children:
            yield from child.walk(depth + 1, here)

    def __repr__(self) -> str:
        return f"Span({self.name!r}, wall={self.wall:.4f}s, " \
               f"children={len(self.children)})"


class Tracer:
    """Records a stack of open spans and a list of completed root spans."""

    def __init__(self):
        self.completed: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, **attrs):
        node = Span(name, attrs)
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.children.append(node)
        self._stack.append(node)
        try:
            yield node
        finally:
            node.end = time.perf_counter()
            self._stack.pop()
            if parent is None:
                self.completed.append(node)

    def mark(self) -> int:
        """Bookmark the completed-span list; pass to :meth:`since`."""
        return len(self.completed)

    def since(self, mark: int) -> list[Span]:
        """Root spans completed after ``mark`` was taken."""
        return self.completed[mark:]

    def reset(self) -> None:
        self.completed.clear()

    @property
    def active(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    def active_path(self) -> str:
        """Slash-joined names of the currently open spans ('' if none)."""
        return "/".join(span.name for span in self._stack)


def aggregate_spans(roots: list[Span]) -> dict[str, dict[str, float]]:
    """Fold span trees into per-name totals.

    Returns ``{name: {count, total, exclusive, max}}`` with seconds as
    values, sorted by total descending.
    """
    stats: dict[str, dict[str, float]] = {}
    for root in roots:
        for span, _, _ in root.walk():
            entry = stats.setdefault(span.name, {
                "count": 0, "total": 0.0, "exclusive": 0.0, "max": 0.0})
            entry["count"] += 1
            entry["total"] += span.wall
            entry["exclusive"] += span.exclusive
            entry["max"] = max(entry["max"], span.wall)
    return dict(sorted(stats.items(), key=lambda kv: -kv[1]["total"]))


_DEFAULT_TRACER = Tracer()


def default_tracer() -> Tracer:
    """The process-wide tracer that :func:`trace` records into."""
    return _DEFAULT_TRACER


def trace(name: str, **attrs):
    """Open a span on the default tracer (context manager)."""
    return _DEFAULT_TRACER.span(name, **attrs)


def format_duration(seconds: float) -> str:
    """Render seconds the way the paper's Table 6 does (e.g. '2m 42s')."""
    if seconds < 1.0:
        return f"{seconds * 1000:.0f}ms"
    if seconds < 60.0:
        return f"{seconds:.1f}s"
    minutes, rem = divmod(seconds, 60.0)
    return f"{int(minutes)}m {rem:.0f}s"
