"""In-memory span recorder for the traced run.

Spans are recorded from the benchmark's own files only: :meth:`Recorder.wrap`
times calls into a layer's public functions from the outside, and nothing
inside the program is changed or read back.  A span is a small list
``[name, start, end, parent, thread_id, attrs]``; ``parent`` is the enclosing
span object on the same thread, or the recorder's open root span when the
thread has none (so serving-worker spans hang off the load phase that
caused them).  Spans stay in memory until :meth:`Recorder.write` at the end.

Self time is a span's duration minus the part of that interval covered by
its children (the union of their intervals, clipped to the parent).
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

__all__ = ["Recorder", "self_times", "interval_union"]

NAME, START, END, PARENT, THREAD, ATTRS = range(6)


class Recorder:
    """Collects spans on ``clock`` with per-thread parent stacks."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._local = threading.local()
        self.root: list | None = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        span = [name, self.clock(), 0.0, parent, threading.get_ident(),
                None]
        self.spans.append(span)   # list.append is atomic under the GIL
        stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[END] = self.clock()
        self._stack().pop()

    @contextmanager
    def span(self, name: str, **attrs):
        """Time the block as one span; yields the span for attrs."""
        span = self._open(name)
        span[ATTRS] = attrs or None
        try:
            yield span
        finally:
            self._close(span)

    @contextmanager
    def root_span(self, name: str, **attrs):
        """A span that also adopts spans opened on threads with no stack."""
        with self.span(name, **attrs) as span:
            previous, self.root = self.root, span
            try:
                yield span
            finally:
                self.root = previous

    def wrap(self, fn, name: str, attrs=None):
        """``fn`` timed as a span named ``name`` on every call.

        ``attrs(args, kwargs, result)``, when given, returns a dict stored
        on the span after the call returns (outside the timed interval).
        """
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if attrs is not None:
                span[ATTRS] = attrs(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path) -> int:
        """Write every span as one JSON line; returns the span count.

        The file is written beside ``path`` and moved into place, so a
        reader never sees a truncated trace.
        """
        ids = {id(span): index for index, span in enumerate(self.spans)}
        staging = f"{path}.tmp"
        with open(staging, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                parent = span[PARENT]
                handle.write(json.dumps({
                    "id": index, "name": span[NAME],
                    "start": span[START], "end": span[END],
                    "parent": None if parent is None else ids[id(parent)],
                    "thread": span[THREAD], "attrs": span[ATTRS]}) + "\n")
        os.replace(staging, path)
        return len(self.spans)


def interval_union(intervals) -> float:
    """Total length covered by a collection of ``(start, end)`` pairs."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans) -> dict[int, float]:
    """``id(span) -> self time`` for every span in ``spans``."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[id(span[PARENT])].append(span)
    result = {}
    for span in spans:
        start, end = span[START], span[END]
        covered = interval_union(
            (max(child[START], start), min(child[END], end))
            for child in children.get(id(span), ())
            if child[END] > start and child[START] < end)
        result[id(span)] = (end - start) - covered
    return result
