"""Span recording and self time, including nested kernel spans."""

import threading

import numpy as np
import pytest

from repro.nn import DTYPE

import layers
from spans import Recorder, interval_union, self_times


class Ticks:
    """A clock that advances only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_interval_union_merges_overlaps_and_gaps():
    assert interval_union([]) == 0.0
    assert interval_union([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)
    assert interval_union([(0, 4), (1, 2)]) == pytest.approx(4.0)


def test_self_time_subtracts_nested_kernel_spans():
    clock = Ticks()
    recorder = Recorder(clock)

    def linear():
        clock.advance(2.0)

    def gelu():
        clock.advance(1.0)

    linear_span = recorder.wrap(linear, "kernel.linear")
    gelu_span = recorder.wrap(gelu, "kernel.gelu")

    def feed_forward():
        clock.advance(0.5)          # the block's own glue
        linear_span()
        gelu_span()
        linear_span()

    def forward():
        clock.advance(0.25)
        recorder.wrap(feed_forward, "kernel.feed_forward")()

    with recorder.root_span("pass"):
        recorder.wrap(forward, "bert.forward")()
        clock.advance(0.125)

    totals = layers.LayerTotals(recorder.spans)
    assert totals.self_s["bert.kernel.linear"] == pytest.approx(4.0)
    assert totals.calls["bert.kernel.linear"] == 2
    assert totals.self_s["bert.kernel.gelu"] == pytest.approx(1.0)
    assert totals.self_s["bert.kernel.feed_forward"] == pytest.approx(0.5)
    assert totals.duration["bert.kernel.feed_forward"] == pytest.approx(5.5)
    assert totals.self_s["bert.forward"] == pytest.approx(0.25)
    # Self times over every span account exactly for the traced time.
    assert sum(totals.self_s.values()) == pytest.approx(totals.roots)
    assert totals.roots == pytest.approx(5.875)
    assert totals.root_self == pytest.approx(0.125)


def test_children_are_clipped_to_their_parent():
    span_parent = ["p", 0.0, 1.0, None, 0, None]
    child = ["c", 0.5, 3.0, span_parent, 1, None]
    own = self_times([span_parent, child])
    assert own[id(span_parent)] == pytest.approx(0.5)


def test_spans_from_a_stackless_thread_attach_to_the_open_root():
    recorder = Recorder()
    worker = recorder.wrap(lambda: None, "serve.score")
    with recorder.root_span("lo") as root:
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=10)
    assert not thread.is_alive()
    score = next(s for s in recorder.spans if s[0] == "serve.score")
    assert score[3] is root


def test_kernel_bytes_count_each_operand_once_plus_the_result():
    x = np.zeros((4, 8), dtype=DTYPE)
    w = np.zeros((16, 8), dtype=DTYPE)
    out = np.zeros((4, 16), dtype=DTYPE)
    assert layers.kernel_bytes((x, w), {}, out)["bytes"] == (
        x.nbytes + w.nbytes + out.nbytes)
    # In-place softmax reads and writes the same array.
    assert layers.kernel_bytes((x,), {"out": x}, x)["bytes"] == 2 * x.nbytes


def test_traced_kernels_restores_the_module_attributes():
    from repro.nn import fused
    before = {name: getattr(fused, name) for name in layers.KERNELS}
    recorder = Recorder()
    with layers.traced_kernels(recorder):
        assert fused.linear is not before["linear"]
        fused.gelu(np.ones(3, dtype=DTYPE))
    assert {name: getattr(fused, name) for name in layers.KERNELS} == before
    assert [s[0] for s in recorder.spans] == ["kernel.gelu"]
