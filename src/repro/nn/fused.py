"""Fused no-tape inference kernels for the hot op chains.

Pure-numpy forward kernels for the sequences that dominate inference
cost: the affine map, GELU, softmax, layer norm, the feed-forward block
and the scaled-dot-product attention core (QK^T -> bias -> mask ->
softmax -> V).  Each kernel replicates the differentiable ``Tensor``
path's numpy arithmetic operation for operation, so fused outputs are
bit-identical to the op-by-op path; the equivalence is pinned by the
bit-identity tests in ``tests/test_perf.py``.

The kernels never allocate intermediate :class:`Tensor` objects and are
only engaged while the tape is off (see
:func:`repro.nn.is_fused_enabled`): modules check that flag and fall
back to the differentiable path whenever gradients are required.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

__all__ = ["linear", "gelu", "softmax", "layer_norm", "feed_forward",
           "split_heads", "merge_heads", "attention_core",
           "count_kernels"]

# Thread-local kernel observation hook: when the tracing layer wants to
# know which fused kernels a forward pass engaged (and how often), it
# installs a callback for the duration of the pass.  Thread-local so
# concurrent serving workers never see each other's counts; the
# disabled path costs one getattr + falsy check per kernel call.
_HOOK = threading.local()


def _notify(kind: str) -> None:
    fn = getattr(_HOOK, "fn", None)
    if fn is not None:
        fn(kind)


@contextmanager
def count_kernels():
    """Count fused-kernel invocations on this thread inside the block.

    Yields a ``{kernel name: calls}`` dict that fills in as kernels run;
    used by the serving trace layer to attach kernel mix to forward
    spans.  Nests: the previous hook is restored on exit.
    """
    counts: dict[str, int] = {}

    def bump(kind: str) -> None:
        counts[kind] = counts.get(kind, 0) + 1

    previous = getattr(_HOOK, "fn", None)
    _HOOK.fn = bump
    try:
        yield counts
    finally:
        _HOOK.fn = previous


def linear(x: np.ndarray, weight: np.ndarray,
           bias: np.ndarray | None = None) -> np.ndarray:
    """Affine map ``x @ W^T + b`` with ``W`` stored (out, in)."""
    _notify("linear")
    out = x @ weight.T
    if bias is not None:
        out += bias  # matmul output is owned; += is bitwise a + b
    return out


def gelu(x: np.ndarray) -> np.ndarray:
    """GELU, tanh approximation — same arithmetic as :meth:`Tensor.gelu`."""
    _notify("gelu")
    c = float(np.sqrt(2.0 / np.pi))
    # x * x * x matches Tensor.gelu exactly (and avoids the pow ufunc,
    # ~100x slower than two multiplies).  In-place chain: every step is
    # a commutative twin of the Tensor-path expression, so the bits
    # match with four fewer activation-sized temporaries.
    t = x * x
    t *= x
    t *= 0.044715
    t += x
    t *= c
    np.tanh(t, out=t)
    t += 1.0
    half_x = 0.5 * x
    half_x *= t
    return half_x


def softmax(x: np.ndarray, axis: int = -1,
            out: np.ndarray | None = None) -> np.ndarray:
    """Shift-stabilized softmax — same arithmetic as :meth:`Tensor.softmax`.

    Pass ``out=x`` only when the caller owns ``x``: the input is then
    consumed in place and no shifted copy is allocated at all.
    """
    _notify("softmax")
    # Same op order as the Tensor path (subtract max, exp, divide by
    # sum), in place on the shifted copy — attention scores are
    # (B, H, T, T), the largest arrays in the forward.
    if out is x:
        shifted = x
        shifted -= x.max(axis=axis, keepdims=True)
    else:
        shifted = x - x.max(axis=axis, keepdims=True)
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=axis, keepdims=True)
    return shifted


def layer_norm(x: np.ndarray, weight: np.ndarray, bias: np.ndarray,
               eps: float = 1e-5) -> np.ndarray:
    """Layer norm over the last axis — same arithmetic as
    :meth:`Tensor.layer_norm`."""
    _notify("layer_norm")
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    out = x - mu
    out *= inv
    out *= weight
    out += bias
    return out


def feed_forward(x: np.ndarray, w_in: np.ndarray, b_in: np.ndarray,
                 w_out: np.ndarray, b_out: np.ndarray) -> np.ndarray:
    """The transformer FF block ``linear -> gelu -> linear``, fused."""
    _notify("feed_forward")
    return linear(gelu(linear(x, w_in, b_in)), w_out, b_out)


def split_heads(x: np.ndarray, num_heads: int) -> np.ndarray:
    """(B, T, D) -> (B, H, T, D/H) without a Tensor wrapper."""
    batch, seq, dim = x.shape
    return x.reshape(batch, seq, num_heads,
                     dim // num_heads).transpose(0, 2, 1, 3)


def merge_heads(x: np.ndarray) -> np.ndarray:
    """(B, H, T, D/H) -> (B, T, D) without a Tensor wrapper."""
    batch, heads, seq, head_dim = x.shape
    return x.transpose(0, 2, 1, 3).reshape(batch, seq, heads * head_dim)


def attention_core(q: np.ndarray | None, k: np.ndarray | None,
                   v: np.ndarray, scale: float,
                   attention_mask: np.ndarray | None = None,
                   score_bias: np.ndarray | None = None,
                   mask_value: float = -1e9,
                   scores: np.ndarray | None = None) -> np.ndarray:
    """The QK^T -> bias -> mask -> softmax -> V core on (B, H, T, Dh).

    Replicates the differentiable path op for op: scaled scores, optional
    additive ``score_bias`` (the lexical match bias), boolean
    ``attention_mask`` (True = masked) filled with ``mask_value``, then
    softmax over keys and the value contraction.  Dropout is omitted —
    the kernel only runs with the tape off, where dropout is identity.
    Callers with a non-standard score map (XLNet's relative-position
    scores) pass pre-scaled ``scores`` directly and may leave ``q``/``k``
    as None; only the bias -> mask -> softmax -> V tail runs then.
    """
    _notify("attention_core")
    owned = scores is None
    if owned:
        # float() strips numpy scalar types: they are not "weak" under
        # NEP 50 and would silently upcast float32 scores to float64,
        # breaking bit-identity with the Tensor path (whose scalar ops
        # coerce the same way).
        scores = q @ np.swapaxes(k, -1, -2)
        scores *= float(scale)
    if score_bias is not None:
        # Mutate in place only when this frame owns the scores array;
        # a caller-provided scores buffer must stay untouched.
        if owned:
            scores += score_bias
        else:
            scores = scores + score_bias
            owned = True
    if attention_mask is not None:
        mask = np.asarray(attention_mask, dtype=bool)
        if owned:
            np.copyto(scores, mask_value, where=mask)
        else:
            scores = np.where(mask, mask_value, scores)
            owned = True
    probs = softmax(scores, axis=-1, out=scores if owned else None)
    return probs @ v
