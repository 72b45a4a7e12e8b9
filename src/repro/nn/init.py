"""Weight initialization schemes.

All initializers take an explicit ``numpy.random.Generator`` so that every
model in the repository is fully reproducible from a seed.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DTYPE", "normal", "uniform", "xavier_uniform",
           "kaiming_uniform", "zeros", "ones"]

# All trainable weights use float32: at the model sizes of this
# reproduction it halves memory traffic and roughly doubles throughput
# with no measurable effect on training quality.
DTYPE = np.float32


def normal(rng: np.random.Generator, shape: tuple[int, ...],
           std: float = 0.02) -> np.ndarray:
    """Truncated-free normal init; BERT uses std=0.02 for all weights."""
    return rng.normal(0.0, std, size=shape).astype(DTYPE)


def uniform(rng: np.random.Generator, shape: tuple[int, ...],
            bound: float) -> np.ndarray:
    return rng.uniform(-bound, bound, size=shape).astype(DTYPE)


def xavier_uniform(rng: np.random.Generator,
                   shape: tuple[int, ...]) -> np.ndarray:
    fan_in, fan_out = _fans(shape)
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(DTYPE)


def kaiming_uniform(rng: np.random.Generator,
                    shape: tuple[int, ...]) -> np.ndarray:
    fan_in, _ = _fans(shape)
    bound = np.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(DTYPE)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape, dtype=DTYPE)


def ones(shape: tuple[int, ...]) -> np.ndarray:
    return np.ones(shape, dtype=DTYPE)


def _fans(shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) < 2:
        return shape[0], shape[0]
    return shape[0], shape[1]
