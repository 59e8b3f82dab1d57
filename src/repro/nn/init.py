"""Weight initializers.

All initializers take an explicit ``numpy.random.Generator`` so that
every experiment in the repository is reproducible from a single seed.
"""

from __future__ import annotations

import numpy as np


def xavier_uniform(shape: tuple, rng: np.random.Generator, gain: float = 1.0) -> np.ndarray:
    """Glorot/Xavier uniform: U(-a, a) with a = gain * sqrt(6/(fan_in+fan_out))."""
    fan_in, fan_out = _fans(shape)
    bound = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def normal(shape: tuple, rng: np.random.Generator, std: float = 0.02) -> np.ndarray:
    return (rng.standard_normal(shape) * std).astype(np.float32)


def zeros(shape: tuple) -> np.ndarray:
    return np.zeros(shape, dtype=np.float32)


def ones(shape: tuple) -> np.ndarray:
    return np.ones(shape, dtype=np.float32)


def _fans(shape: tuple) -> tuple:
    if len(shape) == 1:
        return shape[0], shape[0]
    if len(shape) == 2:
        return shape[0], shape[1]
    # Convolution kernels: (out_channels, in_channels, *spatial)
    receptive = int(np.prod(shape[2:]))
    return shape[1] * receptive, shape[0] * receptive
