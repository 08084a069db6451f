"""Weight-initialization schemes.

All initializers take an explicit ``np.random.Generator`` so every experiment
in the repo is reproducible from a single seed.  Draws are always made in
float64 (so a given seed produces the same weights regardless of precision)
and then cast to the requested ``dtype`` — the active policy default from
:mod:`repro.nn.precision` when omitted.
"""

from __future__ import annotations

import numpy as np

from .precision import resolve_dtype


def normal(rng: np.random.Generator, shape: tuple, std: float = 0.01, dtype=None) -> np.ndarray:
    """Gaussian init — the common choice for recommender embeddings."""
    return rng.normal(0.0, std, size=shape).astype(resolve_dtype(dtype), copy=False)


def xavier_uniform(rng: np.random.Generator, shape: tuple, dtype=None) -> np.ndarray:
    """Glorot/Xavier uniform init for dense layers (as used by NGCF/GC-MC)."""
    if len(shape) < 2:
        fan_in = fan_out = shape[0]
    else:
        fan_in, fan_out = shape[0], shape[1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(resolve_dtype(dtype), copy=False)


def zeros(shape: tuple, dtype=None) -> np.ndarray:
    """All-zeros init (biases)."""
    return np.zeros(shape, dtype=resolve_dtype(dtype))
