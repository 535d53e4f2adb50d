"""Seeded randomness.

Every stochastic routine in the toolkit draws from a counter-based Philox
generator keyed by an explicit 64-bit seed, so results are bitwise
reproducible and independent of global RNG state or worker scheduling.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameterError


def make_rng(seed: int) -> np.random.Generator:
    """Return the Generator of the given seed: Philox keyed by it."""
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise InvalidParameterError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return np.random.Generator(np.random.Philox(key=seed))
