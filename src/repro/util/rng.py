"""Deterministic random-number-generator plumbing.

All stochastic code in the library (synthetic datasets, the TEC map
simulator, randomized tests) accepts either an integer seed, an existing
:class:`numpy.random.Generator`, or ``None``, and normalizes it through
:func:`resolve_rng`.  Benchmarks require bit-identical datasets across
runs, so nothing in the library ever calls the global NumPy RNG.
"""

from __future__ import annotations


import numpy as np

SeedLike = None | int | np.random.Generator | np.random.SeedSequence


def resolve_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for any seed-like input.

    Parameters
    ----------
    seed:
        ``None`` (fresh entropy), an ``int``, a ``SeedSequence``, or an
        existing ``Generator`` (returned unchanged).

    Returns
    -------
    numpy.random.Generator
        A PCG64-backed generator.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: SeedLike, n: int) -> list[np.random.Generator]:
    """Derive ``n`` statistically independent child generators.

    Used by parallel dataset generation so each worker draws from its
    own stream, keeping results independent of worker count and
    scheduling order.
    """
    if n < 0:
        raise ValueError(f"cannot spawn a negative number of RNGs: {n}")
    if isinstance(seed, np.random.Generator):
        return [np.random.default_rng(s) for s in seed.bit_generator.seed_seq.spawn(n)]
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(n)]
