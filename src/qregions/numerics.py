"""Deterministic numeric substrate: seeded RNG, order statistics, and the
analytic coverage formula for directional quantile regions of a standard
normal vector, on scipy's inverse normal and incomplete gamma functions.

All functions are pure. ``Rng`` instances are single-owner: parallel code
must create independently seeded instances (see ``Rng.spawn``).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Rng", "empirical_quantile", "dqr_theoretical_coverage"]

_GOLDEN64 = 0x9E3779B97F4A7C15
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _splitmix64(state: int) -> int:
    z = (state + _GOLDEN64) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class Rng:
    """Seeded 64-bit pseudo-random generator.

    Uniform, integer, and permutation draws come from a PCG64 stream;
    standard-normal draws are produced by the Box-Muller transform on
    that stream, so the normal mapping is portable given the uniform
    stream. Identical seeds give identical draw sequences (the sequence
    depends on the sizes requested, as for any buffered generator).
    """

    def __init__(self, seed: int):
        if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def spawn(self, tag: int) -> "Rng":
        """Child generator with a stream derived from (seed, tag).

        Does not consume state from the parent, so spawning is
        order-independent.
        """
        return Rng(_splitmix64((self.seed ^ _splitmix64(tag)) & _MASK64))

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        return self._gen.uniform(low, high, size=size)

    def standard_normal(self, size):
        """N(0,1) draws of shape ``size`` via Box-Muller on uniform pairs."""
        n = int(np.prod(size))
        m = (n + 1) // 2
        # 1 - U keeps the log argument in (0, 1].
        u1 = 1.0 - self._gen.random(m)
        u2 = self._gen.random(m)
        radius = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * math.pi * u2
        z = np.concatenate([radius * np.cos(theta), radius * np.sin(theta)])[:n]
        return z.reshape(size)

    def integers(self, low: int, high: int):
        """One integer from [low, high)."""
        return self._gen.integers(low, high)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def subset(self, n: int, k: int) -> np.ndarray:
        """k distinct indices from range(n), in draw order."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot draw {k} distinct indices from {n}")
        return self.permutation(n)[:k]


def empirical_quantile(values: np.ndarray, k: int) -> float:
    """k-th smallest value (1-indexed) under an ascending stable sort."""
    n = values.size
    if n == 0:
        raise ValueError("empirical_quantile of an empty sequence")
    if not 1 <= k <= n:
        raise ValueError(f"order statistic index k={k} outside [1, {n}]")
    return float(np.sort(values, kind="stable")[k - 1])


def dqr_theoretical_coverage(alpha: float, r: int) -> float:
    """Mass of a standard normal r-vector inside the intersection of all
    directional level-alpha half-spaces, i.e. the ball of radius
    z = -Phi^-1(alpha): the chi-squared CDF with r degrees of freedom at
    z^2, the regularized lower incomplete gamma P(r/2, z^2/2).

    This is the exact population coverage of a directional quantile
    region at nominal per-direction level 1-alpha when the response is
    N(0,1)^r.
    """
    # Imported here, as in ``regions``: scipy costs more to import than
    # all of qregions, and only this formula needs it.
    from scipy.special import gammainc, ndtri

    if not 0.0 < alpha <= 0.5:
        raise ValueError(f"alpha must be in (0, 0.5], got {alpha}")
    z = float(ndtri(alpha))
    return float(gammainc(r / 2.0, z * z / 2.0))
