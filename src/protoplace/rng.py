"""Deterministic seeded randomness.

Every stochastic component of the pipeline draws from an RngStream so that a
single 64-bit seed fixes the entire run.  Child streams are derived by hashing
the parent seed with a stage label, which keeps stages independent of each
other's draw counts.
"""
from __future__ import annotations

import hashlib

import numpy as np

from .errors import ParameterError

# The seed of a run whose config names none.
DEFAULT_SEED = 0


class RngStream:
    """Seeded random stream; equal seeds give equal draw sequences on any platform."""

    def __init__(self, seed: int):
        seed = int(seed)
        if not 0 <= seed < 2**64:
            raise ParameterError(f"seed must be a 64-bit unsigned integer, got {seed}")
        self.seed = seed
        self._gen = np.random.Generator(np.random.PCG64(seed))

    def derive(self, label: str) -> "RngStream":
        """Child stream keyed by (seed, label), stable across runs."""
        digest = hashlib.blake2b(
            self.seed.to_bytes(8, "little") + label.encode("utf-8"), digest_size=8
        ).digest()
        return RngStream(int.from_bytes(digest, "little"))

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._gen.uniform(low, high, size)

    def normal(self, size=None):
        return self._gen.standard_normal(size)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high, size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def choice_without_replacement(self, n: int, k: int) -> np.ndarray:
        if k > n:
            raise ParameterError(f"cannot draw {k} of {n} items without replacement")
        return self._gen.permutation(n)[:k]

    def gamma(self, shape: float, size=None):
        if shape <= 0:
            raise ParameterError(f"gamma shape must be positive, got {shape}")
        return self._gen.standard_gamma(shape, size)


def beta_sample(rng: RngStream, alpha1: float, alpha2: float, size=None):
    """Beta(alpha1, alpha2) draw(s) in [0, 1] via the ratio of two Gamma draws."""
    if alpha1 <= 0 or alpha2 <= 0:
        raise ParameterError(
            f"Beta shape parameters must be positive, got ({alpha1}, {alpha2})"
        )
    x = rng.gamma(alpha1, size)
    y = rng.gamma(alpha2, size)
    total = x + y
    if size is None:
        return float(x / total) if total > 0 else 0.5
    out = np.where(total > 0, x / np.where(total > 0, total, 1.0), 0.5)
    return out
