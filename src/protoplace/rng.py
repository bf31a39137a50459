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

# The largest Beta shape accepted.  A Beta is the ratio x / (x + y) of two
# Gamma draws, each about its shape: above this bound two shapes can overflow
# the sum to inf (Betas of 0), and an infinite one gives inf / inf.
MAX_BETA_SHAPE = 1e300


class RngStream:
    """Seeded random stream; equal seeds give equal draw sequences on any platform."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

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

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def choices_without_replacement(self, rows: int, n: int, k: int) -> np.ndarray:
        """(rows, k) draws; row i equals the i-th of `rows` successive
        permutation(n)[:k] draws, bit for bit, and the stream ends in the
        same state: `permuted` shuffles the rows in order with the shuffle
        `permutation` uses."""
        out = np.arange(n)[None].repeat(rows, axis=0)
        return self._gen.permuted(out, axis=1, out=out)[:, :k]

    def gamma(self, shape, size=None, out=None):
        """Gamma draw(s); `shape` may be an array of positive shapes, drawn
        in order, into `out` when given (an array of that shape)."""
        return self._gen.standard_gamma(shape, size, out=out)


def check_seed(seed: int) -> None:
    """ParameterError unless `seed` is a 64-bit unsigned integer.  The configs
    with a seed check it when built, so a bad seed fails before any work;
    RngStream takes it unchecked, and `derive` makes 64-bit seeds only."""
    if not 0 <= seed < 2**64:
        raise ParameterError(f"seed must be a 64-bit unsigned integer, got {seed}")


def check_beta_shapes(alpha1: float, alpha2: float) -> None:
    """ParameterError unless each shape is in (0, MAX_BETA_SHAPE] (NaN is not)."""
    if not (0 < alpha1 <= MAX_BETA_SHAPE and 0 < alpha2 <= MAX_BETA_SHAPE):
        raise ParameterError(f"Beta shapes must be positive and at most "
                             f"{MAX_BETA_SHAPE:g}, got {alpha1!r}, {alpha2!r}")


def gamma_ratio(xy: np.ndarray) -> np.ndarray:
    """The Betas x / (x + y) of Gamma(alpha1, alpha2) draw pairs (x, y) on the
    last axis of xy; 0.5 where both draws underflow to 0."""
    x, y = xy[..., 0], xy[..., 1]
    total = x + y
    return np.where(total > 0, x / np.where(total > 0, total, 1.0), 0.5)
