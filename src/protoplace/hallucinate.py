"""Placeholder-class hallucination.

Two steps per episode: propagation blends class embeddings with softmax
neighbor weights shared between the visual and semantic graphs, then
interpolation mixes each class back toward its original data with a
Beta-drawn coefficient.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Episode
from .errors import ParameterError, ShapeError, require_ints
from .linalg import pairwise_cosine, softmax
from .rng import RngStream, beta_sample


@dataclass
class HalluConfig:
    sigma: float = 0.2        # softmax scaling factor on similarities
    n_neighbors: int = 4      # size of each class's random neighbor subset
    alpha1: float = 5.0       # Beta shape toward original data
    alpha2: float = 1.0

    def __post_init__(self):
        require_ints(self, "n_neighbors")
        if not self.sigma >= 1.0 / np.finfo(np.float64).max:  # sim / sigma finite
            raise ParameterError(f"sigma must be at least 1 / the largest float "
                                 f"(about 5.6e-309), got {self.sigma!r}")
        if self.n_neighbors < 1:
            raise ParameterError("n_neighbors must be at least 1")
        if self.alpha1 <= 0 or self.alpha2 <= 0:
            raise ParameterError("Beta shapes must be positive")


@dataclass
class PropagationWeights:
    w: np.ndarray        # (M, M); zero diagonal, rows sum to 1 over chosen
    chosen: np.ndarray   # (M, n) neighbor indices per row


@dataclass
class HallucinatedEpisode:
    visual: np.ndarray     # (M*N, C) mixed samples
    semantic: np.ndarray   # (M, D) mixed class attributes
    betas: np.ndarray      # (M,) in [0, 1]
    v_prime: np.ndarray    # (M, C) elementary hallucinations
    a_prime: np.ndarray    # (M, D)
    weights: PropagationWeights


def class_centroids(ep: Episode) -> np.ndarray:
    m, n = ep.m_classes, ep.n_samples
    return ep.visual.reshape(m, n, -1).mean(axis=1)


def _offdiag_softmax(sim: np.ndarray, sigma: float) -> np.ndarray:
    m = sim.shape[0]
    off = ~np.eye(m, dtype=bool)
    w = np.zeros((m, m))
    w[off] = softmax(sim[off].reshape(m, m - 1), sigma).ravel()
    return w


def _log_space_rows(sim_v, sim_a, rows, chosen, sigma) -> np.ndarray:
    """The listed rows of the masked, renormalised weights, computed in log
    space: over each row's chosen neighbours, the softmax of
    logaddexp(log w_v, log w_a) (the halving cancels).  Equal to the
    direct form up to rounding, and finite where every chosen weight of the
    direct form underflows to 0."""
    def chosen_log_weights(sim):
        z = sim[rows] / sigma
        z[np.arange(rows.size), rows] = -np.inf  # no self-neighbour
        z -= z.max(axis=1, keepdims=True)
        z -= np.log(np.exp(z).sum(axis=1, keepdims=True))
        return np.take_along_axis(z, chosen[rows], axis=1)

    return softmax(np.logaddexp(chosen_log_weights(sim_v),
                                chosen_log_weights(sim_a)))


def propagation_weights(
    ep: Episode, cfg: HalluConfig, rng: RngStream
) -> PropagationWeights:
    """Harmonized softmax neighbor weights, masked to a random subset per row.

    A row whose chosen weights all underflow to 0 (small sigma) is computed
    in log space instead of dividing 0 by 0.  n_neighbors > M - 1 fails in
    the neighbour draw (ParameterError)."""
    m = ep.m_classes
    sim_v = pairwise_cosine(class_centroids(ep))
    sim_a = pairwise_cosine(ep.semantic)
    w_v = _offdiag_softmax(sim_v, cfg.sigma)
    w_a = _offdiag_softmax(sim_a, cfg.sigma)
    w = (w_v + w_a) / 2.0

    # one draw per row over its m - 1 other classes: draw k is class k + (k >= row)
    rows = np.arange(m)[:, None]
    pick = rng.choices_without_replacement(m, m - 1, cfg.n_neighbors)
    chosen = np.sort(pick + (pick >= rows), axis=1)
    masked = np.zeros_like(w)
    masked[rows, chosen] = w[rows, chosen]
    total = masked.sum(axis=1, keepdims=True)
    zero = np.flatnonzero(total == 0)
    total[zero] = 1.0
    masked /= total
    if zero.size:
        masked[zero[:, None], chosen[zero]] = _log_space_rows(
            sim_v, sim_a, zero, chosen, cfg.sigma)
    return PropagationWeights(w=masked, chosen=chosen)


def propagate(ep: Episode, pw: PropagationWeights) -> tuple[np.ndarray, np.ndarray]:
    """Convex combinations of neighbor class centroids / attributes.

    The identical weight matrix drives both spaces (synchronized hallucination).
    """
    m = ep.m_classes
    if pw.w.shape != (m, m):
        raise ShapeError(f"weight matrix {pw.w.shape} does not match episode M = {m}")
    centroids = class_centroids(ep)
    v_prime = pw.w @ centroids
    a_prime = pw.w @ ep.semantic
    return v_prime, a_prime


def interpolate(
    ep: Episode,
    v_prime: np.ndarray,
    a_prime: np.ndarray,
    cfg: HalluConfig,
    rng: RngStream,
    weights: PropagationWeights | None = None,
    force_beta: float | None = None,
) -> HallucinatedEpisode:
    """Mix each class (one Beta draw per class) toward its elementary hallucination."""
    m, n = ep.m_classes, ep.n_samples
    if v_prime.shape != (m, ep.visual.shape[1]) or a_prime.shape != ep.semantic.shape:
        raise ShapeError("elementary hallucination shapes do not match the episode")
    if force_beta is not None:
        if not 0.0 <= force_beta <= 1.0:
            raise ParameterError("forced beta must lie in [0, 1]")
        betas = np.full(m, float(force_beta))
    else:
        betas = beta_sample(rng, cfg.alpha1, cfg.alpha2, size=m)

    # per class b * x + (1 - b) * x'; exactly x at b = 1, x' at b = 0 (but for
    # the sign of a zero)
    b = betas[:, None, None]
    visual = (b * ep.visual.reshape(m, n, -1)
              + (1.0 - b) * v_prime[:, None, :]).reshape(ep.visual.shape)
    b = betas[:, None]
    semantic = b * ep.semantic + (1.0 - b) * a_prime
    if weights is None:
        weights = PropagationWeights(
            w=np.zeros((m, m)), chosen=np.empty((m, 0), dtype=np.int64)
        )
    return HallucinatedEpisode(visual=visual, semantic=semantic, betas=betas,
                               v_prime=v_prime, a_prime=a_prime, weights=weights)


def hallucinate(
    ep: Episode,
    cfg: HalluConfig,
    rng: RngStream,
    force_beta: float | None = None,
) -> HallucinatedEpisode:
    """Full pipeline: neighbor weights -> propagation -> interpolation."""
    pw = propagation_weights(ep, cfg, rng)
    v_prime, a_prime = propagate(ep, pw)
    return interpolate(ep, v_prime, a_prime, cfg, rng, weights=pw,
                       force_beta=force_beta)

