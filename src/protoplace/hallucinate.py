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
from .errors import ParameterError, ShapeError
from .linalg import pairwise_cosine, softmax
from .rng import RngStream, beta_sample


@dataclass
class HalluConfig:
    sigma: float = 0.2        # softmax scaling factor on similarities
    n_neighbors: int = 4      # size of each class's random neighbor subset
    alpha1: float = 5.0       # Beta shape toward original data
    alpha2: float = 1.0

    def __post_init__(self):
        if self.sigma <= 0:
            raise ParameterError("sigma must be positive")
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
    w = np.zeros((m, m))
    idx = np.arange(m)
    for i in range(m):
        mask = idx != i
        w[i, mask] = softmax(sim[i, mask], sigma)
    return w


def propagation_weights(
    ep: Episode, cfg: HalluConfig, rng: RngStream
) -> PropagationWeights:
    """Harmonized softmax neighbor weights, masked to a random subset per row."""
    m = ep.m_classes
    if cfg.n_neighbors > m - 1:
        raise ParameterError(
            f"n_neighbors = {cfg.n_neighbors} exceeds the {m - 1} available neighbors"
        )
    sim_v = pairwise_cosine(class_centroids(ep))
    sim_a = pairwise_cosine(ep.semantic)
    w_v = _offdiag_softmax(sim_v, cfg.sigma)
    w_a = _offdiag_softmax(sim_a, cfg.sigma)
    w = (w_v + w_a) / 2.0

    idx = np.arange(m)
    chosen = np.empty((m, cfg.n_neighbors), dtype=np.int64)
    masked = np.zeros_like(w)
    for i in range(m):
        others = idx[idx != i]
        pick = others[rng.choice_without_replacement(m - 1, cfg.n_neighbors)]
        chosen[i] = np.sort(pick)
        masked[i, chosen[i]] = w[i, chosen[i]]
        masked[i] /= masked[i].sum()
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
        betas = np.asarray(
            [beta_sample(rng, cfg.alpha1, cfg.alpha2) for _ in range(m)]
        )

    visual = np.empty_like(ep.visual)
    semantic = np.empty_like(ep.semantic)
    v3 = ep.visual.reshape(m, n, -1)
    for i in range(m):
        b = betas[i]
        if b == 1.0:  # exact endpoints stay bitwise equal to their source
            visual.reshape(m, n, -1)[i] = v3[i]
            semantic[i] = ep.semantic[i]
        elif b == 0.0:
            visual.reshape(m, n, -1)[i] = v_prime[i]
            semantic[i] = a_prime[i]
        else:
            visual.reshape(m, n, -1)[i] = b * v3[i] + (1.0 - b) * v_prime[i]
            semantic[i] = b * ep.semantic[i] + (1.0 - b) * a_prime[i]
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

