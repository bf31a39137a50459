"""Placeholder-class hallucination.

Two steps per episode: propagation blends class embeddings with softmax
neighbor weights shared between the visual and semantic graphs, then
interpolation mixes each class back toward its original data with a
Beta-drawn coefficient.  Each step also takes a block of episodes (see
data.Stackable) and then runs once for the whole block: only the draws from
the hallucination stream run episode by episode, in `placeholder_draws`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Episode, Stackable
from .errors import ParameterError, require_ints, require_real
from .linalg import log_softmax_rows, pairwise_cosine, softmax
from .rng import RngStream, check_beta_shapes, gamma_ratio


@dataclass
class HalluConfig:
    sigma: float = 0.2        # softmax scaling factor on similarities
    n_neighbors: int = 4      # size of each class's random neighbor subset
    alpha1: float = 5.0       # Beta shape toward original data
    alpha2: float = 1.0

    def __post_init__(self):
        require_ints(self, "n_neighbors")
        for name in ("sigma", "alpha1", "alpha2"):
            require_real(name, getattr(self, name))
        if not self.sigma >= 1.0 / np.finfo(np.float64).max:  # sim / sigma finite
            raise ParameterError(f"sigma must be at least 1 / the largest float "
                                 f"(about 5.6e-309), got {self.sigma!r}")
        if self.n_neighbors < 1:
            raise ParameterError("n_neighbors must be at least 1")
        check_beta_shapes(self.alpha1, self.alpha2)


@dataclass
class PropagationWeights(Stackable):
    w: np.ndarray        # (M, M); zero diagonal, rows sum to 1 over chosen
    chosen: np.ndarray   # (M, n) neighbor indices per row


@dataclass
class HallucinatedEpisode(Stackable):
    visual: np.ndarray     # (M*N, C) mixed samples
    semantic: np.ndarray   # (M, D) mixed class attributes
    betas: np.ndarray      # (M,) in [0, 1]
    v_prime: np.ndarray    # (M, C) elementary hallucinations
    a_prime: np.ndarray    # (M, D)
    weights: PropagationWeights


def class_centroids(ep: Episode) -> np.ndarray:
    v = ep.visual
    return v.reshape(*v.shape[:-2], ep.m_classes, ep.n_samples, -1).mean(axis=-2)


def _log_space_rows(sim_v, sim_a, rows, chosen, sigma) -> np.ndarray:
    """The listed rows of the masked, renormalised weights, computed in log
    space: over each row's chosen neighbours, the softmax of
    logaddexp(log w_v, log w_a) (the halving cancels).  Equal to the
    direct form up to rounding, and finite where every chosen weight of the
    direct form underflows to 0.  `rows` index the rows of all the (M, M)
    matrices of sim_v and sim_a in order, episode by episode."""
    m = sim_v.shape[-1]
    chosen = chosen.reshape(-1, chosen.shape[-1])[rows]

    def chosen_log_weights(sim):
        z = sim.reshape(-1, m)[rows] / sigma
        z[np.arange(rows.size), rows % m] = -np.inf  # no self-neighbour
        return np.take_along_axis(log_softmax_rows(z), chosen, axis=1)

    return softmax(np.logaddexp(chosen_log_weights(sim_v),
                                chosen_log_weights(sim_a)))


def placeholder_draws(
    rng: RngStream, cfg: HalluConfig, shape: tuple[int, ...],
    force_beta: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The neighbour picks (..., M, n_neighbors) and Betas (..., M) of the
    episodes whose class ids have shape `shape`: (M,) for one episode, (E, M)
    for a block.  Each episode draws its neighbours, then the Gamma pair of
    each of its M Betas back to back, in episode order; the block's Betas
    are then formed at once (rng.gamma_ratio).  A forced Beta draws nothing.
    Neighbour k of row i is class k + (k >= i), one of the row's M - 1 other
    classes: TrainConfig bounds n_neighbors by M - 1, and the forced Beta
    comes from prototypes.PLACEHOLDERS."""
    m, k = shape[-1], cfg.n_neighbors
    rows = int(np.prod(shape))
    draw = force_beta is None
    picks = np.empty((rows, k), dtype=np.int64)
    shapes = np.empty((m, 2))
    shapes[...] = (cfg.alpha1, cfg.alpha2)
    xy = np.empty((rows, 2))
    for lo in range(0, rows, m):
        picks[lo:lo + m] = rng.choices_without_replacement(m, m - 1, k)
        if draw:
            rng.gamma(shapes, out=xy[lo:lo + m])
    betas = gamma_ratio(xy) if draw else np.full(rows, float(force_beta))
    return picks.reshape(*shape, k), betas.reshape(shape)


def propagation_weights(
    centroids: np.ndarray, semantic: np.ndarray, cfg: HalluConfig, picks: np.ndarray
) -> PropagationWeights:
    """Harmonized softmax neighbor weights of an episode's class centroids
    and class semantics (..., M, C) and (..., M, D), masked per row to the
    neighbours of `picks` (see placeholder_draws).

    A row's weight on a picked neighbour is the mean of the two graphs'
    softmaxes over the row's M - 1 other classes, taken at that neighbour;
    the row is then renormalised over its picks.  A row whose picked
    weights all underflow to 0 (small sigma) is computed in log space
    instead of dividing 0 by 0."""
    m = semantic.shape[-2]
    sim_v = pairwise_cosine(centroids)
    sim_a = pairwise_cosine(semantic)
    picks = np.sort(picks, axis=-1)
    chosen = picks + (picks >= np.arange(m)[:, None])

    # every (episode, row) is a row of 2-D views, whose row sums add in the
    # order of one episode's (tests/test_stacking.py)
    p_rows = picks.reshape(-1, picks.shape[-1])
    c_rows = chosen.reshape(p_rows.shape)
    rows = np.arange(p_rows.shape[0])[:, None]
    off = np.flatnonzero(~np.eye(m, dtype=bool))  # off-diagonal, row by row

    def at_picks(sim):
        others = sim.reshape(-1, m * m)[:, off].reshape(-1, m - 1)
        return softmax(others, cfg.sigma)[rows, p_rows]

    masked = np.zeros((rows.size, m))
    masked[rows, c_rows] = (at_picks(sim_v) + at_picks(sim_a)) / 2.0
    total = masked.sum(axis=1, keepdims=True)
    zero = np.flatnonzero(total == 0)
    total[zero] = 1.0
    masked /= total
    if zero.size:
        masked[zero[:, None], c_rows[zero]] = _log_space_rows(
            sim_v, sim_a, zero, chosen, cfg.sigma)
    return PropagationWeights(w=masked.reshape(sim_v.shape), chosen=chosen)


def propagate(
    pw: PropagationWeights, centroids: np.ndarray, semantic: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Convex combinations of neighbor class centroids / attributes.

    The identical weight matrix drives both spaces (synchronized hallucination).
    """
    return pw.w @ centroids, pw.w @ semantic


def interpolate(
    ep: Episode,
    v_prime: np.ndarray,
    a_prime: np.ndarray,
    betas: np.ndarray,
    weights: PropagationWeights,
) -> HallucinatedEpisode:
    """Mix each class toward its elementary hallucination by its Beta."""
    m, n = ep.m_classes, ep.n_samples
    lead = ep.class_ids.shape[:-1]
    # per class b * x + (1 - b) * x'; exactly x at b = 1, x' at b = 0 (but for
    # the sign of a zero)
    b = betas[..., None, None]
    visual = (b * ep.visual.reshape(*lead, m, n, -1)
              + (1.0 - b) * v_prime[..., None, :]).reshape(ep.visual.shape)
    b = betas[..., None]
    semantic = b * ep.semantic + (1.0 - b) * a_prime
    return HallucinatedEpisode(visual=visual, semantic=semantic, betas=betas,
                               v_prime=v_prime, a_prime=a_prime, weights=weights)


def hallucinate(
    ep: Episode,
    cfg: HalluConfig,
    rng: RngStream,
    force_beta: float | None = None,
) -> HallucinatedEpisode:
    """Full pipeline: neighbor weights -> propagation -> interpolation, for
    one episode or a block (each episode as if hallucinated alone)."""
    picks, betas = placeholder_draws(rng, cfg, ep.class_ids.shape, force_beta)
    centroids = class_centroids(ep)
    pw = propagation_weights(centroids, ep.semantic, cfg, picks)
    v_prime, a_prime = propagate(pw, centroids, ep.semantic)
    return interpolate(ep, v_prime, a_prime, betas, weights=pw)
