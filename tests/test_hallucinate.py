import math

import numpy as np
import pytest

from protoplace.data import Episode, SynthConfig, generate_synthetic, sample_episode
from protoplace.errors import ParameterError
from protoplace.hallucinate import (
    HalluConfig,
    class_centroids,
    hallucinate,
    interpolate,
    propagate,
    propagation_weights,
)
from protoplace.rng import RngStream


def make_episode(visual_classes, semantic, n=1):
    """Build an episode directly from per-class sample lists."""
    m = len(visual_classes)
    visual = np.concatenate([np.atleast_2d(v) for v in visual_classes])
    return Episode(
        class_ids=np.arange(m, dtype=np.int64),
        sample_idx=np.arange(m * n, dtype=np.int64).reshape(m, n),
        visual=np.asarray(visual, dtype=np.float64),
        semantic=np.asarray(semantic, dtype=np.float64),
        local_labels=np.repeat(np.arange(m, dtype=np.int64), n),
    )


def random_episode(seed, m=5, n=3, c=6, d=4):
    ds = generate_synthetic(SynthConfig(seen_count=m + 2, unseen_count=2,
                                        attr_dim=d, feat_dim=c,
                                        train_per_class=n + 2, test_per_class=1,
                                        noise_scale=0.4, seed=seed))
    return sample_episode(ds, m, n, RngStream(seed))


class TestPropagationWeights:
    def test_two_classes_single_neighbor(self):
        ep = make_episode([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]])
        pw = propagation_weights(ep, HalluConfig(n_neighbors=1), RngStream(0))
        assert np.allclose(pw.w, [[0.0, 1.0], [1.0, 0.0]], atol=0)

    def test_equidistant_neighbors_split_evenly(self):
        # class 0 sees classes 1 and 2 at identical similarity in both spaces
        visual = [[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
        semantic = [[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
        ep = make_episode(visual, semantic)
        pw = propagation_weights(ep, HalluConfig(n_neighbors=2), RngStream(0))
        assert np.allclose(pw.w[0], [0.0, 0.5, 0.5], atol=1e-12)

    def test_matches_scalar_recomputation(self):
        ep = random_episode(1, m=5)
        cfg = HalluConfig(sigma=0.2, n_neighbors=3)
        pw = propagation_weights(ep, cfg, RngStream(2))

        centroids = class_centroids(ep)

        def cos(u, v):
            return float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))

        m = 5
        for i in range(m):
            # softmax over all neighbors in each space, then average
            harmonized = {}
            for j in range(m):
                if j == i:
                    continue
                num_v = math.exp(cos(centroids[i], centroids[j]) / cfg.sigma)
                den_v = sum(math.exp(cos(centroids[i], centroids[l]) / cfg.sigma)
                            for l in range(m) if l != i)
                num_a = math.exp(cos(ep.semantic[i], ep.semantic[j]) / cfg.sigma)
                den_a = sum(math.exp(cos(ep.semantic[i], ep.semantic[l]) / cfg.sigma)
                            for l in range(m) if l != i)
                harmonized[j] = (num_v / den_v + num_a / den_a) / 2.0
            chosen = pw.chosen[i].tolist()
            total = sum(harmonized[j] for j in chosen)
            for j in range(m):
                expected = harmonized[j] / total if j in chosen else 0.0
                assert abs(pw.w[i, j] - expected) < 1e-12

    def test_rows_are_probability_vectors(self):
        for seed in range(10):
            ep = random_episode(seed, m=6)
            pw = propagation_weights(ep, HalluConfig(n_neighbors=3),
                                     RngStream(seed))
            assert np.all(np.diag(pw.w) == 0.0)
            assert np.all(pw.w >= 0.0)
            assert np.max(np.abs(pw.w.sum(axis=1) - 1.0)) < 1e-12
            # weight lives only on the chosen neighbors
            for i in range(6):
                outside = np.setdiff1d(np.arange(6), pw.chosen[i])
                outside = outside[outside != i]
                assert np.all(pw.w[i, outside] == 0.0)

    def test_too_many_neighbors_rejected(self):
        ep = random_episode(3, m=4)
        with pytest.raises(ParameterError):
            propagation_weights(ep, HalluConfig(n_neighbors=4), RngStream(0))

    def test_space_swap_leaves_weights_unchanged(self):
        # harmonization is the mean of the two spaces' weights
        ep = random_episode(4, m=5, n=1, c=4, d=4)
        swapped = make_episode(list(ep.semantic), class_centroids(ep))
        pw1 = propagation_weights(ep, HalluConfig(n_neighbors=2), RngStream(7))
        pw2 = propagation_weights(swapped, HalluConfig(n_neighbors=2), RngStream(7))
        assert np.allclose(pw1.w, pw2.w, atol=1e-15)

    def test_sigma_limits(self):
        ep = random_episode(5, m=5)
        # huge sigma: near-uniform over all neighbors
        pw = propagation_weights(ep, HalluConfig(sigma=1e6, n_neighbors=4),
                                 RngStream(0))
        off = pw.w[pw.w > 0]
        assert np.max(np.abs(off - 0.25)) < 1e-5
        # tiny sigma: each space contributes a one-hot row, so after
        # harmonization the mass sits on at most two neighbors
        pw = propagation_weights(ep, HalluConfig(sigma=1e-3, n_neighbors=4),
                                 RngStream(0))
        for row in pw.w:
            top2 = np.sort(row)[-2:].sum()
            assert top2 > 1.0 - 1e-6
            assert np.max(row) > 0.5 - 1e-6


class TestPropagate:
    def test_single_neighbor_copies_it(self):
        ep = random_episode(6, m=4)
        pw = propagation_weights(ep, HalluConfig(n_neighbors=1), RngStream(1))
        v_prime, a_prime = propagate(ep, pw)
        centroids = class_centroids(ep)
        for i in range(4):
            j = pw.chosen[i][0]
            assert np.allclose(v_prime[i], centroids[j], atol=1e-15)
            assert np.allclose(a_prime[i], ep.semantic[j], atol=1e-15)

    def test_uniform_weights_give_plain_mean(self):
        ep = random_episode(7, m=5)
        pw = propagation_weights(ep, HalluConfig(sigma=1e6, n_neighbors=3),
                                 RngStream(2))
        v_prime, _ = propagate(ep, pw)
        centroids = class_centroids(ep)
        for i in range(5):
            mean = centroids[pw.chosen[i]].mean(axis=0)
            assert np.max(np.abs(v_prime[i] - mean)) < 1e-5

    def test_convex_hull_membership(self):
        # barycentric coordinates over the chosen centroids, via least squares
        for seed in range(5):
            ep = random_episode(20 + seed, m=6)
            pw = propagation_weights(ep, HalluConfig(n_neighbors=3),
                                     RngStream(seed))
            v_prime, _ = propagate(ep, pw)
            centroids = class_centroids(ep)
            for i in range(6):
                verts = centroids[pw.chosen[i]]
                a = np.vstack([verts.T, np.ones(len(verts))])
                b = np.concatenate([v_prime[i], [1.0]])
                coeff, *_ = np.linalg.lstsq(a, b, rcond=None)
                assert np.linalg.norm(a @ coeff - b) < 1e-9
                assert np.all(coeff > -1e-9)
                assert abs(coeff.sum() - 1.0) < 1e-9


class TestInterpolate:
    def test_beta_one_returns_source_bitwise(self):
        ep = random_episode(8, m=4)
        hep = hallucinate(ep, HalluConfig(n_neighbors=2), RngStream(3),
                          force_beta=1.0)
        assert np.array_equal(hep.visual, ep.visual)
        assert np.array_equal(hep.semantic, ep.semantic)

    def test_beta_zero_returns_elementary_bitwise(self):
        ep = random_episode(9, m=4, n=3)
        hep = hallucinate(ep, HalluConfig(n_neighbors=2), RngStream(4),
                          force_beta=0.0)
        for i in range(4):
            block = hep.visual.reshape(4, 3, -1)[i]
            assert np.array_equal(block, np.tile(hep.v_prime[i], (3, 1)))
        assert np.array_equal(hep.semantic, hep.a_prime)

    def test_midpoint(self):
        ep = random_episode(10, m=4, n=2)
        pw = propagation_weights(ep, HalluConfig(n_neighbors=2), RngStream(5))
        v_prime, a_prime = propagate(ep, pw)
        hep = interpolate(ep, v_prime, a_prime, HalluConfig(n_neighbors=2),
                          RngStream(5), force_beta=0.5)
        v3 = ep.visual.reshape(4, 2, -1)
        for i in range(4):
            expected = 0.5 * v3[i] + 0.5 * v_prime[i]
            assert np.array_equal(hep.visual.reshape(4, 2, -1)[i], expected)
        assert np.array_equal(hep.semantic, 0.5 * ep.semantic + 0.5 * a_prime)

    def test_betas_within_unit_interval(self):
        ep = random_episode(11, m=6)
        hep = hallucinate(ep, HalluConfig(n_neighbors=3), RngStream(6))
        assert np.all(hep.betas >= 0.0) and np.all(hep.betas <= 1.0)

    def test_bad_forced_beta(self):
        ep = random_episode(12, m=3)
        with pytest.raises(ParameterError):
            hallucinate(ep, HalluConfig(n_neighbors=2), RngStream(0),
                        force_beta=1.5)


class TestHallucinate:
    def test_deterministic_per_seed(self):
        ep = random_episode(13, m=5)
        h1 = hallucinate(ep, HalluConfig(n_neighbors=3), RngStream(42))
        h2 = hallucinate(ep, HalluConfig(n_neighbors=3), RngStream(42))
        assert np.array_equal(h1.visual, h2.visual)
        assert np.array_equal(h1.semantic, h2.semantic)
        assert np.array_equal(h1.betas, h2.betas)
        assert np.array_equal(h1.weights.w, h2.weights.w)

    def test_synchronized_weights_reproduce_both_spaces(self):
        # the weight matrix recorded on the output regenerates v' and a' exactly
        for seed in range(10):
            ep = random_episode(40 + seed, m=5)
            hep = hallucinate(ep, HalluConfig(n_neighbors=3), RngStream(seed))
            assert np.array_equal(hep.weights.w @ class_centroids(ep), hep.v_prime)
            assert np.array_equal(hep.weights.w @ ep.semantic, hep.a_prime)

    def test_semantic_convexity_over_episode_attributes(self):
        # a'' rows are convex combinations of the episode's semantic rows
        for seed in range(5):
            ep = random_episode(60 + seed, m=5, d=4)
            hep = hallucinate(ep, HalluConfig(n_neighbors=3), RngStream(seed))
            a = np.vstack([ep.semantic.T, np.ones(5)])
            for i in range(5):
                b = np.concatenate([hep.semantic[i], [1.0]])
                coeff, *_ = np.linalg.lstsq(a, b, rcond=None)
                assert np.linalg.norm(a @ coeff - b) < 1e-9
                assert np.all(coeff > -1e-9)
                assert abs(coeff.sum() - 1.0) < 1e-9


class TestHalluConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            HalluConfig(sigma=0.0)
        with pytest.raises(ParameterError):
            HalluConfig(n_neighbors=0)
        with pytest.raises(ParameterError):
            HalluConfig(alpha1=-1.0)
