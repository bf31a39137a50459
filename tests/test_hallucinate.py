import dataclasses
import math

import numpy as np
import pytest

from protoplace.data import Episode, SynthConfig, class_major_labels, \
    generate_synthetic, sample_episode
from protoplace.errors import ParameterError
from protoplace.hallucinate import (
    HalluConfig,
    _log_space_rows,
    class_centroids,
    hallucinate,
    interpolate,
    placeholder_draws,
    propagate,
    propagation_weights,
)
from protoplace.linalg import MappingNet, pairwise_cosine, softmax, target_indices, \
    unit_rows
from protoplace.prototypes import EPISODE_BLOCK, stacked_loss
from protoplace.rng import MAX_BETA_SHAPE, RngStream
from reference import dense_propagation_weights, grad_out, offdiag_softmax


def make_episode(visual_classes, semantic, n=1):
    """Build an episode directly from per-class sample lists."""
    m = len(visual_classes)
    visual = np.concatenate([np.atleast_2d(v) for v in visual_classes])
    return Episode(
        class_ids=np.arange(m, dtype=np.int64),
        sample_idx=np.arange(m * n, dtype=np.int64).reshape(m, n),
        visual=np.asarray(visual, dtype=np.float64),
        semantic=np.asarray(semantic, dtype=np.float64),
    )


def random_episode(seed, m=5, n=3, c=6, d=4):
    ds = generate_synthetic(SynthConfig(seen_count=m + 2, unseen_count=2,
                                        attr_dim=d, feat_dim=c,
                                        train_per_class=n + 2, test_per_class=1,
                                        noise_scale=0.4, seed=seed))
    return sample_episode(ds, m, n, RngStream(seed))


def drawn_weights(ep, cfg, rng):
    """propagation_weights on one neighbour draw from rng."""
    m = ep.m_classes
    return propagation_weights(
        class_centroids(ep), ep.semantic, cfg,
        rng.choices_without_replacement(m, m - 1, cfg.n_neighbors))


class TestPropagationWeights:
    def test_two_classes_single_neighbor(self):
        ep = make_episode([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]])
        pw = drawn_weights(ep, HalluConfig(n_neighbors=1), RngStream(0))
        assert np.allclose(pw.w, [[0.0, 1.0], [1.0, 0.0]], atol=0)

    def test_equidistant_neighbors_split_evenly(self):
        # class 0 sees classes 1 and 2 at identical similarity in both spaces
        visual = [[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
        semantic = [[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
        ep = make_episode(visual, semantic)
        pw = drawn_weights(ep, HalluConfig(n_neighbors=2), RngStream(0))
        assert np.allclose(pw.w[0], [0.0, 0.5, 0.5], atol=1e-12)

    def test_matches_scalar_recomputation(self):
        ep = random_episode(1, m=5)
        cfg = HalluConfig(sigma=0.2, n_neighbors=3)
        pw = drawn_weights(ep, cfg, RngStream(2))

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
            pw = drawn_weights(ep, HalluConfig(n_neighbors=3),
                                     RngStream(seed))
            assert np.all(np.diag(pw.w) == 0.0)
            assert np.all(pw.w >= 0.0)
            assert np.max(np.abs(pw.w.sum(axis=1) - 1.0)) < 1e-12
            # weight lives only on the chosen neighbors
            for i in range(6):
                outside = np.setdiff1d(np.arange(6), pw.chosen[i])
                outside = outside[outside != i]
                assert np.all(pw.w[i, outside] == 0.0)

    def test_space_swap_leaves_weights_unchanged(self):
        # harmonization is the mean of the two spaces' weights
        ep = random_episode(4, m=5, n=1, c=4, d=4)
        swapped = make_episode(list(ep.semantic), class_centroids(ep))
        pw1 = drawn_weights(ep, HalluConfig(n_neighbors=2), RngStream(7))
        pw2 = drawn_weights(swapped, HalluConfig(n_neighbors=2), RngStream(7))
        assert np.allclose(pw1.w, pw2.w, atol=1e-15)

    def test_sigma_limits(self):
        ep = random_episode(5, m=5)
        # huge sigma: near-uniform over all neighbors
        pw = drawn_weights(ep, HalluConfig(sigma=1e6, n_neighbors=4),
                                 RngStream(0))
        off = pw.w[pw.w > 0]
        assert np.max(np.abs(off - 0.25)) < 1e-5
        # tiny sigma: each space contributes a one-hot row, so after
        # harmonization the mass sits on at most two neighbors
        pw = drawn_weights(ep, HalluConfig(sigma=1e-3, n_neighbors=4),
                                 RngStream(0))
        for row in pw.w:
            top2 = np.sort(row)[-2:].sum()
            assert top2 > 1.0 - 1e-6
            assert np.max(row) > 0.5 - 1e-6


class TestUnderflowRows:
    """At small sigma every chosen neighbour's weight can underflow to 0; such
    a row is computed in log space instead of as 0 / 0."""

    @pytest.mark.parametrize("sigma", (1e-4, 1e-3, 1e-2))
    def test_rows_finite_normalised_on_chosen(self, sigma):
        underflowed = 0
        for seed in range(20):
            ep = random_episode(300 + seed, m=8)
            cfg = HalluConfig(sigma=sigma, n_neighbors=2)
            with np.errstate(invalid="raise", divide="raise"):  # no 0 / 0
                pw = drawn_weights(ep, cfg, RngStream(seed))
            assert np.all(np.isfinite(pw.w))
            assert np.max(np.abs(pw.w.sum(axis=1) - 1.0)) < 1e-12
            on_chosen = np.zeros_like(pw.w, dtype=bool)
            np.put_along_axis(on_chosen, pw.chosen, True, axis=1)
            assert np.all(pw.w[~on_chosen] == 0.0)
            assert np.all(pw.w >= 0.0)
            w = (offdiag_softmax(pairwise_cosine(class_centroids(ep)), sigma)
                 + offdiag_softmax(pairwise_cosine(ep.semantic), sigma))
            underflowed += int(np.any(
                np.take_along_axis(w, pw.chosen, axis=1).sum(axis=1) == 0))
        if sigma <= 1e-3:
            assert underflowed  # the case under test occurs

    def test_log_space_matches_direct_rows(self):
        # at moderate sigma nothing underflows; the log-space formula then
        # agrees with the direct rows to rounding
        for seed in range(10):
            ep = random_episode(400 + seed, m=8)
            for sigma in (0.05, 0.2, 1.0, 10.0):
                cfg = HalluConfig(sigma=sigma, n_neighbors=3)
                pw = drawn_weights(ep, cfg, RngStream(seed))
                rows = np.arange(8)
                log_rows = _log_space_rows(pairwise_cosine(class_centroids(ep)),
                                           pairwise_cosine(ep.semantic), rows,
                                           pw.chosen, sigma)
                direct = np.take_along_axis(pw.w, pw.chosen, axis=1)
                assert np.max(np.abs(log_rows - direct)) < 1e-12


class TestPropagate:
    def test_single_neighbor_copies_it(self):
        ep = random_episode(6, m=4)
        pw = drawn_weights(ep, HalluConfig(n_neighbors=1), RngStream(1))
        centroids = class_centroids(ep)
        v_prime, a_prime = propagate(pw, centroids, ep.semantic)
        for i in range(4):
            j = pw.chosen[i][0]
            assert np.allclose(v_prime[i], centroids[j], atol=1e-15)
            assert np.allclose(a_prime[i], ep.semantic[j], atol=1e-15)

    def test_uniform_weights_give_plain_mean(self):
        ep = random_episode(7, m=5)
        pw = drawn_weights(ep, HalluConfig(sigma=1e6, n_neighbors=3),
                                 RngStream(2))
        centroids = class_centroids(ep)
        v_prime, _ = propagate(pw, centroids, ep.semantic)
        for i in range(5):
            mean = centroids[pw.chosen[i]].mean(axis=0)
            assert np.max(np.abs(v_prime[i] - mean)) < 1e-5

    def test_convex_hull_membership(self):
        # barycentric coordinates over the chosen centroids, via least squares
        for seed in range(5):
            ep = random_episode(20 + seed, m=6)
            pw = drawn_weights(ep, HalluConfig(n_neighbors=3),
                                     RngStream(seed))
            centroids = class_centroids(ep)
            v_prime, _ = propagate(pw, centroids, ep.semantic)
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
        pw = drawn_weights(ep, HalluConfig(n_neighbors=2), RngStream(5))
        v_prime, a_prime = propagate(pw, class_centroids(ep), ep.semantic)
        hep = interpolate(ep, v_prime, a_prime, np.full(4, 0.5), pw)
        v3 = ep.visual.reshape(4, 2, -1)
        for i in range(4):
            expected = 0.5 * v3[i] + 0.5 * v_prime[i]
            assert np.array_equal(hep.visual.reshape(4, 2, -1)[i], expected)
        assert np.array_equal(hep.semantic, 0.5 * ep.semantic + 0.5 * a_prime)

    def test_betas_within_unit_interval(self):
        ep = random_episode(11, m=6)
        hep = hallucinate(ep, HalluConfig(n_neighbors=3), RngStream(6))
        assert np.all(hep.betas >= 0.0) and np.all(hep.betas <= 1.0)


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


# Reference forms: one Python loop per row or class, with the same RNG draws
# in the same order.  The package's whole-matrix forms must equal them bit
# for bit.


def reference_propagation_weights(ep, cfg, rng):
    m = ep.m_classes
    idx = np.arange(m)

    def offdiag_softmax(sim):
        w = np.zeros((m, m))
        for i in range(m):
            mask = idx != i
            w[i, mask] = softmax(sim[i, mask], cfg.sigma)
        return w

    sim_v = pairwise_cosine(class_centroids(ep))
    sim_a = pairwise_cosine(ep.semantic)
    w = (offdiag_softmax(sim_v) + offdiag_softmax(sim_a)) / 2.0
    chosen = np.empty((m, cfg.n_neighbors), dtype=np.int64)
    masked = np.zeros_like(w)
    for i in range(m):
        others = idx[idx != i]
        pick = others[rng.permutation(m - 1)[:cfg.n_neighbors]]
        chosen[i] = np.sort(pick)
        total = w[i, chosen[i]].sum()
        if total == 0:  # every chosen weight underflowed: the log-space row
            masked[i, chosen[i]] = _log_space_rows(sim_v, sim_a, np.array([i]),
                                                   chosen, cfg.sigma)[0]
        else:
            masked[i, chosen[i]] = w[i, chosen[i]]
            masked[i] /= masked[i].sum()
    return masked, chosen


def reference_betas(rng, alpha1, alpha2, m):
    """m Betas, each x / (x + y) of a Gamma(alpha1), Gamma(alpha2) pair drawn
    back to back; 0.5 where both draws underflow to 0."""
    betas = []
    for _ in range(m):
        x, y = rng.gamma(alpha1), rng.gamma(alpha2)
        betas.append(x / (x + y) if x + y > 0 else 0.5)
    return np.array(betas)


def reference_interpolate(ep, v_prime, a_prime, cfg, rng, force_beta):
    m, n = ep.m_classes, ep.n_samples
    if force_beta is not None:
        betas = np.full(m, float(force_beta))
    else:
        betas = reference_betas(rng, cfg.alpha1, cfg.alpha2, m)
    visual = np.empty_like(ep.visual)
    semantic = np.empty_like(ep.semantic)
    v3 = ep.visual.reshape(m, n, -1)
    for i in range(m):
        b = betas[i]
        if b == 1.0:
            visual.reshape(m, n, -1)[i] = v3[i]
            semantic[i] = ep.semantic[i]
        elif b == 0.0:
            visual.reshape(m, n, -1)[i] = v_prime[i]
            semantic[i] = a_prime[i]
        else:
            visual.reshape(m, n, -1)[i] = b * v3[i] + (1.0 - b) * v_prime[i]
            semantic[i] = b * ep.semantic[i] + (1.0 - b) * a_prime[i]
    return visual, semantic, betas


def same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


MS = (2, 3, 5, 8, 20)


class TestReferenceParity:
    @pytest.mark.parametrize("m", MS)
    @pytest.mark.parametrize("sigma", (1e-3, 0.2, 1e6))
    def test_propagation_weights(self, m, sigma):
        for seed in range(4):
            ep = random_episode(100 + seed, m=m, n=3)
            for n_neighbors in sorted({1, (m + 1) // 2, m - 1}):
                cfg = HalluConfig(sigma=sigma, n_neighbors=n_neighbors)
                rng, ref_rng = RngStream(seed), RngStream(seed)
                for _ in range(3):  # later draws continue the same stream
                    # at sigma = 1e-3 a row's chosen weights can all underflow
                    # to 0; both forms then take that row from log space
                    pw = drawn_weights(ep, cfg, rng)
                    w, chosen = reference_propagation_weights(ep, cfg, ref_rng)
                    assert same_bytes(pw.w, w)
                    assert same_bytes(pw.chosen, chosen)

    @pytest.mark.parametrize("m", MS)
    @pytest.mark.parametrize("force_beta", (None, 0.0, 0.5, 1.0))
    def test_interpolate(self, m, force_beta):
        cfg = HalluConfig(n_neighbors=min(2, m - 1))
        for seed in range(4):
            ep = random_episode(200 + seed, m=m, n=3)
            pw = drawn_weights(ep, cfg, RngStream(seed))
            v_prime, a_prime = propagate(pw, class_centroids(ep), ep.semantic)
            rng, ref_rng = RngStream(seed), RngStream(seed)
            for _ in range(3):
                betas = (np.full(m, force_beta) if force_beta is not None
                         else reference_betas(rng, cfg.alpha1, cfg.alpha2, m))
                hep = interpolate(ep, v_prime, a_prime, betas, pw)
                visual, semantic, betas = reference_interpolate(
                    ep, v_prime, a_prime, cfg, ref_rng, force_beta)
                assert same_bytes(hep.visual, visual)
                assert same_bytes(hep.semantic, semantic)
                assert same_bytes(hep.betas, betas)


class TestDenseParity:
    """propagation_weights takes each graph's softmax only at the picks; the
    dense form (tests/reference.py) takes it over the whole (M, M) matrices
    and then masks.  The two must agree bit for bit."""

    @pytest.mark.parametrize("episodes", (1, 8))
    @pytest.mark.parametrize("sigma", (1e-4, 1e-3, 0.2, 1e6))
    def test_equals_dense_form(self, sigma, episodes):
        log_space_rows = 0
        for m in (2, 5, 20):
            for n_neighbors in sorted({1, m - 1}):
                cfg = HalluConfig(sigma=sigma, n_neighbors=n_neighbors)
                for seed in range(3):
                    gen = np.random.default_rng(seed)
                    centroids = gen.normal(size=(episodes, m, 6))
                    semantic = gen.normal(size=(episodes, m, 4))
                    picks, _ = placeholder_draws(RngStream(seed), cfg, (episodes, m),
                                                 force_beta=1.0)
                    pw = propagation_weights(centroids, semantic, cfg, picks)
                    ref = dense_propagation_weights(centroids, semantic, cfg, picks)
                    assert same_bytes(pw.w, ref.w)
                    assert same_bytes(pw.chosen, ref.chosen)
                    direct = (offdiag_softmax(pairwise_cosine(centroids), sigma)
                              + offdiag_softmax(pairwise_cosine(semantic), sigma))
                    log_space_rows += int(np.sum(np.take_along_axis(
                        direct, ref.chosen, axis=-1).sum(axis=-1) == 0))
        if sigma == 1e-4:
            assert log_space_rows  # the log-space rows are among those compared


class TestHalluConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            HalluConfig(sigma=0.0)
        with pytest.raises(ParameterError):
            HalluConfig(n_neighbors=0)
        with pytest.raises(ParameterError):
            HalluConfig(alpha1=-1.0)

    @pytest.mark.parametrize("shape", [np.inf, np.nan, 1.5 * MAX_BETA_SHAPE])
    @pytest.mark.parametrize("name", ["alpha1", "alpha2"])
    def test_beta_shapes_finite_and_bounded(self, name, shape):
        with pytest.raises(ParameterError, match="Beta shapes"):
            HalluConfig(**{name: shape})
        HalluConfig(**{name: MAX_BETA_SHAPE})


class TestBlockParity:
    """A block of episodes, sampled and hallucinated with one call each,
    equals the same episodes drawn one at a time through the reference forms,
    bit for bit, and leaves both streams where those draws leave them."""

    @pytest.mark.parametrize("force_beta", (None, 0.0, 1.0))
    @pytest.mark.parametrize("sigma", (1e-4, 0.2))
    @pytest.mark.parametrize("seed", range(3))
    def test_block_equals_sequential(self, seed, sigma, force_beta):
        ds = generate_synthetic(SynthConfig(seen_count=12, unseen_count=2,
                                            attr_dim=4, feat_dim=6,
                                            train_per_class=5, test_per_class=1,
                                            noise_scale=0.4, seed=seed))
        m, n = 8, 3
        cfg = HalluConfig(sigma=sigma, n_neighbors=2)
        rng_ep, rng_hal = RngStream(seed).derive("e"), RngStream(seed).derive("h")
        ref_ep, ref_hal = RngStream(seed).derive("e"), RngStream(seed).derive("h")
        log_space_rows = 0
        # two whole blocks, then a partial last one, on continuing streams
        for size in (EPISODE_BLOCK, EPISODE_BLOCK, 3):
            block = sample_episode(ds, m, n, rng_ep, episodes=size)
            h_block = hallucinate(block, cfg, rng_hal, force_beta=force_beta)
            for i in range(size):
                ep = sample_episode(ds, m, n, ref_ep)
                w, chosen = reference_propagation_weights(ep, cfg, ref_hal)
                v_prime, a_prime = w @ class_centroids(ep), w @ ep.semantic
                visual, semantic, betas = reference_interpolate(
                    ep, v_prime, a_prime, cfg, ref_hal, force_beta)
                for f in dataclasses.fields(ep):
                    assert same_bytes(getattr(block[i], f.name),
                                      getattr(ep, f.name)), f.name
                hep = h_block[i]
                for got, want in ((hep.weights.w, w), (hep.weights.chosen, chosen),
                                  (hep.v_prime, v_prime), (hep.a_prime, a_prime),
                                  (hep.visual, visual), (hep.semantic, semantic),
                                  (hep.betas, betas)):
                    assert same_bytes(got, want)
                direct = (offdiag_softmax(pairwise_cosine(class_centroids(ep)), sigma)
                          + offdiag_softmax(pairwise_cosine(ep.semantic), sigma))
                log_space_rows += int(np.sum(
                    np.take_along_axis(direct, chosen, axis=1).sum(axis=1) == 0))
        assert rng_ep.uniform() == ref_ep.uniform()
        assert rng_hal.uniform() == ref_hal.uniform()
        if sigma == 1e-4:
            assert log_space_rows  # the log-space rows are among those compared

    def test_single_episode_is_block_of_one(self):
        ep = random_episode(500, m=6)
        block = Episode(*(getattr(ep, f.name)[None]
                          for f in dataclasses.fields(ep)))
        cfg = HalluConfig(n_neighbors=3)
        single = hallucinate(ep, cfg, RngStream(1))
        stacked = hallucinate(block, cfg, RngStream(1))[0]
        assert single.visual.shape == ep.visual.shape
        for f in ("visual", "semantic", "betas", "v_prime", "a_prime"):
            assert same_bytes(getattr(single, f), getattr(stacked, f))
        assert same_bytes(single.weights.w, stacked.weights.w)

    @pytest.mark.parametrize("force_beta", (None, 0.0, 1.0))
    @pytest.mark.parametrize("alphas", ((5.0, 1.0), (0.3, 0.4),
                                        (MAX_BETA_SHAPE, 1.0)))
    def test_draws_equal_per_episode_draws(self, alphas, force_beta):
        # a block draws each episode's neighbours and then its Betas, as
        # separate calls per episode would, on a continuing stream
        m, n_neighbors = 6, 3
        cfg = HalluConfig(n_neighbors=n_neighbors, alpha1=alphas[0], alpha2=alphas[1])
        rng, ref = RngStream(31), RngStream(31)
        for episodes in (EPISODE_BLOCK, 3):
            picks, betas = placeholder_draws(rng, cfg, (episodes, m), force_beta)
            assert picks.shape == (episodes, m, n_neighbors)
            for i in range(episodes):
                assert same_bytes(picks[i],
                                  ref.choices_without_replacement(m, m - 1, n_neighbors))
                want = (np.full(m, force_beta) if force_beta is not None
                        else reference_betas(ref, *alphas, m))
                assert same_bytes(betas[i], want)
        assert rng.uniform() == ref.uniform()

    def test_stacked_loss_into_a_buffer(self):
        # a step of train_prototypes on a hallucinated block's episode: the
        # gradients written into a reused buffer equal those written into a
        # fresh buffer per call
        ds = generate_synthetic(SynthConfig(seen_count=12, unseen_count=2,
                                            attr_dim=4, feat_dim=6,
                                            train_per_class=5, test_per_class=1,
                                            noise_scale=0.4, seed=3))
        m, n = 8, 3
        block = sample_episode(ds, m, n, RngStream(4), episodes=3)
        passes = (hallucinate(block, HalluConfig(n_neighbors=2), RngStream(5)), block)
        semantic = np.stack([p.semantic for p in passes], axis=1)
        qh, qn = unit_rows(np.stack([p.visual for p in passes], axis=1))
        at = target_indices(np.broadcast_to(class_major_labels(m, n), (2, m * n)), m)
        net = MappingNet.init(4, 6, rng=RngStream(6))
        buf = np.full((2, net.flat.size), np.nan)
        out = buf, net.views(buf)  # made once, as train_prototypes makes them
        for i in range(3):
            losses, grads = stacked_loss(net, semantic[i], (qh[i], qn[i]), at, 5.0,
                                         out=grad_out(net, 2))
            got_losses, got = stacked_loss(net, semantic[i], (qh[i], qn[i]), at, 5.0,
                                           out=out)
            assert got is buf
            assert same_bytes(got_losses, losses) and same_bytes(got, grads)
