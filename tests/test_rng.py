import math

import numpy as np
import pytest

from protoplace.errors import ParameterError
from protoplace.hallucinate import HalluConfig, placeholder_draws
from protoplace.rng import MAX_BETA_SHAPE, RngStream, check_beta_shapes, check_seed


def test_equal_seeds_give_equal_sequences():
    a = RngStream(42)
    b = RngStream(42)
    assert np.array_equal(a.uniform(size=1000), b.uniform(size=1000))
    assert np.array_equal(a.normal(size=1000), b.normal(size=1000))


def test_different_seeds_differ():
    assert not np.array_equal(RngStream(1).uniform(size=100),
                              RngStream(2).uniform(size=100))


def test_derive_is_deterministic_and_label_sensitive():
    parent = RngStream(7)
    again = RngStream(7)
    assert parent.derive("sof").seed == again.derive("sof").seed
    assert parent.derive("sof").seed != parent.derive("episodes").seed
    # deriving does not consume parent draws
    assert np.array_equal(parent.uniform(size=10), again.uniform(size=10))


def test_seed_range_validated():
    # the configs' check; RngStream takes any seed they pass
    with pytest.raises(ParameterError):
        check_seed(-1)
    with pytest.raises(ParameterError):
        check_seed(2**64)
    check_seed(2**64 - 1)


# The Betas come from the one place the pipeline draws them: the Gamma pairs
# of hallucinate.placeholder_draws, formed by rng.gamma_ratio.


def betas(seed, a1, a2, episodes, m):
    """The Betas of a block of episodes of M classes each, flattened."""
    cfg = HalluConfig(n_neighbors=1, alpha1=a1, alpha2=a2)
    return placeholder_draws(RngStream(seed), cfg, (episodes, m))[1].ravel()


def test_beta_sequence_reproducible():
    xs = betas(3, 5.0, 1.0, 100, 10)
    assert xs.tobytes() == betas(3, 5.0, 1.0, 100, 10).tobytes()


def test_beta_draws_in_unit_interval():
    draws = betas(11, 0.3, 0.4, 1000, 5)
    assert np.all(draws >= 0.0) and np.all(draws <= 1.0)


@pytest.mark.parametrize("a1,a2", [(1.0, 1.0), (5.0, 1.0), (2.0, 2.0)])
def test_beta_empirical_mean(a1, a2):
    draws = betas(99, a1, a2, 2000, 50)
    assert abs(draws.mean() - a1 / (a1 + a2)) < 0.01


def test_beta_rejects_bad_shapes():
    # HalluConfig's check; placeholder_draws draws from the shapes it passed
    with pytest.raises(ParameterError):
        check_beta_shapes(0.0, 1.0)
    with pytest.raises(ParameterError):
        check_beta_shapes(1.0, -2.0)


@pytest.mark.parametrize("a1,a2", [(math.inf, 1.0), (1.0, math.inf),
                                   (1e308, 1e308), (1.5 * MAX_BETA_SHAPE, 1.0)])
def test_beta_rejects_shapes_above_bound(a1, a2):
    # an infinite shape gives inf / inf = NaN, and two huge shapes overflow
    # the Gamma sum to inf, which gave Betas of 0 where Beta(a, a) is ~0.5
    with pytest.raises(ParameterError, match="Beta shapes"):
        check_beta_shapes(a1, a2)


def test_beta_at_shape_bound_is_finite():
    draws = betas(0, MAX_BETA_SHAPE, MAX_BETA_SHAPE, 1, 5)
    assert np.all(np.abs(draws - 0.5) < 1e-9)
    draws = betas(0, MAX_BETA_SHAPE, 1.0, 1, 5)
    assert np.all(draws == 1.0)


def test_choice_without_replacement():
    rng = RngStream(5)
    pick = rng.permutation(10)[:10]
    assert sorted(pick.tolist()) == list(range(10))


# The batched draws below equal successive single draws bit for bit and
# leave the stream in the same state; training's episodes depend on that, so
# a numpy release that changes either fails here first.


@pytest.mark.parametrize("rows,n,k", [(2, 1, 1), (5, 4, 1), (20, 19, 4), (8, 7, 7)])
def test_batched_choices_equal_successive_choices(rows, n, k):
    for seed in range(20):
        batched, single = RngStream(seed), RngStream(seed)
        picks = batched.choices_without_replacement(rows, n, k)
        expected = np.stack([single.permutation(n)[:k] for _ in range(rows)])
        assert picks.dtype == expected.dtype
        assert picks.tobytes() == expected.tobytes()
        assert batched.uniform() == single.uniform()


@pytest.mark.parametrize("a1,a2", [(5.0, 1.0), (0.3, 0.4), (1.0, 1.0)])
def test_beta_size_equals_scalar_draws(a1, a2):
    # one episode's M Betas are M scalar Gamma pairs x / (x + y), drawn back
    # to back after its neighbour picks
    cfg = HalluConfig(n_neighbors=2, alpha1=a1, alpha2=a2)
    for seed in range(20):
        batched, single = RngStream(seed), RngStream(seed)
        _, draws = placeholder_draws(batched, cfg, (7,))
        single.choices_without_replacement(7, 6, 2)
        pairs = [(single.gamma(a1), single.gamma(a2)) for _ in range(7)]
        expected = np.array([x / (x + y) for x, y in pairs])
        assert draws.shape == (7,)
        assert draws.tobytes() == expected.tobytes()
        assert batched.uniform() == single.uniform()
