import math

import numpy as np
import pytest

from protoplace.errors import ParameterError
from protoplace.rng import MAX_BETA_SHAPE, RngStream, beta_sample, \
    check_beta_shapes, check_seed


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


def test_beta_sequence_reproducible():
    a = RngStream(3)
    b = RngStream(3)
    xs = [beta_sample(a, 5.0, 1.0) for _ in range(1000)]
    ys = [beta_sample(b, 5.0, 1.0) for _ in range(1000)]
    assert xs == ys


def test_beta_draws_in_unit_interval():
    rng = RngStream(11)
    draws = beta_sample(rng, 0.3, 0.4, size=5000)
    assert np.all(draws >= 0.0) and np.all(draws <= 1.0)


@pytest.mark.parametrize("a1,a2", [(1.0, 1.0), (5.0, 1.0), (2.0, 2.0)])
def test_beta_empirical_mean(a1, a2):
    rng = RngStream(99)
    draws = beta_sample(rng, a1, a2, size=100_000)
    assert abs(draws.mean() - a1 / (a1 + a2)) < 0.01


def test_beta_rejects_bad_shapes():
    # HalluConfig's check; beta_sample draws from the shapes it passed
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
    draws = beta_sample(RngStream(0), MAX_BETA_SHAPE, MAX_BETA_SHAPE, size=5)
    assert np.all(np.abs(draws - 0.5) < 1e-9)
    draws = beta_sample(RngStream(0), MAX_BETA_SHAPE, 1.0, size=5)
    assert np.all(draws == 1.0)


def test_choice_without_replacement():
    rng = RngStream(5)
    pick = rng.choice_without_replacement(10, 10)
    assert sorted(pick.tolist()) == list(range(10))


# The batched draws below equal successive single draws bit for bit and
# leave the stream in the same state; training's episodes depend on that, so
# a numpy release that changes either fails here first.


@pytest.mark.parametrize("rows,n,k", [(2, 1, 1), (5, 4, 1), (20, 19, 4), (8, 7, 7)])
def test_batched_choices_equal_successive_choices(rows, n, k):
    for seed in range(20):
        batched, single = RngStream(seed), RngStream(seed)
        picks = batched.choices_without_replacement(rows, n, k)
        expected = np.stack([single.choice_without_replacement(n, k)
                             for _ in range(rows)])
        assert picks.dtype == expected.dtype
        assert picks.tobytes() == expected.tobytes()
        assert batched.uniform() == single.uniform()


@pytest.mark.parametrize("a1,a2", [(5.0, 1.0), (0.3, 0.4), (1.0, 1.0)])
def test_beta_size_equals_scalar_draws(a1, a2):
    for seed in range(20):
        batched, single = RngStream(seed), RngStream(seed)
        draws = beta_sample(batched, a1, a2, size=7)
        expected = np.asarray([beta_sample(single, a1, a2) for _ in range(7)])
        assert draws.shape == (7,)
        assert draws.tobytes() == expected.tobytes()
        assert batched.uniform() == single.uniform()
