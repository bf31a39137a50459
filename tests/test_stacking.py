"""numpy behaviour that the episode blocks rely on.

Training samples and hallucinates its episodes in blocks (see
data.Stackable): each hallucination step is one numpy call on arrays with a
leading episode axis, and the trained nets stay byte-identical to one episode
at a time only while the stacked calls below equal their per-episode forms
bit for bit.  A numpy release that changes one fails here first.

Reductions go through 2-D views.  The order in which numpy adds a row depends
on the operand's memory layout: along a contiguous axis it sums pairwise, in
blocks, but it may add in plain sequence otherwise, and the two orders differ
in the last bits (numpy 2.4 does so for the row sums of an (8, 20, 19)
operand whose last axis is strided).  So the block path never leaves the
order to a 3-D reduction: it sums the rows of contiguous (E*m, k) views, laid
out as one episode's (m, k) rows are, and these tests pin that those sums
equal the per-episode ones.
"""
import numpy as np
import pytest

# (episodes, classes, columns): the default episodes (20 classes, 16-dim
# attributes, 32-dim features), smaller ones, and a block of one
SHAPES = [(e, m, d) for e in (1, 3, 8) for m in (2, 5, 20) for d in (4, 16, 32)]


def same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("e,m,d", SHAPES)
def test_stacked_matmul_equals_per_slice_products(e, m, d):
    rng = np.random.default_rng(e * 1000 + m * 10 + d)
    w = rng.random((e, m, m))
    x = rng.normal(size=(e, m, d))
    wx = w @ x
    # an operand times its own transpose, which numpy computes apart
    xx = x @ np.swapaxes(x, -1, -2)
    for i in range(e):
        assert same_bytes(wx[i], w[i] @ x[i])
        assert same_bytes(xx[i], x[i] @ x[i].T)


@pytest.mark.parametrize("e,m,d", SHAPES)
def test_row_sums_of_2d_views_equal_per_episode_sums(e, m, d):
    rng = np.random.default_rng(e * 1000 + m * 10 + d)
    # softmax-like rows: the normaliser and the masked totals are such sums
    for k in (m - 1 or 1, m, d):
        a = np.exp(5.0 * rng.normal(size=(e, m, k)))
        sums = a.reshape(-1, k).sum(axis=1, keepdims=True).reshape(e, m, 1)
        squares = np.add.reduce((a * a).reshape(-1, k), axis=1).reshape(e, m)
        for i in range(e):
            assert same_bytes(sums[i], a[i].sum(axis=1, keepdims=True))
            assert same_bytes(squares[i], np.add.reduce(a[i] * a[i], axis=1))


@pytest.mark.parametrize("e,m,d", SHAPES)
def test_class_means_equal_per_episode_means(e, m, d):
    rng = np.random.default_rng(e * 1000 + m * 10 + d)
    for n in (1, 4, 9):
        v = rng.normal(size=(e, m * n, d))
        means = v.reshape(e, m, n, d).mean(axis=2)
        for i in range(e):
            assert same_bytes(means[i], v[i].reshape(m, n, d).mean(axis=1))
