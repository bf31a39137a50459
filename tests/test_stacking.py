"""numpy behaviour that the episode blocks and the stacked training step
rely on.

Training samples and hallucinates its episodes in blocks (see
data.Stackable): each hallucination step is one numpy call on arrays with a
leading episode axis.  Each training step then runs the placeholder and the
real pass as one stack (prototypes.stacked_loss).  The trained nets stay
byte-identical to one episode and one pass at a time only while the stacked
calls below equal their per-slice forms bit for bit.  A numpy release that
changes one fails here first.

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

from protoplace.linalg import cosine_cross_entropy, target_indices, unit_rows

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


# The stacked training step: S passes (1 or 2) of the default episodes, 20
# classes of 4 samples, 16-dim attributes, 32-dim features and hidden units.
# (rows, columns) of its operands: per-class gradients (20, 32) and scores
# (80, 20); smaller ones too.
STEP_SHAPES = [(s, b, k) for s in (1, 2) for b, k in ((20, 32), (80, 20), (8, 4))]


@pytest.mark.parametrize("s,b,k", STEP_SHAPES)
def test_column_sums_equal_per_slice_sums(s, b, k):
    # net_backward's bias gradients and the reference gradient's column dots
    rng = np.random.default_rng(s * 1000 + b * 10 + k)
    a = rng.normal(size=(s, b, k)) * np.exp(5.0 * rng.normal(size=(s, b, k)))
    sums = a.sum(axis=-2)
    # as net_backward writes them: into rows of a wider flat buffer
    flat = np.empty((s, k + 3))
    np.add.reduce(a, axis=-2, out=flat[:, 1:k + 1])
    for i in range(s):
        assert same_bytes(sums[i], a[i].sum(axis=0))
        assert same_bytes(flat[i, 1:k + 1], a[i].sum(axis=0))


@pytest.mark.parametrize("s,b,k", STEP_SHAPES)
def test_taken_targets_sum_as_a_1d_gather(s, b, k):
    # the loss: each pass's target entries gathered from the whole score
    # stack by flat index, then summed per pass
    rng = np.random.default_rng(s * 1000 + b * 10 + k)
    logp = np.log(rng.random((s, b, k)))
    targets = rng.integers(0, k, size=b)
    at = target_indices(np.broadcast_to(targets, (s, b)), k)
    taken = logp.ravel().take(at)
    sums = np.add.reduce(taken, axis=-1)
    one = target_indices(targets, k)
    for i in range(s):
        assert same_bytes(taken[i], logp[i].ravel()[one])
        assert same_bytes(sums[i], np.add.reduce(logp[i].ravel()[one]))


@pytest.mark.parametrize("s,b,k", STEP_SHAPES)
def test_stacked_weight_products_equal_per_slice_products(s, b, k):
    # net_forward: a stack of inputs times one transposed weight matrix
    rng = np.random.default_rng(s * 1000 + b * 10 + k)
    x = rng.normal(size=(s, b, k))
    w = rng.normal(size=(2 * k + 1, k))
    xw = x @ w.T
    for i in range(s):
        assert same_bytes(xw[i], x[i] @ w.T)


@pytest.mark.parametrize("wrt", ["queries", "references"])
@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.parametrize("seed", range(3))
def test_stacked_cross_entropy_equals_per_slice_calls(seed, s, wrt):
    # an episode's samples against its prototypes, per pass
    rng = np.random.default_rng(seed)
    b, k, d = 80, 20, 32
    q = unit_rows(rng.normal(size=(s, b, d)))
    r = unit_rows(rng.normal(size=(s, k, d)))
    labels = np.repeat(np.arange(k), b // k)
    at = target_indices(np.broadcast_to(labels, (s, b)), k)
    losses, grads = cosine_cross_entropy(q, r, at, 5.0, wrt=wrt)
    assert losses.shape == (s,) and grads.shape == (s, b if wrt == "queries" else k, d)
    for i in range(s):
        loss, grad = cosine_cross_entropy((q[0][i], q[1][i]), (r[0][i], r[1][i]),
                                          target_indices(labels, k), 5.0, wrt=wrt)
        assert same_bytes(losses[i], loss)
        assert same_bytes(grads[i], grad)
