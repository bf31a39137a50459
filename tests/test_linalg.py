import math

import numpy as np
import pytest

from protoplace.errors import ParameterError, ShapeError, UsageError
from protoplace.linalg import (
    MappingNet,
    OptimizerState,
    cosine_cross_entropy,
    net_backward,
    net_forward,
    optimizer_step,
    pairwise_cosine,
    softmax,
)
from protoplace.rng import RngStream


def cos(u, v) -> float:
    """The cosine of two vectors, read off `pairwise_cosine`."""
    return pairwise_cosine(np.vstack([u, v]))[0, 1]


class TestCosine:
    def test_self_similarity(self):
        assert cos((1, 0), (1, 0)) == 1.0

    def test_orthogonal(self):
        assert cos((1, 0), (0, 1)) == 0.0

    def test_half_sqrt2(self):
        assert cos((1, 1), (1, 0)) == pytest.approx(1.0 / math.sqrt(2), abs=1e-12)

    def test_zero_norm_row_scores_zero(self):
        sim = pairwise_cosine([[0.0, 0.0], [1.0, 2.0], [2.0, 1.0]])
        assert np.array_equal(sim[0], [0.0, 0.0, 0.0])
        assert np.array_equal(sim[:, 0], [0.0, 0.0, 0.0])
        assert sim[1, 2] > 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            u = rng.normal(size=6)
            v = rng.normal(size=6)
            c = float(rng.uniform(1e-3, 1e3))
            assert abs(cos(c * u, v) - cos(u, v)) < 1e-12

    def test_range(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            c = cos(rng.normal(size=4), rng.normal(size=4))
            assert -1.0 <= c <= 1.0


class TestSoftmax:
    def test_uniform_for_equal_scores(self):
        for temp in (0.1, 1.0, 17.0):
            out = softmax([3.0, 3.0, 3.0, 3.0], temp)
            assert np.allclose(out, 0.25, atol=1e-15)

    def test_exp_ratio(self):
        out = softmax([0.9, 0.1], 0.2)
        e = math.exp(0.9 / 0.2), math.exp(0.1 / 0.2)
        assert out[0] == pytest.approx(e[0] / (e[0] + e[1]), abs=1e-12)
        assert out[1] == pytest.approx(e[1] / (e[0] + e[1]), abs=1e-12)

    def test_no_overflow_on_large_range(self):
        out = softmax([3.0, 1003.0], 1.0)
        assert np.all(np.isfinite(out))
        assert out[1] == pytest.approx(1.0, abs=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            scores = rng.uniform(-400, 400, size=8)
            assert abs(softmax(scores, 1.0).sum() - 1.0) < 1e-12

    def test_bad_temperature(self):
        with pytest.raises(ParameterError):
            softmax([1.0, 2.0], 0.0)


def random_net(rng, in_dim=4, hidden=5, out_dim=3, activation="relu"):
    return MappingNet(
        w1=rng.normal(size=(hidden, in_dim)),
        b1=rng.normal(size=hidden),
        w2=rng.normal(size=(out_dim, hidden)),
        b2=rng.normal(size=out_dim),
        activation=activation,
    )


class TestNetForward:
    def test_identity_network(self):
        net = MappingNet(w1=np.eye(3), b1=np.zeros(3), w2=np.eye(3),
                         b2=np.zeros(3), activation="identity")
        x = np.random.default_rng(4).normal(size=(6, 3))
        out, _ = net_forward(net, x)
        assert np.allclose(out, x, atol=0)

    def test_dead_relu_outputs_bias(self):
        net = MappingNet(w1=np.eye(2), b1=np.full(2, -100.0), w2=np.eye(2),
                         b2=np.array([1.5, -2.5]), activation="relu")
        out, _ = net_forward(net, np.random.default_rng(5).uniform(0, 1, (4, 2)))
        assert np.allclose(out, [1.5, -2.5], atol=0)

    def test_scalar_recomputation(self):
        rng = np.random.default_rng(6)
        net = random_net(rng)
        x = rng.normal(size=(7, 4))
        out, _ = net_forward(net, x)
        for i in range(7):
            for o in range(3):
                acc = net.b2[o]
                for h in range(5):
                    pre = net.b1[h]
                    for j in range(4):
                        pre += net.w1[h, j] * x[i, j]
                    acc += net.w2[o, h] * max(pre, 0.0)
                assert abs(out[i, o] - acc) < 1e-12

    def test_shape_mismatch(self):
        net = random_net(np.random.default_rng(7))
        with pytest.raises(ShapeError):
            net_forward(net, np.zeros((2, 9)))


def finite_difference_param_grads(loss_fn, net, step=1e-5):
    grads = {}
    for name, p in net.params().items():
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + step
            hi = loss_fn()
            p[idx] = orig - step
            lo = loss_fn()
            p[idx] = orig
            g[idx] = (hi - lo) / (2 * step)
        grads[name] = g
    return grads


def assert_grads_close(analytic, numeric, rel=1e-4):
    for name in analytic:
        a, n = analytic[name], numeric[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
        assert np.max(np.abs(a - n) / denom) < rel, name


class TestNetBackward:
    def test_zero_output_grad(self):
        rng = np.random.default_rng(8)
        net = random_net(rng)
        x = rng.normal(size=(3, 4))
        _, cache = net_forward(net, x)
        grads, gx = net_backward(net, cache, np.zeros((3, 3)))
        assert all(np.all(g == 0) for g in grads.values())
        assert np.all(gx == 0)

    def test_identity_sum_loss_input_grad(self):
        net = MappingNet(w1=np.eye(3), b1=np.zeros(3), w2=np.eye(3),
                         b2=np.zeros(3), activation="identity")
        x = np.random.default_rng(9).normal(size=(4, 3))
        _, cache = net_forward(net, x)
        _, gx = net_backward(net, cache, np.ones((4, 3)))
        assert np.allclose(gx, 1.0, atol=0)

    @pytest.mark.parametrize("trial", range(20))
    def test_finite_differences(self, trial):
        rng = np.random.default_rng(100 + trial)
        net = random_net(rng, in_dim=3, hidden=4, out_dim=2,
                         activation="relu" if trial % 2 == 0 else "identity")
        x = rng.normal(size=(5, 3))
        weights = rng.normal(size=(5, 2))  # fixed scalarization of the output

        out, cache = net_forward(net, x)
        analytic, _ = net_backward(net, cache, weights)

        def loss():
            y, _ = net_forward(net, x)
            return float((weights * y).sum())

        numeric = finite_difference_param_grads(loss, net)
        assert_grads_close(analytic, numeric)

    def test_stale_cache_rejected(self):
        rng = np.random.default_rng(10)
        net_a = random_net(rng)
        net_b = random_net(rng)
        _, cache = net_forward(net_a, rng.normal(size=(2, 4)))
        with pytest.raises(UsageError):
            net_backward(net_b, cache, np.zeros((2, 3)))


class TestCosineCrossEntropy:
    def test_hand_two_class(self):
        # query aligned with its class, orthogonal to the other, scale 1
        refs = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss, _, _ = cosine_cross_entropy([[1.0, 0.0]], refs, [0], 1.0)
        assert loss == pytest.approx(-math.log(math.e / (math.e + 1)), abs=1e-12)

    @pytest.mark.parametrize("trial", range(10))
    def test_gradients_match_finite_differences(self, trial):
        rng = np.random.default_rng(200 + trial)
        q = rng.normal(size=(4, 3))
        r = rng.normal(size=(5, 3))
        t = rng.integers(0, 5, size=4)
        scale = float(rng.uniform(1, 12))
        _, gq, gr = cosine_cross_entropy(q, r, t, scale)

        def loss_at(qq, rr):
            return cosine_cross_entropy(qq, rr, t, scale)[0]

        step = 1e-6
        for arr, grad in ((q, gq), (r, gr)):
            num = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + step
                hi = loss_at(q, r)
                arr[idx] = orig - step
                lo = loss_at(q, r)
                arr[idx] = orig
                num[idx] = (hi - lo) / (2 * step)
            # floor keeps finite-difference noise on near-zero entries benign
            denom = np.maximum(np.maximum(np.abs(grad), np.abs(num)), 1e-5)
            assert np.max(np.abs(grad - num) / denom) < 1e-4

    def test_zero_norm_row_is_numeric_failure(self):
        refs = [[1.0, 0.0], [0.0, 1.0]]
        with pytest.raises(FloatingPointError, match="zero-norm"):
            cosine_cross_entropy([[0.0, 0.0]], refs, [0], 1.0)
        with pytest.raises(FloatingPointError, match="zero-norm"):
            cosine_cross_entropy([[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]], [0], 1.0)


class TestOptimizer:
    def test_zero_gradient_is_fixed_point(self):
        state = OptimizerState(mode="sgd_momentum", learning_rate=0.1)
        p = {"x": np.array([1.0, -2.0])}
        optimizer_step(state, p, {"x": np.zeros(2)})
        assert np.array_equal(p["x"], [1.0, -2.0])
        assert state.step_count == 1

    def test_plain_descent_step(self):
        state = OptimizerState(mode="sgd_momentum", learning_rate=0.1, momentum=0.0)
        p = {"x": np.array([0.0])}
        optimizer_step(state, p, {"x": np.array([1.0])})
        assert p["x"][0] == pytest.approx(-0.1, abs=1e-15)

    def test_adam_matches_hand_trace(self):
        # three Adam steps on f(x) = x^2 from x = 1, stepped by hand
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        x_ref, m, v = 1.0, 0.0, 0.0
        trace = []
        for t in range(1, 4):
            g = 2 * x_ref
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mhat = m / (1 - b1**t)
            vhat = v / (1 - b2**t)
            x_ref -= lr * mhat / (math.sqrt(vhat) + eps)
            trace.append(x_ref)

        state = OptimizerState(mode="adam", learning_rate=lr)
        p = {"x": np.array([1.0])}
        for t in range(3):
            optimizer_step(state, p, {"x": np.array([2 * p["x"][0]])})
            assert abs(p["x"][0] - trace[t]) < 1e-12
        assert state.step_count == 3

    def test_shape_mismatch(self):
        state = OptimizerState(mode="adam", learning_rate=0.1)
        with pytest.raises(ShapeError):
            optimizer_step(state, {"x": np.zeros(2)}, {"x": np.zeros(3)})

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            OptimizerState(mode="sgd_momentum", learning_rate=-1.0)
        with pytest.raises(ParameterError):
            OptimizerState(mode="nope", learning_rate=0.1)


class TestMappingNetInit:
    def test_default_hidden_width(self):
        net = MappingNet.init(4, 9, rng=RngStream(0))
        assert net.hidden_dim == 9
        assert net.in_dim == 4 and net.out_dim == 9

    def test_inconsistent_shapes_rejected(self):
        with pytest.raises(ShapeError):
            MappingNet(w1=np.zeros((3, 2)), b1=np.zeros(4), w2=np.zeros((2, 3)),
                       b2=np.zeros(2))
