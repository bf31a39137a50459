import math
import tracemalloc

import numpy as np
import pytest

from protoplace.errors import ParameterError, ShapeError, TrainingError
from protoplace.linalg import (
    MappingNet,
    OptimizerState,
    as_matrix,
    cosine_cross_entropy,
    fit,
    net_backward,
    net_forward,
    optimizer_step,
    pairwise_cosine,
    softmax,
    target_indices,
    unit_rows,
    unit_rows_or_zero,
)
from protoplace.prototypes import TrainConfig
from protoplace.refine import SofConfig
from protoplace.rng import RngStream
from reference import grad_out


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

    # pairwise_cosine returns numpy's a @ a.T unaveraged, so its graphs are
    # symmetric only while numpy computes that product exactly symmetric,
    # per matrix of a stack; a numpy release that breaks this fails here
    # first.

    @pytest.mark.parametrize("stack", [(), (1,), (8,)])
    @pytest.mark.parametrize("m", [1, 2, 20, 50])
    @pytest.mark.parametrize("d", [1, 6, 32, 512])
    def test_exactly_symmetric(self, stack, m, d):
        rng = np.random.default_rng(1000 * len(stack) + 10 * m + d)
        sim = pairwise_cosine(rng.normal(size=(*stack, m, d)))
        assert sim.shape == (*stack, m, m)
        assert sim.tobytes() == sim.swapaxes(-1, -2).tobytes()

    def test_exactly_symmetric_with_zero_rows(self):
        x = np.random.default_rng(3).normal(size=(8, 20, 32))
        x[2, 3] = 0.0
        x[5, 0] = -0.0
        for sim in (pairwise_cosine(x), pairwise_cosine(x[2])):
            assert sim.tobytes() == sim.swapaxes(-1, -2).tobytes()
        assert not pairwise_cosine(x)[2, 3].any()


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


def random_net(rng, in_dim=4, hidden=5, out_dim=3):
    return MappingNet(
        w1=rng.normal(size=(hidden, in_dim)),
        b1=rng.normal(size=hidden),
        w2=rng.normal(size=(out_dim, hidden)),
        b2=rng.normal(size=out_dim),
    )


class TestNetForward:
    def test_dead_relu_outputs_bias(self):
        net = MappingNet(w1=np.eye(2), b1=np.full(2, -100.0), w2=np.eye(2),
                         b2=np.array([1.5, -2.5]))
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
        grads = net_backward(net, cache, np.zeros((3, 3)), grad_out(net))
        assert grads.shape == net.flat.shape
        assert np.all(grads == 0)

    @pytest.mark.parametrize("trial", range(20))
    def test_finite_differences(self, trial):
        rng = np.random.default_rng(100 + trial)
        net = random_net(rng, in_dim=3, hidden=4, out_dim=2)
        x = rng.normal(size=(5, 3))
        weights = rng.normal(size=(5, 2))  # fixed scalarization of the output

        out, cache = net_forward(net, x)
        analytic = net.views(net_backward(net, cache, weights, grad_out(net)))

        def loss():
            y, _ = net_forward(net, x)
            return float((weights * y).sum())

        numeric = finite_difference_param_grads(loss, net)
        assert_grads_close(analytic, numeric)


def cce(q, refs, targets, scale, wrt):
    """cosine_cross_entropy of raw queries and class targets."""
    return cosine_cross_entropy(unit_rows(q), refs,
                                target_indices(targets, refs[0].shape[0]), scale,
                                wrt=wrt)


class TestCosineCrossEntropy:
    def test_hand_two_class(self):
        # query aligned with its class, orthogonal to the other, scale 1
        refs = unit_rows(np.array([[1.0, 0.0], [0.0, 1.0]]))
        loss, _ = cce(np.array([[1.0, 0.0]]), refs, np.array([0]), 1.0,
                      wrt="queries")
        assert loss == pytest.approx(-math.log(math.e / (math.e + 1)), abs=1e-12)

    @pytest.mark.parametrize("trial", range(10))
    def test_gradients_match_finite_differences(self, trial):
        rng = np.random.default_rng(200 + trial)
        q = rng.normal(size=(4, 3))
        r = rng.normal(size=(5, 3))
        t = rng.integers(0, 5, size=4)
        scale = float(rng.uniform(1, 12))
        _, gq = cce(q, unit_rows(r), t, scale, wrt="queries")
        _, gr = cce(q, unit_rows(r), t, scale, wrt="references")

        def loss_at(qq, rr):
            return cce(qq, unit_rows(rr), t, scale, wrt="queries")[0]

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
        refs = unit_rows(np.array([[1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(FloatingPointError, match="zero-norm"):
            cce(np.array([[0.0, 0.0]]), refs, np.array([0]), 1.0, wrt="queries")
        with pytest.raises(FloatingPointError, match="zero-norm"):
            unit_rows(np.array([[1.0, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("wrt", ["queries", "references"])
    @pytest.mark.parametrize("bad", [-1, -3, 3, 7])
    def test_target_out_of_range_raises(self, wrt, bad):
        # a negative target must not wrap around to the last references
        rng = np.random.default_rng(11)
        refs = unit_rows(rng.normal(size=(3, 4)))
        with pytest.raises(ParameterError, match="out of range"):
            cce(rng.normal(size=(2, 4)), refs, np.array([0, bad]), 5.0, wrt=wrt)

    def test_one_target_per_query(self):
        refs = unit_rows(np.eye(3))
        with pytest.raises(ShapeError):
            cce(np.eye(3)[:2], refs, np.array([0]), 5.0, wrt="queries")
        with pytest.raises(ShapeError):
            target_indices(np.array(0), 3)

    def test_unknown_gradient_rejected(self):
        with pytest.raises(ParameterError, match="gradient"):
            cce(np.eye(2), unit_rows(np.eye(2)), np.array([0, 1]), 1.0, wrt="both")


def reference_cosine_cross_entropy(queries, references, targets, scale):
    """The three-output form the one-sided loss replaced: the loss and both
    gradients, every input checked and the references normalised per call."""
    q = as_matrix(queries, "queries")
    r = as_matrix(references, "references")
    t = np.asarray(targets, dtype=np.int64).ravel()
    if t.size and (t.min() < 0 or t.max() >= r.shape[0]):
        raise ParameterError("target index out of range")
    qn = np.linalg.norm(q, axis=1)
    rn = np.linalg.norm(r, axis=1)
    if np.any(qn == 0) or np.any(rn == 0):
        raise FloatingPointError("zero-norm row in cosine cross-entropy")
    qh = q / qn[:, None]
    rh = r / rn[:, None]
    cos = qh @ rh.T
    logits = scale * cos
    z = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    logp = z - lse[:, None]
    b = q.shape[0]
    idx = np.arange(b)
    loss = float(-logp[idx, t].mean())
    gl = np.exp(logp)
    gl[idx, t] -= 1.0
    gl *= scale / b
    gl_cos = gl * cos
    row_dot = gl_cos.sum(axis=1, keepdims=True)
    gq = (gl @ rh - row_dot * qh) / qn[:, None]
    col_dot = gl_cos.sum(axis=0)[:, None]
    gr = (gl.T @ qh - col_dot * rh) / rn[:, None]
    return loss, gq, gr


class TestGradientParity:
    """Each one-sided gradient equals the reference form's, bit for bit."""

    # (queries, references, dimension, logit scale): a SOF batch against the
    # seen-class attributes, an episode's samples against its prototypes
    SHAPES = {"sof": (16, 40, 16, 10.0), "episode": (80, 20, 32, 5.0)}

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_bitwise(self, shape, seed):
        b, k, d, scale = self.SHAPES[shape]
        rng = np.random.default_rng(seed)
        q = rng.normal(size=(b, d))
        r = rng.normal(size=(k, d))
        t = rng.integers(0, k, size=b)
        loss, gq, gr = reference_cosine_cross_entropy(q, r, t, scale)
        refs = unit_rows(r)
        for wrt, expected in (("queries", gq), ("references", gr)):
            got_loss, got = cce(q, refs, t, scale, wrt=wrt)
            assert np.float64(got_loss).tobytes() == np.float64(loss).tobytes()
            assert got.tobytes() == expected.tobytes(), wrt

    def test_unit_rows_match_numpy_norm(self):
        rng = np.random.default_rng(3)
        for shape in ((1, 1), (5, 3), (80, 32), (40, 16)):
            x = rng.normal(size=shape) * 10.0 ** rng.integers(-100, 100, size=shape)
            norms = np.linalg.norm(x, axis=1)
            unit, got = unit_rows(x)
            assert got.tobytes() == norms.tobytes()
            assert unit.tobytes() == (x / norms[:, None]).tobytes()


def reference_unit_rows_or_zero(x):
    """The zero-safe normalisation that pairwise_cosine and the metrics
    module each wrote inline before unit_rows_or_zero."""
    norms = np.linalg.norm(x, axis=1)
    xh = x / np.where(norms > 0, norms, 1.0)[:, None]
    xh[norms == 0] = 0.0
    return xh


def wide_rows(rng, rows, cols, zero_rows=()):
    """Normal rows scaled by 10**k, k in [-100, 100); the listed rows are 0,
    one of them -0.0."""
    x = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-100, 100,
                                                              size=(rows, 1))
    x[list(zero_rows)] = 0.0
    if zero_rows:
        x[zero_rows[0]] = -0.0
    return x


class TestUnitRowsParity:
    """The two unit-row helpers and their callers equal the inline forms
    they replaced, bit for bit."""

    @pytest.mark.parametrize("seed", range(6))
    def test_unit_rows_or_zero(self, seed):
        rng = np.random.default_rng(seed)
        x = wide_rows(rng, 10 + 8 * seed, 8 + 4 * seed, zero_rows=(0, 3))
        unit, norms = unit_rows_or_zero(x)
        assert unit.tobytes() == reference_unit_rows_or_zero(x).tobytes()
        assert norms.tobytes() == np.linalg.norm(x, axis=1).tobytes()
        assert not np.signbit(unit[[0, 3]]).any()

    @pytest.mark.parametrize("seed", range(6))
    def test_pairwise_cosine(self, seed):
        rng = np.random.default_rng(10 + seed)
        x = wide_rows(rng, 10 + 8 * seed, 8 + 4 * seed,
                      zero_rows=(1, 2) if seed % 2 else ())
        xh = reference_unit_rows_or_zero(x)
        sim = xh @ xh.T
        expected = np.clip((sim + sim.T) / 2.0, -1.0, 1.0)
        assert pairwise_cosine(x).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_query_gradient(self, seed):
        # queries on scales 10**-100 .. 10**99, normalised by unit_rows
        rng = np.random.default_rng(20 + seed)
        q = wide_rows(rng, 40, 16)
        r = rng.normal(size=(12, 16))
        t = rng.integers(0, 12, size=40)
        loss, gq, _ = reference_cosine_cross_entropy(q, r, t, 10.0)
        got_loss, got = cce(q, unit_rows(r), t, 10.0, wrt="queries")
        assert np.float64(got_loss).tobytes() == np.float64(loss).tobytes()
        assert got.tobytes() == gq.tobytes()


class TestOptimizer:
    def test_zero_gradient_is_fixed_point(self):
        state = OptimizerState(mode="sgd_momentum", learning_rate=0.1)
        p = np.array([1.0, -2.0])
        optimizer_step(state, p, np.zeros(2))
        assert np.array_equal(p, [1.0, -2.0])
        assert state.step_count == 1

    def test_plain_descent_step(self):
        state = OptimizerState(mode="sgd_momentum", learning_rate=0.1, momentum=0.0)
        p = np.array([0.0])
        optimizer_step(state, p, np.array([1.0]))
        assert p[0] == pytest.approx(-0.1, abs=1e-15)

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
        p = np.array([1.0])
        for t in range(3):
            optimizer_step(state, p, np.array([2 * p[0]]))
            assert abs(p[0] - trace[t]) < 1e-12
        assert state.step_count == 3

    def test_shape_mismatch(self):
        state = OptimizerState(mode="adam", learning_rate=0.1)
        p = np.zeros(2)
        with pytest.raises(ShapeError):
            optimizer_step(state, p, np.zeros(3))
        assert state.step_count == 0 and np.array_equal(p, [0.0, 0.0])

    def test_parameter_validation(self):
        # OptimizerState checks nothing: the configs of both training stages
        # check its settings and the other rules they share, with the same
        # message each (check_stage_config)
        for setting in ({"optimizer": "nope"}, {"learning_rate": 0.0},
                        {"learning_rate": math.inf}, {"logit_scale": math.nan},
                        {"epochs": -1}, {"epochs": 1.0}, {"seed": -1},
                        {"seed": 2**64}):
            messages = []
            for cls in (SofConfig, TrainConfig):
                with pytest.raises(ParameterError) as info:
                    cls(**setting)
                messages.append(str(info.value))
            assert messages[0] == messages[1], setting


def reference_step(state, params, grad):
    """optimizer_step as the textbook expressions, each temporary a new array:
    the form the buffered step must equal bit for bit."""
    state.step_count += 1
    lr = state.learning_rate
    if state.v is None:
        state.v = np.zeros_like(params)
    if state.mode == "sgd_momentum":
        state.v *= state.momentum
        state.v -= lr * grad
        params += state.v
        return
    if state.m is None:
        state.m = np.zeros_like(params)
    b1, b2 = 0.9, 0.999
    state.m *= b1
    state.m += (1.0 - b1) * grad
    state.v *= b2
    state.v += (1.0 - b2) * grad * grad
    t = state.step_count
    mhat = state.m / (1.0 - b1**t)
    vhat = state.v / (1.0 - b2**t)
    params -= lr * mhat / (np.sqrt(vhat) + 1e-8)


class TestBufferedStep:
    """optimizer_step computes in buffers it keeps, in the order of the
    textbook expressions of reference_step."""

    @pytest.mark.parametrize("mode", ["sgd_momentum", "adam"])
    @pytest.mark.parametrize("size, steps", [(1_300, 3_000), (100_000, 60)])
    def test_equals_textbook_expressions(self, mode, size, steps):
        rng = np.random.default_rng(size)
        # five gradients cycled, on scales 1e-3 .. 1e3, one of them all zero
        grads = rng.normal(size=(5, size)) * 10.0 ** rng.uniform(-3, 3, (5, 1))
        grads[3] = 0.0
        start = rng.normal(size=size)
        state = OptimizerState(mode=mode, learning_rate=0.01, momentum=0.8)
        ref_state = OptimizerState(mode=mode, learning_rate=0.01, momentum=0.8)
        p, ref = start.copy(), start.copy()
        for i in range(steps):
            optimizer_step(state, p, grads[i % 5])
            reference_step(ref_state, ref, grads[i % 5])
        assert p.tobytes() == ref.tobytes()
        assert state.v.tobytes() == ref_state.v.tobytes()
        if mode == "adam":
            assert state.m.tobytes() == ref_state.m.tobytes()
        assert state.step_count == ref_state.step_count == steps

    @pytest.mark.parametrize("mode", ["sgd_momentum", "adam"])
    def test_later_steps_allocate_no_parameter_vector(self, mode):
        size = 100_000
        rng = np.random.default_rng(7)
        p, g = rng.normal(size=size), rng.normal(size=size)
        state = OptimizerState(mode=mode, learning_rate=0.01)
        tracemalloc.start()
        try:
            optimizer_step(state, p, g)  # makes the buffers
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(3):
                optimizer_step(state, p, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < p.nbytes


class TestFit:
    """The epoch loop of both training stages, driven by stub step generators."""

    def test_zero_epochs_returns_empty_trace(self):
        calls = []

        def epoch_steps():
            calls.append(None)
            return iter(())

        state = OptimizerState(mode="sgd_momentum", learning_rate=0.1)
        p = np.array([1.0])
        assert fit(state, p, 0, epoch_steps, "stub") == []
        assert calls == [] and state.step_count == 0 and p[0] == 1.0

    def test_trace_is_each_epochs_mean_loss(self):
        # each loss is read off the weights as they are when it is drawn: one
        # plain descent step of size 1 on a unit gradient lowers p by 1
        counts = iter([3, 1, 2])

        def epoch_steps():
            for _ in range(next(counts)):
                yield float(p[0]), np.ones(1)

        state = OptimizerState(mode="sgd_momentum", learning_rate=1.0, momentum=0.0)
        p = np.array([0.0])
        assert fit(state, p, 3, epoch_steps, "stub") == [-1.0, -3.0, -4.5]
        assert state.step_count == 6 and p[0] == -6.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_loss_stops_before_its_step(self, bad):
        g0, g1 = np.array([1.0, -2.0]), np.array([0.5, 3.0])
        epochs = []

        def epoch_steps():
            epochs.append(None)
            yield 1.0, g0
            if len(epochs) == 2:
                yield bad, np.full(2, np.nan)
            yield 2.0, g1

        state = OptimizerState(mode="adam", learning_rate=0.1)
        p = np.array([0.3, -0.7])
        with pytest.raises(TrainingError, match=r"^stub loss diverged at epoch 1$"):
            fit(state, p, 3, epoch_steps, "stub")
        # the three finite steps, taken by hand
        ref_state = OptimizerState(mode="adam", learning_rate=0.1)
        ref = np.array([0.3, -0.7])
        for g in (g0, g1, g0):
            optimizer_step(ref_state, ref, g)
        assert p.tobytes() == ref.tobytes()
        assert state.step_count == ref_state.step_count == 3
        assert state.m.tobytes() == ref_state.m.tobytes()
        assert state.v.tobytes() == ref_state.v.tobytes()


class TestMappingNetInit:
    def test_default_hidden_width(self):
        net = MappingNet.init(4, 9, rng=RngStream(0))
        assert net.w1.shape[0] == 9
        assert net.in_dim == 4 and net.out_dim == 9

    def test_rng_required(self):
        # no stream of its own: a default seed would draw outside the run's
        with pytest.raises(TypeError, match="rng stream"):
            MappingNet.init(4, 9)

    def test_inconsistent_shapes_rejected(self):
        with pytest.raises(ShapeError):
            MappingNet(w1=np.zeros((3, 2)), b1=np.zeros(4), w2=np.zeros((2, 3)),
                       b2=np.zeros(2))


class TestFlatParams:
    def test_parameters_are_views_of_one_vector(self):
        # an optimizer step on `flat` must move the arrays the forward reads
        rng = np.random.default_rng(12)
        arrays = dict(w1=rng.normal(size=(5, 4)), b1=rng.normal(size=5),
                      w2=rng.normal(size=(3, 5)), b2=rng.normal(size=3))
        net = MappingNet(**arrays)
        assert net.flat.shape == (5 * 4 + 5 + 3 * 5 + 3,)
        assert np.array_equal(net.flat, np.concatenate([a.ravel() for a in arrays.values()]))
        net.flat += 1.0
        for name, p in net.params().items():
            assert np.shares_memory(p, net.flat)
            assert np.array_equal(p, arrays[name] + 1.0), name

    def test_views_of_a_stack_write_through(self):
        net = random_net(np.random.default_rng(13))
        stack = np.zeros((2, net.flat.size))
        views = net.views(stack)
        for name, p in net.params().items():
            assert views[name].shape == (2, *p.shape)
            views[name][1] = p
        assert np.array_equal(stack[1], net.flat) and not stack[0].any()
