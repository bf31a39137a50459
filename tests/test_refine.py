import dataclasses
import math

import numpy as np
import pytest

from protoplace.data import AttributeTable, SplitDataset, SynthConfig, \
    generate_synthetic, sample_episode
from protoplace.errors import FormatError, ParameterError, ShapeError, \
    ValidationError
from protoplace.linalg import OptimizerState, optimizer_step
from protoplace.prototypes import EPISODE_BLOCK, TrainConfig
from protoplace.refine import RefinerParams, SofConfig, load_refiner, \
    refine_features, save_refiner, train_rows, train_sof
from protoplace.rng import RngStream
from reference import sof_loss
from test_linalg import reference_cosine_cross_entropy


def orthogonal_attrs(num, dim):
    return AttributeTable(np.eye(dim)[:num])


class TestSofLoss:
    def test_hand_two_class(self):
        attrs = orthogonal_attrs(2, 2)
        loss, _ = sof_loss(np.array([[1.0, 0.0]]), [0], attrs, [0, 1], 1.0)
        assert loss == pytest.approx(-math.log(math.e / (math.e + 1)), abs=1e-12)

    def test_uniform_similarities_give_log_num_seen(self):
        # a query equidistant from every seen attribute
        attrs = orthogonal_attrs(4, 4)
        q = np.full((1, 4), 0.5)
        loss, _ = sof_loss(q, [2], attrs, [0, 1, 2, 3], 10.0)
        assert loss == pytest.approx(math.log(4), abs=1e-12)

    def test_unseen_label_rejected(self):
        attrs = orthogonal_attrs(3, 3)
        with pytest.raises(ValidationError, match="2"):
            sof_loss(np.eye(3), [0, 1, 2], attrs, [0, 1], 10.0)

    @pytest.mark.parametrize("seen,bad", [([-1, 0], "-1"), ([0, 5], "5")],
                             ids=["negative", "past the table"])
    def test_seen_class_without_attribute_row_rejected(self, seen, bad):
        # -1 would index the last row, class 2's; 5 is past the table
        attrs = AttributeTable(np.eye(3))
        with pytest.raises(ValidationError, match=f"seen class {bad} "):
            sof_loss(np.eye(3)[:1], [seen[0]], attrs, seen, 10.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        attrs = AttributeTable(rng.normal(size=(5, 4)))
        sem = rng.normal(size=(6, 4))
        labels = rng.integers(0, 5, size=6)
        _, grad = sof_loss(sem, labels, attrs, range(5), 7.0)
        step = 1e-6
        num = np.zeros_like(sem)
        it = np.nditer(sem, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = sem[idx]
            sem[idx] = orig + step
            hi = sof_loss(sem, labels, attrs, range(5), 7.0)[0]
            sem[idx] = orig - step
            lo = sof_loss(sem, labels, attrs, range(5), 7.0)[0]
            sem[idx] = orig
            num[idx] = (hi - lo) / (2 * step)
        denom = np.maximum(np.maximum(np.abs(grad), np.abs(num)), 1e-5)
        assert np.max(np.abs(grad - num) / denom) < 1e-4


def small_bench(seed=0, noise=0.0):
    return generate_synthetic(SynthConfig(seen_count=6, unseen_count=2,
                                          attr_dim=4, feat_dim=6,
                                          train_per_class=8, test_per_class=2,
                                          noise_scale=noise, seed=seed))


class TestTrainSof:
    def test_zero_epochs_returns_identity(self):
        ds = small_bench()
        params, trace = train_sof(ds, SofConfig(epochs=0))
        assert np.array_equal(params.f_lin, np.eye(6))
        assert trace == []

    def test_loss_trace_decreases_on_clean_data(self):
        ds = small_bench(noise=0.0)
        params, trace = train_sof(ds, SofConfig(epochs=50, learning_rate=5e-3))
        assert len(trace) == 50
        assert trace[-1] < trace[0]
        assert trace[-1] < 0.05

    def test_deterministic(self):
        ds = small_bench(seed=3, noise=0.2)
        p1, t1 = train_sof(ds, SofConfig(epochs=4, seed=11))
        p2, t2 = train_sof(ds, SofConfig(epochs=4, seed=11))
        assert np.array_equal(p1.f_lin, p2.f_lin)
        assert np.array_equal(p1.w_proj, p2.w_proj)
        assert t1 == t2

    def test_seed_changes_result(self):
        ds = small_bench(seed=3, noise=0.2)
        p1, _ = train_sof(ds, SofConfig(epochs=4, seed=1))
        p2, _ = train_sof(ds, SofConfig(epochs=4, seed=2))
        assert not np.array_equal(p1.w_proj, p2.w_proj)

    def test_only_train_rows_influence_training(self):
        ds = small_bench(seed=5, noise=0.3)
        poisoned = SplitDataset(
            features=ds.features.copy(), labels=ds.labels,
            attributes=ds.attributes, seen_classes=ds.seen_classes,
            unseen_classes=ds.unseen_classes, train_idx=ds.train_idx,
            test_seen_idx=ds.test_seen_idx, test_unseen_idx=ds.test_unseen_idx,
        )
        held_out = np.concatenate([ds.test_seen_idx, ds.test_unseen_idx])
        poisoned.features[held_out] = np.nan
        p1, t1 = train_sof(ds, SofConfig(epochs=3, seed=0))
        p2, t2 = train_sof(poisoned, SofConfig(epochs=3, seed=0))
        assert np.array_equal(p1.f_lin, p2.f_lin)
        assert t1 == t2

    @pytest.mark.parametrize("before", [0, 2])
    def test_parameter_gradient_matches_finite_differences(self, before):
        # with sgd_momentum, momentum 0 and learning rate 1 a full-batch step
        # moves the parameters by minus the gradient of sof_loss over the
        # train rows w.r.t. f_lin and w_proj.  The first step starts from
        # f_lin = I, where x @ f_lin equals x; after two steps it does not.
        ds = small_bench(seed=4, noise=0.3)
        x, labels = ds.features[ds.train_idx], ds.labels[ds.train_idx]

        def cfg(epochs):
            return SofConfig(epochs=epochs, batch_size=x.shape[0], learning_rate=1.0,
                             optimizer="sgd_momentum", momentum=0.0, seed=4)

        params, _ = train_sof(ds, cfg(before))
        grad = params.flat - train_sof(ds, cfg(before + 1))[0].flat

        def loss():
            sem = x @ params.f_lin @ params.w_proj
            return sof_loss(sem, labels, ds.attributes, ds.seen_classes, 10.0)[0]

        step = 1e-5
        num = np.zeros_like(grad)
        for i in range(grad.size):
            orig = params.flat[i]
            params.flat[i] = orig + step
            hi = loss()
            params.flat[i] = orig - step
            lo = loss()
            params.flat[i] = orig
            num[i] = (hi - lo) / (2 * step)
        # criterion 3's bound
        denom = np.maximum(np.maximum(np.abs(grad), np.abs(num)), 1e-5)
        assert np.max(np.abs(grad - num) / denom) < 1e-4


def reference_train_sof(ds, cfg):
    """train_sof with the seen-class attributes looked up, normalised and
    checked in every batch, through the reference loss; each gradient made
    per matrix and only then flattened."""
    c, d = ds.feat_dim, ds.attr_dim
    rng = RngStream(cfg.seed).derive("sof")
    w_init = rng.uniform(-1.0 / np.sqrt(c), 1.0 / np.sqrt(c), (c, d))
    flat = np.concatenate([np.eye(c).ravel(), w_init.ravel()])
    f_lin, w_proj = flat[:c * c].reshape(c, c), flat[c * c:].reshape(c, d)
    x_all = ds.features[ds.train_idx]
    t_all = np.searchsorted(ds.seen_classes, ds.labels[ds.train_idx])
    opt = OptimizerState(mode=cfg.optimizer, learning_rate=cfg.learning_rate,
                         momentum=cfg.momentum)
    trace = []
    n = x_all.shape[0]
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, cfg.batch_size):
            take = order[start:start + cfg.batch_size]
            xb = x_all[take]
            refined = xb @ f_lin
            sem = refined @ w_proj
            loss, g_sem, _ = reference_cosine_cross_entropy(
                sem, ds.attributes.rows(ds.seen_classes), t_all[take],
                cfg.logit_scale)
            g_wp = refined.T @ g_sem
            g_f = xb.T @ (g_sem @ w_proj.T)
            optimizer_step(opt, flat, np.concatenate([g_f.ravel(), g_wp.ravel()]))
            losses.append(loss)
        trace.append(float(np.mean(losses)))
    return f_lin, w_proj, trace


class TestReferenceParity:
    @pytest.mark.parametrize("optimizer", ["sgd_momentum", "adam"])
    @pytest.mark.parametrize("seed", range(3))
    def test_train_sof_matches_per_batch_reference(self, seed, optimizer):
        ds = small_bench(seed=seed, noise=0.3)
        cfg = SofConfig(epochs=3, batch_size=5, seed=seed, optimizer=optimizer)
        params, trace = train_sof(ds, cfg)
        f_lin, w_proj, ref_trace = reference_train_sof(ds, cfg)
        assert params.f_lin.tobytes() == f_lin.tobytes()
        assert params.w_proj.tobytes() == w_proj.tobytes()
        assert np.array(trace).tobytes() == np.array(ref_trace).tobytes()


class TestRefineFeatures:
    def test_is_exact_linear_map(self):
        ds = small_bench(seed=7, noise=0.4)
        params, _ = train_sof(ds, SofConfig(epochs=2))
        out = refine_features(ds, params)
        assert np.max(np.abs(out.features - ds.features @ params.f_lin)) == 0.0

    def test_identity_refiner_is_noop(self):
        ds = small_bench(seed=8, noise=0.4)
        params = RefinerParams(f_lin=np.eye(6), w_proj=np.zeros((6, 4)))
        out = refine_features(ds, params)
        assert np.array_equal(out.features, ds.features)

    def test_metadata_shared_not_copied(self):
        ds = small_bench(seed=9, noise=0.1)
        params = RefinerParams(f_lin=np.eye(6), w_proj=np.zeros((6, 4)))
        out = refine_features(ds, params)
        assert np.shares_memory(out.labels, ds.labels)
        assert out.attributes is ds.attributes
        assert np.shares_memory(out.train_idx, ds.train_idx)

    def test_dimension_mismatch(self):
        ds = small_bench()
        params = RefinerParams(f_lin=np.eye(4), w_proj=np.zeros((4, 4)))
        with pytest.raises(ShapeError):
            refine_features(ds, params)

    def test_keeps_split_and_train_pools_without_validating(self, monkeypatch):
        # the split is the source's, already checked: refining neither
        # validates it again nor rebuilds the episode pools
        ds = small_bench(seed=10, noise=0.1)
        pools = ds.train_pools

        def validate(self):
            raise AssertionError("split validated again")
        monkeypatch.setattr(SplitDataset, "validate", validate)
        params = RefinerParams(f_lin=2.0 * np.eye(6), w_proj=np.zeros((6, 4)))
        out = refine_features(ds, params)
        assert out.train_pools is pools
        assert np.array_equal(out.features, 2.0 * ds.features)

    def test_non_finite_product_raises(self):
        ds = small_bench(seed=11)
        ds.features[0, 0] = 10.0
        params = RefinerParams(f_lin=1e308 * np.eye(6), w_proj=np.zeros((6, 4)))
        with np.errstate(over="ignore"), \
                pytest.raises(FloatingPointError, match="non-finite values in features"):
            refine_features(ds, params)

    def test_reduces_normalized_intra_class_scatter(self):
        # refinement should tighten classes relative to the global spread
        ds = small_bench(seed=13, noise=0.5)
        params, _ = train_sof(ds, SofConfig(epochs=60, learning_rate=5e-3))
        out = refine_features(ds, params)

        def scatter(d):
            x = d.features[d.train_idx]
            y = d.labels[d.train_idx]
            total = np.var(x, axis=0).sum()
            within = np.mean([np.var(x[y == c], axis=0).sum()
                              for c in np.unique(y)])
            return within / total

        assert scatter(out) < scatter(ds)


class TestTrainRows:
    """The train-only view reads every train id's row, in the same order,
    whatever order the split lists the train ids in."""

    @staticmethod
    def shuffled(ds):
        perm = np.random.default_rng(0).permutation(ds.train_idx)
        assert np.any(np.diff(perm) < 0)
        return dataclasses.replace(ds, train_idx=perm)

    def test_holds_the_train_rows_alone(self):
        ds = self.shuffled(small_bench(seed=14, noise=0.2))
        view = train_rows(ds)
        rows = np.sort(ds.train_idx)
        assert np.array_equal(view.features, ds.features[rows])
        assert np.array_equal(view.labels, ds.labels[rows])
        assert view.test_seen_idx.size == view.test_unseen_idx.size == 0
        assert view.attributes is ds.attributes
        assert np.array_equal(view.seen_classes, ds.seen_classes)
        assert np.array_equal(view.unseen_classes, ds.unseen_classes)
        assert np.array_equal(view.features[view.train_idx],
                              ds.features[ds.train_idx])

    def test_train_pools_read_the_same_rows(self):
        ds = self.shuffled(small_bench(seed=15, noise=0.2))
        ds.train_pools  # built on ds first: the view must not share its flat
        view = train_rows(ds)
        for got, want in zip(view.train_pools[:2], ds.train_pools[:2]):
            assert np.array_equal(got, want)
        assert np.array_equal(view.features[view.train_pools[2]],
                              ds.features[ds.train_pools[2]])

    def test_episodes_draw_the_same_rows(self):
        ds = self.shuffled(generate_synthetic(SynthConfig(train_per_class=20,
                                                          test_per_class=5)))
        view = train_rows(ds)
        cfg = TrainConfig(mode="ep_only")
        got, want = (sample_episode(d, cfg.m_classes, cfg.n_samples, RngStream(3),
                                    episodes=EPISODE_BLOCK) for d in (view, ds))
        assert np.array_equal(got.class_ids, want.class_ids)
        assert np.array_equal(got.visual, want.visual)

    def test_stage_one_trains_the_same_refiner(self):
        # SOF reads train_idx[order]: the view's rows in ds's order
        ds = self.shuffled(small_bench(seed=16, noise=0.3))
        cfg = SofConfig(epochs=2, seed=4)
        p1, t1 = train_sof(ds, cfg)
        p2, t2 = train_sof(train_rows(ds), cfg)
        assert np.array_equal(p1.flat, p2.flat) and t1 == t2


class TestRefinerIO:
    def test_round_trip(self, tmp_path):
        ds = small_bench(seed=10, noise=0.2)
        params, trace = train_sof(ds, SofConfig(epochs=2))
        save_refiner(params, tmp_path, seed=0, loss_trace=trace)
        loaded = load_refiner(tmp_path)
        # on-disk matrices are float32, so round-trip equality holds after a cast
        assert np.array_equal(loaded.f_lin, params.f_lin.astype(np.float32))
        assert np.array_equal(loaded.w_proj, params.w_proj.astype(np.float32))
        assert (tmp_path / "refiner.json").exists()

    # each record below breaks one rule; the rest of it is valid
    VALID = '"seed": 0, "loss_trace": [1.5, 2]'

    @pytest.mark.parametrize("text", [
        "not json at all",
        "[6, 6]",
        '{"f_lin_shape": [6, 6], "w_proj_shape": [6, 4], "seed": 0, "seed": 1, '
        '"loss_trace": []}',
        '{"f_lin_shape": [6, 6], ' + VALID + '}',
        '{"f_lin_shape": [6, 6], "w_proj_shape": [6, 5], ' + VALID + '}',
        '{"f_lin_shape": [6.0, 6], "w_proj_shape": [6, 4], ' + VALID + '}',
        '{"f_lin_shape": [6, 6], "w_proj_shape": [6, 4, 1], ' + VALID + '}',
        '{"f_lin_shape": [6, 6], "w_proj_shape": [6, 4], ' + VALID
        + ', "junk": [1]}',
        '{"f_lin_shape": [6, 6], "w_proj_shape": [6, 4], "loss_trace": []}',
        '{"f_lin_shape": [6, 6], "w_proj_shape": [6, 4], "seed": 0}',
        '{"f_lin_shape": [6, 6], "w_proj_shape": [6, 4], "seed": -5, '
        '"loss_trace": []}',
        '{"f_lin_shape": [6, 6], "w_proj_shape": [6, 4], "seed": 18446744073709551616, '
        '"loss_trace": []}',
        '{"f_lin_shape": [6, 6], "w_proj_shape": [6, 4], "seed": true, '
        '"loss_trace": []}',
        '{"f_lin_shape": [6, 6], "w_proj_shape": [6, 4], "seed": 0.0, '
        '"loss_trace": []}',
        '{"f_lin_shape": [6, 6], "w_proj_shape": [6, 4], "seed": 0, '
        '"loss_trace": "oops"}',
        '{"f_lin_shape": [6, 6], "w_proj_shape": [6, 4], "seed": 0, '
        '"loss_trace": [true]}',
        '{"f_lin_shape": [6, 6], "w_proj_shape": [6, 4], "seed": 0, '
        '"loss_trace": ["1.5"]}',
    ], ids=["not json", "not an object", "repeated key", "missing shape",
            "other shape", "float dimension", "extra dimension", "unknown key",
            "missing seed", "missing trace", "negative seed", "seed past 64 bits",
            "seed true", "seed float", "trace string", "trace bools",
            "trace strings"])
    def test_record_checked_against_weights(self, tmp_path, text):
        params, _ = train_sof(small_bench(seed=10, noise=0.2), SofConfig(epochs=0))
        assert (params.f_lin.shape, params.w_proj.shape) == ((6, 6), (6, 4))
        save_refiner(params, tmp_path, seed=0, loss_trace=[])
        (tmp_path / "refiner.json").write_text(
            '{"f_lin_shape": [6, 6], "w_proj_shape": [6, 4], ' + self.VALID + '}')
        load_refiner(tmp_path)  # the valid record the cases edit
        (tmp_path / "refiner.json").write_text(text)
        with pytest.raises(FormatError, match="refiner.json"):
            load_refiner(tmp_path)

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            RefinerParams(f_lin=np.zeros((3, 4)), w_proj=np.zeros((3, 2)))


class TestSofConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            SofConfig(epochs=-1)
        with pytest.raises(ParameterError):
            SofConfig(learning_rate=0.0)
        with pytest.raises(ParameterError):
            SofConfig(batch_size=0)

    @pytest.mark.parametrize("setting", [
        {"learning_rate": -1.0}, {"optimizer": "rmsprop"}, {"optimizer": "adamw"},
        {"momentum": 1.0}, {"momentum": 1.5}, {"momentum": -0.1},
        {"momentum": float("nan")},
    ], ids=str)
    def test_optimizer_settings_checked(self, setting):
        # the one check of these values; OptimizerState repeats none of them
        with pytest.raises(ParameterError):
            SofConfig(**setting)

    def test_optimizer_settings_in_range(self):
        for optimizer in ("sgd_momentum", "adam"):
            for momentum in (0.0, 0.5, 0.999):
                SofConfig(optimizer=optimizer, momentum=momentum)
