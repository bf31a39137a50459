import json
import math

import numpy as np
import pytest

from protoplace.data import AttributeTable, SplitDataset, SynthConfig, \
    generate_synthetic, sample_episode
from protoplace.errors import FormatError, ParameterError, TrainingError
from protoplace.hallucinate import HalluConfig, hallucinate
from protoplace.linalg import MappingNet, net_forward
from protoplace.prototypes import PrototypeModel, TrainConfig, load_model, \
    project_prototypes, save_model, train_prototypes
from protoplace.refine import SofConfig, refine_features, train_sof
from protoplace.rng import RngStream
import protoplace.prototypes as prototypes_mod
from reference import place_loss


def bench(seed=0, noise=0.3, seen=8, unseen=3, d=4, c=6, per=6):
    return generate_synthetic(SynthConfig(seen_count=seen, unseen_count=unseen,
                                          attr_dim=d, feat_dim=c,
                                          train_per_class=per, test_per_class=2,
                                          noise_scale=noise, seed=seed))


def small_cfg(**kw):
    base = dict(epochs=2, episodes_per_epoch=3, m_classes=4, n_samples=2,
                hallucination=HalluConfig(n_neighbors=2), mode="ep_ei", seed=0)
    base.update(kw)
    return TrainConfig(**base)


def fresh_model(ds, seed=0, hidden=None):
    net = MappingNet.init(ds.attr_dim, ds.feat_dim, hidden, RngStream(seed))
    return PrototypeModel(net=net, config=small_cfg())


class TestLosses:
    def test_uniform_prototypes_give_log_m(self):
        # zero-weight net: every prototype equals b2, all cosines equal
        ds = bench()
        net = MappingNet(w1=np.zeros((5, 4)), b1=np.zeros(5),
                         w2=np.zeros((6, 5)), b2=np.ones(6))
        model = PrototypeModel(net=net, config=small_cfg())
        ep = sample_episode(ds, 4, 2, RngStream(1))
        loss, _ = place_loss(model, ep, 10.0)
        assert loss == pytest.approx(math.log(4), abs=1e-9)

    def test_single_class_episode_loss_zero(self):
        ds = bench()
        model = fresh_model(ds)
        ep = sample_episode(ds, 1, 3, RngStream(2))
        loss, grads = place_loss(model, ep, 10.0)
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert all(np.max(np.abs(g)) < 1e-12 for g in grads.values())

    def test_hand_two_class_orthogonal(self):
        # identity weights map the nonnegative attributes straight through
        # the relu to visual space
        attrs = np.eye(2)
        net = MappingNet(w1=np.eye(2), b1=np.zeros(2), w2=np.eye(2),
                         b2=np.zeros(2))
        model = PrototypeModel(net=net, config=small_cfg())
        from protoplace.data import Episode
        ep = Episode(class_ids=np.array([0, 1]),
                     sample_idx=np.array([[0], [1]]),
                     visual=attrs.copy(), semantic=attrs.copy())
        loss, _ = place_loss(model, ep, 1.0)
        assert loss == pytest.approx(-math.log(math.e / (math.e + 1)), abs=1e-12)

    @pytest.mark.parametrize("trial", range(20))
    def test_gradients_match_finite_differences(self, trial):
        ds = bench(seed=trial, noise=0.4)
        model = fresh_model(ds, seed=trial, hidden=5)
        ep = sample_episode(ds, 4, 2, RngStream(trial))
        if trial % 2 == 0:
            hep = hallucinate(ep, HalluConfig(n_neighbors=2), RngStream(trial))
            loss_fn = lambda: place_loss(model, hep, 10.0)
        else:
            loss_fn = lambda: place_loss(model, ep, 10.0)
        _, analytic = loss_fn()

        step = 1e-6
        for name, p in model.net.params().items():
            num = np.zeros_like(p)
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = p[idx]
                p[idx] = orig + step
                hi = loss_fn()[0]
                p[idx] = orig - step
                lo = loss_fn()[0]
                p[idx] = orig
                num[idx] = (hi - lo) / (2 * step)
            a = analytic[name]
            denom = np.maximum(np.maximum(np.abs(a), np.abs(num)), 1e-5)
            assert np.max(np.abs(a - num) / denom) < 1e-3, name

    def test_beta_one_place_equals_real_bitwise(self):
        ds = bench(seed=4)
        model = fresh_model(ds, seed=4)
        ep = sample_episode(ds, 4, 2, RngStream(3))
        hep = hallucinate(ep, HalluConfig(n_neighbors=2), RngStream(3),
                          force_beta=1.0)
        pl, pg = place_loss(model, hep, 10.0)
        rl, rg = place_loss(model, ep, 10.0)
        assert pl == rl
        for k in pg:
            assert np.array_equal(pg[k], rg[k])


def reference_train(ds, cfg):
    """train_prototypes one episode and one pass at a time: each episode
    sampled, then hallucinated, just before its optimizer step; its
    placeholder and real losses from separate place_loss calls, their
    gradients merged name by name and only the result flattened."""
    from protoplace.linalg import OptimizerState, optimizer_step
    rng = RngStream(cfg.seed)
    net = MappingNet.init(ds.attr_dim, ds.feat_dim, cfg.hidden_dim,
                          rng.derive("init"))
    model = PrototypeModel(net=net, config=cfg)
    rng_ep, rng_hal = rng.derive("episodes"), rng.derive("hallucination")
    opt = OptimizerState(mode=cfg.optimizer, learning_rate=cfg.learning_rate)
    placeholders, force = prototypes_mod.PLACEHOLDERS[cfg.mode]
    for _ in range(cfg.epochs):
        losses = []
        for _ in range(cfg.episodes_per_epoch):
            ep = sample_episode(ds, cfg.m_classes, cfg.n_samples, rng_ep)
            if placeholders:
                hep = hallucinate(ep, cfg.hallucination, rng_hal, force_beta=force)
                total, grads = place_loss(model, hep, cfg.logit_scale)
                if cfg.lambda_real > 0:
                    r_loss, r_grads = place_loss(model, ep, cfg.logit_scale)
                    total = total + cfg.lambda_real * r_loss
                    grads = {k: grads[k] + cfg.lambda_real * r_grads[k]
                             for k in grads}
            else:
                total, grads = place_loss(model, ep, cfg.logit_scale)
            optimizer_step(opt, net.flat,
                           np.concatenate([grads[k].ravel() for k in net.params()]))
            losses.append(total)
        model.loss_trace.append(float(np.mean(losses)))
    return model


def refined_bench(seed):
    ds = bench(seed=seed)
    return refine_features(ds, train_sof(ds, SofConfig(epochs=1, seed=seed))[0])


# (mode, lambda_real) of each parity run: every mode at the default weight,
# and the hallucinating modes with the real term off (a stack of one pass)
PARITY_RUNS = {
    **{mode: (mode, 0.25) for mode in ("s2v_baseline", "ep_only", "ep_ei", "full")},
    **{f"{mode}-lambda0": (mode, 0.0) for mode in ("ep_only", "ep_ei", "full")},
}


class TestTrainPrototypes:
    @pytest.mark.parametrize("run", list(PARITY_RUNS))
    @pytest.mark.parametrize("per_epoch", (1, prototypes_mod.EPISODE_BLOCK, 11))
    def test_blocks_equal_episode_at_a_time(self, run, per_epoch):
        # whole and partial blocks of episodes, each step one stacked pass,
        # train the same net as separate passes, bit for bit
        mode, lambda_real = PARITY_RUNS[run]
        ds = refined_bench(2) if mode == "full" else bench(seed=2)
        cfg = small_cfg(epochs=3, episodes_per_epoch=per_epoch, mode=mode,
                        lambda_real=lambda_real)
        got, want = train_prototypes(ds, cfg), reference_train(ds, cfg)
        assert got.loss_trace == want.loss_trace
        assert got.net.flat.tobytes() == want.net.flat.tobytes()

    def test_loss_descends_on_easy_data(self):
        ds = bench(seed=5, noise=0.1, per=10)
        cfg = small_cfg(epochs=10, episodes_per_epoch=10, learning_rate=5e-3,
                        mode="s2v_baseline")
        model = train_prototypes(ds, cfg)
        assert model.loss_trace[-1] < model.loss_trace[0]

    def test_zero_epochs_returns_initial_net(self):
        ds = bench(seed=6)
        cfg = small_cfg(epochs=0)
        model = train_prototypes(ds, cfg)
        ref = MappingNet.init(ds.attr_dim, ds.feat_dim, None,
                              RngStream(0).derive("init"))
        assert np.array_equal(model.net.w1, ref.w1)
        assert model.loss_trace == []

    def test_deterministic(self):
        ds = bench(seed=8)
        m1 = train_prototypes(ds, small_cfg(seed=5))
        m2 = train_prototypes(ds, small_cfg(seed=5))
        assert np.array_equal(m1.net.w1, m2.net.w1)
        assert np.array_equal(m1.net.w2, m2.net.w2)
        assert m1.loss_trace == m2.loss_trace

    def test_modes_differ(self):
        ds = bench(seed=9)
        a = train_prototypes(ds, small_cfg(mode="s2v_baseline"))
        b = train_prototypes(ds, small_cfg(mode="ep_only"))
        c = train_prototypes(ds, small_cfg(mode="ep_ei"))
        assert not np.array_equal(a.net.w1, b.net.w1)
        assert not np.array_equal(b.net.w1, c.net.w1)

    def test_unseen_and_test_rows_never_read(self):
        # poison everything outside train; training must be unaffected
        ds = bench(seed=10)
        poisoned = SplitDataset(
            features=ds.features.copy(), labels=ds.labels,
            attributes=ds.attributes, seen_classes=ds.seen_classes,
            unseen_classes=ds.unseen_classes, train_idx=ds.train_idx,
            test_seen_idx=ds.test_seen_idx, test_unseen_idx=ds.test_unseen_idx,
        )
        held_out = np.concatenate([ds.test_seen_idx, ds.test_unseen_idx])
        poisoned.features[held_out] = np.nan
        m1 = train_prototypes(ds, small_cfg(seed=2))
        m2 = train_prototypes(poisoned, small_cfg(seed=2))
        assert np.array_equal(m1.net.w1, m2.net.w1)
        assert np.array_equal(m1.net.b2, m2.net.b2)

    def test_lambda_zero_skips_real_term(self, monkeypatch):
        ds = bench(seed=11)
        depths = []
        step = prototypes_mod.stacked_loss

        def one_pass_only(net, semantic, *args, **kw):
            depths.append(semantic.shape[0])
            return step(net, semantic, *args, **kw)

        monkeypatch.setattr(prototypes_mod, "stacked_loss", one_pass_only)
        model = train_prototypes(ds, small_cfg(mode="ep_ei", lambda_real=0.0))
        assert model.loss_trace
        assert depths and set(depths) == {1}

    def test_gradient_views_made_once_per_run(self, monkeypatch):
        # a run of 2 or 8 steps makes the same number of parameter views:
        # every step writes through the views of the one gradient buffer
        ds = bench(seed=11)
        made = []
        views = MappingNet.views

        def counted(self, vec):
            made.append(vec.shape)
            return views(self, vec)

        monkeypatch.setattr(MappingNet, "views", counted)
        counts = []
        for episodes in (1, 4):
            made.clear()
            train_prototypes(ds, small_cfg(episodes_per_epoch=episodes))
            counts.append(len(made))
        assert counts[0] == counts[1]

    def test_divergence_raises_training_error(self, monkeypatch):
        ds = bench(seed=12)

        def bad_loss(net, semantic, *args, **kw):
            return np.full(semantic.shape[0], np.nan), \
                np.zeros((semantic.shape[0], net.flat.size))

        monkeypatch.setattr(prototypes_mod, "stacked_loss", bad_loss)
        with pytest.raises(TrainingError, match="epoch 0"):
            train_prototypes(ds, small_cfg(mode="ep_ei", lambda_real=0.0))

    def test_default_episode_budget(self):
        ds = bench(seed=13, per=6, seen=8)  # 48 train rows
        cfg = small_cfg(epochs=1, episodes_per_epoch=None, m_classes=4,
                        n_samples=2)
        model = train_prototypes(ds, cfg)
        # ceil(48 / 8) = 6 episodes averaged into one trace entry
        assert len(model.loss_trace) == 1


class TestProjectPrototypes:
    def test_matches_row_by_row_forward(self):
        ds = bench(seed=14)
        model = fresh_model(ds, seed=14)
        ids = ds.unseen_classes
        protos = project_prototypes(model, ds.attributes, ids)
        for row, c in enumerate(ids):
            single, _ = net_forward(model.net, ds.attributes.rows([c]))
            # batched and single-row matmuls may differ in the last few ulps
            assert np.max(np.abs(protos[row] - single[0])) < 1e-12

    def test_duplicate_ids_duplicate_rows(self):
        ds = bench(seed=15)
        model = fresh_model(ds, seed=15)
        protos = project_prototypes(model, ds.attributes, [1, 1, 3])
        assert np.array_equal(protos[0], protos[1])
        assert not np.array_equal(protos[0], protos[2])


class TestModelIO:
    def test_round_trip_preserves_predictions(self, tmp_path):
        ds = bench(seed=17)
        model = train_prototypes(ds, small_cfg(mode="ep_ei"))
        save_model(model, tmp_path, "ep-ei")
        loaded, manifest = load_model(tmp_path)
        assert manifest["mode"] == "ep_ei"
        assert loaded.config.m_classes == model.config.m_classes
        assert loaded.loss_trace == pytest.approx(model.loss_trace)
        p1 = project_prototypes(model, ds.attributes, ds.unseen_classes)
        p2 = project_prototypes(loaded, ds.attributes, ds.unseen_classes)
        # float32 storage bounds the round-trip drift
        assert np.max(np.abs(p1 - p2)) < 1e-5

    def test_round_trip_keeps_every_config_field(self, tmp_path):
        ds = bench(seed=18)
        model = train_prototypes(ds, small_cfg(hidden_dim=7, episodes_per_epoch=3,
                                               lambda_real=0.5, seed=4))
        save_model(model, tmp_path, "ep-ei")
        loaded, _ = load_model(tmp_path)
        assert loaded.config == model.config
        assert loaded.net.w1.shape[0] == 7

    @pytest.mark.parametrize("edit", [
        lambda m: m.pop("lambda_real"),
        lambda m: m.pop("hallucination"),
        lambda m: m["hallucination"].pop("alpha1"),
        lambda m: m.update(temperature=1.0),
        lambda m: m["hallucination"].update(similarity="cosine"),
        lambda m: m.pop("format_version"),
        lambda m: m.update(format_version=2),
        lambda m: m.pop("loss_trace"),
        lambda m: m.update(epochs="two"),
        lambda m: m.update(activation="tanh"),
        lambda m: m.update(activation="identity"),
        # cli_mode names the pipeline, whose mode and stage one the record
        # repeats; this ep_ei model is not `full`, and 1 is not true
        lambda m: m.update(cli_mode="full"),
        lambda m: m.update(used_sof=1),
        lambda m: m.pop("cli_mode"),
        lambda m: m.pop("used_sof"),
    ], ids=["missing", "missing section", "missing in section", "unknown",
            "unknown in section", "no version", "other version",
            "no loss trace", "wrong type", "unknown activation",
            "identity activation", "cli_mode full", "used_sof 1", "no cli_mode",
            "no used_sof"])
    def test_model_json_is_strict(self, tmp_path, edit):
        model = train_prototypes(bench(seed=19), small_cfg())
        save_model(model, tmp_path, "ep-ei")
        path = tmp_path / "model.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match="model.json"):
            load_model(tmp_path)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            TrainConfig(mode="bogus")
        with pytest.raises(ParameterError):
            TrainConfig(m_classes=0)
        with pytest.raises(ParameterError):
            TrainConfig(lambda_real=-0.5)

    @pytest.mark.parametrize("setting", [
        {"learning_rate": -1.0}, {"optimizer": "sgd"}, {"optimizer": "rmsprop"},
    ], ids=str)
    def test_optimizer_settings_checked(self, setting):
        with pytest.raises(ParameterError):
            TrainConfig(**setting)

    @pytest.mark.parametrize("mode", ["ep_only", "ep_ei", "full"])
    def test_neighbours_bounded_where_hallucinating(self, mode):
        # an episode of m classes has m - 1 neighbours per class
        with pytest.raises(ParameterError, match="n_neighbors = 5"):
            TrainConfig(m_classes=5, hallucination=HalluConfig(n_neighbors=5),
                        mode=mode)
        TrainConfig(m_classes=5, hallucination=HalluConfig(n_neighbors=4), mode=mode)

    def test_neighbours_unbounded_without_hallucination(self):
        TrainConfig(m_classes=5, hallucination=HalluConfig(n_neighbors=9),
                    mode="s2v_baseline")
