import json
import math

import numpy as np
import pytest

from protoplace.data import AttributeTable, SplitDataset, SynthConfig, \
    generate_synthetic, sample_episode
from protoplace.errors import FormatError, ParameterError, TrainingError, \
    UsageError, ValidationError
from protoplace.hallucinate import HalluConfig, hallucinate
from protoplace.linalg import MappingNet, net_forward
from protoplace.prototypes import PrototypeModel, TrainConfig, load_model, \
    place_loss, project_prototypes, real_loss, save_model, train_prototypes
from protoplace.rng import RngStream
import protoplace.prototypes as prototypes_mod


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
        loss, _ = real_loss(model, ep, 10.0)
        assert loss == pytest.approx(math.log(4), abs=1e-9)

    def test_single_class_episode_loss_zero(self):
        ds = bench()
        model = fresh_model(ds)
        ep = sample_episode(ds, 1, 3, RngStream(2))
        loss, grads = real_loss(model, ep, 10.0)
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert all(np.max(np.abs(g)) < 1e-12 for g in grads.values())

    def test_hand_two_class_orthogonal(self):
        # identity-ish net mapping attributes straight through to visual space
        attrs = np.eye(2)
        net = MappingNet(w1=np.eye(2), b1=np.zeros(2), w2=np.eye(2),
                         b2=np.zeros(2), activation="identity")
        model = PrototypeModel(net=net, config=small_cfg())
        from protoplace.data import Episode
        ep = Episode(class_ids=np.array([0, 1]),
                     sample_idx=np.array([[0], [1]]),
                     visual=attrs.copy(), semantic=attrs.copy(),
                     local_labels=np.array([0, 1]))
        loss, _ = real_loss(model, ep, 1.0)
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
            loss_fn = lambda: real_loss(model, ep, 10.0)
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
        rl, rg = real_loss(model, ep, 10.0)
        assert pl == rl
        for k in pg:
            assert np.array_equal(pg[k], rg[k])


class TestTrainPrototypes:
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

    def test_full_mode_requires_refined_dataset(self):
        ds = bench(seed=7)
        with pytest.raises(UsageError):
            train_prototypes(ds, small_cfg(mode="full"))

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

        def boom(*a, **k):
            raise AssertionError("real_loss should not be called")

        monkeypatch.setattr(prototypes_mod, "real_loss", boom)
        model = train_prototypes(ds, small_cfg(mode="ep_ei", lambda_real=0.0))
        assert model.loss_trace

    def test_divergence_raises_training_error(self, monkeypatch):
        ds = bench(seed=12)

        def bad_loss(model, hep, scale):
            return float("nan"), {k: np.zeros_like(v)
                                  for k, v in model.net.params().items()}

        monkeypatch.setattr(prototypes_mod, "place_loss", bad_loss)
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

    def test_unknown_class_id(self):
        ds = bench(seed=16)
        model = fresh_model(ds)
        with pytest.raises(ValidationError, match="99"):
            project_prototypes(model, ds.attributes, [0, 99])
        with pytest.raises(ParameterError):
            project_prototypes(model, ds.attributes, [])


class TestModelIO:
    def test_round_trip_preserves_predictions(self, tmp_path):
        ds = bench(seed=17)
        model = train_prototypes(ds, small_cfg(mode="ep_ei"))
        save_model(model, tmp_path)
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
        save_model(model, tmp_path)
        loaded, _ = load_model(tmp_path)
        assert loaded.config == model.config
        assert loaded.net.hidden_dim == 7

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
    ], ids=["missing", "missing section", "missing in section", "unknown",
            "unknown in section", "no version", "other version",
            "no loss trace", "wrong type", "unknown activation"])
    def test_model_json_is_strict(self, tmp_path, edit):
        model = train_prototypes(bench(seed=19), small_cfg())
        save_model(model, tmp_path)
        path = tmp_path / "model.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match="model.json"):
            load_model(tmp_path)

    def test_unknown_meta_key_rejected(self, tmp_path):
        model = PrototypeModel(net=MappingNet.init(4, 6), config=small_cfg())
        with pytest.raises(ParameterError):
            save_model(model, tmp_path, meta={"note": "x"})


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            TrainConfig(mode="bogus")
        with pytest.raises(ParameterError):
            TrainConfig(m_classes=0)
        with pytest.raises(ParameterError):
            TrainConfig(lambda_real=-0.5)
