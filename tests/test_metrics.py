import ctypes
import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from protoplace.config import DEFAULTS, MAX_DELTAS, delta_grid, delta_range, \
    load_config
from protoplace.data import AttributeTable, SplitDataset, SynthConfig, \
    generate_synthetic
from protoplace.errors import ConfigError, ParameterError, ValidationError
from protoplace import metrics
from protoplace.linalg import MappingNet
from protoplace.metrics import cs_sweep, harmonic_mean, prototype_similarity
from protoplace.prototypes import PrototypeModel, TrainConfig, project_prototypes, \
    train_prototypes
from protoplace.refine import refine_features, train_sof
from protoplace.rng import RngStream
from reference import evaluate, gzsl_predict, zsl_predict


class TestHarmonicMean:
    def test_published_gzsl_rows(self):
        # two published benchmark rows reproduce to reported precision
        assert harmonic_mean(74.6, 82.6) == pytest.approx(78.4, abs=0.05)
        assert harmonic_mean(76.0, 79.2) == pytest.approx(77.6, abs=0.05)

    def test_equal_inputs(self):
        assert harmonic_mean(0.4, 0.4) == pytest.approx(0.4, abs=1e-15)

    def test_zero_dominates(self):
        assert harmonic_mean(0.0, 0.9) == 0.0
        assert harmonic_mean(0.0, 0.0) == 0.0

    def test_bounded_between_min_and_max(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            u, s = rng.uniform(0.01, 1.0, size=2)
            h = harmonic_mean(u, s)
            assert min(u, s) - 1e-12 <= h <= max(u, s) + 1e-12


def accuracy(preds, labels, class_set):
    """cs_sweep's per-class accuracy of preds: the mean over the classes with
    rows of their accuracies."""
    return metrics._accuracy(np.asarray(preds, dtype=np.int64),
                             metrics._label_index(labels, class_set))


class TestPerClassAccuracy:
    def test_hand_mixed_case(self):
        # class 0: 2/2 right, class 1: 1/3 right -> mean 2/3
        preds = [0, 0, 1, 0, 0]
        labels = [0, 0, 1, 1, 1]
        assert accuracy(preds, labels, [0, 1]) == pytest.approx(2.0 / 3.0,
                                                                abs=1e-12)

    def test_unweighted_despite_imbalance(self):
        # 9 samples of class 0 all right, 1 sample of class 1 wrong -> 0.5
        preds = [0] * 10
        labels = [0] * 9 + [1]
        assert accuracy(preds, labels, [0, 1]) == 0.5

    def test_absent_class_excluded_from_mean(self):
        assert accuracy([0, 0], [0, 0], [0, 1, 2]) == 1.0

    def test_no_samples(self):
        assert accuracy([], [], [0, 1]) == 0.0

    def test_bitwise_equal_to_mask_loop(self):
        # the mean of per-class hits / rows must equal the mean of np.mean
        # of each class's hit mask
        rng = np.random.default_rng(6)
        classes = np.array([2, 3, 5, 11, 13, 40])
        labels = rng.choice(classes[:-1], size=997, p=[0.5, 0.2, 0.15, 0.1, 0.05])
        preds = np.where(rng.random(997) < 0.37, labels, rng.choice(classes, 997))
        ref = [float(np.mean(preds[labels == c] == c)) for c in classes
               if np.any(labels == c)]
        assert accuracy(preds, labels, classes[::-1]) == float(np.mean(ref))


class TestPredictors:
    def test_zsl_matches_brute_force(self):
        rng = np.random.default_rng(1)
        protos = rng.normal(size=(6, 5))
        feats = rng.normal(size=(20, 5))
        ids = np.array([3, 9, 0, 7, 5, 1])
        preds = zsl_predict(protos, ids, feats)
        for i in range(20):
            best, best_c = -2.0, None
            for k in range(6):
                c = float(np.dot(feats[i], protos[k])
                          / (np.linalg.norm(feats[i]) * np.linalg.norm(protos[k])))
                # replicate the deterministic smallest-id tie break
                if c > best + 1e-15 or (abs(c - best) <= 1e-15
                                        and ids[k] < best_c):
                    best, best_c = c, int(ids[k])
            assert preds[i] == best_c

    def test_exact_tie_breaks_to_smallest_id(self):
        protos = np.array([[1.0, 0.0], [1.0, 0.0]])
        preds = zsl_predict(protos, [7, 2], [[2.0, 0.0]])
        assert preds[0] == 2

    def test_gzsl_delta_zero_is_plain_argmax(self):
        rng = np.random.default_rng(2)
        protos = rng.normal(size=(5, 4))
        feats = rng.normal(size=(30, 4))
        ids = np.arange(5)
        mask = np.array([True, True, False, False, True])
        assert np.array_equal(gzsl_predict(protos, ids, mask, feats, 0.0),
                              zsl_predict(protos, ids, feats))

    def test_gzsl_hand_flip(self):
        # seen class wins at delta=0, unseen class wins past the margin
        protos = np.array([[1.0, 0.0], [0.8, 0.6]])  # seen, unseen
        ids = np.array([0, 1])
        mask = np.array([True, False])
        feat = np.array([[1.0, 0.0]])
        # cos(seen)=1.0, cos(unseen)=0.8; flip at delta > 0.2
        assert gzsl_predict(protos, ids, mask, feat, 0.0)[0] == 0
        assert gzsl_predict(protos, ids, mask, feat, 0.1999)[0] == 0
        assert gzsl_predict(protos, ids, mask, feat, 0.2001)[0] == 1

    def test_gzsl_saturates_at_large_delta(self):
        # cosine gaps are at most 2, so delta=2 forces unseen predictions
        rng = np.random.default_rng(3)
        protos = rng.normal(size=(6, 4))
        feats = rng.normal(size=(40, 4))
        ids = np.arange(6)
        mask = np.array([True, True, True, False, False, False])
        preds = gzsl_predict(protos, ids, mask, feats, 2.0)
        assert np.all(np.isin(preds, [3, 4, 5]))

    def test_alignment_errors(self):
        with pytest.raises(ValidationError):
            zsl_predict(np.eye(3), [0, 1], np.eye(3))
        with pytest.raises(ParameterError):
            zsl_predict(np.zeros((0, 3)), [], np.eye(3))


def reference_unit_rows_or_zero(x):
    """The zero-safe row normalisation the metrics module wrote inline before
    linalg.unit_rows_or_zero."""
    norms = np.linalg.norm(x, axis=1)
    xh = x / np.where(norms > 0, norms, 1.0)[:, None]
    xh[norms == 0] = 0.0
    return xh, norms


class TestCosineParity:
    """Scores and similarity matrices equal the inline forms they replaced,
    bit for bit, zero-norm rows included."""

    @pytest.mark.parametrize("seed", range(4))
    def test_sweep_scores(self, seed):
        rng = np.random.default_rng(seed)
        features = rng.normal(size=(30, 8)) * 10.0 ** rng.integers(-50, 50, (30, 1))
        features[[0, 7]] = 0.0
        features[7] = -0.0
        protos = rng.normal(size=(9, 8))
        protos[4] = 0.0
        ids = rng.permutation(9)
        mask = rng.uniform(size=9) < 0.5
        fh, _ = reference_unit_rows_or_zero(features)
        ph, _ = reference_unit_rows_or_zero(protos)
        order = np.argsort(ids, kind="stable")
        got = metrics._id_scores(features, protos, ids, mask)
        assert got.scores.tobytes() == (fh @ ph.T)[:, order].tobytes()
        assert got.ids.tolist() == ids[order].tolist()

    @pytest.mark.parametrize("seed", range(4))
    def test_prototype_similarity(self, seed):
        rng = np.random.default_rng(10 + seed)
        protos = rng.normal(size=(12, 6)) * 10.0 ** rng.integers(-50, 50, (12, 1))
        protos[[2, 9]] = 0.0
        ph, norms = reference_unit_rows_or_zero(protos)
        m = ph @ ph.T
        m = (m + m.T) / 2.0
        np.fill_diagonal(m, np.where(norms == 0, 0.0, 1.0))
        sim = prototype_similarity(protos)
        assert sim.matrix.tobytes() == m.tobytes()


class TestSimilarityMatrix:
    def test_properties(self):
        rng = np.random.default_rng(4)
        protos = rng.normal(size=(7, 5))
        sim = prototype_similarity(protos)
        m = sim.matrix
        assert np.array_equal(m, m.T)
        assert np.allclose(np.diag(m), 1.0, atol=0)
        assert np.all(m >= -1.0 - 1e-12) and np.all(m <= 1.0 + 1e-12)

    def test_zero_prototype_flagged(self):
        protos = np.array([[1.0, 0.0], [0.0, 0.0]])
        sim = prototype_similarity(protos)
        assert sim.matrix[0, 0] == 1.0
        assert sim.matrix[1, 1] == 0.0
        assert sim.matrix[0, 1] == 0.0

    def test_matches_scalar_cosines(self):
        rng = np.random.default_rng(5)
        protos = rng.normal(size=(4, 6))
        m = prototype_similarity(protos).matrix
        for i in range(4):
            for j in range(i):
                c = np.dot(protos[i], protos[j]) / (
                    np.linalg.norm(protos[i]) * np.linalg.norm(protos[j]))
                assert abs(m[i, j] - c) < 1e-12


def trained_setup(seed=0):
    ds = generate_synthetic(SynthConfig(seen_count=8, unseen_count=3,
                                        attr_dim=4, feat_dim=6,
                                        train_per_class=10, test_per_class=4,
                                        noise_scale=0.3, seed=seed))
    cfg = TrainConfig(epochs=5, episodes_per_epoch=5, m_classes=4, n_samples=3,
                      mode="s2v_baseline", seed=seed)
    return ds, train_prototypes(ds, cfg)


class TestEvaluate:
    def test_report_fields_consistent(self):
        ds, model = trained_setup()
        rep = evaluate(model, ds, 0.1)
        assert 0.0 <= rep.T <= 1.0
        assert 0.0 <= rep.U <= 1.0
        assert 0.0 <= rep.S <= 1.0
        assert rep.H == pytest.approx(harmonic_mean(rep.U, rep.S), abs=1e-12)
        assert rep.delta == 0.1

    def test_chance_level_for_random_model(self):
        # untrained nets on structureless features (noise swamps the class
        # signal) should sit near 1/K on K balanced unseen classes
        accs = []
        for seed in range(5):
            ds = generate_synthetic(SynthConfig(seen_count=6, unseen_count=4,
                                                attr_dim=4, feat_dim=6,
                                                train_per_class=4,
                                                test_per_class=50,
                                                noise_scale=100.0, seed=seed))
            net = MappingNet.init(4, 6, rng=RngStream(1000 + seed))
            model = PrototypeModel(net=net, config=TrainConfig(epochs=0))
            accs.append(evaluate(model, ds, 0.0).T)
        assert abs(np.mean(accs) - 0.25) < 0.05

    def test_monotone_calibration_response(self):
        # raising delta never helps seen accuracy and never hurts unseen
        ds, model = trained_setup(seed=3)
        grid = delta_grid(DEFAULTS)
        reports, _ = cs_sweep(model, ds, grid)
        for a, b in zip(reports, reports[1:]):
            assert b.S <= a.S + 1e-12
            assert b.U >= a.U - 1e-12

    def test_sweep_selects_max_h_and_first_tie(self):
        ds, model = trained_setup(seed=4)
        reports, best = cs_sweep(model, ds, [0.0, 0.1, 0.2, 0.3])
        hs = [r.H for r in reports]
        assert best == reports[int(np.argmax(hs))].delta
        # strict improvement rule: first of an exact tie wins
        reports2, best2 = cs_sweep(model, ds, [0.1, 0.1])
        assert best2 == 0.1 and reports2[0].H == reports2[1].H

    def test_default_grid_shape(self):
        grid = delta_grid(DEFAULTS)
        assert len(grid) == 51
        assert grid[0] == 0.0 and grid[-1] == 1.0
        assert np.allclose(np.diff(grid), 0.02, atol=1e-9)

    def test_evaluate_is_one_delta_sweep(self):
        ds, model = trained_setup(seed=6)
        reports, _ = cs_sweep(model, ds, [0.0, 0.3])
        assert evaluate(model, ds, 0.3) == reports[1]


class TestDeltaGrid:
    def test_default_grid_values(self):
        # sweep rows print these values, so they must keep their bytes
        grid = delta_grid(DEFAULTS)
        assert grid == [round(0.02 * i, 10) for i in range(51)]
        assert delta_range(0.0, 1.0, 0.02) == grid

    def test_range_is_inclusive(self):
        assert delta_range(0.0, 0.2, 0.1) == [0.0, 0.1, 0.2]
        assert delta_range(0.3, 0.3, 0.5) == [0.3]

    def test_bad_range_rejected(self):
        with pytest.raises(ConfigError):
            delta_range(0.0, 1.0, 0.0)
        with pytest.raises(ConfigError):
            delta_range(1.0, 0.0, 0.1)

    def test_length_bounded_before_building(self):
        # the length is checked from start, stop + 1e-12 (the end the walk
        # uses) and step, so a tiny step fails at once instead of building
        # the grid
        assert len(delta_range(0.0, MAX_DELTAS - 1.0, 1.0)) == MAX_DELTAS
        for start, stop, step in ((0.0, float(MAX_DELTAS), 1.0),
                                  (0.0, 1.0, 1e-6), (0.0, 1.0, 1e-300),
                                  (-1e308, 1e308, 1.0), (0.0, 0.0, 1e-20)):
            with pytest.raises(ConfigError, match=f"more than {MAX_DELTAS}"):
                delta_range(start, stop, step)

    def test_walk_bounded_where_rounding_shortens_steps(self):
        # near 1.0 the floats are u = 2**-52 apart, so each `d += 1.25 * u`
        # moves d by u: the range reads as 83,603 steps, but the walk would
        # take about 104,505
        u = 2.0 ** -52
        start, stop, step = 1.0, 1.0 + 100_000 * u, 1.25 * u
        assert (stop + 1e-12 - start) / step < MAX_DELTAS
        # at 1e16 the floats are 2 apart, so `d += 1.0` never moves d; the
        # step 2**-52 is the spacing just below 2.0, but the walk runs past
        # 2.0 to 2.0 + 1e-12, where 2.0 + step rounds back to 2.0
        x = 2.0 - u
        for start, stop, step in ((start, stop, step), (1e16, 1e16, 1.0),
                                  (x, x, u)):
            with pytest.raises(ConfigError, match=f"more than {MAX_DELTAS}"):
                delta_range(start, stop, step)
        assert delta_range(1e16, 1e16 + 4.0, 2.0) == [1e16, 1e16 + 2.0, 1e16 + 4.0]


# ---------------------------------------------------------------------------
# calibrated-stacking sweep: bitwise parity with per-delta prediction


def tie_dataset(test_seen=True, test_unseen=True):
    """Nine classes with interleaved seen/unseen ids and exact score ties.

    Class 1 (unseen) and class 4 (seen) share an attribute row, as do seen
    classes 5 and 8, so their prototypes coincide.  Some test rows sit exactly
    on those prototypes, so the tie decides their prediction; one test row of
    each split has zero norm.
    """
    base = generate_synthetic(SynthConfig(seen_count=6, unseen_count=3,
                                          attr_dim=4, feat_dim=6,
                                          train_per_class=4, test_per_class=6,
                                          noise_scale=0.3, seed=7))
    # old id k -> new id perm[k]; old 0..5 are seen, 6..8 unseen
    perm = np.array([0, 2, 3, 4, 5, 8, 1, 6, 7])
    attrs = np.empty_like(base.attributes.values)
    attrs[perm] = base.attributes.values
    attrs[4] = attrs[1]
    attrs[8] = attrs[5]
    attributes = AttributeTable(attrs)
    model = PrototypeModel(net=MappingNet.init(4, 6, rng=RngStream(11)),
                           config=TrainConfig(epochs=0))
    protos = project_prototypes(model, attributes, np.arange(9))
    features = base.features.copy()
    features[base.test_unseen_idx[0]] = 0.0
    features[base.test_seen_idx[0]] = 0.0
    features[base.test_unseen_idx[1:3]] = protos[1]
    features[base.test_seen_idx[1:3]] = protos[4]
    features[base.test_seen_idx[3:5]] = protos[8]
    ds = SplitDataset(
        features=features, labels=perm[base.labels], attributes=attributes,
        seen_classes=perm[base.seen_classes],
        unseen_classes=perm[base.unseen_classes],
        train_idx=base.train_idx,
        test_seen_idx=base.test_seen_idx if test_seen else [],
        test_unseen_idx=base.test_unseen_idx if test_unseen else [],
    )
    return ds, model, protos


def union_prototypes(model, ds):
    """The class ids, seen mask and prototypes of cs_sweep's GZSL scores."""
    union = np.concatenate([ds.seen_classes, ds.unseen_classes])
    mask = np.isin(union, ds.seen_classes)
    return union, mask, project_prototypes(model, ds.attributes, union)


def per_class_mean(preds, labels):
    """The unweighted mean over the classes in labels of each class's top-1
    accuracy, one hit mask per class; 0.0 without labels."""
    accs = [np.mean(preds[labels == c] == c) for c in np.unique(labels)]
    return float(np.mean(accs)) if accs else 0.0


def reference_sweep(model, ds, grid):
    """The sweep as independent single calls: one gzsl_predict per split and
    delta, one zsl_predict for T, each scored by per_class_mean."""
    seen, unseen = np.sort(ds.seen_classes), np.sort(ds.unseen_classes)
    union = np.concatenate([seen, unseen])
    mask = np.concatenate([np.ones(seen.size, bool), np.zeros(unseen.size, bool)])
    protos = project_prototypes(model, ds.attributes, union)
    t = None
    if ds.test_unseen_idx.size:
        preds = zsl_predict(project_prototypes(model, ds.attributes, unseen),
                            unseen, ds.features[ds.test_unseen_idx])
        t = per_class_mean(preds, ds.labels[ds.test_unseen_idx])
    rows = []
    for d in grid:
        accs = []
        for idx in (ds.test_unseen_idx, ds.test_seen_idx):
            acc = None
            if idx.size:
                preds = gzsl_predict(protos, union, mask, ds.features[idx], d)
                acc = per_class_mean(preds, ds.labels[idx])
            accs.append(acc)
        u, s = accs
        h = harmonic_mean(u, s) if u is not None and s is not None else None
        rows.append((t, u, s, h, d))
    hs = [-1.0 if r[3] is None else r[3] for r in rows]
    return rows, grid[hs.index(max(hs))]


# The row blocks cs_sweep is also checked at, besides metrics.ROW_BLOCK: a
# test set of a few dozen rows then spans many blocks.
SMALL_ROW_BLOCKS = (2, 3, 7)
# The one of them that splits are cut to edge sizes around.
EDGE_BLOCK = 3


def assert_scored_once(blocks, splits):
    """blocks, the feature rows of each _id_scores call of one sweep, hold
    each of splits (test_unseen's rows, then test_seen's) once, in order: a
    split of n rows in ceil(n / ROW_BLOCK) blocks whose sizes differ by at
    most one, no block holding rows of two splits."""
    for rows in splits:
        k = -(-rows.shape[0] // metrics.ROW_BLOCK)
        mine, blocks = blocks[:k], blocks[k:]
        sizes = [block.shape[0] for block in mine]
        assert sum(sizes) == rows.shape[0]
        if mine:
            assert max(sizes) - min(sizes) <= 1
            assert np.concatenate(mine).tobytes() == rows.tobytes()
    assert not blocks


def block_of(pos, n, block):
    """The block of each position pos of a split of n rows, walked in
    ceil(n / block) blocks of near-equal size."""
    k = -(-n // block)
    return np.searchsorted([i * n // k for i in range(1, k)], pos, side="right")


class TestSweepParity:
    GRID = delta_grid(DEFAULTS)

    def assert_parity(self, ds, model, grid=GRID):
        """cs_sweep equals reference_sweep exactly, at metrics.ROW_BLOCK and
        at each of SMALL_ROW_BLOCKS; the reports at ROW_BLOCK."""
        ref_rows, ref_best = reference_sweep(model, ds, grid)
        reports, best = cs_sweep(model, ds, grid)
        for block in SMALL_ROW_BLOCKS:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(metrics, "ROW_BLOCK", block)
                assert cs_sweep(model, ds, grid) == (reports, best), block
        got = [(r.T, r.U, r.S, r.H, r.delta) for r in reports]
        assert got == ref_rows  # exact float equality
        assert best == ref_best
        return reports

    def test_ties_present(self):
        ds, model, protos = tie_dataset()
        assert np.array_equal(protos[1], protos[4])
        assert np.array_equal(protos[5], protos[8])
        union = np.concatenate([np.sort(ds.seen_classes),
                                np.sort(ds.unseen_classes)])
        mask = np.isin(union, ds.seen_classes)
        # exact ties go to the smaller id, not to the earlier union column
        on_tie = ds.features[ds.test_unseen_idx[1:3]]
        assert gzsl_predict(protos[union], union, mask, on_tie, 0.0).tolist() == [1, 1]
        on_seen_tie = ds.features[ds.test_seen_idx[3:5]]
        assert gzsl_predict(protos[union], union, mask, on_seen_tie, 0.0).tolist() \
            == [5, 5]
        zero = ds.features[ds.test_seen_idx[:1]]
        assert gzsl_predict(protos[union], union, mask, zero, 0.0).tolist() == [0]
        assert gzsl_predict(protos[union], union, mask, zero, 0.1).tolist() == [1]

    def test_matches_per_delta_reference(self):
        ds, model, _ = tie_dataset()
        reports = self.assert_parity(ds, model)
        assert all(r.H is not None for r in reports)

    def test_empty_test_seen(self):
        ds, model, _ = tie_dataset(test_seen=False)
        reports = self.assert_parity(ds, model)
        assert all(r.S is None and r.H is None and r.U is not None
                   for r in reports)

    def test_empty_test_unseen(self):
        ds, model, _ = tie_dataset(test_unseen=False)
        reports = self.assert_parity(ds, model)
        assert all(r.T is None and r.U is None and r.H is None
                   and r.S is not None for r in reports)

    def test_trained_model_parity(self):
        ds, model = trained_setup(seed=8)
        self.assert_parity(ds, model)

    @pytest.mark.parametrize("seen,unseen", [
        ([0, 1, 2, 3, 4, 5], []),
        ([], [6, 7, 8]),
        ([3], [6, 7, 8]),
        ([4], []),
        ([0, 1, 2, 3, 4, 5], [6, 7, 8]),
        ([2, 3, 4, 5, 6, 7], [0, 1, 8]),
        ([], []),
    ], ids=["no unseen class", "no seen class", "one seen class", "one class",
            "ascending union", "union not ascending", "no class"])
    def test_class_sets(self, seen, unseen):
        # the synthetic data's classes 0-8, each split holding the test rows
        # of its class set; the union is seen then unseen, each ascending.
        # Without a seen class every row's top seen score reads -inf
        base = generate_synthetic(SynthConfig(seen_count=6, unseen_count=3,
                                              attr_dim=4, feat_dim=6,
                                              train_per_class=4,
                                              test_per_class=6,
                                              noise_scale=0.3, seed=7))
        test = np.concatenate([base.test_seen_idx, base.test_unseen_idx])

        def rows_of(idx, classes):
            return idx[np.isin(base.labels[idx], classes)]

        ds = SplitDataset(features=base.features, labels=base.labels,
                          attributes=base.attributes, seen_classes=seen,
                          unseen_classes=unseen,
                          train_idx=rows_of(base.train_idx, seen),
                          test_seen_idx=rows_of(test, seen),
                          test_unseen_idx=rows_of(test, unseen))
        model = PrototypeModel(net=MappingNet.init(4, 6, rng=RngStream(11)),
                               config=TrainConfig(epochs=0))
        reports = self.assert_parity(ds, model)
        assert all((r.U is None) == (not unseen) and (r.S is None) == (not seen)
                   for r in reports)

    @pytest.mark.parametrize("grid,unsure_rows", [
        ([0.5, 0.0, 0.5, -0.2, 1e-17, 0.02, -0.2], "none"),
        ([0.3, 1e13, -0.5, 0.0, 0.3], "some"),
        ([0.3, -1e16, 0.0, 1e16, 0.3], "all"),
    ], ids=["unsorted with repeats", "unsure rows", "every row unsure"])
    def test_unsorted_grid_parity(self, grid, unsure_rows):
        # reports stay in grid order, a repeated delta repeats its report;
        # at 1e13 some rows, not all, are unsure and scored in full, and at
        # 1e16, where the floats are 2 apart, every row is.  With test_unseen
        # whole (12 rows) and cut to 11 (blocks of unequal sizes), and
        # test_seen's 32 rows, each split spans several blocks at each of
        # SMALL_ROW_BLOCKS
        ds, model = trained_setup(seed=8)
        cut = dataclasses.replace(ds, test_unseen_idx=ds.test_unseen_idx[:11])
        splits = (ds.test_unseen_idx, ds.test_seen_idx)
        assert [idx.size for idx in splits] == [12, 32]
        assert all(11 > block for block in SMALL_ROW_BLOCKS)
        for data in (ds, cut):
            self.assert_parity(data, model, grid)
        reach = float(np.max(np.abs(grid)))
        union, mask, protos = union_prototypes(model, ds)
        unsure = [metrics._top_scores(metrics._id_scores(
            ds.features[idx], protos, union, mask), reach).unsure
            for idx in splits]
        rows = sum(idx.size for idx in splits)
        if unsure_rows == "none":
            assert sum(pos.size for pos in unsure) == 0
        elif unsure_rows == "some":
            assert 0 < sum(pos.size for pos in unsure) < rows
            # in several blocks of one split
            assert all(any(np.unique(block_of(pos, idx.size, block)).size > 1
                           for pos, idx in zip(unsure, splits))
                       for block in SMALL_ROW_BLOCKS)
        else:
            assert [pos.size for pos in unsure] == [idx.size for idx in splits]

    @pytest.mark.parametrize("rows", [
        {}, {"test_seen_idx": 0}, {"test_unseen_idx": 0},
        *({"test_unseen_idx": n, "test_seen_idx": n}
          for n in (1, EDGE_BLOCK, EDGE_BLOCK + 1, 2 * EDGE_BLOCK + 1))],
        ids=["both splits", "no test_seen", "no test_unseen",
             "1 row each", "B rows each", "B+1 rows each", "2B+1 rows each"])
    def test_one_projection_and_one_scoring_per_split(self, monkeypatch, rows):
        # T is read off test_unseen's GZSL scores: no second projection of
        # the unseen prototypes and no second scoring of test_unseen.  Each
        # split's rows are scored once, in its own row blocks; the splits
        # cut to n rows give, at ROW_BLOCK = B = EDGE_BLOCK, one row, one
        # whole block, and one row past one and past two whole blocks
        base, model, _ = tie_dataset()
        ds = dataclasses.replace(base, **{name: getattr(base, name)[:n]
                                          for name, n in rows.items()})
        self.assert_parity(ds, model)
        splits = [ds.features[ds.test_unseen_idx], ds.features[ds.test_seen_idx]]
        project, score = metrics.project_prototypes, metrics._id_scores
        projected, scored = [], []

        def counted_project(*args):
            projected.append(args)
            return project(*args)

        def counted_score(features, *args):
            scored.append(features)
            return score(features, *args)
        monkeypatch.setattr(metrics, "project_prototypes", counted_project)
        monkeypatch.setattr(metrics, "_id_scores", counted_score)
        for block in (metrics.ROW_BLOCK, *SMALL_ROW_BLOCKS):
            monkeypatch.setattr(metrics, "ROW_BLOCK", block)
            projected.clear()
            scored.clear()
            reports, _ = cs_sweep(model, ds, self.GRID)
            assert len(projected) == 1
            assert_scored_once(scored, splits)
            assert all((r.T is None) == (not ds.test_unseen_idx.size)
                       for r in reports)

    def test_grid_blocks(self, monkeypatch):
        # a grid of several blocks reads as the same grid in one block
        ds, model, _ = tie_dataset()
        grid = delta_grid(DEFAULTS)[::-1] + [0.37, -0.5]
        whole = cs_sweep(model, ds, grid)
        monkeypatch.setattr(metrics, "GRID_BLOCK", 5)
        assert cs_sweep(model, ds, grid) == whole

    def test_wide_grid_parity(self):
        # negative and huge deltas: at 1e20 every seen score rounds to -1e20
        ds, model, _ = tie_dataset()
        self.assert_parity(ds, model, [-0.5, 0.0, 0.37, 2.0, 1e6, 1e20])


# OpenBLAS's x86 kernels, as OPENBLAS_CORETYPE names them, by the
# /proc/cpuinfo flag of the instruction set each needs.
OPENBLAS_KERNELS = {"avx512f": "SkylakeX", "avx2": "Haswell", "avx": "Sandybridge"}
# Run under one kernel: the name of the kernel OpenBLAS runs, then
# one_block_differences(seed argument).
KERNEL_PROBE = """
import sys
from test_metrics import one_block_differences, openblas_core
print(openblas_core())
print(*one_block_differences(int(sys.argv[1])))
"""


def cpu_kernels():
    """The kernels of OPENBLAS_KERNELS whose flag /proc/cpuinfo lists: none
    where there is no such file."""
    try:
        flags = set(Path("/proc/cpuinfo").read_text().split())
    except OSError:
        return []
    return [kernel for flag, kernel in OPENBLAS_KERNELS.items() if flag in flags]


def openblas_core():
    """The name of the kernel that the OpenBLAS numpy loaded runs, or None
    where the library or its name cannot be found."""
    try:
        with open("/proc/self/maps") as maps:
            path = next(line.split()[-1] for line in maps if "openblas" in line)
    except (OSError, StopIteration):
        return None
    lib = ctypes.CDLL(path)
    for name in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
        corename = getattr(lib, name, None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    return None


def one_block_differences(seed):
    """The test_seen sizes, ROW_BLOCK + 2 to + 16 rows, at which cs_sweep's
    reports at ROW_BLOCK (two blocks of that split) differ from those of
    one block, for a model at 32-d with 50 classes."""
    block = metrics.ROW_BLOCK
    ds = generate_synthetic(SynthConfig(seen_count=40, unseen_count=10,
                                        feat_dim=32,
                                        test_per_class=(block + 16) // 40 + 1,
                                        seed=seed))
    model = train_prototypes(ds, TrainConfig(mode="s2v_baseline", seed=seed))
    grid = delta_grid(DEFAULTS)
    differing = []
    for rows in range(block + 2, block + 17):
        cut = dataclasses.replace(ds, test_seen_idx=ds.test_seen_idx[:rows])
        assert cut.test_seen_idx.size == rows
        blocked = cs_sweep(model, cut, grid)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(metrics, "ROW_BLOCK", 10**9)
            if cs_sweep(model, cut, grid) != blocked:
                differing.append(rows)
    return differing


class TestLastBlockAgainstOneBlock:
    @pytest.mark.parametrize("seed", range(2))
    def test_reports_equal_to_one_block(self, seed):
        # the bits of a block's scores depend on the BLAS kernel and on the
        # block's shape (under SkylakeX, a last block of 2-16 rows at 32-d
        # with 50 classes read other bits than one block did); the reports
        # are what cs_sweep keeps equal.  Each kernel this CPU can run is
        # checked in its own process, OPENBLAS_CORETYPE set before OpenBLAS
        # loads; without one, the default kernel here
        kernels = cpu_kernels()
        if not kernels:
            warnings.warn("no OpenBLAS x86 kernel's flag in /proc/cpuinfo: "
                          "compared under the default kernel only")
            assert one_block_differences(seed) == []
            return
        path = os.pathsep.join([str(Path(metrics.__file__).parents[1]),
                                str(Path(__file__).parent)])
        for kernel in kernels:
            proc = subprocess.run(
                [sys.executable, "-c", KERNEL_PROBE, str(seed)],
                env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1",
                     "OPENBLAS_CORETYPE": kernel},
                capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            core, differing = proc.stdout.splitlines()
            if core == "None":
                warnings.warn(f"OPENBLAS_CORETYPE={kernel}: the kernel that "
                              "ran could not be read")
            else:
                assert core == kernel
            assert differing == "", f"{kernel}: reports differ at {differing} rows"


# ---------------------------------------------------------------------------
# cs_sweep's map of the test rows against refine_features' map of every row


# Criterion 8's config (tests/test_acceptance.py), and the golden run's.
CRITERION_8 = {
    "synth": {"seen_count": 8, "unseen_count": 3, "attr_dim": 4, "feat_dim": 6,
              "train_per_class": 8, "test_per_class": 3, "noise_scale": 0.3},
    "sof": {"epochs": 2},
    "train": {"epochs": 2, "episodes_per_epoch": 3, "m_classes": 4,
              "n_samples": 2},
    "hallucination": {"n_neighbors": 2},
}
GOLDEN_CONFIG = Path(__file__).resolve().parent / "golden" / "config.json"


class TestRefinerMap:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("data", ["criterion 8", "golden",
                                      "one test_unseen row"])
    def test_equals_sweep_of_refined_features(self, tmp_path, monkeypatch,
                                              data, seed):
        # each split of two or more rows is mapped in row blocks whose rows
        # are, at this width, bit for bit those of the product over every
        # row.  A split of one test_unseen row is mapped alone, through
        # BLAS's matrix-vector code, which can differ in the last bit from
        # that row of the product over every row: it is checked against its
        # own product, and the reports against the refined rows' reports.
        # That case also runs at SMALL_ROW_BLOCKS, test_seen's 24 rows in
        # several blocks
        record = json.loads(GOLDEN_CONFIG.read_text()) if data == "golden" \
            else CRITERION_8
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**record, "seed": seed}))
        cfg = load_config(path)
        ds = generate_synthetic(cfg.synth)
        if data == "one test_unseen row":
            ds = dataclasses.replace(ds, test_unseen_idx=ds.test_unseen_idx[:1])
            assert ds.test_seen_idx.size == 24
        refiner, _ = train_sof(ds, cfg.sof)
        refined = refine_features(ds, refiner)
        model = train_prototypes(refined, dataclasses.replace(cfg.train,
                                                              mode="full"))
        splits = [refined.features[idx]
                  for idx in (ds.test_unseen_idx, ds.test_seen_idx)]
        scored = []  # the row blocks that each sweep scores

        def id_scores(features, *args):
            scored[-1].append(features)
            return score_rows(features, *args)
        score_rows, project = metrics._id_scores, metrics.project_prototypes
        projected = []

        def project_once(*args):
            projected.append(args)
            return project(*args)
        monkeypatch.setattr(metrics, "_id_scores", id_scores)
        monkeypatch.setattr(metrics, "project_prototypes", project_once)
        sizes = (metrics.ROW_BLOCK, *SMALL_ROW_BLOCKS) \
            if data == "one test_unseen row" else (metrics.ROW_BLOCK,)
        for block in sizes:
            monkeypatch.setattr(metrics, "ROW_BLOCK", block)
            scored.clear()
            projected.clear()
            sweeps = []
            for args in ((ds, cfg.grid, refiner.f_lin), (refined, cfg.grid)):
                scored.append([])
                sweeps.append(cs_sweep(model, *args))
            (reports, best), (ref_reports, ref_best) = sweeps
            assert [dataclasses.astuple(r) for r in reports] == \
                [dataclasses.astuple(r) for r in ref_reports]
            assert best == ref_best
            assert len(projected) == 2  # one per sweep
            assert_scored_once(scored[0], [
                rows if rows.shape[0] > 1 else ds.features[idx] @ refiner.f_lin
                for rows, idx in zip(splits, (ds.test_unseen_idx,
                                              ds.test_seen_idx))])
            assert_scored_once(scored[1], splits)

    def test_non_finite_mapped_rows_raise(self):
        ds, model = trained_setup()
        ds.features[ds.test_seen_idx[0], 0] = 10.0
        with np.errstate(over="ignore"), pytest.raises(
                FloatingPointError, match="non-finite values in features"):
            cs_sweep(model, ds, [0.0], 1e308 * np.eye(ds.feat_dim))


# ---------------------------------------------------------------------------
# the O(rows) calibrated-stacking shortcut against the full-row argmax


def planted_scores(rng, rows, classes, grid):
    """Cosine-like scores, each row with one planted case between two random
    columns a and b: none, an exact tie, a near-tie 1-7 spacings apart (which
    a large delta merges), b = fl(s_a - delta) for a grid delta (a seen and an
    unseen score tie after the subtraction), scores on a coarse lattice (many
    exact ties), or a zero row (a zero-norm feature)."""
    s = rng.uniform(-1.0, 1.0, (rows, classes))
    if classes < 2:
        return s
    every = np.arange(rows)
    a = rng.integers(0, classes, rows)
    b = (a + rng.integers(1, classes, rows)) % classes
    sa = s[every, a]
    kind = rng.integers(0, 6, rows)
    steps = rng.integers(1, 8, rows) * rng.choice([-1, 1], rows)
    planted = {1: sa, 2: sa + steps * np.spacing(sa), 3: sa - rng.choice(grid, rows)}
    for k, value in planted.items():
        s[every[kind == k], b[kind == k]] = value[kind == k]
    s[kind == 4] = np.round(s[kind == 4] * 4) / 4
    s[kind == 5] = 0.0
    return s


def top_predictions(top, grid):
    """The class id per row at each delta of the grid that top's switch
    points on the stably sorted grid give, its unsure rows scored in full."""
    grid = np.asarray(grid, dtype=np.float64)
    order = np.argsort(grid, kind="stable")
    switch = top.switch_points(grid[order])
    rank = np.empty(grid.size, np.int64)
    rank[order] = np.arange(grid.size)
    out = []
    for i, delta in enumerate(grid.tolist()):
        preds = np.where(rank[i] < switch, top.seen_id, top.unseen_id)
        if top.unsure.size:
            preds[top.unsure] = top.full.predict(delta)
        out.append(preds)
    return out


class TestTopScores:
    GRIDS = ([0.0], [-0.5, 0.0, 0.37, 2.0], delta_grid(DEFAULTS),
             [-0.5, 0.98, 1e20], [0.0, 1e6])

    @staticmethod
    def id_scores(scores, seen, rng):
        ids = rng.permutation(scores.shape[1])
        order = np.argsort(ids)
        return metrics._IdScores(scores[:, order], ids[order], seen[order])

    def test_matches_full_argmax(self):
        rng = np.random.default_rng(11)
        rows_seen = mismatches = naive_mismatches = 0
        for case in range(400):
            grid = self.GRIDS[case % len(self.GRIDS)]
            rows = (0, 1, 200, 700)[case % 4]
            classes = int(rng.integers(1, 10))
            # no seen column, all seen, or a random mix
            seen = rng.uniform(size=classes) < (0.0, 1.0, 0.5, 0.3)[case // 4 % 4]
            scores = self.id_scores(planted_scores(rng, rows, classes, grid), seen, rng)
            top = metrics._top_scores(scores, float(np.max(np.abs(grid))))
            naive = top._replace(unsure=np.empty(0, np.int64))
            for delta, got, naive_got in zip(grid, top_predictions(top, grid),
                                             top_predictions(naive, grid)):
                full = scores.predict(delta)
                mismatches += int(np.sum(got != full))
                naive_mismatches += int(np.sum(naive_got != full))
            rows_seen += rows
        assert rows_seen >= 90_000
        assert mismatches == 0
        # the planted merges and ties do defeat top-seen-versus-top-unseen
        assert naive_mismatches > 0

    def test_hand_built_merge(self):
        # fl(a - 0.98) == fl(0.1 - 0.98): the first seen column wins the tie
        a = 0.1 - 2 * np.spacing(0.1)
        assert a < 0.1 and a - 0.98 == 0.1 - 0.98 > -0.95
        scores = metrics._IdScores(np.array([[a, 0.1, -0.95]]), np.arange(3),
                                   np.array([True, True, False]))
        assert scores.predict(0.98).tolist() == [0]
        top = metrics._top_scores(scores, 0.98)
        assert top.unsure.tolist() == [0]
        assert top_predictions(top, [0.98])[0].tolist() == [0]
        naive = top._replace(unsure=np.empty(0, np.int64))
        assert top_predictions(naive, [0.98])[0].tolist() == [1]

    def test_clear_rows_skip_the_full_argmax(self):
        # one seen column and well-separated scores: no row is scored in full
        scores = metrics._IdScores(np.array([[0.5, 0.2, -0.3], [0.1, 0.9, 0.4]]),
                                   np.arange(3), np.array([False, True, True]))
        top = metrics._top_scores(scores, 1.0)
        assert top.unsure.size == 0
        grid = (-0.5, 0.0, 0.3, 0.5, 0.6, 2.0)
        for delta, got in zip(grid, top_predictions(top, grid)):
            assert got.tolist() == scores.predict(delta).tolist()

    @pytest.mark.parametrize("reach", [np.inf, np.nan])
    def test_non_finite_reach_scores_every_row_in_full(self, reach):
        scores = metrics._IdScores(np.array([[0.5, 0.2], [0.1, 0.9]]),
                                   np.arange(2), np.array([True, False]))
        top = metrics._top_scores(scores, reach)
        assert top.unsure.tolist() == [0, 1]
        grid = (0.0, 0.3, 0.5)
        for delta, got in zip(grid, top_predictions(top, grid)):
            assert got.tolist() == scores.predict(delta).tolist()

    def test_switch_point_counts_the_leading_wins(self):
        # seen_wins holds at the first switch_points(grid) deltas of an
        # ascending grid and at no later one, repeated deltas included
        rng = np.random.default_rng(12)
        grid = np.sort(np.concatenate([rng.uniform(-1.5, 1.5, 40), [0.0, 0.0, 0.5]]))
        for case in range(40):
            classes = int(rng.integers(2, 9))
            seen = rng.uniform(size=classes) < 0.5
            seen[:2] = [True, False]
            scores = self.id_scores(planted_scores(rng, 300, classes, grid), seen, rng)
            top = metrics._top_scores(scores, 1.5)
            wins = np.stack([top.seen_wins(d) for d in grid], axis=1)
            switch = top.switch_points(grid)
            assert np.array_equal(wins, np.arange(grid.size) < switch[:, None])
        assert top.switch_points(grid[:0]).tolist() == [0] * 300
