"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Criteria 5 and 6 share a 5-seed experiment on the default benchmark; its
results are computed once per session.  Everything here is fully seeded, so
margins observed during tuning reproduce exactly.
"""
import json
import math

import numpy as np
import pytest
from scipy.optimize import linprog

from protoplace.cli import main as cli_main
from protoplace.config import DEFAULTS, delta_grid
from protoplace.data import AttributeTable, SynthConfig, generate_synthetic, \
    sample_episode
from protoplace.hallucinate import HalluConfig, class_centroids, hallucinate
from protoplace.linalg import MappingNet
from protoplace.metrics import cs_sweep, harmonic_mean, prototype_similarity
from protoplace.prototypes import PrototypeModel, TrainConfig, project_prototypes, \
    train_prototypes
from protoplace.refine import SofConfig, refine_features, train_sof
from protoplace.rng import RngStream
from reference import evaluate, gzsl_predict, place_loss, sof_loss, zsl_predict

GRID = delta_grid(DEFAULTS)


def report(num, ok, detail=""):
    tail = f"  [{detail}]" if detail else ""
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} failed {tail}"


# ---------------------------------------------------------------------------
# shared 5-seed directional experiment (criteria 4/5/6)


@pytest.fixture(scope="session")
def ladder_runs():
    runs = []
    for seed in range(5):
        ds = generate_synthetic(SynthConfig(seed=seed))
        base = train_prototypes(ds, TrainConfig(mode="s2v_baseline", seed=seed))
        refiner, _ = train_sof(ds, SofConfig(seed=seed))
        rds = refine_features(ds, refiner)
        full = train_prototypes(rds, TrainConfig(mode="full", seed=seed))

        def best(model, d):
            reports, bd = cs_sweep(model, d, GRID)
            return reports, next(r for r in reports if r.delta == bd)

        b_reports, b_best = best(base, ds)
        _, f_best = best(full, rds)

        def disp(model, d):
            p = project_prototypes(model, d.attributes, d.unseen_classes)
            m = prototype_similarity(p).matrix
            return float(m[~np.eye(m.shape[0], dtype=bool)].mean())

        runs.append({
            "ds": ds, "base": base, "full": full,
            "base_reports": b_reports, "base_best": b_best, "full_best": f_best,
            "base_disp": disp(base, ds), "full_disp": disp(full, ds),
        })
    return runs


# ---------------------------------------------------------------------------


def test_criterion_1_formula_fidelity():
    ok = (abs(harmonic_mean(74.6, 82.6) - 78.4) <= 0.05
          and abs(harmonic_mean(76.0, 79.2) - 77.6) <= 0.05)
    report(1, ok, "published GZSL harmonic-mean rows within 0.05")


def test_criterion_2_hallucination_properties():
    ds = generate_synthetic(SynthConfig(seen_count=12, unseen_count=3,
                                        attr_dim=6, feat_dim=8,
                                        train_per_class=6, test_per_class=2,
                                        noise_scale=0.4, seed=7))
    cfg = HalluConfig()  # defaults: sigma 0.2, n_neighbors 4
    rng_ep = RngStream(1)
    rng_hal = RngStream(2)
    ok = True
    for i in range(100):
        ep = sample_episode(ds, 8, 2, rng_ep)
        hep = hallucinate(ep, cfg, rng_hal)
        w = hep.weights.w
        ok &= bool(np.all(np.diag(w) == 0.0))
        ok &= bool(np.all(w >= 0.0))
        ok &= float(np.max(np.abs(w.sum(axis=1) - 1.0))) < 1e-12
        # synchronization: one weight matrix reproduces both spaces exactly
        ok &= bool(np.array_equal(w @ class_centroids(ep), hep.v_prime))
        ok &= bool(np.array_equal(w @ ep.semantic, hep.a_prime))
        # hallucinated attributes stay in the convex hull of episode
        # attributes: a feasibility LP must find nonnegative barycentric
        # coordinates (points outnumber dimensions, so least squares and
        # nnls are the wrong certificates here)
        a = np.vstack([ep.semantic.T, np.ones(8)])
        for row in hep.semantic:
            b = np.concatenate([row, [1.0]])
            sol = linprog(np.zeros(8), A_eq=a, b_eq=b, bounds=(0, None),
                          method="highs")
            ok &= bool(sol.success)
            ok &= float(np.linalg.norm(a @ sol.x - b)) < 1e-9
    # interpolation boundary identities, bitwise
    ep = sample_episode(ds, 8, 2, rng_ep)
    h1 = hallucinate(ep, cfg, RngStream(3), force_beta=1.0)
    h0 = hallucinate(ep, cfg, RngStream(3), force_beta=0.0)
    ok &= bool(np.array_equal(h1.visual, ep.visual))
    ok &= bool(np.array_equal(h1.semantic, ep.semantic))
    ok &= bool(np.array_equal(h0.semantic, h0.a_prime))
    report(2, ok, "weights, boundaries, hull, synchronization on 100 episodes")


def test_criterion_3_gradient_correctness():
    step = 1e-5
    worst = 0.0

    def fd_ok(analytic, numeric):
        nonlocal worst
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-5)
        worst = max(worst, float(np.max(np.abs(analytic - numeric) / denom)))
        return worst < 1e-4

    ok = True
    # refinement loss: exact gradient w.r.t. projected features
    for trial in range(20):
        rng = np.random.default_rng(trial)
        attrs = AttributeTable(rng.normal(size=(5, 4)))
        sem = rng.normal(size=(6, 4))
        labels = rng.integers(0, 5, size=6)
        _, grad = sof_loss(sem, labels, attrs, range(5), 10.0)
        num = np.zeros_like(sem)
        it = np.nditer(sem, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = sem[idx]
            sem[idx] = orig + step
            hi = sof_loss(sem, labels, attrs, range(5), 10.0)[0]
            sem[idx] = orig - step
            lo = sof_loss(sem, labels, attrs, range(5), 10.0)[0]
            sem[idx] = orig
            num[idx] = (hi - lo) / (2 * step)
        ok &= fd_ok(grad, num)

    # placeholder loss: exact gradients w.r.t. every mapping-net parameter
    for trial in range(20):
        ds = generate_synthetic(SynthConfig(seen_count=8, unseen_count=2,
                                            attr_dim=4, feat_dim=6,
                                            train_per_class=6, test_per_class=1,
                                            noise_scale=0.4, seed=trial))
        net = MappingNet.init(4, 6, 5, RngStream(100 + trial))
        model = PrototypeModel(net=net, config=TrainConfig(epochs=0))
        ep = sample_episode(ds, 4, 2, RngStream(trial))
        hep = hallucinate(ep, HalluConfig(n_neighbors=2), RngStream(trial))
        _, grads = place_loss(model, hep, 10.0)
        for name, p in net.params().items():
            num = np.zeros_like(p)
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = p[idx]
                p[idx] = orig + step
                hi = place_loss(model, hep, 10.0)[0]
                p[idx] = orig - step
                lo = place_loss(model, hep, 10.0)[0]
                p[idx] = orig
                num[idx] = (hi - lo) / (2 * step)
            ok &= fd_ok(grads[name], num)
    report(3, ok, f"40 finite-difference instances, worst rel err {worst:.2e}")


def test_criterion_4_calibration_monotonicity(ladder_runs):
    run = ladder_runs[0]
    reports = run["base_reports"]
    mono = all(b.S <= a.S + 1e-12 and b.U >= a.U - 1e-12
               for a, b in zip(reports, reports[1:]))
    # delta = 0 must be plain nearest-prototype argmax, bitwise
    ds = run["ds"]
    union = np.concatenate([np.sort(ds.seen_classes), np.sort(ds.unseen_classes)])
    mask = np.concatenate([np.ones(ds.seen_classes.size, bool),
                           np.zeros(ds.unseen_classes.size, bool)])
    protos = project_prototypes(run["base"], ds.attributes, union)
    feats = ds.features[ds.test_unseen_idx]
    bitwise = np.array_equal(gzsl_predict(protos, union, mask, feats, 0.0),
                             zsl_predict(protos, union, feats))
    report(4, mono and bool(bitwise),
           "S/U monotone over default delta grid; delta=0 equals argmax")


def test_criterion_5_directional_ablation(ladder_runs):
    base_t = [r["base_best"].T for r in ladder_runs]
    full_t = [r["full_best"].T for r in ladder_runs]
    h_wins = sum(r["full_best"].H > r["base_best"].H for r in ladder_runs)
    in_range = 0.5 <= float(np.mean(base_t)) <= 0.8
    margin = float(np.mean(full_t)) - float(np.mean(base_t))
    ok = in_range and margin >= 0.02 and h_wins >= 4
    report(5, ok, f"baseline T {np.mean(base_t):.3f}, "
                  f"full-model margin {100 * margin:+.1f}pp, H wins {h_wins}/5")


def test_criterion_6_prototype_dispersion(ladder_runs):
    wins = sum(r["full_disp"] < r["base_disp"] for r in ladder_runs)
    report(6, wins >= 4, f"lower unseen-prototype similarity in {wins}/5 seeds")


def test_criterion_7_degenerate_sanity():
    # noiseless benchmark trains essentially to perfection
    ds = generate_synthetic(SynthConfig(noise_scale=0.0, seed=0))
    refiner, _ = train_sof(ds, SofConfig(seed=0))
    rds = refine_features(ds, refiner)
    model = train_prototypes(rds, TrainConfig(mode="full", seed=0))
    t_clean = evaluate(model, rds, 0.0).T

    # untrained models on structureless features sit at chance, 1/K
    accs = []
    for seed in range(5):
        noisy = generate_synthetic(SynthConfig(noise_scale=100.0, seed=seed))
        net = MappingNet.init(noisy.attr_dim, noisy.feat_dim,
                              rng=RngStream(1000 + seed))
        untrained = PrototypeModel(net=net, config=TrainConfig(epochs=0))
        accs.append(evaluate(untrained, noisy, 0.0).T)
    chance_gap = abs(float(np.mean(accs)) - 0.1)
    ok = t_clean > 0.95 and chance_gap <= 0.05
    report(7, ok, f"zero-noise T {t_clean:.3f}; chance gap {chance_gap:.3f}")


def test_criterion_8_determinism(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "synth": {"seen_count": 8, "unseen_count": 3, "attr_dim": 4,
                  "feat_dim": 6, "train_per_class": 8, "test_per_class": 3,
                  "noise_scale": 0.3},
        "sof": {"epochs": 2},
        "train": {"epochs": 2, "episodes_per_epoch": 3, "m_classes": 4,
                  "n_samples": 2},
        "hallucination": {"n_neighbors": 2},
    }))

    def run(*argv):
        return cli_main([str(a) for a in argv])

    ok = True
    pairs = []
    for tag in ("one", "two"):
        root = tmp_path / tag
        data = root / "data"
        ok &= run("synth", "--config", cfg_path, "--out", data) == 0
        ok &= run("train", "--config", cfg_path, "--data", data,
                  "--out", root / "run", "--mode", "full") == 0
        ok &= run("eval", "--model", root / "run" / "model", "--data", data,
                  "--out", root / "eval", "--delta-grid", "0:1:0.1") == 0
        pairs.append(root)
    one, two = pairs
    for rel in ("data/features.bin", "data/features.labels.bin",
                "data/attributes.bin", "data/split.txt",
                "run/model/net_w1.bin", "run/model/net_b2.bin",
                "run/model/model.json", "run/model/refiner_f_lin.bin",
                "eval/sweep.csv", "eval/report.csv", "eval/report.txt",
                "eval/similarity_seen.csv", "eval/similarity_unseen.csv"):
        ok &= (one / rel).read_bytes() == (two / rel).read_bytes()
    report(8, ok, "re-runs bitwise identical across synth/train/eval")
