"""Semantic-oriented refinement of visual features.

A square linear refiner (initialized at identity) and a visual-to-semantic
projection are trained jointly with a cosine cross-entropy against seen-class
attributes.  Only the refiner survives stage one; stage two consumes the
refined features.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import AttributeTable, SplitDataset, load_matrix, save_matrix
from .errors import ParameterError, ShapeError, TrainingError, ValidationError
from .linalg import OptimizerState, as_matrix, cosine_cross_entropy, optimizer_step
from .rng import DEFAULT_SEED, RngStream


@dataclass
class RefinerParams:
    f_lin: np.ndarray   # C x C, applied as x @ f_lin
    w_proj: np.ndarray  # C x D

    def __post_init__(self):
        self.f_lin = as_matrix(self.f_lin, "f_lin")
        self.w_proj = as_matrix(self.w_proj, "w_proj")
        if self.f_lin.shape[0] != self.f_lin.shape[1]:
            raise ShapeError("f_lin must be square")
        if self.w_proj.shape[0] != self.f_lin.shape[0]:
            raise ShapeError("w_proj rows must match the feature dimension")


@dataclass
class SofConfig:
    epochs: int = 10
    learning_rate: float = 1e-2
    logit_scale: float = 10.0
    optimizer: str = "sgd_momentum"
    momentum: float = 0.9
    batch_size: int = 16
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.epochs < 0:
            raise ParameterError("epochs must be nonnegative")
        if self.learning_rate <= 0 or self.logit_scale <= 0:
            raise ParameterError("learning_rate and logit_scale must be positive")
        if self.batch_size < 1:
            raise ParameterError("batch_size must be at least 1")


def sof_loss(
    refined_sem,
    labels,
    attributes: AttributeTable,
    seen_classes,
    logit_scale: float,
) -> tuple[float, np.ndarray]:
    """Cosine cross-entropy of projected features against seen-class attributes.

    Returns the mean loss and its exact gradient w.r.t. refined_sem.
    """
    seen = np.unique(np.asarray(seen_classes, dtype=np.int64))
    pos = {int(c): i for i, c in enumerate(seen)}
    labels = np.asarray(labels, dtype=np.int64).ravel()
    try:
        targets = np.asarray([pos[int(y)] for y in labels], dtype=np.int64)
    except KeyError as exc:
        raise ValidationError(f"label {exc.args[0]} is not a seen class") from exc
    seen_attrs = attributes.rows(seen)
    loss, grad_sem, _ = cosine_cross_entropy(refined_sem, seen_attrs, targets,
                                             logit_scale)
    return loss, grad_sem


def train_sof(ds: SplitDataset, cfg: SofConfig) -> tuple[RefinerParams, list[float]]:
    """Minimize the semantic alignment loss over train minibatches.

    Returns the trained parameters and the per-epoch mean loss trace.  Only
    train indices are ever touched.
    """
    c = ds.feat_dim
    d = ds.attr_dim
    rng = RngStream(cfg.seed).derive("sof")
    params = RefinerParams(
        f_lin=np.eye(c),
        w_proj=rng.uniform(-1.0 / np.sqrt(c), 1.0 / np.sqrt(c), (c, d)),
    )
    if cfg.epochs == 0:
        return params, []

    x_all = ds.features[ds.train_idx]
    y_all = ds.labels[ds.train_idx]
    opt = OptimizerState(mode=cfg.optimizer, learning_rate=cfg.learning_rate,
                         momentum=cfg.momentum)
    tensors = {"f_lin": params.f_lin, "w_proj": params.w_proj}
    trace: list[float] = []
    n = x_all.shape[0]
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, cfg.batch_size):
            take = order[start:start + cfg.batch_size]
            xb = x_all[take]
            refined = xb @ params.f_lin
            sem = refined @ params.w_proj
            loss, g_sem = sof_loss(sem, y_all[take], ds.attributes,
                                   ds.seen_classes, cfg.logit_scale)
            if not np.isfinite(loss):
                raise TrainingError(f"refinement loss diverged at epoch {epoch}")
            g_wp = refined.T @ g_sem
            g_refined = g_sem @ params.w_proj.T
            g_f = xb.T @ g_refined
            optimizer_step(opt, tensors, {"f_lin": g_f, "w_proj": g_wp})
            losses.append(loss)
        trace.append(float(np.mean(losses)))
    return params, trace


def refine_features(ds: SplitDataset, params: RefinerParams) -> SplitDataset:
    """New dataset with features mapped through the refiner; everything else shared."""
    if params.f_lin.shape[0] != ds.feat_dim:
        raise ShapeError(
            f"refiner is {params.f_lin.shape[0]}-dimensional, features are "
            f"{ds.feat_dim}-dimensional"
        )
    return SplitDataset(
        features=ds.features @ params.f_lin,
        labels=ds.labels,
        attributes=ds.attributes,
        seen_classes=ds.seen_classes,
        unseen_classes=ds.unseen_classes,
        train_idx=ds.train_idx,
        test_seen_idx=ds.test_seen_idx,
        test_unseen_idx=ds.test_unseen_idx,
        refined=True,
    )


def save_refiner(params: RefinerParams, out_dir, meta: dict | None = None) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_matrix(out_dir / "refiner_f_lin.bin", params.f_lin)
    save_matrix(out_dir / "refiner_w_proj.bin", params.w_proj)
    manifest = {"f_lin_shape": list(params.f_lin.shape),
                "w_proj_shape": list(params.w_proj.shape)}
    manifest.update(meta or {})
    (out_dir / "refiner.json").write_text(json.dumps(manifest, indent=2,
                                                     sort_keys=True) + "\n")


def load_refiner(in_dir) -> RefinerParams:
    in_dir = Path(in_dir)
    return RefinerParams(
        f_lin=load_matrix(in_dir / "refiner_f_lin.bin"),
        w_proj=load_matrix(in_dir / "refiner_w_proj.bin"),
    )
