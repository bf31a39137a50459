"""Semantic-oriented refinement of visual features.

A square linear refiner (initialized at identity) and a visual-to-semantic
projection are trained jointly with a cosine cross-entropy against seen-class
attributes.  Only the refiner survives stage one; stage two consumes the
refined train rows (train_rows).
"""
from __future__ import annotations

import copy
from dataclasses import InitVar, dataclass
from pathlib import Path

import numpy as np

from .data import SplitDataset, load_params, read_json, require_keys, \
    save_params, write_json
from .errors import FormatError, ParameterError, ShapeError, require_ints, \
    require_real, require_trace
from .linalg import FlatParams, OptimizerState, as_matrix, check_stage_config, \
    cosine_cross_entropy, fit, require_finite, target_indices, unit_rows
from .rng import DEFAULT_SEED, RngStream, check_seed


@dataclass
class RefinerParams(FlatParams):
    """The two matrices are views of `flat` (see FlatParams)."""

    PARAMS = ("f_lin", "w_proj")

    f_lin: np.ndarray   # C x C, applied as x @ f_lin
    w_proj: np.ndarray  # C x D
    flat: InitVar[np.ndarray | None] = None

    def __post_init__(self, flat):
        self.f_lin = as_matrix(self.f_lin, "f_lin")
        self.w_proj = as_matrix(self.w_proj, "w_proj")
        if self.f_lin.shape[0] != self.f_lin.shape[1]:
            raise ShapeError("f_lin must be square")
        if self.w_proj.shape[0] != self.f_lin.shape[0]:
            raise ShapeError("w_proj rows must match the feature dimension")
        for name, p in self.params().items():
            require_finite(p, f"parameter {name}")
        self._pack(flat)


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
        check_stage_config(self)
        require_ints(self, "batch_size")
        require_real("momentum", self.momentum)
        if not 0.0 <= self.momentum < 1.0:
            raise ParameterError("momentum must be in [0, 1)")
        if self.batch_size < 1:
            raise ParameterError("batch_size must be at least 1")


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

    # the cosine cross-entropy of each batch's projected rows against the
    # seen-class attributes, with each train row's target and the unit rows
    # of those attributes made once, not per batch; every train label is a
    # seen class (SplitDataset.validate)
    t_all = np.searchsorted(ds.seen_classes, ds.labels[ds.train_idx])
    seen_attrs = unit_rows(ds.attributes.rows(ds.seen_classes))
    k = ds.seen_classes.size
    opt = OptimizerState(mode=cfg.optimizer, learning_rate=cfg.learning_rate,
                         momentum=cfg.momentum)
    grad = np.empty_like(params.flat)
    g_views = params.views(grad)
    n, bs = ds.train_idx.size, cfg.batch_size
    # each row's batch start, in the epoch's flat target indices
    batch_start = np.arange(n) // bs * (bs * k)

    def epoch_steps():
        order = rng.permutation(n)
        # the epoch's rows in order, each batch a contiguous slice, and each
        # row's target index within its batch's scores
        x_epoch = ds.features[ds.train_idx[order]]
        at_epoch = target_indices(t_all[order], k) - batch_start
        for start in range(0, n, bs):
            xb = x_epoch[start:start + bs]
            refined = xb @ params.f_lin
            sem = refined @ params.w_proj
            loss, g_sem = cosine_cross_entropy(
                unit_rows(sem), seen_attrs, at_epoch[start:start + bs],
                cfg.logit_scale, wrt="queries")
            np.matmul(refined.T, g_sem, out=g_views["w_proj"])
            np.matmul(xb.T, g_sem @ params.w_proj.T, out=g_views["f_lin"])
            yield loss, grad
    return params, fit(opt, params.flat, cfg.epochs, epoch_steps, "refinement")


def refiner_map(params: RefinerParams, feat_dim: int) -> np.ndarray:
    """The refiner's f_lin; ShapeError where it does not map feat_dim-
    dimensional features."""
    if params.f_lin.shape[0] != feat_dim:
        raise ShapeError(
            f"refiner is {params.f_lin.shape[0]}-dimensional, features are "
            f"{feat_dim}-dimensional"
        )
    return params.f_lin


def refine_features(ds: SplitDataset, params: RefinerParams) -> SplitDataset:
    """A shallow copy of ds whose features are mapped through the refiner and
    checked finite: the unchanged split, and its train_pools once built, are
    shared, not validated or built again."""
    out = copy.copy(ds)
    out.features = require_finite(ds.features @ refiner_map(params, ds.feat_dim),
                                  "features")
    return out


def train_rows(ds: SplitDataset) -> SplitDataset:
    """A shallow copy of ds that holds only its train rows, ascending, and no
    test split: train_idx gives each train id's position among those rows,
    so the train ids, and so the train pools, read the same rows in the same
    order as in ds."""
    rows = np.sort(ds.train_idx)
    out = copy.copy(ds)
    out.__dict__.pop("train_pools", None)  # its flat indexes ds's rows
    out.features, out.labels = ds.features[rows], ds.labels[rows]
    out.train_idx = np.searchsorted(rows, ds.train_idx)
    out.test_seen_idx = out.test_unseen_idx = rows[:0]
    return out


# refiner.json's keys: the shape of each weight file, and stage one's seed
# and loss trace.
REFINER_KEYS = ("f_lin_shape", "w_proj_shape", "seed", "loss_trace")


def save_refiner(params: RefinerParams, out_dir, seed: int,
                 loss_trace: list[float]) -> None:
    """The weights as binary matrices, and refiner.json: their shapes, and the
    seed and loss trace of the stage one that trained them."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_params(params, out_dir, "refiner")
    write_json(out_dir / "refiner.json", {"f_lin_shape": list(params.f_lin.shape),
                                          "w_proj_shape": list(params.w_proj.shape),
                                          "seed": seed, "loss_trace": loss_trace})


def load_refiner(in_dir) -> RefinerParams:
    """The refiner save_refiner wrote.  FileNotFoundError where refiner.json
    is missing, as where a weight file is: a model whose pipeline runs stage
    one is incomplete without it.  FormatError where refiner.json is not
    JSON, repeats a key, misses or adds a key of REFINER_KEYS, records a seed
    that is not a 64-bit unsigned integer or a loss_trace that is not a list
    of real numbers, or records an f_lin_shape or w_proj_shape that is not
    its weight file's shape, as a list of integers."""
    in_dir = Path(in_dir)
    path = in_dir / "refiner.json"
    if not path.is_file():
        raise FileNotFoundError(f"no refiner.json under {in_dir}")
    try:
        record = read_json(path)
        require_keys(record, REFINER_KEYS)
        seed = record["seed"]
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise FormatError(f"seed must be an integer, got {seed!r}")
        check_seed(seed)
        require_trace("loss_trace", record["loss_trace"])
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    params = load_params(RefinerParams, in_dir, "refiner")
    for name in RefinerParams.PARAMS:
        key, shape = f"{name}_shape", list(getattr(params, name).shape)
        value = record[key]
        if value != shape or any(type(v) is not int for v in value):
            raise FormatError(f"{path}: {key} must be {shape}, the shape of "
                              "the weights")
    return params
