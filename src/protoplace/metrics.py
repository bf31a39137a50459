"""ZSL / GZSL inference and evaluation.

Per-class top-1 accuracies, the harmonic mean of the seen and unseen GZSL
accuracies, calibrated-stacking sweeps over the seen-score penalty, and
prototype-similarity matrices for heat-map emission.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .data import SplitDataset
from .errors import ParameterError, ValidationError
from .linalg import as_matrix, unit_rows_or_zero
from .prototypes import PrototypeModel, project_prototypes


@dataclass
class EvalReport:
    T: float | None           # ZSL per-class top-1 on unseen
    U: float | None           # GZSL per-class top-1 on unseen
    S: float | None           # GZSL per-class top-1 on seen
    H: float | None
    delta: float
    per_class: dict[int, float] = field(default_factory=dict)


@dataclass
class SimilarityMatrix:
    matrix: np.ndarray
    zero_norm: np.ndarray  # bool flags per prototype


class _IdScores(NamedTuple):
    """Cosine scores of feature rows, columns in ascending class-id order.

    np.argmax takes the first maximum, so every prediction made from these
    columns breaks ties toward the smallest class id.
    """
    scores: np.ndarray
    ids: np.ndarray
    seen: np.ndarray  # bool per column: scores lowered by the calibration delta

    def predict(self, delta: float) -> np.ndarray:
        """Class id per row: one subtract and one argmax over the cached scores."""
        return self.ids[np.argmax(self.scores - delta * self.seen[None, :], axis=1)]


def _id_scores(features, prototypes, class_ids, seen_mask) -> _IdScores:
    order = np.argsort(class_ids, kind="stable")
    scores = unit_rows_or_zero(features)[0] @ unit_rows_or_zero(prototypes)[0].T
    return _IdScores(scores[:, order], class_ids[order], seen_mask[order])


def zsl_predict(prototypes, class_ids, features) -> np.ndarray:
    """Nearest-prototype class id per feature row (cosine, deterministic ties)."""
    prototypes = as_matrix(prototypes, "prototypes")
    if prototypes.shape[0] == 0:
        raise ParameterError("at least one prototype required")
    class_ids = np.asarray(class_ids, dtype=np.int64).ravel()
    if class_ids.shape[0] != prototypes.shape[0]:
        raise ValidationError("one class id per prototype required")
    features = as_matrix(features, "features")
    seen = np.zeros(class_ids.shape[0], dtype=bool)
    return _id_scores(features, prototypes, class_ids, seen).predict(0.0)


def gzsl_predict(prototypes, class_ids, seen_mask, features, delta: float) -> np.ndarray:
    """Argmax over all classes with seen scores reduced by the calibration factor."""
    prototypes = as_matrix(prototypes, "prototypes")
    class_ids = np.asarray(class_ids, dtype=np.int64).ravel()
    seen_mask = np.asarray(seen_mask, dtype=bool).ravel()
    if not (class_ids.shape[0] == prototypes.shape[0] == seen_mask.shape[0]):
        raise ValidationError("prototypes, class ids, and seen mask must align")
    features = as_matrix(features, "features")
    return _id_scores(features, prototypes, class_ids, seen_mask).predict(delta)


class _LabelIndex(NamedTuple):
    labels: np.ndarray
    classes: np.ndarray  # ascending, unique
    pos: np.ndarray      # position of each label in `classes`
    rows: np.ndarray     # rows per class


def _label_index(labels, class_set) -> _LabelIndex:
    labels = np.asarray(labels, dtype=np.int64).ravel()
    classes = np.unique(np.asarray(class_set, dtype=np.int64))
    stray = np.setdiff1d(labels, classes)
    if stray.size:
        raise ValidationError(f"label {stray[0]} outside the evaluated class set")
    pos = np.searchsorted(classes, labels)
    return _LabelIndex(labels, classes, pos,
                       np.bincount(pos, minlength=classes.size))


def _accuracy(preds: np.ndarray, index: _LabelIndex) -> tuple[float, dict[int, float]]:
    hits = np.bincount(index.pos[preds == index.labels],
                       minlength=index.classes.size)
    tested = index.rows > 0
    acc = hits[tested] / index.rows[tested]  # equals np.mean of the hit mask
    mean = float(np.mean(acc)) if acc.size else 0.0
    return mean, dict(zip(index.classes[tested].tolist(), acc.tolist()))


def per_class_accuracy(preds, labels, class_set) -> tuple[float, dict[int, float]]:
    """Unweighted mean over classes of within-class top-1 accuracy."""
    preds = np.asarray(preds, dtype=np.int64).ravel()
    return _accuracy(preds, _label_index(labels, class_set))


def harmonic_mean(u: float, s: float) -> float:
    if u + s == 0:
        return 0.0
    return 2.0 * u * s / (u + s)


def prototype_similarity(prototypes) -> SimilarityMatrix:
    """Pairwise cosine matrix; symmetric, unit diagonal for nonzero prototypes."""
    prototypes = as_matrix(prototypes, "prototypes")
    if prototypes.shape[0] == 0:
        raise ParameterError("at least one prototype required")
    ph, norms = unit_rows_or_zero(prototypes)
    zero = norms == 0
    m = ph @ ph.T
    m = (m + m.T) / 2.0
    np.fill_diagonal(m, np.where(zero, 0.0, 1.0))
    return SimilarityMatrix(matrix=m, zero_norm=zero)


def _evaluate_grid(model: PrototypeModel, ds: SplitDataset,
                   grid: list[float]) -> list[EvalReport]:
    """One report per delta.  Prototypes are projected and each test split is
    scored once; a delta only moves the argmax over the cached scores."""
    seen = np.sort(ds.seen_classes)
    unseen = np.sort(ds.unseen_classes)

    t_acc = None
    if unseen.size and ds.test_unseen_idx.size:
        protos_u = project_prototypes(model, ds.attributes, unseen)
        preds = zsl_predict(protos_u, unseen, ds.features[ds.test_unseen_idx])
        t_acc, _ = per_class_accuracy(preds, ds.labels[ds.test_unseen_idx], unseen)

    # GZSL splits in per_class update order: test_unseen (U), then test_seen (S)
    splits: list[tuple[_IdScores, _LabelIndex] | None] = [None, None]
    if seen.size + unseen.size:
        union = np.concatenate([seen, unseen])
        protos = project_prototypes(model, ds.attributes, union)
        mask = np.concatenate([np.ones(seen.size, bool), np.zeros(unseen.size, bool)])
        for k, idx in enumerate((ds.test_unseen_idx, ds.test_seen_idx)):
            if idx.size:
                splits[k] = (_id_scores(ds.features[idx], protos, union, mask),
                             _label_index(ds.labels[idx], union))

    reports = []
    for delta in grid:
        per_class: dict[int, float] = {}
        accs = []
        for split in splits:
            acc = None
            if split is not None:
                acc, pc = _accuracy(split[0].predict(delta), split[1])
                per_class.update(pc)
            accs.append(acc)
        u_acc, s_acc = accs
        h = harmonic_mean(u_acc, s_acc) if (u_acc is not None and s_acc is not None) \
            else None
        reports.append(EvalReport(T=t_acc, U=u_acc, S=s_acc, H=h, delta=float(delta),
                                  per_class=per_class))
    return reports


def evaluate(model: PrototypeModel, ds: SplitDataset, delta: float) -> EvalReport:
    """T on test_unseen (unseen prototypes only); U, S via calibrated stacking."""
    return _evaluate_grid(model, ds, [delta])[0]


def cs_sweep(
    model: PrototypeModel, ds: SplitDataset, delta_grid
) -> tuple[list[EvalReport], float]:
    """Evaluate along the calibration grid; returns reports and the best-H delta."""
    grid = [float(d) for d in delta_grid]
    if not grid:
        raise ParameterError("delta grid must be nonempty")
    reports = _evaluate_grid(model, ds, grid)
    best_delta = grid[0]
    best_h = -1.0
    for rep in reports:
        h = rep.H if rep.H is not None else -1.0
        if h > best_h:
            best_h = h
            best_delta = rep.delta
    return reports, best_delta
