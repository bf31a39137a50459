"""Single-call entry points that tests score and differentiate through, and
reference forms that the package's own must equal.

The command line runs none of these: it evaluates through metrics.cs_sweep,
trains stage two through the stacked step of train_prototypes and stage one
through the loss inlined in train_sof.  Each entry point here wraps the
package function those run (cs_sweep, metrics._id_scores,
prototypes.stacked_loss or linalg.cosine_cross_entropy), so a test through
it still checks the program's own scoring and gradients.
dense_propagation_weights is the neighbour weights computed through the
whole (M, M) softmax matrices, which hallucinate.propagation_weights only
takes at the picks.
"""
from __future__ import annotations

import numpy as np

from protoplace.data import AttributeTable, Episode, SplitDataset, class_major_labels
from protoplace.errors import ParameterError, ValidationError
from protoplace.hallucinate import HalluConfig, HallucinatedEpisode, \
    PropagationWeights, _log_space_rows
from protoplace.linalg import MappingNet, as_matrix, cosine_cross_entropy, \
    pairwise_cosine, softmax, target_indices, unit_rows
from protoplace.metrics import EvalReport, _id_scores, cs_sweep
from protoplace.prototypes import PrototypeModel, stacked_loss


def grad_out(net: MappingNet, *lead: int) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """A fresh gradient buffer (*lead, net.flat.size) and its net.views: the
    `out` of linalg.net_backward and prototypes.stacked_loss."""
    buf = np.empty((*lead, net.flat.size))
    return buf, net.views(buf)


def evaluate(model: PrototypeModel, ds: SplitDataset, delta: float) -> EvalReport:
    """The report of cs_sweep at the one delta."""
    return cs_sweep(model, ds, [delta])[0][0]


def zsl_predict(prototypes, class_ids, features) -> np.ndarray:
    """Nearest-prototype class id per feature row (cosine, deterministic ties):
    gzsl_predict with no seen class."""
    seen = np.zeros(np.size(class_ids), dtype=bool)
    return gzsl_predict(prototypes, class_ids, seen, features, 0.0)


def gzsl_predict(prototypes, class_ids, seen_mask, features, delta: float) -> np.ndarray:
    """Argmax over all classes with seen scores reduced by the calibration factor."""
    prototypes = as_matrix(prototypes, "prototypes")
    if prototypes.shape[0] == 0:
        raise ParameterError("at least one prototype required")
    class_ids = np.asarray(class_ids, dtype=np.int64).ravel()
    seen_mask = np.asarray(seen_mask, dtype=bool).ravel()
    if not (class_ids.shape[0] == prototypes.shape[0] == seen_mask.shape[0]):
        raise ValidationError("prototypes, class ids, and seen mask must align")
    features = as_matrix(features, "features")
    return _id_scores(features, prototypes, class_ids, seen_mask).predict(delta)


def place_loss(
    model: PrototypeModel, x: HallucinatedEpisode | Episode, logit_scale: float
) -> tuple[float, dict[str, np.ndarray]]:
    """Classification of an episode's samples against its prototypes, the
    placeholder pass (a HallucinatedEpisode) or the real one (an Episode):
    stacked_loss for a stack of one, the samples class-major.  The loss and
    the gradient by name."""
    m = x.semantic.shape[0]
    at = target_indices(class_major_labels(m, x.visual.shape[0] // m)[None], m)
    losses, grads = stacked_loss(model.net, x.semantic[None],
                                 unit_rows(x.visual[None]), at, logit_scale,
                                 grad_out(model.net, 1))
    return float(losses[0]), model.net.views(grads[0])


def sof_loss(
    refined_sem,
    labels,
    attributes: AttributeTable,
    seen_classes,
    logit_scale: float,
) -> tuple[float, np.ndarray]:
    """Cosine cross-entropy of projected features against seen-class attributes.

    Returns the mean loss and its exact gradient w.r.t. refined_sem.
    ValidationError unless every seen class has an attribute row and every
    label is a seen class.
    """
    seen = np.unique(np.asarray(seen_classes, dtype=np.int64))
    if seen.size and (seen[0] < 0 or seen[-1] >= attributes.num_classes):
        bad = seen[0] if seen[0] < 0 else seen[-1]
        raise ValidationError(f"seen class {bad} has no attribute row "
                              f"(L = {attributes.num_classes})")
    labels = np.asarray(labels, dtype=np.int64).ravel()
    stray = labels[~np.isin(labels, seen)]
    if stray.size:
        raise ValidationError(f"label {stray[0]} is not a seen class")
    loss, grad = cosine_cross_entropy(
        unit_rows(as_matrix(refined_sem, "refined features")),
        unit_rows(attributes.rows(seen)),
        target_indices(np.searchsorted(seen, labels), seen.size), logit_scale,
        wrt="queries")
    return float(loss), grad


def offdiag_softmax(sim: np.ndarray, sigma: float) -> np.ndarray:
    """Each row's softmax over its M - 1 off-diagonal entries, of each (M, M)
    matrix of sim; 0 on the diagonal."""
    m = sim.shape[-1]
    # the off-diagonal entries of a flattened (M, M) matrix, row by row
    off = np.flatnonzero(~np.eye(m, dtype=bool))
    w = np.zeros((*sim.shape[:-2], m * m))
    rows = softmax(sim.reshape(-1, m * m)[:, off].reshape(-1, m - 1), sigma)  # 2-D
    w[..., off] = rows.reshape(*sim.shape[:-2], -1)
    return w.reshape(sim.shape)


def dense_propagation_weights(
    centroids: np.ndarray, semantic: np.ndarray, cfg: HalluConfig, picks: np.ndarray
) -> PropagationWeights:
    """propagation_weights through the dense form: both graphs' whole
    off-diagonal softmax matrices, their mean, then the mask to the picks."""
    m = semantic.shape[-2]
    sim_v = pairwise_cosine(centroids)
    sim_a = pairwise_cosine(semantic)
    w = (offdiag_softmax(sim_v, cfg.sigma) + offdiag_softmax(sim_a, cfg.sigma)) / 2.0
    chosen = np.sort(picks + (picks >= np.arange(m)[:, None]), axis=-1)

    w_rows = w.reshape(-1, m)
    c_rows = chosen.reshape(-1, chosen.shape[-1])
    rows = np.arange(w_rows.shape[0])[:, None]
    masked = np.zeros_like(w_rows)
    masked[rows, c_rows] = w_rows[rows, c_rows]
    total = masked.sum(axis=1, keepdims=True)
    zero = np.flatnonzero(total == 0)
    total[zero] = 1.0
    masked /= total
    if zero.size:
        masked[zero[:, None], c_rows[zero]] = _log_space_rows(
            sim_v, sim_a, zero, chosen, cfg.sigma)
    return PropagationWeights(w=masked.reshape(w.shape), chosen=chosen)
