"""Calibrated-stacking evaluation of a trained model.

cs_sweep scores each test row once against the projected prototypes, each
split in blocks of at most ROW_BLOCK rows, and reports, for every delta of
the calibration grid (the seen-score penalty), the ZSL accuracy T (of each
test_unseen row's top unseen class), the GZSL accuracies U and S, each a
mean of per-class top-1 accuracies, and their harmonic mean H.
prototype_similarity gives the pairwise cosine matrices that `eval` writes
for heat maps.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import SplitDataset, unique_ids
from .linalg import as_matrix, pairwise_cosine, require_finite, unit_rows_or_zero
from .prototypes import PrototypeModel, project_prototypes


@dataclass
class EvalReport:
    T: float | None           # ZSL per-class top-1 on unseen
    U: float | None           # GZSL per-class top-1 on unseen
    S: float | None           # GZSL per-class top-1 on seen
    H: float | None
    delta: float


@dataclass
class SimilarityMatrix:
    matrix: np.ndarray


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


class _TopScores(NamedTuple):
    """A split's calibrated-stacking prediction as a per-row threshold.

    x -> fl(x - delta) is monotone, so the best seen column after the
    subtraction is the first top seen column `js` (score `m`), unless another
    seen score rounds to fl(m - delta) as well; the best unseen column `ju`
    (score `u`) does not move.  So a row predicts js where fl(m - delta) > u,
    or equals u with js before ju (seen_wins), and ju otherwise: exactly the
    argmax of _IdScores.predict.  The rows where a merge could decide are
    scored in full: those with a second seen score within 4 spacings of
    |m| + the largest |delta| (exact ties included), no seen column or a
    NaN seen score."""
    top_seen: np.ndarray    # m per row
    top_unseen: np.ndarray  # u per row
    seen_first: np.ndarray  # js < ju: the seen column wins a tie with u
    seen_id: np.ndarray     # ids[js]
    unseen_id: np.ndarray   # ids[ju]
    unsure: np.ndarray      # positions of the rows scored in full
    full: _IdScores         # those rows' scores

    def seen_wins(self, delta) -> np.ndarray:
        """Per row, whether js wins at delta (a scalar, or one per row)."""
        shifted = self.top_seen - delta
        return (shifted > self.top_unseen) | (
            (shifted == self.top_unseen) & self.seen_first)

    def switch_points(self, ascending: np.ndarray) -> np.ndarray:
        """Per row, the number of deltas of the ascending grid at which js
        wins.  seen_wins can only fall as delta grows, so they are the
        first ones: one vectorised bisection over the rows, of
        len(ascending).bit_length() seen_wins calls."""
        lo = np.zeros(self.top_seen.shape, np.int64)
        hi = np.full(self.top_seen.shape, ascending.size)
        for _ in range(ascending.size.bit_length()):
            # the answer is in [lo, hi]; probe mid where the two differ
            mid = (lo + hi) // 2
            open_ = lo < hi
            wins = self.seen_wins(ascending[np.minimum(mid, ascending.size - 1)])
            np.copyto(lo, mid + 1, where=open_ & wins)
            np.copyto(hi, mid, where=open_ & ~wins)
        return lo


@np.errstate(invalid="ignore")  # no seen column: the gap -inf - -inf is NaN
def _top_scores(scores: _IdScores, reach: float) -> _TopScores:
    """The top seen and top unseen column per row of `scores`, for deltas of
    magnitude at most `reach` (a NaN reach scores every row in full).  Each
    is the first top column of its block, the seen or the unseen columns in
    ascending order; a side without a column reads as column 0 scoring
    -inf."""
    every = np.arange(scores.scores.shape[0])
    tops = []
    for pos in (np.flatnonzero(scores.seen), np.flatnonzero(~scores.seen)):
        if pos.size:
            block = scores.scores[:, pos]  # a copy: the seen one is written
        else:
            pos, block = np.zeros(1, np.int64), np.full((every.size, 1), -np.inf)
        j = np.argmax(block, axis=1)
        tops.append((block, j, pos[j], block[every, j]))
    (seen_block, seen_j, js, m), (_, _, ju, u) = tops
    seen_block[every, seen_j] = -np.inf
    gap = m - np.max(seen_block, axis=1)  # to the second seen score
    unsure = np.flatnonzero(~(gap > 4 * np.spacing(np.abs(m) + reach)))
    return _TopScores(m, u, js < ju, scores.ids[js], scores.ids[ju], unsure,
                      scores._replace(scores=scores.scores[unsure]))


def _id_scores(features, prototypes, class_ids, seen_mask) -> _IdScores:
    scores = unit_rows_or_zero(features)[0] @ unit_rows_or_zero(prototypes)[0].T
    if np.all(class_ids[1:] >= class_ids[:-1]):  # already in id order
        return _IdScores(scores, class_ids, seen_mask)
    order = np.argsort(class_ids, kind="stable")
    return _IdScores(scores[:, order], class_ids[order], seen_mask[order])


class _LabelIndex(NamedTuple):
    labels: np.ndarray
    classes: np.ndarray  # ascending, deduplicated int64 (unique_ids)
    pos: np.ndarray      # position of each label in `classes`
    rows: np.ndarray     # rows per class


def _label_index(labels, class_set) -> _LabelIndex:
    labels = np.asarray(labels, dtype=np.int64).ravel()
    classes = unique_ids(class_set)
    pos = np.searchsorted(classes, labels)
    return _LabelIndex(labels, classes, pos,
                       np.bincount(pos, minlength=classes.size))


def _accuracy(preds: np.ndarray, index: _LabelIndex) -> float:
    """The mean over the classes with rows of their top-1 accuracies, taken
    in ascending class order."""
    hits = np.bincount(index.pos[preds == index.labels],
                       minlength=index.classes.size)
    tested = index.rows > 0
    acc = hits[tested] / index.rows[tested]  # equals np.mean of the hit mask
    return float(np.mean(acc)) if acc.size else 0.0


def harmonic_mean(u: float, s: float) -> float:
    if u + s == 0:
        return 0.0
    return 2.0 * u * s / (u + s)


def prototype_similarity(prototypes) -> SimilarityMatrix:
    """Pairwise cosine matrix; symmetric, with a diagonal of 1 for nonzero
    prototypes and 0 for zero-norm ones (their row scores 0 everywhere)."""
    m = pairwise_cosine(as_matrix(prototypes, "prototypes"))
    np.fill_diagonal(m, np.diagonal(m) != 0)
    return SimilarityMatrix(matrix=m)


# The most deltas _sweep_accuracies counts at once: its per-class counts
# take (classes, GRID_BLOCK + 1) integers per split.
GRID_BLOCK = 1024


def _sweep_accuracies(top: _TopScores, index: _LabelIndex,
                      grid: np.ndarray) -> list[float]:
    """_accuracy's mean of the split's predictions at each delta of the
    grid, in grid order, from one pass over the rows: each row's switch
    point on the stably sorted grid, per class the rows whose js (ju) is
    their label by switch point, and integer cumulative sums of those; the
    unsure rows are scored in full at every delta."""
    g, k = grid.size, index.classes.size
    order = np.argsort(grid, kind="stable")
    sure = np.ones(index.labels.size, bool)
    sure[top.unsure] = False
    at = index.pos * (g + 1) + top.switch_points(grid[order])

    def tally(hit):  # (k, g + 1): the rows of each class by switch point
        return np.bincount(at[sure & hit], minlength=k * (g + 1)).reshape(k, g + 1)

    # a row with switch point c predicts js at the c smallest deltas and ju
    # at the others: at the j-th smallest a class has its js hits, less
    # those with c <= j, and its ju hits with c <= j
    seen = tally(top.seen_id == index.labels)
    unseen = tally(top.unseen_id == index.labels)
    hits = np.empty((g, k), np.int64)
    hits[order] = (seen.sum(axis=1)[:, None]
                   + np.cumsum(unseen - seen, axis=1)[:, :g]).T
    if top.unsure.size:
        pos, labels = index.pos[top.unsure], index.labels[top.unsure]
        for row, delta in zip(hits, grid.tolist()):
            row += np.bincount(pos[top.full.predict(delta) == labels], minlength=k)
    tested = index.rows > 0
    acc = np.empty((g, np.count_nonzero(tested)))
    # per delta, as _accuracy divides and np.mean sums that delta's vector
    np.divide(hits[:, tested], index.rows[tested], out=acc)
    return np.mean(acc, axis=1).tolist()


# The most test rows cs_sweep maps and scores at once: each split is walked
# in ceil(n / ROW_BLOCK) blocks of near-equal size, each holding its mapped
# rows, unit rows and scores, so the sweep's memory does not grow with the
# test set beyond a few values per row.
ROW_BLOCK = 512


def _split_top(ds: SplitDataset, idx, protos, union, mask, reach,
               f_lin) -> _TopScores:
    """The _TopScores of the test rows idx (one split, n > 0 rows), in row
    order.  Its rows are walked in k = ceil(n / ROW_BLOCK) blocks, block i
    rows i * n // k to (i + 1) * n // k, so their sizes differ by at most
    one; each block is gathered, mapped through f_lin where one is given,
    scored and reduced to its top scores before the next."""
    k = -(-idx.size // ROW_BLOCK)
    bounds = [i * idx.size // k for i in range(k + 1)]
    tops = []
    for lo, hi in zip(bounds, bounds[1:]):
        rows = ds.features[idx[lo:hi]]
        if f_lin is not None:
            rows = require_finite(rows @ f_lin, "features")
        tops.append(_top_scores(_id_scores(rows, protos, union, mask), reach))
    return _TopScores(
        *(np.concatenate(field) for field in zip(*(top[:5] for top in tops))),
        np.concatenate([top.unsure + lo for top, lo in zip(tops, bounds)]),
        tops[0].full._replace(scores=np.concatenate([top.full.scores for top in tops])))


def cs_sweep(
    model: PrototypeModel, ds: SplitDataset, delta_grid, f_lin=None
) -> tuple[list[EvalReport], float]:
    """One report per delta of the calibration grid, and the delta of best H
    (the first of a tie).  U and S come from calibrated stacking over all
    prototypes; T, the ZSL accuracy on test_unseen, from the same scores,
    each row's top unseen class (ties to the smallest id).  The prototypes
    of all classes are projected once and each test row is scored once;
    the grid then costs one pass over each split's rows per GRID_BLOCK
    deltas, plus a bisection of O(rows * log(deltas)) (_sweep_accuracies).
    The grid is nonempty, and each test label in its split's class set.

    Each split, test_unseen then test_seen, is walked on its own in
    near-equal blocks of at most ROW_BLOCK rows (_split_top), each block
    gathered, mapped through f_lin (a stage-one refiner's map, as
    refine.refine_features maps the train rows stage two trains on) where
    one is given, scored and reduced to its top scores.  The bits of each
    mapped row and score row depend on the BLAS kernel and on the block's
    shape, so they can differ in the last bits from that row of one product
    over all rows; the reports were equal in every case measured, as a
    last-bit change moves an accuracy only where it flips a near-tie
    (README, `eval`).
    T and U share test_unseen's scores."""
    grid = [float(d) for d in delta_grid]
    seen, unseen = ds.seen_classes, ds.unseen_classes
    union = np.concatenate([seen, unseen])
    protos = project_prototypes(model, ds.attributes, union)
    mask = np.concatenate([np.ones(seen.size, bool), np.zeros(unseen.size, bool)])
    reach = float(np.max(np.abs(grid)))
    deltas = np.array(grid)
    # the GZSL accuracies per delta: test_unseen (U), then test_seen (S);
    # T is test_unseen's top unseen class, which no delta moves
    t_acc = None
    accs: list[list | None] = [None, None]
    for k, idx in enumerate((ds.test_unseen_idx, ds.test_seen_idx)):
        if idx.size:
            index = _label_index(ds.labels[idx], union)
            top = _split_top(ds, idx, protos, union, mask, reach, f_lin)
            if k == 0:
                t_acc = _accuracy(top.unseen_id, index)
            accs[k] = [a for lo in range(0, deltas.size, GRID_BLOCK)
                       for a in _sweep_accuracies(
                           top, index, deltas[lo:lo + GRID_BLOCK])]

    reports = []
    best_delta, best_h = grid[0], -1.0
    for i, delta in enumerate(grid):
        u_acc, s_acc = [None if a is None else a[i] for a in accs]
        h = harmonic_mean(u_acc, s_acc) if (u_acc is not None and s_acc is not None) \
            else None
        reports.append(EvalReport(T=t_acc, U=u_acc, S=s_acc, H=h, delta=delta))
        if h is not None and h > best_h:
            best_h, best_delta = h, delta
    return reports, best_delta
