"""Dataset containers, file formats, episodic sampling, and the synthetic
attribute-conditioned benchmark.

On-disk formats
---------------
* Binary matrices: magic ``LPLF``, two little-endian uint32 (rows, cols),
  then rows*cols little-endian float32, row-major.  Bit-exact round trips.
* Labels: a one-column binary matrix next to the features
  (``features.labels.bin``).  float32 holds every id up to 2**24 exactly;
  saving an id it cannot hold, or loading a value that is not a nonnegative
  integer, raises FormatError.
* CSV features: header ``id,label,f0..f{C-1}``, where the ids are the row
  numbers 0..n-1 in order; CSV attributes: header ``class_id,a0..a{D-1}``.
  Floats use 9 significant digits.
* Split file: five lines ``seen:``, ``unseen:``, ``train:``, ``test_seen:``,
  ``test_unseen:``, each followed by space-separated ids on the same line.
"""
from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CapacityError, FormatError, ParameterError, ValidationError
from .linalg import as_matrix, require_finite
from .rng import DEFAULT_SEED, RngStream

MAGIC = b"LPLF"
SPLIT_KEYS = ("seen", "unseen", "train", "test_seen", "test_unseen")


# ---------------------------------------------------------------------------
# binary matrix format


def save_matrix(path, mat) -> None:
    a = as_matrix(mat, "matrix")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", a.shape[0], a.shape[1]))
        f.write(np.ascontiguousarray(a, dtype="<f4").tobytes())


def load_matrix(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if raw[:4] != MAGIC:
        raise FormatError(f"{path}: bad magic bytes {raw[:4]!r}")
    if len(raw) < 12:
        raise FormatError(f"{path}: truncated header")
    rows, cols = struct.unpack("<II", raw[4:12])
    body = raw[12:]
    if len(body) != rows * cols * 4:
        raise FormatError(
            f"{path}: expected {rows * cols * 4} data bytes, found {len(body)}"
        )
    a = np.frombuffer(body, dtype="<f4").astype(np.float64).reshape(rows, cols)
    return a


# ---------------------------------------------------------------------------
# domain types


class AttributeTable:
    """Per-class semantic attribute vectors, one L2-normalized row per class."""

    def __init__(self, values):
        v = as_matrix(values, "attribute table").copy()
        require_finite(v, "attribute table")
        norms = np.linalg.norm(v, axis=1)
        bad = np.nonzero(norms == 0)[0]
        if bad.size:
            raise ValidationError(f"attribute row {bad[0]} has zero norm")
        # renormalize only rows that need it, so float32 round trips stay bit-exact
        off = np.abs(norms - 1.0) > 1e-6
        if np.any(off):
            v[off] /= norms[off, None]
        self.values = v

    @property
    def num_classes(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def rows(self, class_ids) -> np.ndarray:
        ids = np.asarray(class_ids, dtype=np.int64).ravel()
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_classes):
            bad = ids[(ids < 0) | (ids >= self.num_classes)][0]
            raise ValidationError(f"class id {bad} outside attribute table")
        return self.values[ids]


@dataclass
class SplitDataset:
    """Features + labels + attributes + seen/unseen split + index sets."""

    features: np.ndarray
    labels: np.ndarray
    attributes: AttributeTable
    seen_classes: np.ndarray
    unseen_classes: np.ndarray
    train_idx: np.ndarray
    test_seen_idx: np.ndarray
    test_unseen_idx: np.ndarray
    refined: bool = False

    def __post_init__(self):
        self.features = as_matrix(self.features, "features")
        require_finite(self.features, "features")
        self.labels = np.asarray(self.labels, dtype=np.int64).ravel()
        if self.labels.shape[0] != self.features.shape[0]:
            raise ValidationError("one label per feature row required")
        self.seen_classes = np.unique(np.asarray(self.seen_classes, dtype=np.int64))
        self.unseen_classes = np.unique(np.asarray(self.unseen_classes, dtype=np.int64))
        for name in ("train_idx", "test_seen_idx", "test_unseen_idx"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.int64).ravel())
        self.validate()

    def validate(self) -> None:
        L = self.attributes.num_classes
        if np.intersect1d(self.seen_classes, self.unseen_classes).size:
            raise ValidationError("seen and unseen class sets overlap")
        for name, ids in (("seen", self.seen_classes), ("unseen", self.unseen_classes)):
            if ids.size and (ids.min() < 0 or ids.max() >= L):
                bad = ids[(ids < 0) | (ids >= L)][0]
                raise ValidationError(f"{name} split names class id {bad}, "
                                      f"but only {L} classes have attributes")
        n = self.features.shape[0]
        all_idx = []
        for name in ("train_idx", "test_seen_idx", "test_unseen_idx"):
            idx = getattr(self, name)
            if idx.size and (idx.min() < 0 or idx.max() >= n):
                bad = idx[(idx < 0) | (idx >= n)][0]
                raise ValidationError(f"{name} references sample {bad} of {n}")
            all_idx.append(idx)
        joined = np.concatenate(all_idx)
        if np.unique(joined).size != joined.size:
            raise ValidationError("train/test index sets are not pairwise disjoint")
        if self.labels.size and self.labels.min() < 0:
            raise ValidationError("negative class label")
        if self.labels.size and self.labels.max() >= L:
            raise ValidationError(
                f"label {self.labels.max()} has no attribute row (L = {L})"
            )
        seen = set(self.seen_classes.tolist())
        unseen = set(self.unseen_classes.tolist())
        for name, idx, allowed in (
            ("train", self.train_idx, seen),
            ("test_seen", self.test_seen_idx, seen),
            ("test_unseen", self.test_unseen_idx, unseen),
        ):
            labels = set(self.labels[idx].tolist())
            stray = labels - allowed
            if stray:
                raise ValidationError(
                    f"{name} split contains class {min(stray)} outside its class set"
                )

    @property
    def feat_dim(self) -> int:
        return self.features.shape[1]

    @property
    def attr_dim(self) -> int:
        return self.attributes.dim

    def train_indices_by_class(self) -> dict[int, np.ndarray]:
        out: dict[int, np.ndarray] = {}
        labels = self.labels[self.train_idx]
        for c in self.seen_classes:
            out[int(c)] = np.sort(self.train_idx[labels == c])
        return out


@dataclass(frozen=True)
class Episode:
    """One training batch: M seen classes with N aligned samples each."""

    class_ids: np.ndarray   # (M,)
    sample_idx: np.ndarray  # (M, N)
    visual: np.ndarray      # (M*N, C), class-major
    semantic: np.ndarray    # (M, D)
    local_labels: np.ndarray  # (M*N,) in 0..M-1

    @property
    def m_classes(self) -> int:
        return self.class_ids.shape[0]

    @property
    def n_samples(self) -> int:
        return self.sample_idx.shape[1]


@dataclass
class SynthConfig:
    """Attribute-conditioned Gaussian benchmark configuration."""

    seen_count: int = 40
    unseen_count: int = 10
    attr_dim: int = 16
    feat_dim: int = 32
    train_per_class: int = 100
    test_per_class: int = 30
    noise_scale: float = 0.5
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        for name in ("seen_count", "unseen_count", "attr_dim", "feat_dim",
                     "train_per_class", "test_per_class"):
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} must be at least 1")
        if self.noise_scale < 0:
            raise ParameterError("noise_scale must be nonnegative")
        if self.feat_dim < self.attr_dim:
            warnings.warn("feat_dim < attr_dim: the semantic space does not embed "
                          "injectively into the visual space", stacklevel=2)


# ---------------------------------------------------------------------------
# CSV / split-file formats


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def write_features_csv(path, features, labels) -> None:
    features = as_matrix(features, "features")
    c = features.shape[1]
    with open(path, "w") as f:
        f.write("id,label," + ",".join(f"f{j}" for j in range(c)) + "\n")
        for i in range(features.shape[0]):
            vals = ",".join(_fmt(v) for v in features[i])
            f.write(f"{i},{int(labels[i])},{vals}\n")


def read_features_csv(path) -> tuple[np.ndarray, np.ndarray]:
    with open(path) as f:
        header = f.readline().rstrip("\n").split(",")
        if header[:2] != ["id", "label"]:
            raise FormatError(f"{path}: header must start with id,label")
        c = len(header) - 2
        feats, labels = [], []
        for lineno, line in enumerate(f, start=2):
            parts = line.rstrip("\n").split(",")
            if len(parts) != c + 2:
                raise FormatError(f"{path}: row {lineno} has {len(parts)} fields, "
                                  f"expected {c + 2}")
            if parts[0] != str(len(feats)):
                raise FormatError(f"{path}: row {lineno} has id {parts[0]!r}, "
                                  f"expected {len(feats)}")
            try:
                labels.append(int(parts[1]))
                feats.append([float(p) for p in parts[2:]])
            except ValueError as exc:
                raise FormatError(f"{path}: row {lineno}: {exc}") from exc
    return np.asarray(feats, dtype=np.float64).reshape(len(feats), c), np.asarray(
        labels, dtype=np.int64
    )


def write_attributes_csv(path, values) -> None:
    values = as_matrix(values, "attributes")
    d = values.shape[1]
    with open(path, "w") as f:
        f.write("class_id," + ",".join(f"a{j}" for j in range(d)) + "\n")
        for k in range(values.shape[0]):
            f.write(f"{k}," + ",".join(_fmt(v) for v in values[k]) + "\n")


def read_attributes_csv(path) -> np.ndarray:
    with open(path) as f:
        header = f.readline().rstrip("\n").split(",")
        if header[:1] != ["class_id"]:
            raise FormatError(f"{path}: header must start with class_id")
        d = len(header) - 1
        rows = []
        for lineno, line in enumerate(f, start=2):
            parts = line.rstrip("\n").split(",")
            if len(parts) != d + 1:
                raise FormatError(f"{path}: row {lineno} has {len(parts)} fields, "
                                  f"expected {d + 1}")
            try:
                rows.append([float(p) for p in parts[1:]])
            except ValueError as exc:
                raise FormatError(f"{path}: row {lineno}: {exc}") from exc
    return np.asarray(rows, dtype=np.float64).reshape(len(rows), d)


def write_split(path, splits: dict[str, np.ndarray]) -> None:
    with open(path, "w") as f:
        for key in SPLIT_KEYS:
            ids = " ".join(str(int(i)) for i in splits[key])
            f.write(f"{key}: {ids}".rstrip() + "\n")


def read_split(path) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            key, _, rest = line.partition(":")
            key = key.strip()
            if key not in SPLIT_KEYS:
                raise FormatError(f"{path}: line {lineno}: unknown section {key!r}")
            try:
                out[key] = np.asarray(
                    [int(tok) for tok in rest.split()], dtype=np.int64
                )
            except ValueError as exc:
                raise FormatError(f"{path}: line {lineno}: {exc}") from exc
    missing = [k for k in SPLIT_KEYS if k not in out]
    if missing:
        raise FormatError(f"{path}: missing sections {missing}")
    return out


# ---------------------------------------------------------------------------
# dataset save / load


def _labels_path(features_path: Path) -> Path:
    return features_path.parent / (features_path.stem + ".labels" + features_path.suffix)


def _read_labels(path: Path) -> np.ndarray:
    raw = load_matrix(path).ravel()
    bad = ~np.isfinite(raw) | (raw < 0) | (raw != np.floor(raw))
    if np.any(bad):
        raise FormatError(f"{path}: label {raw[bad][0]} is not a nonnegative "
                          "integer")
    return raw.astype(np.int64)


def save_dataset(ds: SplitDataset, out_dir, format: str = "binary") -> dict[str, Path]:
    if format == "binary":
        inexact = ds.labels[ds.labels.astype(np.float32) != ds.labels]
        if inexact.size:
            raise FormatError(f"label {inexact[0]} has no exact float32 form "
                              "for the label sidecar")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    split_path = out_dir / "split.txt"
    write_split(split_path, {
        "seen": ds.seen_classes,
        "unseen": ds.unseen_classes,
        "train": ds.train_idx,
        "test_seen": ds.test_seen_idx,
        "test_unseen": ds.test_unseen_idx,
    })
    if format == "binary":
        features_path = out_dir / "features.bin"
        attributes_path = out_dir / "attributes.bin"
        save_matrix(features_path, ds.features)
        save_matrix(_labels_path(features_path), ds.labels.astype(np.float64)[:, None])
        save_matrix(attributes_path, ds.attributes.values)
    elif format == "csv":
        features_path = out_dir / "features.csv"
        attributes_path = out_dir / "attributes.csv"
        write_features_csv(features_path, ds.features, ds.labels)
        write_attributes_csv(attributes_path, ds.attributes.values)
    else:
        raise ParameterError(f"unknown format {format!r}")
    return {"features": features_path, "attributes": attributes_path,
            "split": split_path}


def load_dataset(features_path, attributes_path, split_path,
                 format: str = "binary") -> SplitDataset:
    features_path = Path(features_path)
    if format == "binary":
        features = load_matrix(features_path)
        labels = _read_labels(_labels_path(features_path))
        attributes = load_matrix(attributes_path)
    elif format == "csv":
        features, labels = read_features_csv(features_path)
        attributes = read_attributes_csv(attributes_path)
    else:
        raise ParameterError(f"unknown format {format!r}")
    splits = read_split(split_path)
    return SplitDataset(
        features=features,
        labels=labels,
        attributes=AttributeTable(attributes),
        seen_classes=splits["seen"],
        unseen_classes=splits["unseen"],
        train_idx=splits["train"],
        test_seen_idx=splits["test_seen"],
        test_unseen_idx=splits["test_unseen"],
    )


def load_dataset_dir(data_dir, format: str = "binary") -> SplitDataset:
    data_dir = Path(data_dir)
    ext = "bin" if format == "binary" else "csv"
    return load_dataset(
        data_dir / f"features.{ext}",
        data_dir / f"attributes.{ext}",
        data_dir / "split.txt",
        format=format,
    )


# ---------------------------------------------------------------------------
# episodic sampling


def sample_episode(ds: SplitDataset, m: int, n: int, rng: RngStream) -> Episode:
    """M distinct seen classes, N train samples each, both without replacement."""
    by_class = ds.train_indices_by_class()
    eligible = np.asarray(
        [c for c in sorted(by_class) if by_class[c].size >= n], dtype=np.int64
    )
    if m > eligible.size:
        raise CapacityError(
            f"requested {m} classes with at least {n} train samples, "
            f"only {eligible.size} available (short by {m - eligible.size})"
        )
    class_ids = eligible[rng.choice_without_replacement(eligible.size, m)]
    sample_idx = np.empty((m, n), dtype=np.int64)
    for row, c in enumerate(class_ids):
        pool = by_class[int(c)]
        sample_idx[row] = pool[rng.choice_without_replacement(pool.size, n)]
    visual = ds.features[sample_idx.ravel()]
    semantic = ds.attributes.rows(class_ids)
    local = np.repeat(np.arange(m, dtype=np.int64), n)
    return Episode(class_ids=class_ids, sample_idx=sample_idx, visual=visual,
                   semantic=semantic, local_labels=local)


# ---------------------------------------------------------------------------
# synthetic benchmark


def generate_synthetic(cfg: SynthConfig) -> SplitDataset:
    """Gaussian clusters whose means are a hidden linear image of the attributes.

    Class k has mean G @ a_k; samples add isotropic noise.  The first
    seen_count class ids are seen, the rest unseen.
    """
    rng = RngStream(cfg.seed)
    L = cfg.seen_count + cfg.unseen_count
    attrs = rng.derive("attributes").normal((L, cfg.attr_dim))
    attrs /= np.linalg.norm(attrs, axis=1)[:, None]
    g = rng.derive("mixing").normal((cfg.attr_dim, cfg.feat_dim)) / np.sqrt(cfg.attr_dim)
    means = attrs @ g

    seen = np.arange(cfg.seen_count, dtype=np.int64)
    unseen = np.arange(cfg.seen_count, L, dtype=np.int64)
    total = cfg.seen_count * (cfg.train_per_class + cfg.test_per_class) + \
        cfg.unseen_count * cfg.test_per_class
    noise = rng.derive("noise").normal((total, cfg.feat_dim))

    features = np.empty((total, cfg.feat_dim))
    labels = np.empty(total, dtype=np.int64)
    train_idx, test_seen_idx, test_unseen_idx = [], [], []
    row = 0
    for k in range(L):
        count = (cfg.train_per_class + cfg.test_per_class) if k < cfg.seen_count \
            else cfg.test_per_class
        block = np.arange(row, row + count)
        features[block] = means[k] + cfg.noise_scale * noise[block]
        labels[block] = k
        if k < cfg.seen_count:
            train_idx.extend(block[: cfg.train_per_class])
            test_seen_idx.extend(block[cfg.train_per_class:])
        else:
            test_unseen_idx.extend(block)
        row += count

    return SplitDataset(
        features=features,
        labels=labels,
        attributes=AttributeTable(attrs),
        seen_classes=seen,
        unseen_classes=unseen,
        train_idx=np.asarray(train_idx, dtype=np.int64),
        test_seen_idx=np.asarray(test_seen_idx, dtype=np.int64),
        test_unseen_idx=np.asarray(test_unseen_idx, dtype=np.int64),
    )
