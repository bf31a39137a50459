"""Dataset containers, file formats, episodic sampling, and the synthetic
attribute-conditioned benchmark.

On-disk formats (DATASET_FILES names each format's files)
---------------------------------------------------------
* Binary matrices: magic ``LPLF``, two little-endian uint32 (rows, cols),
  then rows*cols little-endian float32, row-major.  Bit-exact round trips.
  Read in slices of whole rows (_read_rows), so no reader holds a file's
  bytes beside the float64 rows it fills.
* Labels: a one-column binary matrix beside the binary features.  float32
  holds every id up to 2**24 exactly; saving an id it cannot hold, or
  loading a value that is not a nonnegative integer, raises FormatError.
* CSV features: header ``id,label,f0..f{C-1}``, where the ids are the row
  numbers 0..n-1 in order; CSV attributes: header ``class_id,a0..a{D-1}``,
  where the class ids are 0..L-1 in order (CSV_TABLES).  A row loads only
  if its row_format writes back what int and float read of it.
* A dataset directory holds one format's files: features of both formats
  there raise FormatError, and save_dataset will not write one format over
  the other.
* Split file: the five lines ``seen:``, ``unseen:``, ``train:``,
  ``test_seen:``, ``test_unseen:`` in that order, each followed on the same
  line by its ids, one space before each (``seen: 0 1``), each as str(int)
  writes it in at most 18 digits, and by nothing else; the seen and the
  unseen class ids ascend.
* The CSV and split files and the JSON records are UTF-8 text.  The lines
  of the CSV and split files end in LF alone, the last one too, and none is
  empty (_lines).  Anything else raises FormatError, so a CSV or split file
  that loads saves back to its bytes.
"""
from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import re
import struct
import warnings
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import CapacityError, ConfigError, FormatError, ParameterError, \
    ValidationError, require_ints, require_real
from .linalg import FlatParams, as_matrix, require_finite
from .rng import DEFAULT_SEED, RngStream, check_seed

MAGIC = b"LPLF"
SPLIT_KEYS = ("seen", "unseen", "train", "test_seen", "test_unseen")


# ---------------------------------------------------------------------------
# binary matrix format


def float32_rows(mat, what: str = "matrix") -> np.ndarray:
    """mat as a binary matrix file's "<f4" rows.  FloatingPointError naming
    `what` where one overflows: an infinity no reader takes."""
    with np.errstate(over="ignore"):
        body = np.ascontiguousarray(a := as_matrix(mat, what), dtype="<f4")
    if np.any(over := np.isinf(body) & np.isfinite(a)):
        raise FloatingPointError(f"{what}: {a[over][0]:g} is past the float32 range")
    return body


def save_matrix(path, mat, what: str = "matrix") -> tuple[bytes, np.ndarray]:
    """mat as a binary matrix file of float32_rows; its header and rows."""
    body = float32_rows(mat, what)
    with open(path, "wb") as f:
        f.writelines(pieces := (MAGIC + struct.pack("<II", *body.shape), body))
    return pieces


# Bytes of float32 rows a binary matrix reader converts per read: the one
# buffer it holds beside the float64 rows it fills.
READ_BYTES = 1 << 16


def _read_header(f, path, hasher=None) -> tuple[int, int]:
    """The (rows, cols) of the header of the binary matrix file open as f,
    checked against the file's size; the 12 header bytes go to
    hasher.update."""
    head = f.read(12)
    if head[:4] != MAGIC:
        raise FormatError(f"{path}: bad magic bytes {head[:4]!r}")
    if len(head) < 12:
        raise FormatError(f"{path}: truncated header")
    rows, cols = struct.unpack_from("<II", head, 4)
    found = os.fstat(f.fileno()).st_size - 12
    if found != rows * cols * 4:
        raise FormatError(f"{path}: expected {rows * cols * 4} data bytes, "
                          f"found {found}")
    if hasher is not None:
        hasher.update(head)
    return rows, cols


def _read_rows(f, path, out: np.ndarray, hasher=None) -> None:
    """The float32 rows after the header of the file open as f into the
    float64 matrix out, of the header's shape: read into one reused buffer
    of whole rows, about READ_BYTES at a time, each piece passed to
    hasher.update as read."""
    rows, cols = out.shape
    step = max(1, READ_BYTES // max(4 * cols, 1))
    buf = np.empty((min(step, rows), cols), "<f4")
    for lo in range(0, rows, step):
        piece = buf[:rows - lo]
        read = f.readinto(piece)
        if read != piece.nbytes:  # the file shrank since _read_header
            raise FormatError(f"{path}: expected {rows * cols * 4} data bytes, "
                              f"found {lo * cols * 4 + read}")
        if hasher is not None:
            hasher.update(piece)
        out[lo:lo + step] = piece


def load_matrix(path, hasher=None) -> np.ndarray:
    """The float64 matrix of a binary matrix file, streamed (_read_rows);
    each piece read, the header first, goes to hasher.update."""
    with open(path, "rb") as f:
        out = np.empty(_read_header(f, path, hasher))
        _read_rows(f, path, out, hasher)
    return out


def save_params(params: FlatParams, out_dir: Path, prefix: str) -> None:
    """Each array named in params.PARAMS as the binary matrix
    `{prefix}_{name}.bin` in out_dir; a vector as a one-row matrix."""
    for name, a in params.params().items():
        save_matrix(out_dir / f"{prefix}_{name}.bin", np.atleast_2d(a),
                    f"parameter {name}")


def check_float32(*params: FlatParams) -> None:
    """float32_rows of each array of params: save_params would refuse it."""
    for name, a in ((n, a) for p in params for n, a in p.params().items()):
        float32_rows(np.atleast_2d(a), f"parameter {name}")


def load_params(cls: type[FlatParams], in_dir: Path, prefix: str) -> FlatParams:
    """The `cls` whose matrices save_params wrote, its constructor checking
    their shapes.  Each file's header is read in PARAMS order, then each
    file's rows are streamed (_read_rows) into its slot of one vector, which
    the instance keeps as its flat (FlatParams) rather than a copy."""
    paths = [in_dir / f"{prefix}_{name}.bin" for name in cls.PARAMS]
    with contextlib.ExitStack() as stack:
        files, shapes = [], []
        for path in paths:
            files.append(f := stack.enter_context(open(path, "rb")))
            shapes.append(_read_header(f, path))
        flat = np.empty(sum(rows * cols for rows, cols in shapes))
        arrays, lo = {}, 0
        for name, f, path, shape in zip(cls.PARAMS, files, paths, shapes):
            arrays[name] = a = flat[lo:lo + shape[0] * shape[1]].reshape(shape)
            _read_rows(f, path, a)
            lo += a.size
    return cls(**arrays, flat=flat)


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
        """The rows of ids in [0, num_classes), which SplitDataset.validate bounds."""
        return self.values[np.asarray(class_ids, dtype=np.int64).ravel()]


def unique_ids(ids) -> np.ndarray:
    """np.unique(ids) for integer ids: flat, ascending, deduplicated int64."""
    ids = np.sort(np.asarray(ids, dtype=np.int64).ravel())
    keep = np.ones(ids.size, dtype=bool)
    keep[1:] = ids[1:] != ids[:-1]
    return ids[keep]


@dataclass
class SplitDataset:
    """Features + labels + attributes + seen/unseen split + index sets.

    The class sets are stored ascending, deduplicated and int64, by
    unique_ids: np.unique and numpy's other set routines import numpy.ma
    (about 1.4 MB resident), which no command otherwise loads."""

    features: np.ndarray
    labels: np.ndarray
    attributes: AttributeTable
    seen_classes: np.ndarray
    unseen_classes: np.ndarray
    train_idx: np.ndarray
    test_seen_idx: np.ndarray
    test_unseen_idx: np.ndarray

    def __post_init__(self):
        self.features = as_matrix(self.features, "features")
        require_finite(self.features, "features")
        self.labels = np.asarray(self.labels, dtype=np.int64).ravel()
        if self.labels.shape[0] != self.features.shape[0]:
            raise ValidationError("one label per feature row required")
        self.seen_classes = unique_ids(self.seen_classes)
        self.unseen_classes = unique_ids(self.unseen_classes)
        for name in ("train_idx", "test_seen_idx", "test_unseen_idx"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.int64).ravel())
        self.validate()

    def validate(self) -> None:
        L = self.attributes.num_classes
        both = np.concatenate((self.seen_classes, self.unseen_classes))
        if unique_ids(both).size < both.size:  # each set is deduplicated
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
        # the indices are in [0, n): one count per sample
        if np.any(np.bincount(np.concatenate(all_idx)) > 1):
            raise ValidationError("train/test index sets are not pairwise disjoint")
        if self.labels.size and self.labels.min() < 0:
            raise ValidationError("negative class label")
        if self.labels.size and self.labels.max() >= L:
            raise ValidationError(
                f"label {self.labels.max()} has no attribute row (L = {L})"
            )
        # the class ids and labels are in [0, L): one flag per class
        seen, unseen = np.zeros(L, bool), np.zeros(L, bool)
        seen[self.seen_classes] = unseen[self.unseen_classes] = True
        for name, idx, allowed in (
            ("train", self.train_idx, seen),
            ("test_seen", self.test_seen_idx, seen),
            ("test_unseen", self.test_unseen_idx, unseen),
        ):
            labels = self.labels[idx]
            stray = labels[~allowed[labels]]
            if stray.size:
                raise ValidationError(
                    f"{name} split contains class {stray.min()} outside its class set"
                )

    @property
    def feat_dim(self) -> int:
        return self.features.shape[1]

    @property
    def attr_dim(self) -> int:
        return self.attributes.dim

    @cached_property
    def train_pools(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each seen class's ascending train indices, concatenated in ascending
        class-id order, as (sizes, starts, flat): each pool's size and its
        start in flat, aligned with seen_classes.  Built once, on first use,
        so the index fields must not change after."""
        labels = self.labels[self.train_idx]
        flat = self.train_idx[np.lexsort((self.train_idx, labels))]
        sizes = np.bincount(np.searchsorted(self.seen_classes, labels),
                            minlength=self.seen_classes.size)
        return sizes, np.cumsum(sizes) - sizes, flat


class Stackable:
    """Mixin of the episode dataclasses.  A block of E episodes carries a
    leading axis of length E on every array field; `block[i]` is its i-th
    episode, with views of the block's arrays."""

    def __getitem__(self, i: int):
        return type(self)(*(getattr(self, f.name)[i] for f in fields(self)))


@dataclass(frozen=True)
class Episode(Stackable):
    """One training batch: M seen classes with N samples each, class-major."""

    class_ids: np.ndarray   # (M,)
    sample_idx: np.ndarray  # (M, N)
    visual: np.ndarray      # (M*N, C), class-major
    semantic: np.ndarray    # (M, D)

    @property
    def m_classes(self) -> int:
        return self.class_ids.shape[-1]

    @property
    def n_samples(self) -> int:
        return self.sample_idx.shape[-1]


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
        counts = ("seen_count", "unseen_count", "attr_dim", "feat_dim",
                  "train_per_class", "test_per_class")
        require_ints(self, *counts, "seed")
        check_seed(self.seed)
        require_real("noise_scale", self.noise_scale)
        for name in counts:
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} must be at least 1")
        if not 0 <= self.noise_scale < np.inf:  # NaN fails too
            raise ParameterError("noise_scale must be nonnegative and finite")
        if self.feat_dim < self.attr_dim:
            warnings.warn("feat_dim < attr_dim: the semantic space does not embed "
                          "injectively into the visual space", stacklevel=2)


# ---------------------------------------------------------------------------
# CSV / split-file formats


def cell_format(kind: type) -> str:
    """The %-format of a CSV cell of type `kind`: a string as it is, None as
    an empty cell, and any other type, a number, as float(x) to 9
    significant digits."""
    if issubclass(kind, str):
        return "%s"
    return "%.0s" if kind is type(None) else "%.9g"


def row_format(kinds) -> str:
    """The %-format of a CSV line whose cells have the types `kinds`, each
    as cell_format gives it."""
    return ",".join(map(cell_format, kinds)) + "\n"


def write_csv(path, header, rows) -> bytes:
    """A CSV file: the header cells, then one line per row in its
    row_format; the bytes written.  Each row is one %-operation, whose
    template is built once per sequence of cell types."""
    templates = {}
    lines = [",".join(header) + "\n"]
    for row in rows:
        row = tuple(row)
        kinds = tuple(map(type, row))
        template = templates.get(kinds)
        if template is None:
            template = templates[kinds] = row_format(kinds)
        lines.append(template % row)
    Path(path).write_bytes(raw := "".join(lines).encode("utf-8"))
    return raw


def write_json(path, record) -> None:
    """A JSON record (manifest.json, model.json, refiner.json): keys sorted,
    two-space indent, one trailing newline.  ValueError where it holds NaN or
    an infinity, which are not JSON."""
    Path(path).write_text(json.dumps(record, indent=2, sort_keys=True,
                                     allow_nan=False) + "\n", encoding="utf-8")


def _unique_keys(pairs) -> dict:
    record = {}
    for key, value in pairs:
        if key in record:
            raise FormatError(f"repeated key {key!r}")
        record[key] = value
    return record


def _lines(raw: bytes, path, unit: str = "line") -> list[str]:
    """The lines of UTF-8 text without their LF, each of which must end in
    LF alone, the last one too, and none be empty.  FormatError otherwise,
    naming the file and the first `unit` (a line, or a CSV row) at fault."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    lines = text.split("\n")
    if "\r" in text:
        at = text.count("\n", 0, text.index("\r")) + 1
        raise FormatError(f"{path}: {unit} {at} holds a CR; no line ends in CR, "
                          "only in LF")
    if lines.pop():
        raise FormatError(f"{path}: {unit} {len(lines) + 1}: the last line does "
                          "not end in LF")
    if "" in lines:
        raise FormatError(f"{path}: {unit} {lines.index('') + 1} is empty")
    return lines


def read_json(path):
    """The JSON value in a UTF-8 file.  ValueError where it is not JSON; a
    byte that does not decode, or a repeated key in any object (rather than
    keeping its last value), raises FormatError.  As JSON's own errors, these
    leave naming the file to the caller."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"not UTF-8 text ({exc.reason})") from exc
    return json.loads(text, object_pairs_hook=_unique_keys)


def require_keys(record, names, where: str = "") -> None:
    """FormatError unless `record` is a JSON object whose keys are exactly
    `names`; `where` names the object inside its file."""
    if not isinstance(record, dict):
        raise FormatError(f"'{where}' must be an object" if where
                          else "the record must be an object")
    prefix = f"{where}." if where else ""
    for what, keys in (("unknown", record.keys() - set(names)),
                       ("missing", set(names) - record.keys())):
        if keys:
            raise FormatError(f"{what} key '{prefix}{min(keys)}'")


# A split line after its colon: nothing, or a space before each id, each id
# written as str(int) writes it, of at most 18 digits, which int64 holds.
# The repeat is possessive: an id must be followed by a space or the end,
# so no backtracking could rescue a failed match, and none is stacked.
_SPLIT_IDS = re.compile(r"(?: (?:0|-?[1-9][0-9]{0,17}))*+")
# Each CSV table of a dataset by role: the names of its integer columns, the
# row number first, and the prefix of its value columns' names.
CSV_TABLES = {"features": (("id", "label"), "f"), "attributes": (("class_id",), "a")}


def _table_header(role: str, cols: int) -> list[str]:
    head, prefix = CSV_TABLES[role]
    return [*head, *(f"{prefix}{j}" for j in range(cols))]


def _write_table(path, role: str, values, ints=()) -> bytes:
    """The CSV table `role` (CSV_TABLES) of C value columns: row i is i,
    then its entry of each integer column in `ints`, then its C values."""
    values = as_matrix(values, "table")
    return write_csv(path, _table_header(role, values.shape[1]),
                     ([str(i), *(str(int(col[i])) for col in ints), *row]
                      for i, row in enumerate(values.tolist())))


def _read_table(raw: bytes, path, role: str) -> tuple[np.ndarray, np.ndarray]:
    """The value columns (n, C) and the integer columns after the id of
    the bytes of a table _write_table wrote, read only as it writes them:
    each row as int and float read it, which its row_format must write back
    (ids 0..n-1, integers in int64), filled into the matrices it returns
    row by row.  FormatError names the file and row."""
    lines = _lines(raw, path, "row")
    k = len(CSV_TABLES[role][0])
    names = _table_header(role, lines[0].count(",") + 1 - k if lines else 0)
    if not lines or lines[0] != ",".join(names):
        raise FormatError(f"{path}: row 1 must be the header {','.join(names)!r}")
    c = len(names) - k
    template = row_format((str,) * k + (float,) * c)
    values = np.empty((len(lines) - 1, c))
    ints = np.empty((len(lines) - 1, k - 1), np.int64)
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        if len(cells) != k + c:
            raise FormatError(f"{path}: row {i + 2} has {len(cells)} fields, "
                              f"expected {k + c}")
        try:
            row_ints = [np.int64(int(t)) for t in cells[1:k]]
            row = [float(t) for t in cells[k:]]
        except (ValueError, OverflowError) as exc:
            raise FormatError(f"{path}: row {i + 2}: {exc}") from exc
        written = template % (i, *row_ints, *row)
        if written != line + "\n":
            j, cell = next((j, w) for j, w in enumerate(written[:-1].split(","))
                           if w != cells[j])
            raise FormatError(f"{path}: row {i + 2} has {names[j]} {cells[j]!r} "
                              f"where the writer writes {cell!r}")
        ints[i], values[i] = row_ints, row
    return values, ints


def write_split(path, splits: dict[str, np.ndarray]) -> bytes:
    """The split file of the id arrays by section; the bytes written."""
    Path(path).write_bytes(raw := "".join(
        f"{key}: {' '.join(str(int(i)) for i in splits[key])}".rstrip() + "\n"
        for key in SPLIT_KEYS).encode("utf-8"))
    return raw


def read_split(raw: bytes, path) -> dict[str, np.ndarray]:
    """The id arrays of a split file's bytes by section (SPLIT_KEYS), where
    the bytes are what write_split writes: its lines as _lines takes them,
    in its order, the seen and unseen ids ascending."""
    out: dict[str, np.ndarray] = {}
    for lineno, line in enumerate(_lines(raw, path), start=1):
        key, colon, rest = line.partition(":")
        if not colon:
            raise FormatError(f"{path}: line {lineno}: no ':' after the "
                              "section name")
        if key not in SPLIT_KEYS:
            raise FormatError(f"{path}: line {lineno}: unknown section {key!r}")
        if key in out:
            raise FormatError(f"{path}: line {lineno}: repeated section {key!r}")
        if key != SPLIT_KEYS[len(out)]:
            raise FormatError(f"{path}: line {lineno}: section {key!r} out of "
                              f"order, {SPLIT_KEYS[len(out)]!r} comes first")
        if not _SPLIT_IDS.fullmatch(rest):
            raise FormatError(f"{path}: line {lineno}: ids must follow ': ' and "
                              "be separated by one space, each written as "
                              "str(int) writes it, of at most 18 digits")
        out[key] = ids = np.fromstring(rest, dtype=np.int64, sep=" ")
        if key in ("seen", "unseen") and np.any(ids[1:] <= ids[:-1]):
            raise FormatError(f"{path}: line {lineno}: the {key} class ids "
                              "must ascend, each once")
    if len(out) < len(SPLIT_KEYS):  # in order: the missing ones come last
        raise FormatError(f"{path}: missing sections {list(SPLIT_KEYS[len(out):])}")
    return out


# ---------------------------------------------------------------------------
# dataset save / load


# Each format's dataset files by role: the attributes, the features, the
# labels (binary only: the CSV features hold them) and the split.
# save_dataset writes and hashes them, load_dataset_dir reads and hashes
# them; no other module of the package names them.
DATASET_FILES = {
    "binary": {"attributes": "attributes.bin", "features": "features.bin",
               "labels": "features.labels.bin", "split": "split.txt"},
    "csv": {"attributes": "attributes.csv", "features": "features.csv",
            "split": "split.txt"},
}


def _formats_in(data_dir: Path) -> list[str]:
    """The formats whose features file is in data_dir: a directory holds one
    dataset, in one format."""
    return [format for format, names in DATASET_FILES.items()
            if (data_dir / names["features"]).exists()]


def dataset_files(data_dir) -> tuple[str, dict[str, Path]]:
    """The format of the dataset in data_dir and the paths of its files by
    role: the format whose features file is there.  FileNotFoundError if
    data_dir holds neither or is missing; FormatError if it holds both, whose
    files would mix."""
    data_dir = Path(data_dir)
    found = _formats_in(data_dir)
    if not found:
        raise FileNotFoundError(f"no dataset files under {data_dir}")
    if len(found) > 1:
        raise FormatError(f"{data_dir} holds the features of more than one dataset "
                          f"format ({', '.join(found)})")
    names = DATASET_FILES[found[0]]
    return found[0], {role: data_dir / name for role, name in names.items()}


def _fingerprint(paths: dict[str, Path], hash_file) -> str:
    """sha256 over the name and bytes of each file of `paths` (by role), in
    name order: hash_file(role, hasher) passes the bytes of that role's file
    to hasher.update, right after its name."""
    h = hashlib.sha256()
    for role in sorted(paths, key=lambda r: paths[r].name):
        h.update(paths[role].name.encode())
        hash_file(role, h)
    return h.hexdigest()


def _read_labels(path: Path, hasher) -> np.ndarray:
    labels = load_matrix(path, hasher).ravel()
    bad = ~np.isfinite(labels) | (labels < 0) | (labels != np.floor(labels))
    if np.any(bad):
        raise FormatError(f"{path}: label {labels[bad][0]} is not a nonnegative "
                          "integer")
    return labels.astype(np.int64)


def save_dataset(ds: SplitDataset, out_dir, format: str = "binary") -> tuple[dict, str]:
    """The dataset as the files DATASET_FILES[format] names in out_dir; the
    paths of its features, attributes and split files, and the fingerprint
    of the bytes written, as load_dataset_dir takes it.  Before any file is
    written: ConfigError where out_dir holds a dataset of the other format,
    as the two would mix (dataset_files), and FloatingPointError where
    float32 overflows a feature (float32_rows; the features are written
    first, the labels are exact and the attributes unit rows)."""
    out_dir = Path(out_dir)
    other = [f for f in _formats_in(out_dir) if f != format]
    if other:
        raise ConfigError(f"{out_dir} holds a {other[0]} dataset; writing a "
                          f"{format} one there would mix the two")
    if format == "binary":
        inexact = ds.labels[ds.labels.astype(np.float32) != ds.labels]
        if inexact.size:
            raise FormatError(f"label {inexact[0]} has no exact float32 form "
                              "for the label sidecar")
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {role: out_dir / name for role, name in DATASET_FILES[format].items()}
    if format == "binary":
        labels = ds.labels.astype(np.float64)[:, None]
        written = {role: save_matrix(paths[role], a, role) for role, a in (
            ("features", ds.features), ("labels", labels),
            ("attributes", ds.attributes.values))}
    else:
        written = {role: [_write_table(paths[role], role, *args)] for role, args
                   in (("features", (ds.features, [ds.labels])),
                       ("attributes", (ds.attributes.values,)))}
    written["split"] = [write_split(paths["split"], {
        "seen": ds.seen_classes,
        "unseen": ds.unseen_classes,
        "train": ds.train_idx,
        "test_seen": ds.test_seen_idx,
        "test_unseen": ds.test_unseen_idx,
    })]

    def hash_written(role, hasher):
        for piece in written[role]:
            hasher.update(piece)

    return ({r: paths[r] for r in ("features", "attributes", "split")},
            _fingerprint(paths, hash_written))


def load_dataset_dir(data_dir) -> tuple[SplitDataset, str]:
    """The dataset save_dataset wrote to data_dir, in the format
    dataset_files finds there, and its fingerprint (_fingerprint) of the
    bytes parsed.  Each file is read once, in name order, and hashed as it
    is read: a binary matrix slice by slice (load_matrix), a text file
    whole, its bytes dropped once parsed."""
    format, paths = dataset_files(data_dir)
    got = {}

    def read(role, hasher):
        path = paths[role]
        if format == "binary" and role != "split":
            got[role] = (_read_labels if role == "labels" else load_matrix)(path, hasher)
            return
        hasher.update(raw := path.read_bytes())
        got[role] = read_split(raw, path) if role == "split" \
            else _read_table(raw, path, role)

    fingerprint = _fingerprint(paths, read)
    if format == "binary":
        features, labels, attributes = got["features"], got["labels"], got["attributes"]
    else:
        (features, ints), (attributes, _) = got["features"], got["attributes"]
        labels = ints[:, 0]
    splits = got["split"]
    ds = SplitDataset(
        features=features,
        labels=labels,
        attributes=AttributeTable(attributes),
        seen_classes=splits["seen"],
        unseen_classes=splits["unseen"],
        train_idx=splits["train"],
        test_seen_idx=splits["test_seen"],
        test_unseen_idx=splits["test_unseen"],
    )
    return ds, fingerprint


# ---------------------------------------------------------------------------
# episodic sampling


def class_major_labels(m: int, n: int) -> np.ndarray:
    """The local label of each of an episode's M*N samples: N of class 0,
    then N of class 1, and so on, as sample_episode lays them out."""
    return np.repeat(np.arange(m, dtype=np.int64), n)


def episode_classes(ds: SplitDataset, m: int, n: int) -> np.ndarray:
    """The positions, among ds.seen_classes, of the classes with at least n
    train samples: the classes an episode of m classes and n samples each
    draws from.  CapacityError if they are fewer than m."""
    eligible = np.flatnonzero(ds.train_pools[0] >= n)
    if m > eligible.size:
        raise CapacityError(f"requested {m} classes with at least {n} train samples, "
                            f"only {eligible.size} available (short by "
                            f"{m - eligible.size})")
    return eligible


def sample_episode(ds: SplitDataset, m: int, n: int, rng: RngStream,
                   episodes: int | None = None) -> Episode:
    """M distinct seen classes, N train samples each, both without replacement.
    With `episodes`, a block of that many episodes (see Stackable), equal to
    as many successive calls, bit for bit, with the same draws.

    Each episode's classes are one draw; its samples are one batched draw per
    run of consecutive chosen classes with equal pool sizes, which equals one
    draw per class in row order (see RngStream.choices_without_replacement).
    Only the draws run per episode: the gathers run once per block."""
    sizes, starts, flat = ds.train_pools
    eligible = episode_classes(ds, m, n)
    e = 1 if episodes is None else episodes
    chosen = np.empty((e, m), dtype=np.int64)
    picks = np.empty((e, m, n), dtype=np.int64)
    for i in range(e):
        chosen[i] = eligible[rng.permutation(eligible.size)[:m]]
        lo = 0
        for size, run in itertools.groupby(sizes[chosen[i]].tolist()):
            hi = lo + sum(1 for _ in run)
            picks[i, lo:hi] = rng.choices_without_replacement(hi - lo, size, n)
            lo = hi
    class_ids = ds.seen_classes[chosen]
    sample_idx = flat[starts[chosen][..., None] + picks]
    visual = ds.features[sample_idx.reshape(e, m * n)]
    semantic = ds.attributes.rows(class_ids).reshape(e, m, -1)
    block = Episode(class_ids=class_ids, sample_idx=sample_idx, visual=visual,
                    semantic=semantic)
    return block[0] if episodes is None else block


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

    per_seen = cfg.train_per_class + cfg.test_per_class
    labels = np.repeat(np.arange(L, dtype=np.int64),
                       np.where(np.arange(L) < cfg.seen_count, per_seen,
                                cfg.test_per_class))
    noise = rng.derive("noise").normal((labels.size, cfg.feat_dim))
    features = means[labels] + cfg.noise_scale * noise
    # the seen classes' rows come first, train rows first in each class
    is_seen = labels < cfg.seen_count
    train = is_seen & (np.arange(labels.size) % per_seen < cfg.train_per_class)

    return SplitDataset(
        features=features,
        labels=labels,
        attributes=AttributeTable(attrs),
        seen_classes=np.arange(cfg.seen_count),
        unseen_classes=np.arange(cfg.seen_count, L),
        train_idx=np.flatnonzero(train),
        test_seen_idx=np.flatnonzero(is_seen & ~train),
        test_unseen_idx=np.flatnonzero(~is_seen),
    )
