"""Seeded mutation fuzz of every file the CLI reads.

Each input file of a tiny dataset (both formats), of a trained full model
and of a config is mutated about 25 times with random.Random(0): byte flips,
deletions, token insertions, duplications and truncations.  Each mutated
input runs through cli.main, which must return one of the documented exit
codes and let no exception escape.  A binary matrix, a split file or a
CSV table that loads without an error must save back to the mutated bytes:
nothing is silently coerced.

Byte edits almost never break the layout of lines that the text readers
check, nor the order of a split's class ids, so the split file and both
CSV tables also take seeded line edits (a line's LF made CRLF, an empty
line inserted, the last LF dropped, two lines swapped, a line repeated, two
fields of a line swapped), through their readers directly, under the same
rule.  Neither kind renames a CSV column often enough to reach the header
check, so each table's header also takes every one-cell rename and every
swap of two cells, deterministically.
"""
import json
import random

import pytest

from protoplace.cli import main
from protoplace.data import CSV_TABLES, _read_table, _table_header, _write_table, \
    load_dataset_dir, load_matrix, save_dataset, save_matrix
from protoplace.errors import FormatError, ValidationError

CONFIG = {
    "seed": 0,
    "synth": {"seen_count": 6, "unseen_count": 2, "attr_dim": 3, "feat_dim": 4,
              "train_per_class": 4, "test_per_class": 2, "noise_scale": 0.3},
    "sof": {"epochs": 1},
    "train": {"epochs": 1, "episodes_per_epoch": 2, "m_classes": 3,
              "n_samples": 2},
    "hallucination": {"n_neighbors": 2},
    "eval": {"delta_step": 0.25},
}
EXIT_CODES = {0, 2, 3, 4, 5}
# What an insertion puts into a file: separators, non-finite and odd numbers,
# a NUL byte and a quote.
TOKENS = (b" ", b",", b"\n", b"nan", b"1e999", b"-0", b"\x00", b'"')
MUTATIONS_PER_FILE = 25
BINARY = ("features.bin", "features.labels.bin", "attributes.bin", "net_w1.bin")
# The CSV tables by file name: the role data._read_table and _write_table
# take.
TABLES = {"features.csv": "features", "attributes.csv": "attributes"}
LINE_EDITS = ("crlf", "empty line", "no last LF", "swap", "repeat", "fields")
LINE_EDITS_PER_FILE = 100
# What a header rename writes besides the names of both tables' columns.
HEADER_NAMES = ("x", "")


def saved_again(name, path, root):
    """The bytes the file at path saves back to, for a binary matrix, the
    split file (through its dataset) or a CSV table; None for the JSON
    records, whose round trip is not exact."""
    if name in BINARY:
        save_matrix(root / "again.bin", load_matrix(path))
        return (root / "again.bin").read_bytes()
    if name == "split.txt":
        save_dataset(load_dataset_dir(path.parent)[0], root / "again")
        return (root / "again" / "split.txt").read_bytes()
    if name in TABLES:
        values, ints = _read_table(path.read_bytes(), path, TABLES[name])
        _write_table(root / "again.csv", TABLES[name], values, list(ints.T))
        return (root / "again.csv").read_bytes()
    return None


def mutate(data: bytes, rng: random.Random) -> bytes:
    """data with one seeded mutation at a random place."""
    out = bytearray(data)
    i = rng.randrange(len(out) + 1)
    kind = rng.choice(("flip", "delete", "insert", "duplicate", "truncate"))
    if kind == "flip" and i < len(out):
        out[i] ^= 1 << rng.randrange(8)
    elif kind == "delete":
        del out[i:i + rng.randint(1, 4)]
    elif kind == "insert":
        out[i:i] = rng.choice(TOKENS)
    elif kind == "duplicate":
        j = rng.randrange(len(out) + 1)
        out[i:i] = out[j:j + rng.randint(1, 8)]
    else:
        del out[i:]
    return bytes(out)


def edit_lines(data: bytes, rng: random.Random) -> bytes:
    """data, whose lines each end in LF, with one seeded line edit."""
    lines = data.split(b"\n")  # the last is the empty text after the last LF
    i, j = rng.randrange(len(lines) - 1), rng.randrange(len(lines) - 1)
    kind = rng.choice(LINE_EDITS)
    if kind == "crlf":
        lines[i] += b"\r"
    elif kind == "empty line":
        lines.insert(i, b"")
    elif kind == "no last LF":
        lines.pop()
    elif kind == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "repeat":
        lines.insert(i, lines[i])
    else:  # two fields of a line swapped: split ids, or cells of a CSV row
        sep = b"," if b"," in lines[i] else b" "
        fields = lines[i].split(sep)
        a, b = rng.randrange(len(fields)), rng.randrange(len(fields))
        fields[a], fields[b] = fields[b], fields[a]
        lines[i] = sep.join(fields)
    return b"\n".join(lines)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The config, a binary and a CSV dataset of it, and a full model
    trained on the binary one."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "config.json").write_text(json.dumps(CONFIG, indent=2))
    cfg = ["--config", str(root / "config.json")]
    assert main(["synth", *cfg, "--out", str(root / "bin")]) == 0
    assert main(["synth", *cfg, "--out", str(root / "csv"), "--format", "csv"]) == 0
    assert main(["train", *cfg, "--data", str(root / "bin"), "--out",
                 str(root / "train"), "--mode", "full"]) == 0
    return root


def cases(root):
    """(file to mutate, CLI arguments that read it) per fuzzed file."""
    model = root / "train" / "model"
    evaluate = ["eval", "--model", str(model), "--out", str(root / "out")]
    on_bin = [*evaluate, "--data", str(root / "bin")]
    on_csv = [*evaluate, "--data", str(root / "csv")]
    train = ["train", "--config", str(root / "config.json"), "--data",
             str(root / "bin"), "--out", str(root / "out"), "--mode", "s2v"]
    return {
        "split.txt": (root / "bin" / "split.txt", on_bin),
        "features.bin": (root / "bin" / "features.bin", on_bin),
        "features.labels.bin": (root / "bin" / "features.labels.bin", on_bin),
        "attributes.bin": (root / "bin" / "attributes.bin", on_bin),
        "features.csv": (root / "csv" / "features.csv", on_csv),
        "attributes.csv": (root / "csv" / "attributes.csv", on_csv),
        "model.json": (model / "model.json", on_bin),
        "refiner.json": (model / "refiner.json", on_bin),
        "net_w1.bin": (model / "net_w1.bin", on_bin),
        "config.json": (root / "config.json", train),
    }


def test_mutated_inputs_exit_with_documented_codes(inputs, capsys):
    rng = random.Random(0)
    codes, failures = {}, []
    for name, (path, argv) in cases(inputs).items():
        original = path.read_bytes()
        try:
            for _ in range(MUTATIONS_PER_FILE):
                mutated = mutate(original, rng)
                path.write_bytes(mutated)
                code = main(argv)
                codes.setdefault(name, set()).add(code)
                if code not in EXIT_CODES:
                    failures.append(f"{name}: exit {code} on {mutated[:80]!r}")
                elif code == 0 and saved_again(name, path, inputs) not in \
                        (None, mutated):
                    failures.append(f"{name}: loaded, but saves back other "
                                    f"bytes than {mutated[:80]!r}")
        finally:
            path.write_bytes(original)
    capsys.readouterr()
    assert not failures, failures
    # the readers reject most mutations, and no file's are all accepted
    assert all(code_set - {0} for code_set in codes.values()), codes


def test_line_edits_rejected_or_saved_again(inputs):
    rng = random.Random(0)
    outcomes, failures = {}, []
    for name in ("split.txt", *TABLES):
        path = cases(inputs)[name][0]
        original = path.read_bytes()
        try:
            for _ in range(LINE_EDITS_PER_FILE):
                edited = edit_lines(original, rng)
                path.write_bytes(edited)
                try:
                    again = saved_again(name, path, inputs)
                except (FormatError, ValidationError):
                    outcomes.setdefault(name, set()).add("rejected")
                    continue
                outcomes.setdefault(name, set()).add("loaded")
                if again != edited:
                    failures.append(f"{name}: loaded, but saves back other "
                                    f"bytes than {edited[:80]!r}")
        finally:
            path.write_bytes(original)
    assert not failures, failures
    # each file loads some edits (those that leave it as it was, such as two
    # equal fields swapped) and rejects others
    assert all(o == {"loaded", "rejected"} for o in outcomes.values()), outcomes


def header_edits(header: str, role: str) -> list[str]:
    """Every one-cell edit of the header of a CSV table `role`: each cell
    renamed to every other column name of either table, up to one value
    column past this table's last (so `f0` to `f1`, the last `f3` to `f4`,
    `f0` to `a0`), and to HEADER_NAMES; and each pair of cells swapped."""
    cells = header.split(",")
    cols = len(cells) - len(CSV_TABLES[role][0])
    names = {name for other in CSV_TABLES
             for name in _table_header(other, cols + 1)} | set(HEADER_NAMES)
    edits = []
    for j, cell in enumerate(cells):
        for name in sorted(names - {cell}):
            edits.append(",".join([*cells[:j], name, *cells[j + 1:]]))
        for k in range(j + 1, len(cells)):
            swapped = list(cells)
            swapped[j], swapped[k] = cells[k], cell
            edits.append(",".join(swapped))
    return edits


def test_header_edits_rejected_or_saved_again(inputs):
    failures, tried = [], 0
    for name in TABLES:
        path = cases(inputs)[name][0]
        original = path.read_bytes()
        header, rest = original.split(b"\n", 1)
        try:
            for edit in header_edits(header.decode(), TABLES[name]):
                edited = edit.encode() + b"\n" + rest
                path.write_bytes(edited)
                tried += 1
                try:
                    again = saved_again(name, path, inputs)
                except FormatError:
                    continue
                if again != edited:
                    failures.append(f"{name}: loaded, but saves back other "
                                    f"bytes than header {edit!r}")
        finally:
            path.write_bytes(original)
    assert not failures, failures
    assert tried > 100  # renames and swaps of both headers
