"""Seeded mutation fuzz of every file the CLI reads.

Each input file of a tiny dataset (both formats), of a trained full model
and of a config is mutated about 25 times with random.Random(0): byte flips,
deletions, token insertions, duplications and truncations.  Each mutated
input runs through cli.main, which must return one of the documented exit
codes and let no exception escape.  A binary matrix or a split file that
loads without an error must save back to the mutated bytes: nothing is
silently coerced.
"""
import json
import random

import pytest

from protoplace.cli import main
from protoplace.data import load_dataset_dir, load_matrix, save_dataset, \
    save_matrix

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


def saved_again(name, path, root):
    """The bytes the loaded file saves back to, for a binary matrix or the
    split file; None for the others, whose round trip is not exact."""
    if name in BINARY:
        save_matrix(root / "again.bin", load_matrix(path))
        return (root / "again.bin").read_bytes()
    if name == "split.txt":
        save_dataset(load_dataset_dir(path.parent)[0], root / "again")
        return (root / "again" / "split.txt").read_bytes()
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
