import hashlib
import io
import random
import re
import tracemalloc

import numpy as np
import pytest

from protoplace import data
from protoplace.data import (
    AttributeTable,
    SplitDataset,
    SynthConfig,
    check_float32,
    generate_synthetic,
    dataset_files,
    load_dataset_dir,
    load_matrix,
    read_split,
    sample_episode,
    save_dataset,
    save_matrix,
    unique_ids,
    write_csv,
    write_json,
)
from protoplace.errors import CapacityError, ConfigError, FormatError, \
    ParameterError, ValidationError
from protoplace.linalg import MappingNet
from protoplace.refine import RefinerParams, load_refiner, save_refiner
from protoplace.rng import RngStream


def tiny_dataset():
    """4 samples, 2 seen classes + 1 unseen."""
    features = np.array([
        [1.0, 0.0, 0.0],
        [0.9, 0.1, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
    ])
    labels = np.array([0, 0, 1, 2])
    attrs = np.array([[1.0, 0.0], [0.0, 1.0], [0.7, 0.7]])
    return SplitDataset(
        features=features, labels=labels, attributes=AttributeTable(attrs),
        seen_classes=[0, 1], unseen_classes=[2],
        train_idx=[0, 2], test_seen_idx=[1], test_unseen_idx=[3],
    )


class TestBinaryFormat:
    def test_round_trip_is_byte_identical(self, tmp_path):
        mat = np.random.default_rng(0).normal(size=(7, 5))
        p1 = tmp_path / "a.bin"
        p2 = tmp_path / "b.bin"
        save_matrix(p1, mat)
        save_matrix(p2, load_matrix(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_layout(self, tmp_path):
        p = tmp_path / "m.bin"
        save_matrix(p, np.zeros((2, 3)))
        raw = p.read_bytes()
        assert raw[:4] == b"LPLF"
        assert raw[4:12] == (2).to_bytes(4, "little") + (3).to_bytes(4, "little")
        assert len(raw) == 12 + 2 * 3 * 4

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "m.bin"
        p.write_bytes(b"XXXX" + bytes(8))
        with pytest.raises(FormatError):
            load_matrix(p)

    def test_truncated_body(self, tmp_path):
        p = tmp_path / "m.bin"
        save_matrix(p, np.zeros((2, 2)))
        p.write_bytes(p.read_bytes()[:-2])
        with pytest.raises(FormatError):
            load_matrix(p)

    @pytest.mark.parametrize("shape", [(7, 3), (0, 3), (4, 0)])
    @pytest.mark.parametrize("slice_rows", [1, 2, 3])
    def test_streamed_rows_equal_the_whole_conversion(self, tmp_path, monkeypatch,
                                                      shape, slice_rows):
        # slices of 1, 2 and 3 rows, the last of 3 ragged on 7 rows; and the
        # hasher takes exactly the file's bytes
        p = tmp_path / "m.bin"
        mat = np.random.default_rng(1).normal(size=shape)
        if mat.size:  # and NaN, an infinity, -0 and a float32 subnormal
            mat.flat[:4] = [np.nan, np.inf, -0.0, 1e-40]
        save_matrix(p, mat)
        monkeypatch.setattr(data, "READ_BYTES", slice_rows * 4 * shape[1])
        raw = p.read_bytes()
        whole = np.frombuffer(raw, "<f4", offset=12).astype(np.float64)
        hasher = hashlib.sha256()
        got = load_matrix(p, hasher)
        assert got.dtype == np.float64 and got.shape == shape
        assert got.tobytes() == whole.tobytes()
        assert hasher.digest() == hashlib.sha256(raw).digest()

    @pytest.mark.parametrize("edit, message", [
        (lambda raw: b"XXXX" + raw[4:], "bad magic bytes b'XXXX'"),
        (lambda raw: raw[:2], "bad magic bytes b'LP'"),
        (lambda raw: raw[:10], "truncated header"),
        (lambda raw: raw[:-2], "expected 24 data bytes, found 22"),
        (lambda raw: raw + b"\0", "expected 24 data bytes, found 25"),
    ], ids=["bad magic", "short magic", "truncated header", "short file",
            "over-long file"])
    def test_malformed_file_names_its_fault(self, tmp_path, edit, message):
        p = tmp_path / "m.bin"
        save_matrix(p, np.zeros((2, 3)))
        p.write_bytes(edit(p.read_bytes()))
        with pytest.raises(FormatError, match=re.escape(f"{p}: {message}")):
            load_matrix(p)

    def test_file_that_shrinks_while_read(self, tmp_path, monkeypatch):
        # its size passed the header check, then its last 4 bytes went
        class Shrunk(io.BufferedReader):
            def readinto(self, buffer):
                read = super().readinto(buffer)
                return read - 4 if self.peek(1) == b"" else read

        p = tmp_path / "m.bin"
        save_matrix(p, np.ones((3, 2)))
        monkeypatch.setattr(data, "READ_BYTES", 8)  # one row per slice
        monkeypatch.setattr(data, "open", lambda path, mode: Shrunk(io.FileIO(path, mode)),
                            raising=False)
        with pytest.raises(FormatError,
                           match=re.escape(f"{p}: expected 24 data bytes, found 20")):
            load_matrix(p)

    def test_returns_the_pieces_written(self, tmp_path):
        p = tmp_path / "m.bin"
        pieces = save_matrix(p, np.arange(6.0).reshape(2, 3))
        assert b"".join(pieces) == p.read_bytes()

    @pytest.mark.parametrize("value", [3.41e38, -1e39, 1e300])
    def test_finite_value_past_float32_refused_before_the_file(self, tmp_path,
                                                               value):
        # float32 would hold it as an infinity, which no reader takes
        p = tmp_path / "m.bin"
        with pytest.raises(FloatingPointError, match="past the float32 range"):
            save_matrix(p, [[0.0, value]])
        assert not p.exists()

    def test_non_finite_and_float32_max_saved_as_they_are(self, tmp_path):
        # NaN and the infinities are written as they are; 3.4028235e38 rounds
        # to the largest float32, not to an infinity
        p = tmp_path / "m.bin"
        mat = [[np.nan, np.inf, -np.inf, 3.4028235e38]]
        save_matrix(p, mat)
        assert np.array_equal(load_matrix(p), np.float32(mat), equal_nan=True)
        assert load_matrix(p)[0, 3] == np.finfo(np.float32).max

    def test_check_float32_names_a_later_weight(self):
        # b2, the last of the net's weights, and of the second set checked
        fine = MappingNet(w1=np.eye(2), b1=np.zeros(2), w2=np.eye(2), b2=np.zeros(2))
        loud = MappingNet(w1=np.eye(2), b1=np.zeros(2), w2=np.eye(2),
                          b2=[0.0, -1e39])
        check_float32(fine)
        with pytest.raises(FloatingPointError, match=r"parameter b2: -1e\+39 is past"):
            check_float32(fine, loud)


# Number cells of every kind the writers pass, and the edge values of the
# 9-digit format: signed zeros and infinities, NaN, the smallest subnormal,
# a power of ten past 9 digits and a value that rounds at the ninth.
NUMBER_CELLS = [0.1, 1 / 3, 7, -12, 10 ** 12 + 1, True, False,
                np.float64(2 / 3), np.float32(0.1), np.float32(-1e-8), 0.0, -0.0,
                float("inf"), -float("inf"), float("nan"), 5e-324, 1e16,
                123456789.5]


class TestCsvCells:
    def test_number_cells_read_as_format_9g(self, tmp_path):
        path = tmp_path / "cells.csv"
        row = ["label", *NUMBER_CELLS, None, "", "1.50", None]
        write_csv(path, ["h"], [row, NUMBER_CELLS, [None], ["only", "strings"], []])
        assert path.read_text(encoding="utf-8").split("\n") == [
            "h", ",".join(["label", *(format(float(x), ".9g") for x in NUMBER_CELLS),
                           "", "", "1.50", ""]),
            ",".join(format(float(x), ".9g") for x in NUMBER_CELLS),
            "", "only,strings", "", ""]

    def test_string_where_a_number_goes_is_written_as_it_is(self, tmp_path):
        # rows of one layout share a format; a row of another gets its own
        path = tmp_path / "cells.csv"
        write_csv(path, ["a", "b"], [[1.5, 2.0], ["x", 2.0], [1.5, None], [1.5, 2.0]])
        assert path.read_text(encoding="utf-8") == "a,b\n1.5,2\nx,2\n1.5,\n1.5,2\n"


class TestJsonRecord:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_number_refused(self, tmp_path, value):
        # json.dumps writes NaN and Infinity by default, which are not JSON
        path = tmp_path / "record.json"
        with pytest.raises(ValueError):
            write_json(path, {"metrics": {"H": value}})
        assert not path.exists()


class TestDatasetIO:
    def test_csv_fixture_counts(self, tmp_path):
        ds = tiny_dataset()
        paths, _ = save_dataset(ds, tmp_path, format="csv")
        loaded, _ = load_dataset_dir(tmp_path)
        assert loaded.train_idx.size == 2
        assert loaded.test_seen_idx.size == 1
        assert loaded.test_unseen_idx.size == 1
        assert set(loaded.seen_classes.tolist()) == {0, 1}

    def test_binary_save_load_save_byte_identical(self, tmp_path):
        ds = generate_synthetic(SynthConfig(seen_count=4, unseen_count=2,
                                            attr_dim=3, feat_dim=5,
                                            train_per_class=6, test_per_class=2,
                                            noise_scale=0.1, seed=3))
        d1 = tmp_path / "one"
        d2 = tmp_path / "two"
        save_dataset(ds, d1, format="binary")
        save_dataset(load_dataset_dir(d1)[0], d2, format="binary")
        for name in ("features.bin", "features.labels.bin", "attributes.bin",
                     "split.txt"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name

    def test_csv_save_load_save_byte_identical(self, tmp_path):
        ds = generate_synthetic(SynthConfig(seen_count=4, unseen_count=2,
                                            attr_dim=3, feat_dim=5,
                                            train_per_class=6, test_per_class=2,
                                            noise_scale=0.1, seed=3))
        d1 = tmp_path / "one"
        d2 = tmp_path / "two"
        save_dataset(ds, d1, format="csv")
        save_dataset(load_dataset_dir(d1)[0], d2, format="csv")
        for name in ("features.csv", "attributes.csv", "split.txt"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name

    def test_csv_precision(self, tmp_path):
        ds = tiny_dataset()
        ds.features[0, 0] = 0.123456789123
        paths, _ = save_dataset(ds, tmp_path, format="csv")
        loaded, _ = load_dataset_dir(tmp_path)
        assert np.max(np.abs(loaded.features - ds.features)) < 1e-7

    def test_split_naming_out_of_range_class(self, tmp_path):
        ds = tiny_dataset()
        paths, _ = save_dataset(ds, tmp_path, format="csv")
        split = paths["split"].read_text().replace("unseen: 2", "unseen: 3")
        paths["split"].write_text(split)
        with pytest.raises(ValidationError, match="3"):
            load_dataset_dir(tmp_path)

    @pytest.mark.parametrize("extra", ["unseen: 2\n", "seen: 0\n"],
                             ids=["same ids", "other ids"])
    def test_repeated_split_section_rejected(self, tmp_path, extra):
        # neither copy silently wins
        ds = tiny_dataset()
        paths, _ = save_dataset(ds, tmp_path, format="csv")
        with open(paths["split"], "a") as f:
            f.write(extra)
        with pytest.raises(FormatError, match="repeated section"):
            load_dataset_dir(tmp_path)

    @pytest.mark.parametrize("line", ["test_seen", "test_seen 1"])
    def test_split_line_without_colon_rejected(self, tmp_path, line):
        # not read as an empty section, nor as a section named `test_seen 1`
        paths, _ = save_dataset(tiny_dataset(), tmp_path, format="csv")
        lines = paths["split"].read_text().splitlines()
        assert lines[3] == "test_seen: 1"
        lines[3] = line
        paths["split"].write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="line 4: no ':'"):
            load_dataset_dir(tmp_path)

    @pytest.mark.parametrize("ids", ["+0 1", "00 1", "-0 1", "0 0_1",
                                     "0 99999999999999999999", "0  1", "0\t1"])
    def test_split_ids_read_as_written(self, tmp_path, ids):
        # int() also reads a sign, leading zeros and '_': each of the first
        # four lines is 0 1 to it; the fifth id overflows int64; split()
        # reads the last two as 0 1 too, which write_split saves as "0 1"
        paths, _ = save_dataset(tiny_dataset(), tmp_path, format="csv")
        lines = paths["split"].read_text().splitlines()
        assert lines[0] == "seen: 0 1"
        lines[0] = f"seen: {ids}"
        paths["split"].write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="line 1"):
            load_dataset_dir(tmp_path)

    @pytest.mark.parametrize("line", [
        "seen : 0 1", "seen:0 1", "  seen: 0 1", "seen:   0 1", "seen: 0 1\t",
        "seen: 0 1 ", "seen:\t0 1", "\tseen: 0 1", " ",
    ], ids=["space before colon", "no space after colon", "leading spaces",
            "spaces after colon", "trailing tab", "trailing space",
            "tab after colon", "leading tab", "blank line of a space"])
    def test_split_whitespace_outside_the_ids_rejected(self, tmp_path, line):
        # each reads as "seen: 0 1" once the whitespace is stripped, which
        # write_split would save in place of the line as written
        paths, _ = save_dataset(tiny_dataset(), tmp_path, format="csv")
        lines = paths["split"].read_text().splitlines()
        assert lines[0] == "seen: 0 1"
        if line.strip():
            lines[0] = line
        else:  # a line of whitespace before the sections
            lines.insert(0, line)
        paths["split"].write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="line 1"):
            load_dataset_dir(tmp_path)

    @pytest.mark.parametrize("edit,message", [
        (lambda t: t.replace("\n", "\r\n"), "line ends in CR"),
        (lambda t: t.replace("\n", "\r"), "line ends in CR"),
        (lambda t: t[:-1], "last line does not end in LF"),
        (lambda t: "\n" + t, "line 1 is empty"),
        (lambda t: t.replace("\ntrain:", "\n\ntrain:"), "line 3 is empty"),
        (lambda t: t + "\n", "line 6 is empty"),
        (lambda t: t.replace("seen: 0 1\nunseen: 2\n", "unseen: 2\nseen: 0 1\n"),
         "line 1: section 'unseen' out of order, 'seen' comes first"),
        (lambda t: t.replace("seen: 0 1\n", "seen: 1 0\n", 1),
         "line 1: the seen class ids must ascend"),
        (lambda t: t.replace("seen: 0 1\n", "seen: 0 1 1\n", 1),
         "line 1: the seen class ids must ascend"),
        (lambda t: t.replace("unseen: 2\n", "unseen: 2 2\n"),
         "line 2: the unseen class ids must ascend"),
    ], ids=["CRLF", "CR", "no final LF", "empty first line", "empty line",
            "empty last line", "sections out of order", "seen ids descend",
            "seen id repeated", "unseen id repeated"])
    def test_split_not_as_written_rejected(self, tmp_path, edit, message):
        # each loaded as the split write_split writes, which would save back
        # other bytes
        paths, _ = save_dataset(tiny_dataset(), tmp_path, format="csv")
        text = paths["split"].read_bytes().decode()
        assert text == "seen: 0 1\nunseen: 2\ntrain: 0 2\ntest_seen: 1\n" \
            "test_unseen: 3\n"
        paths["split"].write_bytes(edit(text).encode())
        with pytest.raises(FormatError, match=message):
            load_dataset_dir(tmp_path)

    @pytest.mark.parametrize("section", ["unseen:", "unseen: ", "unseen:  "])
    def test_split_empty_section_is_only_the_colon(self, tmp_path, section):
        # an empty section is written "unseen:", and only that reads back
        ds = tiny_dataset()
        ds = SplitDataset(features=ds.features[:3], labels=ds.labels[:3],
                          attributes=ds.attributes, seen_classes=[0, 1],
                          unseen_classes=[], train_idx=[0, 2], test_seen_idx=[1],
                          test_unseen_idx=[])
        paths, _ = save_dataset(ds, tmp_path)
        text = paths["split"].read_text()
        assert "\nunseen:\n" in text
        paths["split"].write_text(text.replace("\nunseen:\n", f"\n{section}\n"))
        if section != "unseen:":
            with pytest.raises(FormatError, match="line 2: ids must follow"):
                load_dataset_dir(tmp_path)
            return
        save_dataset(load_dataset_dir(tmp_path)[0], tmp_path / "again")
        assert (tmp_path / "again" / "split.txt").read_bytes() == \
            paths["split"].read_bytes()

    @pytest.mark.parametrize("column,token,message", [
        (1, "+0", " has label '+0' where the writer writes '0'"),
        (1, "00", " has label '00' where the writer writes '0'"),
        (1, "0_0", " has label '0_0' where the writer writes '0'"),
        (1, " 0", " has label ' 0' where the writer writes '0'"),
        (1, "99999999999999999999", ": Python int too large"),
        (2, "1_0", " has f0 '1_0' where the writer writes '10'"),
        (2, " 1", " has f0 ' 1' where the writer writes '1'"),
        (2, "1 ", " has f0 '1 ' where the writer writes '1'"),
        (2, "1.0", " has f0 '1.0' where the writer writes '1'"),
    ], ids=["label +0", "label 00", "label 0_0", "label space", "label past int64",
            "float 1_0", "float leading space", "float trailing space", "float 1.0"])
    def test_csv_tokens_read_as_written(self, tmp_path, column, token, message):
        # int() and float() read these too, as the label 0 or a feature
        paths, _ = save_dataset(tiny_dataset(), tmp_path, format="csv")
        lines = paths["features"].read_text().splitlines()
        parts = lines[1].split(",")
        assert parts[:3] == ["0", "0", "1"]
        parts[column] = token
        lines[1] = ",".join(parts)
        paths["features"].write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="row 2") as info:
            load_dataset_dir(tmp_path)
        # past int64, the message goes on in numpy's words
        assert str(info.value).startswith(f"{paths['features']}: row 2{message}")

    @pytest.mark.parametrize("edit,message", [
        (lambda t: t.replace("\n", "\r\n"), "line ends in CR"),
        (lambda t: t.replace("\n", "\r"), "line ends in CR"),
        (lambda t: t[:-1], "last line does not end in LF"),
        (lambda t: "\n" + t, "line 1 is empty"),
        (lambda t: t.replace("\ntrain:", "\n\ntrain:"), "line 3 is empty"),
        (lambda t: t + "\n", "line 6 is empty"),
        (lambda t: t.replace("seen: 0 1\nunseen: 2\n", "unseen: 2\nseen: 0 1\n"),
         "line 1: section 'unseen' out of order, 'seen' comes first"),
        (lambda t: t.replace("seen: 0 1\n", "seen: 1 0\n", 1),
         "line 1: the seen class ids must ascend"),
        (lambda t: t.replace("seen: 0 1\n", "seen: 0 1 1\n", 1),
         "line 1: the seen class ids must ascend"),
        (lambda t: t.replace("unseen: 2\n", "unseen: 2 2\n"),
         "line 2: the unseen class ids must ascend"),
    ], ids=["CRLF", "CR", "no final LF", "empty first line", "empty line",
            "empty last line", "sections out of order", "seen ids descend",
            "seen id repeated", "unseen id repeated"])
    def test_split_not_as_written_rejected(self, tmp_path, edit, message):
        # each loaded as the split write_split writes, which would save back
        # other bytes
        paths, _ = save_dataset(tiny_dataset(), tmp_path, format="csv")
        text = paths["split"].read_bytes().decode()
        assert text == "seen: 0 1\nunseen: 2\ntrain: 0 2\ntest_seen: 1\n" \
            "test_unseen: 3\n"
        paths["split"].write_bytes(edit(text).encode())
        with pytest.raises(FormatError, match=message):
            load_dataset_dir(tmp_path)

    @pytest.mark.parametrize("section", ["unseen:", "unseen: ", "unseen:  "])
    def test_split_empty_section_is_only_the_colon(self, tmp_path, section):
        # an empty section is written "unseen:", and only that reads back
        ds = tiny_dataset()
        ds = SplitDataset(features=ds.features[:3], labels=ds.labels[:3],
                          attributes=ds.attributes, seen_classes=[0, 1],
                          unseen_classes=[], train_idx=[0, 2], test_seen_idx=[1],
                          test_unseen_idx=[])
        paths, _ = save_dataset(ds, tmp_path)
        text = paths["split"].read_text()
        assert "\nunseen:\n" in text
        paths["split"].write_text(text.replace("\nunseen:\n", f"\n{section}\n"))
        if section != "unseen:":
            with pytest.raises(FormatError, match="line 2: ids must follow"):
                load_dataset_dir(tmp_path)
            return
        save_dataset(load_dataset_dir(tmp_path)[0], tmp_path / "again")
        assert (tmp_path / "again" / "split.txt").read_bytes() == \
            paths["split"].read_bytes()

    @pytest.mark.parametrize("column,token,rest", [
        (1, "+0", " where the writer writes '0'"),
        (1, "00", " where the writer writes '0'"),
        (1, "0_0", " where the writer writes '0'"),
        (1, " 0", " where the writer writes '0'"),
        (1, "99999999999999999999", ": Python int too large"),
        (2, "1_0", " where the writer writes '10'"),
        (2, " 1", " where the writer writes '1'"),
        (2, "1 ", " where the writer writes '1'"),
        (2, "1.0", " where the writer writes '1'"),
    ], ids=["label +0", "label 00", "label 0_0", "label space", "label past int64",
            "float 1_0", "float leading space", "float trailing space", "float 1.0"])
    def test_csv_tokens_read_as_written(self, tmp_path, column, token, rest):
        # int() and float() read these too, as the label 0 or a feature
        paths, _ = save_dataset(tiny_dataset(), tmp_path, format="csv")
        lines = paths["features"].read_text().splitlines()
        parts = lines[1].split(",")
        assert parts[:3] == ["0", "0", "1"]
        parts[column] = token
        lines[1] = ",".join(parts)
        paths["features"].write_text("\n".join(lines) + "\n")
        name = ("id", "label", "f0")[column]
        with pytest.raises(FormatError, match="row 2") as info:
            load_dataset_dir(tmp_path)
        message = f" has {name} {token!r}{rest}" if rest[0] == " " else rest
        assert str(info.value).startswith(f"{paths['features']}: row 2{message}")

    @pytest.mark.parametrize("edit,message", [
        (lambda t: t.replace("\n", "\r\n"),
         "row 1 holds a CR; no line ends in CR, only in LF"),
        (lambda t: t[:-1], "row 5: the last line does not end in LF"),
        (lambda t: t.replace("\n1,", "\n\n1,"), "row 3 is empty"),
        (lambda t: t.replace("\n0,0,1.5,", "\n0,0,1.50,"),
         "row 2 has f0 '1.50' where the writer writes '1.5'"),
        (lambda t: t.replace("id,label,f0,f1,f2", "id,label,x0,x1,x2"),
         "row 1 must be the header 'id,label,f0,f1,f2'"),
    ], ids=["CRLF", "no final LF", "empty line", "1.50 for 1.5", "renamed columns"])
    def test_features_csv_not_as_written_rejected(self, tmp_path, edit, message):
        # each loaded as the table _write_table writes, which would save back
        # other bytes
        ds = tiny_dataset()
        ds.features[0, 0] = 1.5
        paths, _ = save_dataset(ds, tmp_path, format="csv")
        text = paths["features"].read_bytes().decode()
        assert text.startswith("id,label,f0,f1,f2\n0,0,1.5,0,0\n1,")
        paths["features"].write_bytes(edit(text).encode())
        with pytest.raises(FormatError, match="row") as info:
            load_dataset_dir(tmp_path)
        assert str(info.value) == f"{paths['features']}: {message}"

    def test_attributes_csv_renamed_column_rejected(self, tmp_path):
        paths, _ = save_dataset(tiny_dataset(), tmp_path, format="csv")
        text = paths["attributes"].read_text()
        assert text.startswith("class_id,a0,a1\n")
        paths["attributes"].write_text(text.replace("a1", "b1", 1))
        with pytest.raises(FormatError, match="row 1") as info:
            load_dataset_dir(tmp_path)
        assert str(info.value) == \
            f"{paths['attributes']}: row 1 must be the header 'class_id,a0,a1'"

    def test_empty_test_unseen_round_trips(self, tmp_path):
        ds = tiny_dataset()
        ds2 = SplitDataset(
            features=ds.features, labels=ds.labels, attributes=ds.attributes,
            seen_classes=ds.seen_classes, unseen_classes=ds.unseen_classes,
            train_idx=ds.train_idx, test_seen_idx=ds.test_seen_idx,
            test_unseen_idx=[],
        )
        paths, _ = save_dataset(ds2, tmp_path, format="csv")
        loaded, _ = load_dataset_dir(tmp_path)
        assert loaded.test_unseen_idx.size == 0

    def test_malformed_row_names_location(self, tmp_path):
        ds = tiny_dataset()
        paths, _ = save_dataset(ds, tmp_path, format="csv")
        lines = paths["features"].read_text().splitlines()
        lines[2] = lines[2] + ",999"
        paths["features"].write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="row 3"):
            load_dataset_dir(tmp_path)

    @pytest.mark.parametrize("bad_id", ["999", "abc", "1", "", "+0", "00"])
    def test_features_csv_ids_are_row_numbers(self, tmp_path, bad_id):
        paths, _ = save_dataset(tiny_dataset(), tmp_path, format="csv")
        lines = paths["features"].read_text().splitlines()
        lines[1] = bad_id + "," + lines[1].split(",", 1)[1]
        paths["features"].write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="row 2 has id") as info:
            load_dataset_dir(tmp_path)
        assert str(info.value) == f"{paths['features']}: row 2 has id " \
            f"{bad_id!r} where the writer writes '0'"

    @pytest.mark.parametrize("edit", ["abc", "swap"])
    def test_attributes_csv_class_ids_are_row_numbers(self, tmp_path, edit):
        paths, _ = save_dataset(tiny_dataset(), tmp_path, format="csv")
        lines = paths["attributes"].read_text().splitlines()
        rows = [line.split(",", 1) for line in lines[1:]]
        if edit == "abc":
            rows[0][0] = "abc"
        else:  # ids 1, 0, 2 on rows 0, 1, 2
            rows[0][0], rows[1][0] = rows[1][0], rows[0][0]
        lines[1:] = [",".join(r) for r in rows]
        paths["attributes"].write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="row 2 has class_id") as info:
            load_dataset_dir(tmp_path)
        bad = "'abc'" if edit == "abc" else "'1'"
        assert str(info.value) == f"{paths['attributes']}: row 2 has class_id " \
            f"{bad} where the writer writes '0'"

    def test_label_past_float32_precision_rejected_on_save(self, tmp_path):
        ds = tiny_dataset()
        # float32 rounds 2**24 + 1 to 2**24; the dataset checks run at
        # construction only, so the label is set afterwards
        ds.labels[3] = 2**24 + 1
        with pytest.raises(FormatError, match="16777217"):
            save_dataset(ds, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("row,bad", [(3, 2.7), (2, 1.5), (2, -1.0),
                                         (2, float("nan")), (2, float("inf"))])
    def test_label_that_is_not_a_class_id_rejected_on_load(self, tmp_path, row,
                                                           bad):
        ds = tiny_dataset()
        save_dataset(ds, tmp_path)
        labels = ds.labels.astype(np.float64)
        labels[row] = bad
        save_matrix(tmp_path / "features.labels.bin", labels[:, None])
        with pytest.raises(FormatError, match="not a nonnegative integer"):
            load_dataset_dir(tmp_path)

    @pytest.mark.parametrize("format", ["binary", "csv"])
    def test_save_and_load_fingerprints_agree(self, tmp_path, format):
        _, fingerprint = save_dataset(tiny_dataset(), tmp_path, format=format)
        assert load_dataset_dir(tmp_path)[1] == fingerprint

    def test_features_past_float32_rejected_before_any_file(self, tmp_path):
        ds = tiny_dataset()
        ds.features[2, 1] = 1e39
        with pytest.raises(FloatingPointError, match=r"features: 1e\+39 is past"):
            save_dataset(ds, tmp_path / "out")
        assert list((tmp_path / "out").iterdir()) == []

    def test_dir_format_is_detected(self, tmp_path):
        ds = tiny_dataset()
        for format in ("binary", "csv"):
            save_dataset(ds, tmp_path / format, format=format)
            assert dataset_files(tmp_path / format)[0] == format
            loaded, _ = load_dataset_dir(tmp_path / format)
            assert np.array_equal(loaded.labels, ds.labels)
            assert np.max(np.abs(loaded.features - ds.features)) < 1e-7
            assert np.max(np.abs(loaded.attributes.values
                                 - ds.attributes.values)) < 1e-7
        # beside a binary dataset no CSV one is written: the reader would mix
        # one's features with the other's split file
        before = sorted((tmp_path / "binary").iterdir())
        with pytest.raises(ConfigError, match="would mix"):
            save_dataset(ds, tmp_path / "binary", format="csv")
        assert sorted((tmp_path / "binary").iterdir()) == before
        assert dataset_files(tmp_path / "binary")[0] == "binary"

    def test_dir_with_both_formats_rejected(self, tmp_path):
        # and one holding both is read as neither, nor fingerprinted as a mix
        for format in ("binary", "csv"):
            save_dataset(tiny_dataset(), tmp_path / format, format=format)
        (tmp_path / "binary" / "features.csv").write_bytes(
            (tmp_path / "csv" / "features.csv").read_bytes())
        with pytest.raises(FormatError, match="more than one dataset format"):
            load_dataset_dir(tmp_path / "binary")

    def test_dir_without_dataset_files(self, tmp_path):
        (tmp_path / "split.txt").write_text("seen:\n")
        for path in (tmp_path, tmp_path / "nope"):
            with pytest.raises(FileNotFoundError, match="no dataset files"):
                load_dataset_dir(path)


def traced(fn, *args):
    """fn(*args), and the bytes of it still live after the call and its
    peak, both above the memory live at its call, under tracemalloc."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, kept - base, peak - base


class TestReaderMemory:
    """The readers hold no file's bytes beside what they return: each peaks
    within a small margin of what it keeps."""

    def test_dataset_loader_peak(self, tmp_path):
        # the benchmark's data: 6,500 rows of 32-d features
        save_dataset(generate_synthetic(SynthConfig(test_per_class=50)), tmp_path)
        load_dataset_dir(tmp_path)  # first-call costs are not the reader's
        (ds, _), kept, peak = traced(load_dataset_dir, tmp_path)
        assert ds.features.shape == (6500, 32) and kept > ds.features.nbytes
        assert peak < kept + 600_000

    def test_csv_dataset_loader_peak(self, tmp_path):
        # a text file is held whole while it parses: its bytes, its text and
        # its lines, about 2.5 times the file, but no Python object per cell
        save_dataset(generate_synthetic(SynthConfig(test_per_class=50)), tmp_path,
                     format="csv")
        load_dataset_dir(tmp_path)
        (ds, _), kept, peak = traced(load_dataset_dir, tmp_path)
        assert ds.features.shape == (6500, 32) and kept > ds.features.nbytes
        assert peak < kept + 3 * (tmp_path / "features.csv").stat().st_size

    def test_split_reader_peak(self):
        ids = " ".join(map(str, range(4000)))
        raw = f"seen: 0 1\nunseen: 2\ntrain: {ids}\ntest_seen:\ntest_unseen:\n"
        splits, kept, peak = traced(read_split, raw.encode(), "split.txt")
        assert splits["train"].size == 4000
        assert peak < kept + 64 * 1024

    def test_refiner_loader_peak(self, tmp_path):
        # the weights are streamed into the one vector the refiner keeps:
        # one slice buffer beside it, and the open files' own buffers
        rng = np.random.default_rng(0)
        save_refiner(RefinerParams(f_lin=rng.normal(size=(512, 512)),
                                   w_proj=rng.normal(size=(512, 16))),
                     tmp_path, seed=0, loss_trace=[])
        load_refiner(tmp_path)
        params, kept, peak = traced(load_refiner, tmp_path)
        assert kept > params.flat.nbytes
        assert all(np.shares_memory(a, params.flat) for a in params.params().values())
        assert peak < kept + data.READ_BYTES + 32 * 1024


class TestSplitIds:
    # the pattern before its repeat was possessive: it stacks backtracking
    # state per id, but accepts the same strings
    BACKTRACKING = re.compile(r"(?: (?:0|-?[1-9][0-9]{0,17}))*")

    @pytest.mark.parametrize("text, ok", [
        ("", True), (" 0 7 -12", True),
        (" " + "9" * 18, True), (" " + "9" * 19, False),
        (" -0", False), (" 01", False), (" 1  2", False), (" 1 ", False),
        ("1", False), ("1 2", False),
    ], ids=["empty", "ids", "18 digits", "19 digits", "-0", "01", "double space",
            "trailing space", "leading id", "leading id then one"])
    def test_named_cases(self, text, ok):
        assert bool(data._SPLIT_IDS.fullmatch(text)) is ok
        assert bool(self.BACKTRACKING.fullmatch(text)) is ok

    def test_same_strings_as_the_backtracking_pattern(self):
        rng = random.Random(0)
        for _ in range(100_000):
            text = "".join(rng.choices(" 0123456789-x", k=rng.randint(0, 8)))
            assert bool(data._SPLIT_IDS.fullmatch(text)) == \
                bool(self.BACKTRACKING.fullmatch(text)), text


class TestUniqueIds:
    @pytest.mark.parametrize("ids", [
        [], [7], [3, 3, 3, 3], [-5, 2, -5, 0, -1], [[4, 1, 4], [-2, 1, 0]],
        np.array([9, 1, 9, 1], np.int32), np.zeros((0, 3), np.int64),
    ], ids=["empty", "one", "all equal", "negative", "2-D", "int32", "0x3"])
    def test_equals_np_unique(self, ids):
        got, want = unique_ids(ids), np.unique(np.asarray(ids, dtype=np.int64))
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)

    def test_equals_np_unique_on_seeded_ids(self):
        rng = np.random.default_rng(0)
        for size in (1, 2, 5, 50, 1000):
            for high in (1, 3, 100, 2**40):
                ids = rng.integers(-high, high, size=size)
                want = np.unique(ids)
                got = unique_ids(ids)
                assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_returns_a_copy(self):
        ids = np.arange(4, dtype=np.int64)
        unique_ids(ids)[0] = 9
        assert ids[0] == 0


class TestValidation:
    def test_overlapping_splits_rejected(self):
        ds = tiny_dataset()
        with pytest.raises(ValidationError):
            SplitDataset(features=ds.features, labels=ds.labels,
                         attributes=ds.attributes, seen_classes=[0, 1],
                         unseen_classes=[2], train_idx=[0, 2],
                         test_seen_idx=[0], test_unseen_idx=[3])

    def test_seen_unseen_disjoint(self):
        ds = tiny_dataset()
        with pytest.raises(ValidationError):
            SplitDataset(features=ds.features, labels=ds.labels,
                         attributes=ds.attributes, seen_classes=[0, 1],
                         unseen_classes=[1, 2], train_idx=[0, 2],
                         test_seen_idx=[1], test_unseen_idx=[3])

    def test_ids_repeated_within_one_set_are_no_overlap(self):
        ds = tiny_dataset()
        twice = SplitDataset(features=ds.features, labels=ds.labels,
                             attributes=ds.attributes, seen_classes=[[1, 0], [1, 0]],
                             unseen_classes=np.array([2, 2], np.int32),
                             train_idx=[0, 2], test_seen_idx=[1], test_unseen_idx=[3])
        for name in ("seen_classes", "unseen_classes"):
            got, want = getattr(twice, name), getattr(ds, name)
            assert got.dtype == np.int64 and got.tolist() == want.tolist()

    @pytest.mark.parametrize("train,test_seen,test_unseen", [
        ([0, 3], [1], []), ([0, 2], [3], []), ([0, 2], [], [1]),
    ], ids=["unseen in train", "unseen in test_seen", "seen in test_unseen"])
    def test_label_outside_its_split_class_set_rejected(self, train, test_seen,
                                                        test_unseen):
        # the one check of the labels that stage one and the sweep index by
        # class set; samples 0-2 are of seen classes, sample 3 of unseen 2
        ds = tiny_dataset()
        with pytest.raises(ValidationError, match="outside its class set"):
            SplitDataset(features=ds.features, labels=ds.labels,
                         attributes=ds.attributes, seen_classes=[0, 1],
                         unseen_classes=[2], train_idx=train,
                         test_seen_idx=test_seen, test_unseen_idx=test_unseen)

    @pytest.mark.parametrize("classes,splits,message", [
        (([0, 1, 1], [1, 7]), ([0, 2], [1], [3]),
         "seen and unseen class sets overlap"),
        (([-1, 0], [-1, 2]), ([0, 2], [1], [3]),
         "seen and unseen class sets overlap"),
        (([0, 1], [2]), ([0, 2], [0], [3]),
         "train/test index sets are not pairwise disjoint"),
        (([0, 1], [2]), ([0, 2], [1, 3], []),
         "test_seen split contains class 2 outside its class set"),
        (([0], [1, 2]), ([0, 2, 3], [1], []),
         "train split contains class 1 outside its class set"),
        (([0, 1], [2]), ([0], [1], [2, 3]),
         "test_unseen split contains class 1 outside its class set"),
    ], ids=["overlap and id past the attributes", "overlap of negative ids",
            "shared index", "unseen in test_seen", "least of two strays",
            "seen in test_unseen"])
    def test_split_rule_messages(self, classes, splits, message):
        # an overlap is named before a class id without an attribute row; the
        # least stray class is the one named
        ds = tiny_dataset()
        with pytest.raises(ValidationError) as exc:
            SplitDataset(features=ds.features, labels=ds.labels,
                         attributes=ds.attributes, seen_classes=classes[0],
                         unseen_classes=classes[1], train_idx=splits[0],
                         test_seen_idx=splits[1], test_unseen_idx=splits[2])
        assert str(exc.value) == message

    def test_zero_norm_attribute_row_rejected(self):
        with pytest.raises(ValidationError):
            AttributeTable([[1.0, 0.0], [0.0, 0.0]])

    def test_attribute_rows_are_normalized(self):
        table = AttributeTable([[3.0, 4.0], [0.0, 2.0]])
        assert np.allclose(np.linalg.norm(table.values, axis=1), 1.0, atol=1e-12)


def reference_episode(ds, m, n, rng):
    """sample_episode with every seen class's pool rebuilt on each call and
    one draw per chosen class, in row order."""
    labels = ds.labels[ds.train_idx]
    pools = {int(c): np.sort(ds.train_idx[labels == c]) for c in ds.seen_classes}
    eligible = np.asarray([c for c in sorted(pools) if pools[c].size >= n],
                          dtype=np.int64)
    class_ids = eligible[rng.permutation(eligible.size)[:m]]
    sample_idx = np.stack([
        pools[int(c)][rng.permutation(pools[int(c)].size)[:n]]
        for c in class_ids])
    return class_ids, sample_idx


class TestSampleEpisode:
    @pytest.fixture(scope="class")
    @staticmethod
    def bench():
        return generate_synthetic(SynthConfig())

    def test_default_episode_shape(self, bench):
        ep = sample_episode(bench, 20, 4, RngStream(0))
        assert ep.visual.shape == (80, bench.feat_dim)
        assert ep.semantic.shape == (20, bench.attr_dim)
        assert np.unique(ep.class_ids).size == 20
        # every sample carries its class's global label
        for row, c in enumerate(ep.class_ids):
            assert np.all(bench.labels[ep.sample_idx[row]] == c)
        # semantic rows match attribute rows of the chosen classes
        assert np.array_equal(ep.semantic, bench.attributes.rows(ep.class_ids))

    def test_exhaustive_draw_is_permutation(self, bench):
        ep = sample_episode(bench, bench.seen_classes.size, 4, RngStream(1))
        assert sorted(ep.class_ids.tolist()) == bench.seen_classes.tolist()

    def test_fixed_seed_reproduces_episode(self, bench):
        e1 = sample_episode(bench, 10, 3, RngStream(9))
        e2 = sample_episode(bench, 10, 3, RngStream(9))
        assert np.array_equal(e1.class_ids, e2.class_ids)
        assert np.array_equal(e1.sample_idx, e2.sample_idx)
        assert np.array_equal(e1.visual, e2.visual)

    def test_capacity_error_states_deficit(self, bench):
        with pytest.raises(CapacityError, match="short by 2"):
            sample_episode(bench, bench.seen_classes.size + 2, 4, RngStream(0))

    def test_matches_pools_rebuilt_per_episode(self, bench):
        rng, ref_rng = RngStream(5), RngStream(5)
        for m, n in [(20, 4), (40, 100), (1, 1), (7, 3)] * 3:
            ep = sample_episode(bench, m, n, rng)
            class_ids, sample_idx = reference_episode(bench, m, n, ref_rng)
            assert ep.class_ids.tobytes() == class_ids.tobytes()
            assert ep.sample_idx.tobytes() == sample_idx.tobytes()
            assert ep.visual.tobytes() == bench.features[sample_idx.ravel()].tobytes()

    def test_block_matches_successive_episodes(self, bench):
        # a block of episodes equals as many successive single draws, on one
        # continuing stream; a block of one too
        rng, ref_rng = RngStream(6), RngStream(6)
        for m, n, size in [(20, 4, 8), (7, 3, 5), (40, 100, 2), (1, 1, 1)]:
            block = sample_episode(bench, m, n, rng, episodes=size)
            assert block.visual.shape == (size, m * n, bench.feat_dim)
            for i in range(size):
                class_ids, sample_idx = reference_episode(bench, m, n, ref_rng)
                ep = block[i]
                assert ep.class_ids.tobytes() == class_ids.tobytes()
                assert ep.sample_idx.tobytes() == sample_idx.tobytes()
                assert ep.visual.tobytes() == \
                    bench.features[sample_idx.ravel()].tobytes()
                assert ep.semantic.tobytes() == \
                    bench.attributes.rows(class_ids).tobytes()
        assert rng.uniform() == ref_rng.uniform()

    def test_unequal_pools_match_reference(self):
        # pool sizes 3, 5 and 8 in blocks and alone, so the chosen rows hold
        # runs of equal sizes between rows of other sizes; the batched draws
        # per run must equal one draw per class
        sizes = [8, 8, 8, 5, 5, 3, 8, 3, 3, 3, 5, 8]
        ds = generate_synthetic(SynthConfig(seen_count=len(sizes), unseen_count=2,
                                            attr_dim=3, feat_dim=4,
                                            train_per_class=8, test_per_class=1,
                                            noise_scale=0.1, seed=3))
        labels = ds.labels[ds.train_idx]
        keep = np.concatenate([ds.train_idx[labels == c][:k]
                               for c, k in enumerate(sizes)])
        ds = SplitDataset(ds.features, ds.labels, ds.attributes, ds.seen_classes,
                          ds.unseen_classes, keep, ds.test_seen_idx,
                          ds.test_unseen_idx)
        rng, ref_rng = RngStream(11), RngStream(11)
        longest_run = size_changes = 0
        for m, n in [(12, 3), (9, 2), (6, 1), (8, 5), (4, 8)] * 4:
            ep = sample_episode(ds, m, n, rng)
            class_ids, sample_idx = reference_episode(ds, m, n, ref_rng)
            assert ep.class_ids.tobytes() == class_ids.tobytes()
            assert ep.sample_idx.tobytes() == sample_idx.tobytes()
            row_sizes = np.asarray(sizes)[class_ids]
            change = np.flatnonzero(np.diff(row_sizes, prepend=-1, append=-1))
            longest_run = max(longest_run, int(np.diff(change).max()))
            size_changes += change.size - 2
        assert rng.uniform() == ref_rng.uniform()  # same stream state after
        assert longest_run >= 3 and size_changes > 0

    def test_pools_built_once(self):
        ds = generate_synthetic(SynthConfig(seen_count=5, unseen_count=2,
                                            attr_dim=3, feat_dim=4,
                                            train_per_class=4, test_per_class=2,
                                            noise_scale=0.1, seed=8))
        pools = ds.train_pools
        sample_episode(ds, 3, 2, RngStream(0))
        assert ds.train_pools is pools
        sizes, starts, flat = pools
        assert sizes.size == starts.size == ds.seen_classes.size
        for c, size, start in zip(ds.seen_classes, sizes, starts):
            pool = flat[start:start + size]
            assert np.all(np.diff(pool) > 0)
            assert np.all(ds.labels[pool] == c)
            assert np.isin(pool, ds.train_idx).all()
        assert sizes.sum() == flat.size == ds.train_idx.size

    def test_packed_pools_match_per_class_sort(self):
        # unequal pools (one empty) from a shuffled train index: the packed
        # pools equal each seen class's np.sort-ed indices, concatenated in
        # class-id order
        ds = generate_synthetic(SynthConfig(seen_count=6, unseen_count=2,
                                            attr_dim=3, feat_dim=4,
                                            train_per_class=9, test_per_class=1,
                                            noise_scale=0.1, seed=4))
        labels = ds.labels[ds.train_idx]
        keep = np.concatenate([ds.train_idx[labels == c][:k]
                               for c, k in enumerate([9, 2, 0, 7, 1, 5])])
        keep = keep[RngStream(2).permutation(keep.size)]
        ds = SplitDataset(ds.features, ds.labels, ds.attributes, ds.seen_classes,
                          ds.unseen_classes, keep, ds.test_seen_idx,
                          ds.test_unseen_idx)
        labels = ds.labels[ds.train_idx]
        pools = [np.sort(ds.train_idx[labels == c]) for c in ds.seen_classes]
        ref_sizes = np.asarray([pool.size for pool in pools], dtype=np.int64)
        sizes, starts, flat = ds.train_pools
        assert sizes.tobytes() == ref_sizes.tobytes()
        assert starts.tobytes() == (np.cumsum(ref_sizes) - ref_sizes).tobytes()
        assert flat.tobytes() == np.concatenate(pools).tobytes()
        assert sizes.dtype == starts.dtype == flat.dtype == np.int64

    def test_coverage_over_many_draws(self):
        ds = generate_synthetic(SynthConfig(seen_count=5, unseen_count=2,
                                            attr_dim=3, feat_dim=4,
                                            train_per_class=4, test_per_class=2,
                                            noise_scale=0.1, seed=8))
        rng = RngStream(4)
        seen = set()
        for _ in range(10_000):
            seen.update(sample_episode(ds, 2, 2, rng).class_ids.tolist())
            if len(seen) == 5:
                break
        assert seen == set(ds.seen_classes.tolist())


class TestGenerateSynthetic:
    def test_zero_noise_samples_equal_class_means(self):
        cfg = SynthConfig(seen_count=3, unseen_count=2, attr_dim=4, feat_dim=6,
                          train_per_class=5, test_per_class=2, noise_scale=0.0,
                          seed=2)
        ds = generate_synthetic(cfg)
        for c in range(5):
            rows = ds.features[ds.labels == c]
            assert np.all(rows == rows[0])

    def test_default_shape_contract(self):
        ds = generate_synthetic(SynthConfig())
        assert ds.features.shape == (40 * 130 + 10 * 30, 32)
        assert ds.train_idx.size == 40 * 100
        assert ds.test_seen_idx.size == 40 * 30
        assert ds.test_unseen_idx.size == 10 * 30
        assert ds.attributes.num_classes == 50

    def test_least_squares_recovers_hidden_map(self):
        cfg = SynthConfig(seen_count=30, unseen_count=5, attr_dim=6, feat_dim=10,
                          train_per_class=3, test_per_class=1, noise_scale=0.0,
                          seed=5)
        ds = generate_synthetic(cfg)
        # class means from the data, then attributes -> means least squares
        means = np.stack([ds.features[ds.labels == c][0]
                          for c in range(ds.attributes.num_classes)])
        g, *_ = np.linalg.lstsq(ds.attributes.values, means, rcond=None)
        recon = ds.attributes.values @ g
        rel = np.linalg.norm(recon - means) / np.linalg.norm(means)
        assert rel < 1e-6

    def test_equal_seeds_bitwise_reproducible(self):
        cfg = SynthConfig(seen_count=4, unseen_count=2, attr_dim=3, feat_dim=5,
                          train_per_class=4, test_per_class=2, noise_scale=0.3,
                          seed=6)
        a = generate_synthetic(cfg)
        b = generate_synthetic(cfg)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.attributes.values, b.attributes.values)

    def test_different_seeds_differ(self):
        base = dict(seen_count=4, unseen_count=2, attr_dim=3, feat_dim=5,
                    train_per_class=4, test_per_class=2, noise_scale=0.3)
        a = generate_synthetic(SynthConfig(seed=1, **base))
        b = generate_synthetic(SynthConfig(seed=2, **base))
        assert not np.array_equal(a.features, b.features)

    def test_invalid_counts_rejected(self):
        with pytest.raises(ParameterError):
            SynthConfig(seen_count=0)
        with pytest.raises(ParameterError):
            SynthConfig(noise_scale=-0.1)

    def test_narrow_feature_space_warns(self):
        with pytest.warns(UserWarning):
            SynthConfig(attr_dim=8, feat_dim=4)

