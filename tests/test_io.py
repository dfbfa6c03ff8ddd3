from __future__ import annotations

import json

import numpy as np
import pytest

import dbmmd.io as dbmmd_io
from dbmmd.datamodel import LabeledDomain, UnlabeledDomain
from dbmmd.errors import FormatError
from dbmmd.io import atomic_write_text, load_features, save_features


@pytest.fixture
def awkward_features():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(3, 5))
    # values whose decimal forms stress the round-trip
    x[0, 0] = 1.0 / 3.0
    x[1, 1] = 1e-17
    x[2, 2] = -0.1
    return x


class TestCsv:
    def test_roundtrip_bitwise(self, tmp_path, awkward_features):
        path = tmp_path / "feat.csv"
        save_features(path, awkward_features)
        dom = load_features(path)
        assert isinstance(dom, UnlabeledDomain)
        # repr round-trips doubles exactly, so equality is bitwise
        assert np.array_equal(dom.features, awkward_features)

    def test_roundtrip_with_labels(self, tmp_path, awkward_features):
        path = tmp_path / "feat.csv"
        labels = np.array([0, 1, 2, 1, 0])
        save_features(path, awkward_features, labels)
        dom = load_features(path)
        assert isinstance(dom, LabeledDomain)
        assert np.array_equal(dom.features, awkward_features)
        assert np.array_equal(dom.labels, labels)
        assert dom.label_values == (0, 1, 2)

    def test_layout_one_row_per_sample(self, tmp_path):
        path = tmp_path / "feat.csv"
        save_features(path, np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "f0,f1,f2"
        assert lines[1] == "1.0,3.0,5.0"
        assert lines[2] == "2.0,4.0,6.0"
        assert len(lines) == 3

    def test_noncontiguous_labels_remapped(self, tmp_path):
        path = tmp_path / "feat.csv"
        save_features(path, np.zeros((2, 4)), np.array([9, 3, 7, 3]))
        dom = load_features(path)
        assert np.array_equal(dom.labels, [2, 0, 1, 0])
        assert dom.label_values == (3, 7, 9)

    def test_hand_written_file(self, tmp_path):
        path = tmp_path / "hand.csv"
        path.write_text("f0,f1,label\n0.5,1.5,4\n2.5,3.5,2\n")
        dom = load_features(path)
        assert dom.features.shape == (2, 2)
        assert np.array_equal(dom.features[:, 0], [0.5, 1.5])
        assert np.array_equal(dom.labels, [1, 0])
        assert dom.label_values == (2, 4)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("")
        with pytest.raises(FormatError, match="empty"):
            load_features(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("f0,f1\n")
        with pytest.raises(FormatError, match="no samples"):
            load_features(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("f0,f1\n1.0,2.0\n3.0\n")
        with pytest.raises(FormatError, match="columns"):
            load_features(path)

    def test_malformed_feature(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("f0,f1\n1.0,banana\n")
        with pytest.raises(FormatError, match="malformed feature"):
            load_features(path)

    def test_malformed_label(self, tmp_path):
        path = tmp_path / "ml.csv"
        path.write_text("f0,label\n1.0,two\n")
        with pytest.raises(FormatError, match="malformed label"):
            load_features(path)

    @pytest.mark.parametrize("label", ["99999999999999999999999", "-9223372036854775809"])
    def test_label_beyond_int64_names_its_line(self, tmp_path, label):
        path = tmp_path / "big.csv"
        path.write_text(f"f0,label\n1.0,0\n2.0,{label}\n")
        with pytest.raises(FormatError, match="big.csv:3: label outside the int64 range"):
            load_features(path)

    def test_int64_extremes_load(self, tmp_path):
        path = tmp_path / "edge.csv"
        path.write_text("f0,label\n1.0,9223372036854775807\n2.0,-9223372036854775808\n")
        assert load_features(path).label_values == (-2**63, 2**63 - 1)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("f0,f1\n1.0,nan\n")
        with pytest.raises(FormatError, match="non-finite"):
            load_features(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError, match="no such file"):
            load_features(tmp_path / "ghost.csv")

    @pytest.mark.parametrize("text", [
        "f0,f1,label\n0.1,-2e-300,3\n 1.,+.5,-4\n",
        "f0,label\r\n1e308,9223372036854775807\r\n\r\n-0.0,-9223372036854775808\r\n",
        "f0,label\r1,2\r3,4\r",
        "label,f0\n1,2.5\n3,4.5\n",
        "f0,f1\n1_0,2\n",
        "f0,label\n1,5_0\n",
        "f0,f1\n1.0,2.0",
        "f0,f1\n1.0,2.0,3.0\n4.0,5.0,6.0\n",
        "f0,f1,label\n1,2\n3,4\n",
        "f0,label\n1,5.0\n",
        "f0,label\n1,1e3\n",
        "f0,f1\n1,2 # note\n",
        'f0,f1\n"1",2\n',
        "f0,f1\n1,2\n   \n",
        "f0,f1\n1,\n",
        "f0,f1\n",
    ])
    def test_parsed_rows_equal_the_line_reader(self, tmp_path, text, monkeypatch):
        # a file loadtxt reads gives the line reader's arrays bit for bit,
        # and one it cannot read the line reader's error, naming its line
        path = tmp_path / "p.csv"
        path.write_bytes(text.encode())

        def load():
            try:
                dom = load_features(path)
            except FormatError as exc:
                return str(exc)
            labels = getattr(dom, "labels", None)
            return type(dom), dom.features.tobytes(), None if labels is None else (
                labels.tobytes(), dom.label_values)

        fast = load()
        monkeypatch.setattr(dbmmd_io, "_parse_csv", lambda *args: None)
        assert fast == load()

    def test_large_labelled_file_parses_without_the_line_reader(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(8)
        x, y = rng.normal(size=(64, 300)), rng.integers(-3, 2**62, 300)
        save_features(tmp_path / "big.csv", x, y)

        parsed = []
        parse = dbmmd_io._parse_csv

        def recorded(*args):
            parsed.append(parse(*args))
            return parsed[-1]

        monkeypatch.setattr(dbmmd_io, "_parse_csv", recorded)
        dom = load_features(tmp_path / "big.csv")
        assert parsed[0] is not None
        assert dom.features.tobytes() == x.tobytes()
        assert dom.label_values == tuple(sorted(set(y.tolist())))


class TestRaw:
    def test_roundtrip_bitwise(self, tmp_path, awkward_features):
        path = tmp_path / "feat.f64"
        labels = np.array([1, 0, 1, 0, 1])
        save_features(path, awkward_features, labels)
        dom = load_features(path)
        assert np.array_equal(dom.features, awkward_features)
        assert np.array_equal(dom.labels, labels)

    def test_sidecar_contents(self, tmp_path):
        path = tmp_path / "feat.f64"
        save_features(path, np.zeros((3, 7)))
        sidecar = json.loads((tmp_path / "feat.json").read_text())
        assert sidecar == {"rows": 7, "cols": 3}

    def test_blob_is_row_major_samples(self, tmp_path):
        path = tmp_path / "feat.f64"
        x = np.array([[1.0, 2.0], [3.0, 4.0]])  # dim 2, samples 2
        save_features(path, x)
        blob = np.frombuffer(path.read_bytes(), dtype="<f8")
        # sample 0 is (1, 3), sample 1 is (2, 4)
        assert np.array_equal(blob, [1.0, 3.0, 2.0, 4.0])

    def test_missing_sidecar(self, tmp_path):
        path = tmp_path / "feat.f64"
        path.write_bytes(b"\x00" * 16)
        with pytest.raises(FormatError, match="sidecar"):
            load_features(path)

    def test_malformed_sidecar_json(self, tmp_path):
        path = tmp_path / "feat.f64"
        path.write_bytes(b"\x00" * 16)
        (tmp_path / "feat.json").write_text("{nope")
        with pytest.raises(FormatError, match="JSON"):
            load_features(path)

    def test_sidecar_needs_rows_cols(self, tmp_path):
        path = tmp_path / "feat.f64"
        path.write_bytes(b"\x00" * 16)
        (tmp_path / "feat.json").write_text('{"rows": 2}')
        with pytest.raises(FormatError, match="rows and cols"):
            load_features(path)

    def test_size_mismatch(self, tmp_path):
        path = tmp_path / "feat.f64"
        path.write_bytes(b"\x00" * 24)
        (tmp_path / "feat.json").write_text('{"rows": 2, "cols": 2}')
        with pytest.raises(FormatError, match="size"):
            load_features(path)

    @pytest.mark.parametrize("sidecar", [
        '{"rows": 2.0, "cols": 2}',
        '{"rows": 2, "cols": true}',
        '{"rows": "2", "cols": 2}',
        '[2, 2]',
    ])
    def test_rows_and_cols_must_be_json_integers(self, tmp_path, sidecar):
        path = tmp_path / "feat.f64"
        path.write_bytes(b"\x00" * 32)
        (tmp_path / "feat.json").write_text(sidecar)
        with pytest.raises(FormatError, match="feat.json: sidecar needs integer rows and cols"):
            load_features(path)

    @pytest.mark.parametrize("labels", ["[0, 1.5, 1]", "[0, true, 1]", '[0, "1", 1]', "[0, 1.0, 1]",
                                        '"011"', "3"])
    def test_labels_must_be_json_integers(self, tmp_path, labels):
        path = tmp_path / "feat.f64"
        path.write_bytes(b"\x00" * 24)
        (tmp_path / "feat.json").write_text(f'{{"rows": 3, "cols": 1, "labels": {labels}}}')
        with pytest.raises(FormatError, match="feat.json: labels must be a list of integers"):
            load_features(path)

    @pytest.mark.parametrize("label", [2**70, -2**63 - 1])
    def test_label_beyond_int64(self, tmp_path, label):
        path = tmp_path / "feat.f64"
        path.write_bytes(b"\x00" * 16)
        (tmp_path / "feat.json").write_text(f'{{"rows": 2, "cols": 1, "labels": [0, {label}]}}')
        with pytest.raises(FormatError, match="feat.json: label outside the int64 range"):
            load_features(path)

    def test_labels_length_mismatch(self, tmp_path):
        path = tmp_path / "feat.f64"
        path.write_bytes(b"\x00" * 32)
        (tmp_path / "feat.json").write_text('{"rows": 2, "cols": 2, "labels": [0]}')
        with pytest.raises(FormatError, match="labels"):
            load_features(path)


class TestFormatInference:
    def test_unknown_suffix_needs_fmt(self, tmp_path):
        with pytest.raises(FormatError, match="infer"):
            load_features(tmp_path / "feat.dat")

    def test_explicit_fmt_overrides_suffix(self, tmp_path):
        path = tmp_path / "feat.dat"
        save_features(path, np.ones((2, 3)), fmt="csv")
        dom = load_features(path, fmt="csv")
        assert dom.features.shape == (2, 3)

    def test_bad_fmt_value(self, tmp_path):
        with pytest.raises(FormatError):
            save_features(tmp_path / "x.csv", np.ones((2, 2)), fmt="parquet")

    def test_save_rejects_bad_shapes(self, tmp_path):
        with pytest.raises(FormatError):
            save_features(tmp_path / "x.csv", np.ones(4))
        with pytest.raises(FormatError):
            save_features(tmp_path / "x.csv", np.ones((2, 3)), labels=np.array([0, 1]))


class TestAtomicWrite:
    def test_writes_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "out.txt"
        atomic_write_text(path, "hello\n")
        assert path.read_text() == "hello\n"
        leftovers = [p for p in path.parent.iterdir() if p.name != "out.txt"]
        assert leftovers == []

    def test_overwrites_existing(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "one")
        atomic_write_text(path, "two")
        assert path.read_text() == "two"
