import csv
import io
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swat import dataio
from swat.dataio import DEFAULT_SCHEMAS, Dataset, SchemaConfig


def write_csv(path, rows, header="sample_id,feat,watch_time"):
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    return path


SIM = DEFAULT_SCHEMAS["sim"]


class TestLoadCsv:
    def test_scaling_rounds_to_integer(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["a,u1,3.4"])
        ds = dataio.load_csv(path, SIM, c=50)
        assert ds.targets().tolist() == [170]
        assert ds.raw_targets.tolist() == [3.4]

    def test_negative_target_skipped_and_counted(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["a,u1,-1", "b,u2,2", "c,u3,oops"])
        ds = dataio.load_csv(path, SIM, c=1)
        assert len(ds) == 1
        assert ds.skipped == 2

    def test_identity_scaling(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["a,u1,7", "b,u2,0"])
        ds = dataio.load_csv(path, SIM, c=1)
        assert ds.targets().tolist() == [7, 0]

    def test_token_lists_split_and_namespaced(self, tmp_path):
        schema = SchemaConfig("session_id", ("items",), "dwell_time")
        path = write_csv(tmp_path / "d.csv", ['s1,"i1 i2|i3",4.0'], header="session_id,items,dwell_time")
        ds = dataio.load_csv(path, schema, c=1)
        assert dataio.tokenize("items", ds.features["items"][0]) == ["items=i1", "items=i2", "items=i3"]

    def test_target_beyond_int64_skipped_and_counted(self, tmp_path):
        rows = ["a,u1,1e30", "b,u2,2", "c,u3,1e308", "d,u4,nan", "e,u5,inf"]
        ds = dataio.load_csv(write_csv(tmp_path / "d.csv", rows), SIM, c=50)
        assert ds.targets().tolist() == [100]
        assert ds.skipped == 4

    def test_missing_column_raises(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["a,u1,1"])
        with pytest.raises(ValueError, match="missing configured columns"):
            dataio.load_csv(path, SchemaConfig("sample_id", ("nope",), "watch_time"), c=1)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            dataio.load_csv(tmp_path / "absent.csv", SIM, c=1)

    def test_zero_valid_rows_raises(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["a,u1,-3"])
        with pytest.raises(ValueError, match="no usable rows"):
            dataio.load_csv(path, SIM, c=1)

    def test_malformed_csv_names_file_and_line(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["a,u1,1", "b," + "x" * 200_000 + ",2"])
        with pytest.raises(ValueError, match=r"d\.csv, line 3: field larger than field limit"):
            dataio.load_csv(path, SIM, c=1)
        # a byte that is not UTF-8 on line 1501 of 2001, well past the decoder's first 8 KiB chunk
        rows = [f"s{i},u{i},{i % 7}".encode() for i in range(2000)]
        rows[1499] = b"s1499,u\xff,3"
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\n".join([b"sample_id,feat,watch_time", *rows]) + b"\n")
        assert bad.read_bytes().index(b"\xff") > 8192
        with pytest.raises(ValueError, match=r"bad\.csv, line 1501: byte 0xff is not UTF-8"):
            dataio.load_csv(bad, SIM, c=1)

    def test_bad_c_rejected(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["a,u1,1"])
        for c in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="scaling constant must be positive and finite"):
                dataio.load_csv(path, SIM, c=c)
            with pytest.raises(ValueError, match="scaling constant must be positive and finite"):
                Dataset(["a"], [1.0], {}, c=c)


def dictreader_load(path, schema, c):
    """The per-row csv.DictReader loader that load_csv replaced, kept as the
    reference: (ids, tokens, raw targets, skipped) of the kept rows."""
    rows, skipped = [], 0
    needed = [schema.id_column, schema.target_column, *schema.feature_columns]
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        try:
            missing = [col for col in needed if col not in (reader.fieldnames or [])]
            if missing:
                raise ValueError(f"{path}: missing configured columns {missing}")
            for i, row in enumerate(reader):
                try:
                    raw = float(row[schema.target_column])
                except (TypeError, ValueError):
                    skipped += 1
                    continue
                if not 0.0 <= c * raw < 2.0**63:
                    skipped += 1
                    continue
                tokens = []
                for col in schema.feature_columns:
                    cell = (row[col] or "").strip()
                    tokens.extend(f"{col}={tok}" for tok in re.split(r"[|\s]+", cell) if tok)
                rows.append((row[schema.id_column] or str(i), tuple(tokens), raw))
        except csv.Error as exc:
            raise ValueError(f"{path}, line {reader.reader.line_num}: {exc}") from None
        except UnicodeDecodeError:
            raise ValueError(f"{path}, {dataio._not_utf8(path)}") from None
    if not rows:
        raise ValueError(f"{path}: no usable rows (skipped {skipped})")
    ids, tokens, raws = map(list, zip(*rows))
    return ids, tokens, raws, skipped


EQUIV_SCHEMA = SchemaConfig("id", ("a", "b"), "y")
GOOD_NUMBERS = ["0", "1", "2.5", " 7 ", "1_0", "-0", "9.2e16"]
BAD_NUMBERS = ["-1", "1e30", "9.3e16", "1e400", "-1e400", "nan", "inf", "-inf", "oops", "", "0x10"]
cells = st.one_of(
    st.sampled_from(GOOD_NUMBERS),
    st.sampled_from(GOOD_NUMBERS),
    st.sampled_from(BAD_NUMBERS),
    st.text(st.sampled_from(["t", "u", "é", "|", " ", "\t", "\x1c", "\u2003", "\x85", "\n", ",", '"']),
            max_size=6),
)


@st.composite
def csv_files(draw):
    """Bytes of a CSV over EQUIV_SCHEMA's names and the unconfigured "n" and
    "z": repeated or absent header names, blank, short and long rows, quoted
    separators, bad numbers, and now and then an oversized field, a byte that
    is not UTF-8 or an unterminated quote."""
    header = draw(st.lists(st.sampled_from(["id", "a", "b", "y", "n", "z"]), max_size=8))
    if draw(st.integers(0, 4)):
        header += draw(st.permutations(["id", "a", "b", "y", "n"]))
    width = len(header)
    row = st.lists(cells, min_size=width, max_size=width + 2) | st.lists(cells, max_size=width + 2)
    rows = draw(st.lists(row, max_size=12))
    text = io.StringIO()
    csv.writer(text, lineterminator=draw(st.sampled_from(["\r\n", "\n"]))).writerows([header, *rows])
    lines = text.getvalue().encode("utf-8").splitlines(keepends=True)
    fault = draw(st.sampled_from([None, None, None, "oversized", "not-utf8", "open-quote"]))
    at = draw(st.integers(0, len(lines)))
    if fault == "oversized":
        lines.insert(at, b"1," + b"x" * (csv.field_size_limit() + 1) + b",2\n")
    elif fault == "not-utf8":
        lines.insert(at, b"1,t\xff,2\n")
    elif fault == "open-quote":
        lines.append(b'7,"t,u')
    return b"".join(lines)


class TestLoaderMatchesDictReader:
    @settings(max_examples=300, deadline=None)
    @given(data=csv_files(), c=st.sampled_from([1.0, 50.0, 100.0]))
    def test_same_rows_tokens_and_errors(self, data, c):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.csv"
            path.write_bytes(data)
            try:
                expected = dictreader_load(path, EQUIV_SCHEMA, c)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    dataio.load_csv(path, EQUIV_SCHEMA, c=c)
                assert str(got.value) == str(exc)
                return
            ds = dataio.load_csv(path, EQUIV_SCHEMA, c=c)
        tokens = [
            tuple(tok for col in EQUIV_SCHEMA.feature_columns for tok in dataio.tokenize(col, ds.features[col][i]))
            for i in range(len(ds))
        ]
        got = ds.ids.tolist(), tokens, ds.raw_targets.tolist(), ds.skipped
        assert got == expected


class TestDataset:
    def test_columns_must_agree_on_the_row_count(self):
        with pytest.raises(ValueError, match="empty"):
            Dataset([], [], {})
        with pytest.raises(ValueError, match="row count"):
            Dataset(["a", "b"], [1.0], {})
        with pytest.raises(ValueError, match="row count"):
            Dataset(["a", "b"], [1.0, 2.0], {"feat": ["x"]})

    def test_take_selects_every_column(self):
        ds = Dataset(["a", "b", "c"], [1.0, 2.0, 3.0], {"feat": ["x", None, "y z"]}, c=2.0, skipped=4)
        part = ds.take(np.array([2, 0]))
        assert part.ids.tolist() == ["c", "a"]
        assert part.raw_targets.tolist() == [3.0, 1.0]
        assert part.features["feat"].tolist() == ["y z", "x"]
        assert (part.c, part.skipped) == (2.0, 4)


class TestSplit:
    def _dataset(self, n):
        return Dataset([str(i) for i in range(n)], np.arange(n, dtype=float), {"feat": [f"u{i}" for i in range(n)]})

    def test_80_20_sizes(self):
        train, test = dataio.split(self._dataset(10), 0.8, seed=0)
        assert (len(train), len(test)) == (8, 2)

    def test_floor_rule(self):
        train, test = dataio.split(self._dataset(2), 0.5, seed=0)
        assert (len(train), len(test)) == (1, 1)

    def test_same_seed_same_split(self):
        ds = self._dataset(50)
        a = dataio.split(ds, 0.8, seed=3)
        b = dataio.split(ds, 0.8, seed=3)
        assert a[0].ids.tolist() == b[0].ids.tolist()

    def test_partition(self):
        ds = self._dataset(31)
        train, test = dataio.split(ds, 0.7, seed=1)
        ids = sorted(train.ids) + sorted(test.ids)
        assert sorted(ids) == sorted(ds.ids)
        assert not set(train.ids) & set(test.ids)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            dataio.split(self._dataset(10), 1.2, seed=0)
        with pytest.raises(ValueError):
            dataio.split(self._dataset(1), 0.5, seed=0)


def raw_dataset(raws, c):
    return Dataset([str(i) for i in range(len(raws))], raws, {}, c=c)


class TestUnscale:
    def test_inverse_of_scaling(self):
        assert raw_dataset([3.4], 50).targets()[0] / 50 == pytest.approx(3.4)
        assert raw_dataset([0.0], 7).targets()[0] / 7 == 0.0

    def test_round_trip_error_bounded_by_half_step(self):
        raws = np.random.default_rng(0).uniform(0, 100, size=500)
        c = 50.0
        targets = raw_dataset(raws, c).targets()
        assert targets.dtype == np.int64
        assert np.all(np.abs(targets / c - raws) <= 0.5 / c + 1e-12)

    def test_rounds_half_to_even_like_python(self):
        raws = [0.5, 1.5, 2.5, 0.01, 0.03, 1e15 + 0.5, *np.random.default_rng(1).uniform(0, 1e4, 500)]
        for c in (1.0, 50.0, 100.0):
            assert raw_dataset(raws, c).targets().tolist() == [int(round(c * r)) for r in raws]

