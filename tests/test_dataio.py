import csv
import io
import itertools
import math
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swat import dataio
from swat.dataio import DEFAULT_SCHEMAS, Dataset, SchemaConfig


def write_csv(path, rows, header="sample_id,feat,watch_time"):
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    return path


def namespaced(column, cell):
    """The tokens of one feature cell as the encoder hashes them: ``column=token``."""
    return [f"{column}={tok}" for tok in dataio.split_cell(cell)]


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
        assert namespaced("items", ds.features["items"][0]) == ["items=i1", "items=i2", "items=i3"]

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

    @pytest.mark.parametrize("body", ["", "\n", "\n\n"], ids=["no line end", "line end", "blank line"])
    def test_header_only_file_has_no_usable_rows(self, tmp_path, body):
        path = tmp_path / "d.csv"
        path.write_text("sample_id,feat,watch_time" + body, encoding="utf-8")
        # the byte pass sees no data row, so csv.reader reads the file and loadtxt never runs
        with mock.patch.object(np, "loadtxt", side_effect=AssertionError("np.loadtxt ran")), \
                mock.patch.object(csv, "reader", wraps=csv.reader) as reader:
            for targets_only in (False, True):
                with pytest.raises(ValueError, match=r"d\.csv: no usable rows \(skipped 0\)"):
                    dataio.load_csv(path, SIM, c=1, targets_only=targets_only)
        assert reader.call_count == 2

    @pytest.mark.parametrize("cell", ["u v", '"u,v"'], ids=["quote-free", "quoted cell"])
    def test_byte_order_mark_reads_as_without_it(self, tmp_path, cell):
        # Excel and to_csv(encoding="utf-8-sig") start a CSV with a UTF-8 byte-order mark
        text = f"sample_id,feat,watch_time\na,{cell},3\nb,w,5.5\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        def read(path, targets_only):
            ds = dataio.load_csv(path, SIM, targets_only=targets_only)
            features = {col: cells.tolist() for col, cells in ds.features.items()}
            return ds.ids.tolist(), ds.raw_targets.tolist(), ds.skipped, features

        for targets_only in (False, True):
            with mock.patch.object(csv, "reader", wraps=csv.reader) as reader:
                assert read(marked, targets_only) == read(plain, targets_only)
            assert reader.call_count == (2 if '"' in cell else 0)  # the same reader read both files

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


PLAIN_TEXT = ["t", "u", "é", "|", " ", "\t", "\x00", "\x1c", "\u2003", "\x85", "\u2028", "#", "\ufeff"]
plain_cells = st.one_of(
    st.sampled_from(GOOD_NUMBERS),
    st.sampled_from(GOOD_NUMBERS),
    st.sampled_from(BAD_NUMBERS),
    st.text(st.sampled_from(PLAIN_TEXT), max_size=6),
)


@st.composite
def plain_files(draw):
    """Bytes of a CSV with no quote and LF line ends, joined by hand: the files
    the C splitter reads.  Any file may hold blank lines, long rows and bad
    numbers; about a third may also hold whitespace-only and short rows; now
    and then a line is oversized or holds a byte that is not UTF-8."""
    header = draw(st.lists(st.sampled_from(["id", "a", "b", "y", "n", "z"]), max_size=3))
    if draw(st.integers(0, 4)):
        header += draw(st.permutations(["id", "a", "b", "y", "n"]))
    width = len(header)
    row = st.lists(plain_cells, min_size=width, max_size=width + 2) | st.just([])
    if not draw(st.integers(0, 2)):
        row |= st.lists(plain_cells, max_size=width + 2) | st.sampled_from([[" "], ["\t "], ["  "]])
    lines = [",".join(cells) for cells in [header, *draw(st.lists(row, max_size=12))]]
    fault = draw(st.sampled_from([None, None, None, None, "oversized", "not-utf8"]))
    at = draw(st.integers(0, len(lines)))
    if fault == "oversized":
        lines.insert(at, "1," + "x" * (csv.field_size_limit() + 1) + ",2")
    data = ("\n".join(lines) + draw(st.sampled_from(["\n", ""]))).encode("utf-8")
    if fault == "not-utf8":
        data = data.replace(b"t", b"t\xff", 1)
    return data


def splits_in_c(data: bytes, kept) -> bool:
    """Whether load_csv's C splitter may read EQUIV_SCHEMA's ``kept`` columns
    of this file, by the rules its docstring states: no quote or CR byte,
    UTF-8, a non-blank first line holding every configured column, no line
    over the field size limit, and at least one non-blank row, each with a
    cell for every kept column."""
    lines = data.split(b"\n")
    if data.endswith(b"\n"):
        lines.pop()
    if b'"' in data or b"\r" in data or not lines[0] or max(map(len, lines)) > csv.field_size_limit():
        return False
    try:
        header = lines[0].decode("utf-8").split(",")
        data.decode("utf-8")
    except UnicodeDecodeError:
        return False
    if any(col not in header for col in ["id", "y", *EQUIV_SCHEMA.feature_columns]):
        return False
    index = {name: j for j, name in enumerate(header)}
    width = max(index[col] for col in kept) + 1
    rows = [line for line in lines[1:] if line]
    return bool(rows) and all(line.count(b",") + 1 >= width for line in rows)


class TestLoaderMatchesDictReader:
    @settings(max_examples=400, deadline=None)
    @given(data=csv_files() | plain_files(), c=st.sampled_from([1.0, 50.0, 100.0]))
    def test_same_rows_tokens_and_errors(self, data, c):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.csv"
            path.write_bytes(data)
            try:
                expected = dictreader_load(path, EQUIV_SCHEMA, c)
            except ValueError as exc:
                for targets_only, rows in itertools.product((False, True), (None, self.some_rows)):
                    with pytest.raises(ValueError) as got:
                        self.load(path, data, c, targets_only=targets_only, rows=rows)
                    assert str(got.value) == str(exc)
                return
            ds = self.load(path, data, c)
            targets = self.load(path, data, c, targets_only=True)
            part = self.load(path, data, c, rows=self.some_rows)
            part_targets = self.load(path, data, c, targets_only=True, rows=self.some_rows)
        got = ds.ids.tolist(), self.tokens(ds), ds.raw_targets.tolist(), ds.skipped
        assert got == expected
        # the targets-only read keeps the same rows and skips, and no other column
        assert targets.raw_targets.tolist() == expected[2]
        assert targets.skipped == expected[3]
        assert targets.ids.tolist() == [None] * len(ds)
        assert targets.features == {}
        # the row-selecting reads keep the selected rows of the full ones, in order
        rows = self.some_rows(len(ds)).tolist()
        assert part.ids.tolist() == [expected[0][i] for i in rows]
        assert self.tokens(part) == [expected[1][i] for i in rows]
        assert part.raw_targets.tolist() == part_targets.raw_targets.tolist() == [expected[2][i] for i in rows]
        assert part.skipped == part_targets.skipped == expected[3]
        assert part_targets.ids.tolist() == [None] * len(rows) and part_targets.features == {}

    def test_quote_free_file_is_split_in_c(self, tmp_path):
        rows = ["id,a,b,y,n", " 1 ,\tt u,é|#x, 7 ,", "", "2,\x00,\x85\u2028\x1c,1_0,9,extra,cells",
                "\ufeff3,,\u2003,2.5,", "4,t,u,oops,", "5,t,u,-1,"]
        data = ("\n".join(rows) + "\n").encode("utf-8")
        path = tmp_path / "d.csv"
        path.write_bytes(data)
        assert splits_in_c(data, ["id", "y", "a", "b"])
        expected = dictreader_load(path, EQUIV_SCHEMA, 50.0)
        assert expected[2] == [7.0, 10.0, 2.5] and expected[3] == 2
        with mock.patch.object(csv, "reader", side_effect=AssertionError("csv.reader ran")):
            ds = dataio.load_csv(path, EQUIV_SCHEMA, c=50.0)
        assert (ds.ids.tolist(), self.tokens(ds), ds.raw_targets.tolist(), ds.skipped) == expected

    @staticmethod
    def load(path, data, c, **kwargs):
        """load_csv of EQUIV_SCHEMA, checking that csv.reader ran exactly when
        the C splitter may not read the file."""
        kept = ["y"] if kwargs.get("targets_only") else ["id", "y", *EQUIV_SCHEMA.feature_columns]
        in_c = splits_in_c(data, kept)
        with mock.patch.object(csv, "reader", wraps=csv.reader) as reader:
            try:
                return dataio.load_csv(path, EQUIV_SCHEMA, c=c, **kwargs)
            finally:
                assert reader.called is not in_c, f"csv.reader {'ran' if reader.called else 'did not run'}"

    @staticmethod
    def some_rows(n):
        """A shuffled selection of about half of n rows."""
        return np.random.default_rng(n).permutation(n)[: (n + 1) // 2]

    @staticmethod
    def tokens(ds):
        return [tuple(tok for col in EQUIV_SCHEMA.feature_columns for tok in namespaced(col, ds.features[col][i]))
                for i in range(len(ds))]


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
    def test_80_20_sizes(self):
        train, test = dataio.split(10, 0.8, seed=0)
        assert (len(train), len(test)) == (8, 2)

    def test_floor_rule(self):
        train, test = dataio.split(2, 0.5, seed=0)
        assert (len(train), len(test)) == (1, 1)

    def test_same_seed_same_split(self):
        a = dataio.split(50, 0.8, seed=3)
        b = dataio.split(50, 0.8, seed=3)
        assert a[0].tolist() == b[0].tolist()

    def test_partition(self):
        train, test = dataio.split(31, 0.7, seed=1)
        assert sorted(train.tolist() + test.tolist()) == list(range(31))

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            dataio.split(10, 1.2, seed=0)
        with pytest.raises(ValueError):
            dataio.split(1, 0.5, seed=0)

    @pytest.mark.parametrize("n, ratio", [(5, 0.1), (1, 0.5), (0, 0.5)])
    def test_a_ratio_that_empties_the_train_part_raises_naming_it(self, n, ratio):
        with pytest.raises(ValueError, match=f"split ratio {ratio} of {n} rows leaves the train part empty"):
            dataio.split(n, ratio, seed=0)


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

