"""The file formats: CSV ingestion, target scaling, train/test splitting,
and the one JSON writer, JSON reader, field checker and CSV writer.

A dataset holds the usable rows of one CSV as columns: ids, raw targets,
and the raw cells of each feature column.  Cells are tokenised only when a
model encodes them, so reading the targets alone never tokenises; the
encoder applies ``split_cell``'s rule through byte tables, and ``tokenize``
serves only ``Dataset.samples`` (for the benchmark's tracer) and the tests.
The integer targets the heads need are derived per dataset:
``Dataset.targets()`` = round(c * raw_target), half to even.  Rows whose
target is unparseable, negative, not finite or scales beyond int64 are
skipped and counted.  Metrics run on unscaled predictions (prediction / c)
against raw targets, so reported errors stay in the original units.
"""

from __future__ import annotations

import csv
import json
import math
import re
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_TARGET_LIMIT = 2.0**63  # scaled targets must round into int64
_LINE_END = re.compile(rb"\r\n|\r|\n")  # the line ends csv.reader counts with newline=""
_LF = ord("\n")
_SCAN_CHUNK = 1 << 16  # bytes per read of the pass that vouches for a file


@dataclass(frozen=True)
class SchemaConfig:
    """Column mapping for one CSV layout.

    Cells of categorical columns may hold several tokens separated by
    whitespace or '|'; tokens are namespaced by their column name.
    """

    id_column: str
    feature_columns: tuple[str, ...]
    target_column: str
    c: float = 1.0  # the target scale a command uses when --c is not given


DEFAULT_SCHEMAS = {
    # shape emitted by the `swat simulate` subcommand
    "sim": SchemaConfig("sample_id", ("feat",), "watch_time", c=1.0),
    # dense user/video interaction logs (play_duration target)
    "kuairec": SchemaConfig("user_id", ("user_id", "video_id"), "play_duration", c=50.0),
    # session logs with item-list features (dwell-time target)
    "cikm": SchemaConfig("session_id", ("items",), "dwell_time", c=100.0),
}


def split_cell(cell: str | None) -> list[str]:
    """The raw tokens of one feature cell, split on whitespace and '|'; none if it is absent."""
    return (cell or "").replace("|", " ").split()


def tokenize(column: str, cell: str | None) -> list[str]:
    """Tokens of one feature cell, each prefixed with its column name."""
    return [f"{column}={tok}" for tok in split_cell(cell)]


@dataclass(frozen=True)
class Sample:
    """One row of a Dataset, as ``Dataset.samples`` lists it."""

    id: str
    categorical_ids: tuple[str, ...]
    raw_target: float


@dataclass(frozen=True, eq=False)
class Dataset:
    """Column arrays of n rows.

    ``ids`` and each ``features`` column are (n,) object arrays of strings
    (a feature cell missing from a short CSV row is None, and so is every
    id of a ``load_csv(targets_only=True)`` read); ``raw_targets`` is (n,)
    float64.
    """

    ids: np.ndarray
    raw_targets: np.ndarray
    features: dict[str, np.ndarray]
    c: float = 1.0
    skipped: int = 0

    def __post_init__(self) -> None:
        ids = np.asarray(self.ids, dtype=object)
        n = len(ids)
        raw_targets = np.asarray(self.raw_targets, dtype=np.float64)
        features = {col: np.asarray(cells, dtype=object) for col, cells in self.features.items()}
        if n == 0:
            raise ValueError("dataset is empty")
        check_c(self.c)
        if any(v.shape != (n,) for v in (ids, raw_targets, *features.values())):
            raise ValueError(f"dataset columns disagree on the row count {n}")
        columns = {"ids": ids, "raw_targets": raw_targets, "features": features}
        for name, value in columns.items():
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.ids)

    def targets(self) -> np.ndarray:
        """Integer targets round(c * raw_target) on the bucket grid."""
        return np.rint(self.c * self.raw_targets).astype(np.int64)

    def take(self, idx) -> Dataset:
        """The rows at ``idx``, in that order."""
        features = {col: cells[idx] for col, cells in self.features.items()}
        return Dataset(self.ids[idx], self.raw_targets[idx], features, self.c, self.skipped)

    @property
    def samples(self) -> tuple[Sample, ...]:
        """One Sample per row, tokens included.

        Only perfbench/tracer.py reads this, to count the tokens that
        ``FeatureSpec.encode_dataset`` pools; the library works on the
        columns.  The benchmark change that takes that count from the library
        instead deletes this view and Sample.
        """
        tokens = [[] for _ in range(len(self))]
        for col, cells in self.features.items():
            for row, cell in zip(tokens, cells.tolist()):
                row.extend(tokenize(col, cell))
        rows = zip(self.ids.tolist(), tokens, self.raw_targets.tolist())
        return tuple(Sample(i, tuple(toks), raw) for i, toks, raw in rows)


def check_c(c: float) -> None:
    if not (math.isfinite(c) and c > 0):
        raise ValueError(f"scaling constant must be positive and finite, got {c}")


def _float_or_nan(cell) -> float:
    try:
        return float(cell)
    except (TypeError, ValueError):
        return math.nan


def _floats(cells) -> np.ndarray:
    """float(cell) of each cell; NaN, which every skip rule rejects, where a
    cell is absent or no number.

    numpy's object-to-float cast calls float on each cell (None gives NaN),
    so it takes every number float takes; a cell it rejects sends the column
    through ``_float_or_nan`` cell by cell.
    """
    try:
        return np.asarray(cells, dtype=object).astype(np.float64)
    except (TypeError, ValueError):
        return np.fromiter(map(_float_or_nan, cells), np.float64, len(cells))


def _usable(scaled: np.ndarray) -> np.ndarray:
    """Whether each scaled target rounds into int64 and is not negative."""
    return (0.0 <= scaled) & (scaled < _TARGET_LIMIT)


def _interned(cells) -> np.ndarray:
    """Object array of the cells in which equal strings share one object."""
    seen: dict = {}
    return np.fromiter(map(seen.setdefault, cells, cells), object, len(cells))


def _not_utf8(path) -> str:
    """Line and description of the first byte of the file that is not UTF-8.

    The text decoder works in chunks: its error offset is into the chunk,
    and csv.reader's line count stops before the chunk that failed, so the
    file's bytes are decoded again in one piece.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(_LINE_END.findall(raw, 0, exc.start)) + 1
        return f"line {line}: byte 0x{raw[exc.start]:02x} is not UTF-8 ({exc.reason})"
    return "not UTF-8"


def _plain_header(path) -> list[str] | None:
    """The header of a file that ``np.loadtxt`` splits as csv.reader does, or
    None when the file needs csv.reader.

    One streamed pass vouches for the file: it holds no quote or CR byte, its
    first line is not blank and is UTF-8, some later line is not blank, and
    no line is longer than ``csv.field_size_limit()`` (in bytes, so never
    fewer than its characters).  Without quotes and CRs, csv.reader splits
    every line at its commas, which is what loadtxt does with
    ``quotechar=None, comments=None``.  A byte-order mark that starts the
    file is no part of the header; loadtxt skips the header line.
    """
    limit = csv.field_size_limit()
    with open(path, "rb") as fh:
        first = fh.readline()
        line = first[:-1] if first.endswith(b"\n") else first
        if not line or b'"' in line or b"\r" in line or len(line) > limit:
            return None
        try:
            header = line.decode("utf-8-sig").split(",")
        except UnicodeDecodeError:
            return None
        pos, last_end, longest = 0, -1, 0  # bytes read after the header, offset of the last line end
        while chunk := fh.read(_SCAN_CHUNK):
            if b'"' in chunk or b"\r" in chunk:
                return None
            ends = np.flatnonzero(np.frombuffer(chunk, np.uint8) == _LF) + pos
            lengths = np.diff(ends, prepend=last_end) - 1
            if len(ends):
                last_end = int(ends[-1])
            pos += len(chunk)
            longest = max(longest, lengths.max(initial=0), pos - last_end - 1)
            if longest > limit:
                return None
    return header if longest else None  # no data row: csv.reader gives the zero-row message


def _split_plain(path, needed: list[str], kept: list[str]) -> dict[str, np.ndarray] | None:
    """The kept columns of a quote-free file, split by numpy's C reader; None
    when the file needs csv.reader.

    loadtxt raises ValueError (UnicodeDecodeError is one) on a row too short
    for a kept column and on bytes that are not UTF-8: csv.reader then reads
    the file, as the reference for short rows and errors.
    """
    header = _plain_header(path)
    if header is None or any(col not in header for col in needed):
        return None
    index = {name: j for j, name in enumerate(header)}  # the last of repeated names
    usecols = sorted({index[col] for col in kept})  # kuairec's user_id is id and feature: parse it once
    try:
        table = np.loadtxt(path, dtype=object, delimiter=",", quotechar=None, comments=None,
                           skiprows=1, usecols=usecols, encoding="utf-8", ndmin=2)
    except ValueError:
        return None
    return {col: table[:, usecols.index(index[col])] for col in kept}


def _split_csv(path, needed: list[str], kept: list[str]) -> dict[str, list]:
    """The kept columns as csv.reader reads them, with DictReader's rules."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            missing = [col for col in needed if col not in header]
            if missing:
                raise ValueError(f"{path}: missing configured columns {missing}")
            index = {name: j for j, name in enumerate(header)}  # the last of repeated names
            # one list per kept column, filled as the rows stream past, so no
            # row list outlives its line
            cells = {index[col]: [] for col in kept}
            appends = [(j, cells[j].append) for j in cells]
            width = max(cells) + 1
            for row in reader:
                if len(row) < width:
                    if not row:
                        continue
                    row += [None] * (width - len(row))
                for j, append in appends:
                    append(row[j])
        except csv.Error as exc:
            raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError:
            raise ValueError(f"{path}, {_not_utf8(path)}") from None
    return {col: cells[index[col]] for col in kept}


def load_csv(path, schema: SchemaConfig, c: float = 1.0, *, targets_only: bool = False,
             rows: Callable[[int], np.ndarray] | None = None) -> Dataset:
    """Parse a UTF-8 CSV with header row into a Dataset; a byte-order mark
    that starts the file (as Excel writes) is dropped.

    Reads as csv.DictReader would: blank lines are dropped and not counted,
    cells missing from a short row read as None, and of repeated header
    names the last one wins.  An empty id becomes the row's index.  Raises
    on a missing file, a missing configured column, malformed CSV or bytes
    that are not UTF-8 (ValueError naming the file and line), or zero usable
    rows; bad rows are skipped and counted instead.

    Two readers give that result.  A file with no quote or CR byte, a
    non-blank first line, no line beyond ``csv.field_size_limit()``, at
    least one non-blank row and every non-blank row long enough for the kept
    columns is split in C by ``np.loadtxt``; csv.reader reads every other
    file, and so gives every skip of a short row and every error.

    With ``targets_only`` the header is checked against every configured
    column as before, but only the target cells are kept: the rows, skips
    and errors are those of the full read, while the ids are None and there
    are no feature columns.

    ``rows``, when given, maps the usable-row count to the indices of the
    usable rows to keep, in order (``split`` gives one part); only the ids,
    feature cells and targets of those rows make up the dataset.
    """
    check_c(c)
    needed = [schema.id_column, schema.target_column, *schema.feature_columns]
    kept = [schema.target_column] if targets_only else needed
    columns = _split_plain(path, needed, kept)
    if columns is None:
        columns = _split_csv(path, needed, kept)

    raw = _floats(columns[schema.target_column])
    with np.errstate(over="ignore"):
        keep = np.flatnonzero(_usable(c * raw))
    skipped = len(raw) - len(keep)
    if not len(keep):
        raise ValueError(f"{path}: no usable rows (skipped {skipped})")
    if rows is not None:
        keep = keep[rows(len(keep))]
    if targets_only:
        return Dataset(np.full(len(keep), None, dtype=object), raw[keep], {}, c=c, skipped=skipped)
    # Whole columns are interned in file order, then the kept rows gathered:
    # interning only the kept cells, in their shuffled order, is slower.  The
    # id column may also be a feature column (kuairec's user_id): intern it once.
    text_columns = dict.fromkeys((schema.id_column, *schema.feature_columns))
    text = {col: _interned(columns[col])[keep] for col in text_columns}
    ids = [cell or str(i) for cell, i in zip(text[schema.id_column].tolist(), keep.tolist())]
    features = {col: text[col] for col in schema.feature_columns}
    return Dataset(ids, raw[keep], features, c=c, skipped=skipped)


def check_ratio(ratio: float) -> None:
    if not 0 < ratio < 1:
        raise ValueError(f"split ratio must be in (0, 1), got {ratio}")


def split(n: int, ratio: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The row indices of the train and test parts of n rows: a seeded
    shuffle whose first floor(ratio * n) rows become the train part.
    ValueError when either part would be empty."""
    check_ratio(ratio)
    cut = int(ratio * n)
    if not 0 < cut < n:
        raise ValueError(f"split ratio {ratio} of {n} rows leaves the {'test' if cut else 'train'} part empty")
    perm = np.random.default_rng(seed).permutation(n)
    return perm[:cut], perm[cut:]


def write_csv(path, header: list, rows) -> None:
    """A UTF-8 CSV: the header row, then ``rows``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_predictions(path, dataset: Dataset, predictions) -> None:
    """Per-row CSV: (id, raw_target, prediction), unscaled units."""
    preds = np.asarray(predictions, dtype=np.float64).tolist()
    write_csv(path, ["id", "raw_target", "prediction"],
              zip(dataset.ids.tolist(), map(repr, dataset.raw_targets.tolist()), map(repr, preds)))


def write_json(path, obj, indent: int | None = None) -> None:
    """``obj`` as UTF-8 JSON with sorted keys and one final newline; ValueError
    on a NaN or infinity, which JSON cannot hold."""
    Path(path).write_text(json.dumps(obj, indent=indent, sort_keys=True, allow_nan=False) + "\n",
                          encoding="utf-8")


def read_json(path, from_dict):
    """``from_dict`` of the parsed file; any ValueError (the parser's too) gains the path."""
    try:
        return from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def json_field(d: dict, name: str, kind, prefix: str = ""):
    """The value at the dotted ``name`` in nested JSON objects; ValueError
    naming the field when it is absent or not a ``kind`` (no bool passes as int).

    ``prefix`` is the dotted path of ``d`` in its document, such as
    ``"scheme."``; the error names the field by its full path.
    """
    value = d
    for key in name.split("."):
        if not isinstance(value, dict) or key not in value:
            raise ValueError(f"missing field {prefix + name!r}")
        value = value[key]
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is int):
        raise ValueError(f"field {prefix + name!r} has the wrong type ({type(value).__name__})")
    return value
