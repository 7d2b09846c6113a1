"""CSV ingestion, target scaling, train/test splitting, prediction output.

A dataset holds the usable rows of one CSV as columns: ids, raw targets,
and the raw cells of each feature column.  Cells are tokenised only when a
model encodes them (``tokenize``), so reading the targets alone never
tokenises.  The integer targets the heads need are derived per dataset:
``Dataset.targets()`` = round(c * raw_target), half to even.  Rows whose
target is unparseable, negative, not finite or scales beyond int64 are
skipped and counted.  Metrics run on unscaled predictions (prediction / c)
against raw targets, so reported errors stay in the original units.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass

import numpy as np

_TARGET_LIMIT = 2.0**63  # scaled targets must round into int64
_LINE_END = re.compile(rb"\r\n|\r|\n")  # the line ends csv.reader counts with newline=""


@dataclass(frozen=True)
class SchemaConfig:
    """Column mapping for one CSV layout.

    Cells of categorical columns may hold several tokens separated by
    whitespace or '|'; tokens are namespaced by their column name.
    """

    id_column: str
    feature_columns: tuple[str, ...]
    target_column: str


DEFAULT_SCHEMAS = {
    # shape emitted by the `swat simulate` subcommand
    "sim": SchemaConfig("sample_id", ("feat",), "watch_time"),
    # dense user/video interaction logs (play_duration target, c = 50)
    "kuairec": SchemaConfig("user_id", ("user_id", "video_id"), "play_duration"),
    # session logs with item-list features (dwell-time target, c = 100)
    "cikm": SchemaConfig("session_id", ("items",), "dwell_time"),
}

DEFAULT_C = {"sim": 1.0, "kuairec": 50.0, "cikm": 100.0}


def tokenize(column: str, cell: str | None) -> list[str]:
    """Tokens of one feature cell: split on whitespace and '|', each prefixed
    with its column name.  An absent cell has none."""
    return [f"{column}={tok}" for tok in (cell or "").replace("|", " ").split()]


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
    (a feature cell missing from a short CSV row is None); ``raw_targets``
    is (n,) float64.
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
        _check_c(self.c)
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
        columns.  The benchmark change of ROADMAP item 1, which takes that
        count from the library instead, deletes this view and Sample.
        """
        tokens = [[] for _ in range(len(self))]
        for col, cells in self.features.items():
            for row, cell in zip(tokens, cells.tolist()):
                row.extend(tokenize(col, cell))
        rows = zip(self.ids.tolist(), tokens, self.raw_targets.tolist())
        return tuple(Sample(i, tuple(toks), raw) for i, toks, raw in rows)


def _check_c(c: float) -> None:
    if not (math.isfinite(c) and c > 0):
        raise ValueError(f"scaling constant must be positive and finite, got {c}")


def _float_or_nan(cell) -> float:
    try:
        return float(cell)
    except (TypeError, ValueError):
        return math.nan


def _floats(cells: list) -> np.ndarray:
    """float(cell) of each cell; NaN, which every skip rule rejects, where a
    cell is absent or no number."""
    return np.fromiter(map(_float_or_nan, cells), np.float64, len(cells))


def _interned(cells: list) -> np.ndarray:
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


def load_csv(path, schema: SchemaConfig, c: float = 1.0) -> Dataset:
    """Parse a UTF-8 CSV with header row into a Dataset.

    Reads as csv.DictReader would: blank lines are dropped and not counted,
    cells missing from a short row read as None, and of repeated header
    names the last one wins.  An empty id becomes the row's index.  Raises
    on a missing file, a missing configured column, malformed CSV or bytes
    that are not UTF-8 (ValueError naming the file and line), or zero usable
    rows; bad rows are skipped and counted instead.
    """
    _check_c(c)
    needed = [schema.id_column, schema.target_column, *schema.feature_columns]
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            missing = [col for col in needed if col not in header]
            if missing:
                raise ValueError(f"{path}: missing configured columns {missing}")
            index = {name: j for j, name in enumerate(header)}  # the last of repeated names
            width = max(index[col] for col in needed) + 1
            rows = []
            for row in reader:
                if len(row) < width:
                    if not row:
                        continue
                    row += [None] * (width - len(row))
                rows.append(row)
        except csv.Error as exc:
            raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError:
            raise ValueError(f"{path}, {_not_utf8(path)}") from None
    cells = {j: [row[j] for row in rows] for j in {index[col] for col in needed}}
    del rows

    def column(name: str) -> list:
        return cells[index[name]]

    raw = _floats(column(schema.target_column))
    with np.errstate(over="ignore"):
        scaled = c * raw
    keep = np.flatnonzero((0.0 <= scaled) & (scaled < _TARGET_LIMIT))
    skipped = len(raw) - len(keep)
    if not len(keep):
        raise ValueError(f"{path}: no usable rows (skipped {skipped})")
    text = {index[col]: _interned(column(col)) for col in (schema.id_column, *schema.feature_columns)}
    id_cells = text[index[schema.id_column]].tolist()
    ids = [id_cells[i] or str(i) for i in keep.tolist()]
    features = {col: text[index[col]][keep] for col in schema.feature_columns}
    return Dataset(ids, raw[keep], features, c=c, skipped=skipped)


def split(dataset: Dataset, ratio: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded shuffle; the first floor(ratio * n) rows become the train set."""
    if not 0 < ratio < 1:
        raise ValueError(f"split ratio must be in (0, 1), got {ratio}")
    n = len(dataset)
    if n < 2:
        raise ValueError("need at least two samples to split")
    perm = np.random.default_rng(seed).permutation(n)
    cut = int(ratio * n)
    return dataset.take(perm[:cut]), dataset.take(perm[cut:])


def write_predictions(path, dataset: Dataset, predictions) -> None:
    """Per-row CSV: (id, raw_target, prediction), unscaled units."""
    preds = np.asarray(predictions, dtype=np.float64).tolist()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "raw_target", "prediction"])
        writer.writerows(zip(dataset.ids.tolist(), map(repr, dataset.raw_targets.tolist()), map(repr, preds)))
