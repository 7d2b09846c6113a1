"""CSV ingestion, target scaling, train/test splitting, prediction output.

A sample holds only what its CSV row says.  The integer targets the heads
need are derived per dataset: ``Dataset.targets()`` = round(c * raw_target),
half to even.  Rows whose target is unparseable, negative, not finite or
scales beyond int64, and rows with an unparseable or non-finite numeric
cell, are skipped and counted.  Metrics run on unscaled predictions
(prediction / c) against raw targets, so reported errors stay in the
original units.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass

import numpy as np

_TOKEN_SPLIT = re.compile(r"[|\s]+")
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
    numeric_columns: tuple[str, ...] = ()


DEFAULT_SCHEMAS = {
    # shape emitted by the `swat simulate` subcommand
    "sim": SchemaConfig("sample_id", ("feat",), "watch_time"),
    # dense user/video interaction logs (play_duration target, c = 50)
    "kuairec": SchemaConfig("user_id", ("user_id", "video_id"), "play_duration"),
    # session logs with item-list features (dwell-time target, c = 100)
    "cikm": SchemaConfig("session_id", ("items",), "dwell_time"),
}

DEFAULT_C = {"sim": 1.0, "kuairec": 50.0, "cikm": 100.0}


@dataclass(frozen=True)
class Sample:
    id: str
    categorical_ids: tuple[str, ...]
    numeric: tuple[float, ...]
    raw_target: float


@dataclass(frozen=True)
class Dataset:
    samples: tuple[Sample, ...]
    c: float
    skipped: int = 0

    def __post_init__(self) -> None:
        if not self.samples:
            raise ValueError("dataset is empty")
        if self.c <= 0:
            raise ValueError(f"scaling constant must be positive, got {self.c}")

    def __len__(self) -> int:
        return len(self.samples)

    def targets(self) -> np.ndarray:
        """Integer targets round(c * raw_target) on the bucket grid."""
        return np.rint(self.c * self.raw_targets()).astype(np.int64)

    def raw_targets(self) -> np.ndarray:
        return np.asarray([s.raw_target for s in self.samples], dtype=np.float64)


def _finite_float(cell) -> float:
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {cell!r}")
    return value


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

    Raises on a missing file, a missing configured column, malformed CSV or
    bytes that are not UTF-8 (ValueError naming the file and line), or zero
    usable rows; bad rows are skipped and counted instead.
    """
    if c <= 0:
        raise ValueError(f"scaling constant must be positive, got {c}")
    samples: list[Sample] = []
    skipped = 0
    needed = [schema.id_column, schema.target_column, *schema.feature_columns, *schema.numeric_columns]
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
                if not 0.0 <= c * raw < _TARGET_LIMIT:
                    skipped += 1
                    continue
                tokens: list[str] = []
                for col in schema.feature_columns:
                    cell = (row[col] or "").strip()
                    tokens.extend(f"{col}={tok}" for tok in _TOKEN_SPLIT.split(cell) if tok)
                try:
                    numeric = tuple(_finite_float(row[col]) for col in schema.numeric_columns)
                except (TypeError, ValueError):
                    skipped += 1
                    continue
                samples.append(Sample(row[schema.id_column] or str(i), tuple(tokens), numeric, raw))
        except csv.Error as exc:
            # DictReader.line_num lags on a failed row; its inner reader's does not
            raise ValueError(f"{path}, line {reader.reader.line_num}: {exc}") from None
        except UnicodeDecodeError:
            raise ValueError(f"{path}, {_not_utf8(path)}") from None
    if not samples:
        raise ValueError(f"{path}: no usable rows (skipped {skipped})")
    return Dataset(tuple(samples), c=c, skipped=skipped)


def split(dataset: Dataset, ratio: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded shuffle; the first floor(ratio * n) samples become the train set."""
    if not 0 < ratio < 1:
        raise ValueError(f"split ratio must be in (0, 1), got {ratio}")
    n = len(dataset)
    if n < 2:
        raise ValueError("need at least two samples to split")
    perm = np.random.default_rng(seed).permutation(n)
    cut = int(ratio * n)
    train = tuple(dataset.samples[i] for i in perm[:cut])
    test = tuple(dataset.samples[i] for i in perm[cut:])
    return (
        Dataset(train, c=dataset.c, skipped=dataset.skipped),
        Dataset(test, c=dataset.c, skipped=dataset.skipped),
    )


def write_predictions(path, dataset: Dataset, predictions) -> None:
    """Per-sample CSV: (id, raw_target, prediction), unscaled units."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "raw_target", "prediction"])
        for sample, pred in zip(dataset.samples, predictions):
            writer.writerow([sample.id, repr(sample.raw_target), repr(float(pred))])

