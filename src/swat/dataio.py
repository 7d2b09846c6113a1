"""CSV ingestion, target scaling, train/test splitting, prediction output.

Targets are scaled to the integer domain the heads need: target =
round(c * raw_target).  Rows with negative or unparseable targets are skipped
and counted.  Metrics run on unscaled predictions against raw targets, so
reported errors stay in the original units.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass

import numpy as np

_TOKEN_SPLIT = re.compile(r"[|\s]+")


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
    target: int


@dataclass(frozen=True)
class Dataset:
    samples: tuple[Sample, ...]
    c: float
    source: str = ""
    skipped: int = 0

    def __post_init__(self) -> None:
        if not self.samples:
            raise ValueError("dataset is empty")
        if self.c <= 0:
            raise ValueError(f"scaling constant must be positive, got {self.c}")

    def __len__(self) -> int:
        return len(self.samples)

    def targets(self) -> np.ndarray:
        return np.asarray([s.target for s in self.samples], dtype=np.int64)

    def raw_targets(self) -> np.ndarray:
        return np.asarray([s.raw_target for s in self.samples], dtype=np.float64)


def scale_target(raw: float, c: float) -> int:
    return int(round(c * raw))


def unscale(prediction: float, c: float) -> float:
    if c <= 0:
        raise ValueError(f"scaling constant must be positive, got {c}")
    return prediction / c


def load_csv(path, schema: SchemaConfig, c: float = 1.0) -> Dataset:
    """Parse a UTF-8 CSV with header row into a Dataset.

    Raises on a missing file, a missing configured column, or zero usable
    rows; bad target rows are skipped and counted instead.
    """
    if c <= 0:
        raise ValueError(f"scaling constant must be positive, got {c}")
    samples: list[Sample] = []
    skipped = 0
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        needed = [schema.id_column, schema.target_column, *schema.feature_columns, *schema.numeric_columns]
        missing = [col for col in needed if col not in header]
        if missing:
            raise ValueError(f"{path}: missing configured columns {missing}")
        for i, row in enumerate(reader):
            try:
                raw = float(row[schema.target_column])
            except (TypeError, ValueError):
                skipped += 1
                continue
            if raw < 0 or not np.isfinite(raw):
                skipped += 1
                continue
            tokens: list[str] = []
            for col in schema.feature_columns:
                cell = (row[col] or "").strip()
                tokens.extend(f"{col}={tok}" for tok in _TOKEN_SPLIT.split(cell) if tok)
            try:
                numeric = tuple(float(row[col]) for col in schema.numeric_columns)
            except (TypeError, ValueError):
                skipped += 1
                continue
            samples.append(
                Sample(
                    id=row[schema.id_column] or str(i),
                    categorical_ids=tuple(tokens),
                    numeric=numeric,
                    raw_target=raw,
                    target=scale_target(raw, c),
                )
            )
    if not samples:
        raise ValueError(f"{path}: no usable rows (skipped {skipped})")
    return Dataset(tuple(samples), c=c, source=str(path), skipped=skipped)


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
        Dataset(train, c=dataset.c, source=dataset.source, skipped=dataset.skipped),
        Dataset(test, c=dataset.c, source=dataset.source, skipped=dataset.skipped),
    )


def write_predictions(path, dataset: Dataset, predictions) -> None:
    """Per-sample CSV: (id, raw_target, prediction), unscaled units."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "raw_target", "prediction"])
        for sample, pred in zip(dataset.samples, predictions):
            writer.writerow([sample.id, repr(sample.raw_target), repr(float(pred))])

