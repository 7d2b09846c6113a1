"""Quality metrics the benchmark computes itself from `predictions.csv`.

XAUC here is exact and tie-aware: every pair of samples scores 1 when the
predictions order it like the targets, 0 when they order it oppositely and
0.5 when either side is tied.  It counts concordant minus discordant pairs
with Kendall's tau in O(n log n), so it does not depend on how
`swat.metrics` samples pairs.
"""

from __future__ import annotations

import csv

import numpy as np
from scipy.stats import kendalltau


def _tied_pairs(*columns: np.ndarray) -> int:
    """Pairs equal in every given column."""
    _, counts = np.unique(np.stack(columns, axis=1), axis=0, return_counts=True)
    counts = counts.astype(np.int64)
    return int((counts * (counts - 1) // 2).sum())


def exact_xauc(preds, targets) -> float:
    p = np.asarray(preds, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if p.shape != t.shape or p.ndim != 1 or len(p) < 2:
        raise ValueError(f"need two equal-length vectors of at least two samples, got {p.shape}, {t.shape}")
    n = len(p)
    pairs = n * (n - 1) // 2
    tied_p, tied_t, tied_both = _tied_pairs(p), _tied_pairs(t), _tied_pairs(p, t)
    untied = pairs - tied_p - tied_t + tied_both  # pairs tied on neither side
    if untied == 0:
        return 0.5
    # tau_b = (C - D) / sqrt((pairs - tied_p) * (pairs - tied_t)); C - D is an integer.
    tau = kendalltau(p, t, variant="b").statistic
    con_minus_dis = round(float(tau) * np.sqrt(float(pairs - tied_p)) * np.sqrt(float(pairs - tied_t)))
    concordant = (untied + con_minus_dis) // 2
    return (concordant + 0.5 * (pairs - untied)) / pairs


def mae(preds, targets) -> float:
    p = np.asarray(preds, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    return float(np.mean(np.abs(p - t)))


def read_predictions(path) -> tuple[np.ndarray, np.ndarray]:
    """(raw_target, prediction) columns of a `swat eval` predictions.csv."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["id", "raw_target", "prediction"]:
            raise ValueError(f"{path}: unexpected header {header}")
        rows = [(float(r[1]), float(r[2])) for r in reader]
    values = np.asarray(rows, dtype=np.float64).reshape(-1, 2)
    return values[:, 0], values[:, 1]
