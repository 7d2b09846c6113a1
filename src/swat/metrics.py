"""Evaluation metrics: MAE, pairwise-ordering XAUC, Pearson correlation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

@dataclass(frozen=True)
class EvalReport:
    """Metric bundle for one prediction run."""

    mae: float
    xauc: float
    pearson: float
    n: int
    xauc_pairs: int

    def table(self) -> str:
        rows = [
            ("samples", f"{self.n}"),
            ("mae", f"{self.mae:.6f}"),
            ("xauc", f"{self.xauc:.6f}"),
            ("pearson", f"{self.pearson:.6f}"),
            ("xauc_pairs", f"{self.xauc_pairs}"),
        ]
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows)


def _pair(preds, targets) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(preds, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if p.shape != t.shape or p.ndim != 1:
        raise ValueError(f"predictions {p.shape} and targets {t.shape} must be equal-length vectors")
    return p, t


def mae(preds, targets) -> float:
    p, t = _pair(preds, targets)
    if len(p) == 0:
        raise ValueError("mae needs at least one sample")
    return float(np.mean(np.abs(p - t)))


def _inversions(values: np.ndarray) -> int:
    """Pairs i < j with values[i] > values[j], by a bottom-up merge count.

    Values become dense ranks.  At width w every block of w ranks is sorted;
    keying each rank by the index of its pair of blocks makes all left blocks
    one sorted array, so one searchsorted counts, for every right-block rank,
    the left-block ranks above it, and one sort of the same keys merges each
    pair of blocks.
    """
    ranks = np.unique(values, return_inverse=True)[1]
    n = len(ranks)
    idx = np.arange(n)
    count, width = 0, 1
    while width < n:
        pair = idx // (2 * width)
        keys = pair * n + ranks
        right = (idx // width) % 2 == 1
        left = keys[~right]
        above = np.searchsorted(left, (pair[right] + 1) * n) - np.searchsorted(left, keys[right], "right")
        count += int(above.sum())
        ranks = np.sort(keys) - pair * n
        width *= 2
    return count


def xauc(preds, targets) -> tuple[float, int]:
    """Mean pairwise ordering score over all pairs, and the number of pairs.

    A pair scores 1 when predictions order the same way as targets, 0 when
    they order oppositely, and 0.5 when either side is tied, so the score is
    0.5 + (C - D) / (2 P) with C concordant and D discordant of P pairs.
    Exact in O(n log n): ordered by target with tied targets by ascending
    prediction, D is the number of inversions among the predictions; with
    tied targets by descending prediction instead, C is the number of
    inversions among the negated predictions.  Pairs tied on either side
    count in neither.
    """
    p, t = _pair(preds, targets)
    n = len(p)
    if n < 2:
        raise ValueError("xauc needs at least two samples")
    if np.isnan(p).any() or np.isnan(t).any():
        raise ValueError("xauc is undefined for NaN values")
    discordant = _inversions(p[np.lexsort((p, t))])
    concordant = _inversions(-p[np.lexsort((-p, t))])
    pairs = n * (n - 1) // 2
    return 0.5 + (concordant - discordant) / (2 * pairs), pairs


def pearson(preds, targets) -> float:
    """The correlation of two vectors; NaN when either is constant, where it is undefined.

    Each vector is first scaled by the power of two that brings its largest
    magnitude into [0.5, 1).  That changes no bit of the result wherever the
    unscaled sums stay in the float range, and keeps them in it at any scale.
    """
    p, t = _pair(preds, targets)
    if len(p) < 2:
        raise ValueError("pearson needs at least two samples")
    # tested exactly: the rounded mean of equal values need not equal them,
    # so the deviations of a constant vector need not be zero
    if p.min() == p.max() or t.min() == t.max():
        return float("nan")
    p, t = (np.ldexp(v, -np.frexp(np.abs(v).max())[1]) for v in (p, t))
    dp = p - p.mean()
    dt = t - t.mean()
    denom = np.sqrt((dp * dp).sum() * (dt * dt).sum())
    return float((dp * dt).sum() / denom)


def evaluate(preds, targets) -> EvalReport:
    x, pairs = xauc(preds, targets)
    return EvalReport(
        mae=mae(preds, targets),
        xauc=x,
        pearson=pearson(preds, targets),
        n=len(np.asarray(preds)),
        xauc_pairs=pairs,
    )
