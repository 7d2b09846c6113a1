"""Seconds watched per bucket, and the soft labels read from them.

Under the sequential-until-bored reading of a log record, t seconds fill
every bucket before the one holding t and t - x_{i-1} seconds of that one.
`seconds` encodes a batch of watch times so, with a last column for the
seconds past x_N; both bucketized likelihoods read it.  The binomial head's
label for bucket i is the fraction watched, seconds_i / (x_i - x_{i-1}),
which `matrix` returns (t beyond x_N fills every bucket).  `decode` inverts
one label row and accepts exactly the rows `matrix` produces.
"""

from __future__ import annotations

import numpy as np

from .buckets import BucketScheme


def seconds(scheme: BucketScheme, targets: np.ndarray) -> np.ndarray:
    """(n,) non-negative integer targets -> (n, N + 1) seconds watched in each
    bucket; column N holds the seconds past x_N."""
    t = np.asarray(targets, dtype=np.int64)
    ends = np.asarray(scheme.endpoints, dtype=np.int64)
    lows = np.concatenate(([0], ends))
    in_idx = np.searchsorted(ends, t, side="left")  # bucket holding t, 0-based, N = tail
    n = scheme.n_buckets + 1
    widths_ext = np.concatenate((np.asarray(scheme.widths, dtype=np.float64), [0.0]))
    # row k: the widths of the buckets before bucket k, 0 from column k on
    watched_through = np.tril(np.broadcast_to(widths_ext, (n, n)), k=-1)
    out = watched_through[in_idx]
    out[np.arange(len(t)), in_idx] = t - lows[in_idx]
    return out


def matrix(scheme: BucketScheme, targets: np.ndarray) -> np.ndarray:
    """(n,) non-negative integer targets -> (n, N) label rows; t beyond x_N gives all ones."""
    return seconds(scheme, targets)[:, :-1] / scheme.widths


def decode(scheme: BucketScheme, row) -> int:
    """Recover the watch time one label row encodes.

    Raises on rows of the wrong length, labels outside [0, 1] and rows
    `matrix` never produces; an all-ones row decodes to x_N.
    """
    vals = np.asarray(row, dtype=np.float64)
    if vals.shape != (scheme.n_buckets,):
        raise ValueError(
            f"label shape {vals.shape} does not match scheme with {scheme.n_buckets} buckets"
        )
    if not np.all((vals >= 0.0) & (vals <= 1.0)):
        raise ValueError(f"label outside [0, 1] in {vals}")
    t = round(float(vals @ scheme.widths))
    if np.max(np.abs(matrix(scheme, [t])[0] - vals)) > 1e-9:
        raise ValueError(f"labels must be non-increasing with at most one partial bucket, got {vals}")
    return t
