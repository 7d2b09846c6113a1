"""Per-bucket soft labels for an observed total watch time.

Under the sequential-until-bored reading of a log record, bucket i's label is
the fraction of the bucket watched:

    l_i = 0                              t <= x_{i-1}
    l_i = 1                              t >  x_i
    l_i = (t - x_{i-1}) / (x_i - x_{i-1})   otherwise

`matrix` encodes a batch of watch times, one label row each.  Valid rows are
non-increasing with at most one fractional entry, so `decode` recovers the
observed time from a row exactly.
"""

from __future__ import annotations

import numpy as np

from .buckets import BucketScheme


def matrix(scheme: BucketScheme, targets: np.ndarray) -> np.ndarray:
    """(n,) integer targets -> (n, N) label rows; t beyond x_N clips to all ones."""
    t = np.asarray(targets, dtype=np.float64)[:, None]
    lo = np.array((0,) + scheme.endpoints[:-1], dtype=np.float64)[None, :]
    widths = np.array(scheme.widths, dtype=np.float64)[None, :]
    return np.clip((t - lo) / widths, 0.0, 1.0)


def decode(scheme: BucketScheme, row) -> int:
    """Recover the watch time one label row encodes.

    Raises on rows of the wrong length, labels outside [0, 1] and
    non-monotone rows; clipped (all-ones of an over-horizon time) rows
    decode to x_N.
    """
    vals = np.asarray(row, dtype=np.float64)
    if vals.shape != (scheme.n_buckets,):
        raise ValueError(
            f"label shape {vals.shape} does not match scheme with {scheme.n_buckets} buckets"
        )
    if not np.all((vals >= 0.0) & (vals <= 1.0)):
        raise ValueError(f"label outside [0, 1] in {vals}")
    if np.any(np.diff(vals) > 1e-12):
        raise ValueError(f"labels must be non-increasing, got {vals}")
    watched = np.flatnonzero(vals > 0.0)
    if not watched.size:
        return 0
    last = int(watched[-1]) + 1
    return scheme.lower(last) + int(round(vals[last - 1] * scheme.widths[last - 1]))
