"""Bucketization of the video horizon.

A scheme is a strictly increasing list of integer endpoints x_1 < ... < x_N
partitioning [0, inf) into buckets B_i = (x_{i-1}, x_i] with x_0 = 0 and the
open bucket (x_N, inf).  Whether a law reads that open bucket is up to its
head (``heads.HEADS``), not the scheme.

The percentile constructors take the targets as a sequence or an array and
sort them with ``np.sort``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from math import ceil, inf
from typing import Iterable, Sequence

import numpy as np

from . import dataio


@dataclass(frozen=True)
class BucketScheme:
    """Immutable bucketization; all operations are pure."""

    endpoints: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.endpoints:
            raise ValueError("bucket scheme needs at least one endpoint")
        prev = 0
        for x in self.endpoints:
            if not -inf < x < inf or int(x) != x:  # nan and +-inf have no int
                raise ValueError(f"endpoint {x!r} is not an integer")
            if x <= prev:
                raise ValueError(
                    f"endpoints must be strictly increasing positive integers, got {self.endpoints}"
                )
            prev = x
        if prev >= 2**63:  # the targets, seconds and draws are int64
            raise ValueError(f"endpoint {prev} is not below 2**63")
        object.__setattr__(self, "endpoints", tuple(map(int, self.endpoints)))  # one form: Python ints
        # not a field, so asdict, equality and hashing see the endpoints alone
        object.__setattr__(self, "widths", tuple(b - a for a, b in zip((0,) + self.endpoints, self.endpoints)))

    @property
    def n_buckets(self) -> int:
        return len(self.endpoints)

    @classmethod
    def from_dict(cls, d, prefix: str = "") -> "BucketScheme":
        """Inverse of ``dataclasses.asdict``, which ignores any other key; ValueError
        naming the field that is missing or ill-typed, by its path in the
        document when ``prefix`` gives the scheme's (``"scheme."`` inside a model)."""
        if not isinstance(d, dict):
            raise ValueError(f"a scheme is a JSON object, got {type(d).__name__}")
        endpoints = dataio.json_field(d, "endpoints", list, prefix)
        if not all(type(x) is int for x in endpoints):
            raise ValueError(f"field '{prefix}endpoints' must be a list of integers")
        return cls(tuple(endpoints))

    def save(self, path, c: float) -> None:
        """Write the scheme and ``c``, the target scale its endpoints were built at."""
        dataio.write_json(path, asdict(self) | {"c": float(c)})

    @classmethod
    def load(cls, path) -> tuple["BucketScheme", float]:
        """Read a ``save``d scheme and its ``c``; ValueError naming the file when
        it is not one.  ``c`` is checked after the scheme's own fields."""
        def parse(d):
            scheme = cls.from_dict(d)
            if "c" not in d:  # written before schemes recorded it
                raise ValueError("no field 'c', the scale the scheme was built at; "
                                 "rebuild it with swat buckets")
            c = dataio.json_field(d, "c", float)
            dataio.check_c(c)
            return scheme, c
        return dataio.read_json(path, parse)


def from_endpoints(raw: Iterable[int]) -> BucketScheme:
    """Build a scheme from raw endpoint candidates: sort, dedup, keep positives."""
    values = list(raw)
    if not values:
        raise ValueError("no endpoints given")
    kept = sorted({v for v in values if v >= 1})  # the scheme checks that each is an integer
    if not kept:
        raise ValueError(f"no positive endpoint among {values}")
    return BucketScheme(tuple(kept))


def check_percent_step(percent_step) -> Fraction:
    """The percentile grid step as an exact fraction; ValueError unless it
    is finite and in (0, 50]."""
    try:
        step = Fraction(str(percent_step))  # exact for int, float and Fraction
    except ValueError:  # nan and inf have no fraction
        step = None
    if step is None or not 0 < step <= 50:
        raise ValueError(f"percent_step must be in (0, 50], got {percent_step}")
    return step


def _percentile_values(sorted_targets: np.ndarray, qs: Iterable[Fraction]) -> list[int]:
    """Empirical q-percentiles: element at 1-based index ceil(q*n/100)."""
    n = len(sorted_targets)
    out = []
    for q in qs:
        idx = ceil(q * n / 100)
        out.append(int(round(sorted_targets[min(max(idx, 1), n) - 1])))
    return out


def _grid(step: Fraction, upto: int = 100) -> list[Fraction]:
    qs = [step * k for k in range(1, int(upto / step) + 1)]
    if upto == 100 and (not qs or qs[-1] != 100):
        qs.append(Fraction(100))
    return qs


def _sorted(targets: Sequence[int] | np.ndarray) -> np.ndarray:
    """The targets sorted by ``np.sort``; ValueError when there are none, or
    when the largest rounds below 1, so that no percentile is an endpoint."""
    srt = np.sort(np.asarray(targets))
    if not len(srt):
        raise ValueError("no targets given")
    if round(srt[-1]) < 1:
        raise ValueError(f"no positive endpoint: all {len(srt)} targets round below 1 "
                         f"(the largest is {srt[-1]})")
    return srt


def from_percentiles(targets: Sequence[int] | np.ndarray, percent_step) -> BucketScheme:
    """Endpoints at the percent_step, 2*percent_step, ..., 100 percentiles.

    The targets are a sequence or an array; they are sorted in numpy.  The
    maximum (100-percentile) is always an endpoint; duplicates and
    non-positive values are dropped.
    """
    srt = _sorted(targets)
    # a step below 100/n skips no sorted target, so 100/n gives the same scheme
    # with n grid points instead of 100/step
    step = max(check_percent_step(percent_step), Fraction(100, len(srt)))
    return from_endpoints(_percentile_values(srt, _grid(step)))


# choice -> (grid step, the percentile the grid goes up to, the grid step above it)
ABLATIONS = {1: (5, 100, None), 2: (2, 100, None), 3: (1, 100, None),
              4: (2, 96, 5), 5: (2, 96, 2), 6: (1, 90, 1)}


def ablation_choice(targets: Sequence[int] | np.ndarray, choice: int) -> BucketScheme:
    """One of six endpoint constructions over the target distribution.

    1: 5-percentile grid
    2: 2-percentile grid
    3: 1-percentile grid
    4: 2-percentile grid to the 96th percentile + 5-percentile grid of the top 4%
    5: 2-percentile grid to the 96th percentile + 2-percentile grid of the top 4%
    6: 1-percentile grid to the 90th percentile + 1-percentile grid of the top 10%
    Duplicates are removed after concatenation.  The targets are sorted in numpy.
    """
    srt = _sorted(targets)
    if choice not in ABLATIONS:
        raise ValueError(f"choice must be one of {sorted(ABLATIONS)}, got {choice}")
    step, upto, top_step = ABLATIONS[choice]
    if upto == 100:
        return from_percentiles(srt, step)
    head = _percentile_values(srt, _grid(Fraction(step), upto))
    top = srt[ceil(Fraction(upto) * len(srt) / 100):]
    tail = _percentile_values(top, _grid(Fraction(top_step))) if len(top) else [int(round(srt[-1]))]
    return from_endpoints(head + tail)
