"""Bucketization of the video horizon.

A scheme is a strictly increasing list of integer endpoints x_1 < ... < x_N
partitioning [0, inf) into buckets B_i = (x_{i-1}, x_i] with x_0 = 0.  When
``tail_open`` is set, the unbounded bucket (x_N, inf) participates as bucket
N+1 (geometric-style heads); otherwise watch times beyond x_N clip to bucket N.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from typing import Iterable, Sequence


@dataclass(frozen=True)
class BucketScheme:
    """Immutable bucketization; all operations are pure."""

    endpoints: tuple[int, ...]
    tail_open: bool = False

    def __post_init__(self) -> None:
        if not self.endpoints:
            raise ValueError("bucket scheme needs at least one endpoint")
        prev = 0
        for x in self.endpoints:
            if int(x) != x:
                raise ValueError(f"endpoint {x!r} is not an integer")
            if x <= prev:
                raise ValueError(
                    f"endpoints must be strictly increasing positive integers, got {self.endpoints}"
                )
            prev = x

    @property
    def n_buckets(self) -> int:
        return len(self.endpoints)

    @property
    def widths(self) -> tuple[int, ...]:
        xs = (0,) + self.endpoints
        return tuple(xs[i + 1] - xs[i] for i in range(len(self.endpoints)))

    def bucket_of(self, t: int) -> int:
        """1-based bucket index of watch time t >= 0.

        t = 0 belongs to bucket 1; t beyond x_N maps to the open tail N+1
        when present, else clips to N.
        """
        if t < 0:
            raise ValueError(f"watch time must be non-negative, got {t}")
        i = bisect_left(self.endpoints, t) + 1
        if i > self.n_buckets and not self.tail_open:
            return self.n_buckets
        return i

    def to_dict(self) -> dict:
        return {"endpoints": list(self.endpoints), "tail_open": self.tail_open}

    @classmethod
    def from_dict(cls, d) -> "BucketScheme":
        """Inverse of ``to_dict``; ValueError naming the field that is missing or ill-typed."""
        if not isinstance(d, dict):
            raise ValueError(f"a scheme is a JSON object, got {type(d).__name__}")
        for key in ("endpoints", "tail_open"):
            if key not in d:
                raise ValueError(f"scheme has no {key!r} field")
        endpoints, tail_open = d["endpoints"], d["tail_open"]
        if not isinstance(endpoints, list) or not all(type(x) is int for x in endpoints):
            raise ValueError("scheme field 'endpoints' must be a list of integers")
        if not isinstance(tail_open, bool):
            raise ValueError("scheme field 'tail_open' must be true or false")
        return cls(tuple(endpoints), tail_open)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "BucketScheme":
        """Read a ``save``d scheme; ValueError naming the file when it is not one."""
        with open(path, encoding="utf-8") as fh:
            try:
                return cls.from_dict(json.load(fh))
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None


def from_endpoints(raw: Iterable[int], tail_open: bool = False) -> BucketScheme:
    """Build a scheme from raw endpoint candidates: sort, dedup, keep positives."""
    values = list(raw)
    if not values:
        raise ValueError("no endpoints given")
    kept = sorted({int(v) for v in values if v >= 1})
    if not kept:
        raise ValueError(f"no positive endpoint among {values}")
    return BucketScheme(tuple(kept), tail_open)


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


def _percentile_values(sorted_targets: Sequence[int], qs: Iterable[Fraction]) -> list[int]:
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


def from_percentiles(targets: Sequence[int], percent_step, tail_open: bool = False) -> BucketScheme:
    """Endpoints at the percent_step, 2*percent_step, ..., 100 percentiles.

    The maximum (100-percentile) is always an endpoint; duplicates and
    non-positive values are dropped.
    """
    if not targets:
        raise ValueError("no targets given")
    # a step below 100/n skips no sorted target, so 100/n gives the same scheme
    # with n grid points instead of 100/step
    step = max(check_percent_step(percent_step), Fraction(100, len(targets)))
    return from_endpoints(_percentile_values(sorted(targets), _grid(step)), tail_open)


def ablation_choice(targets: Sequence[int], choice: int, tail_open: bool = False) -> BucketScheme:
    """One of six endpoint constructions over the target distribution.

    1: 5-percentile grid
    2: 2-percentile grid
    3: 1-percentile grid
    4: 2-percentile grid to the 96th percentile + 5-percentile grid of the top 4%
    5: 2-percentile grid to the 96th percentile + 2-percentile grid of the top 4%
    6: 1-percentile grid to the 90th percentile + 1-percentile grid of the top 10%
    Duplicates are removed after concatenation.
    """
    if not targets:
        raise ValueError("no targets given")
    if choice not in (1, 2, 3, 4, 5, 6):
        raise ValueError(f"choice must be 1..6, got {choice}")
    srt = sorted(targets)

    if choice in (1, 2, 3):
        step = {1: 5, 2: 2, 3: 1}[choice]
        return from_percentiles(srt, step, tail_open)

    head_step, head_upto, tail_step = {
        4: (2, 96, 5),
        5: (2, 96, 2),
        6: (1, 90, 1),
    }[choice]
    head = _percentile_values(srt, _grid(Fraction(head_step), head_upto))
    cut = ceil(Fraction(head_upto) * len(srt) / 100)
    top = srt[cut:]
    if top:
        tail = _percentile_values(top, _grid(Fraction(tail_step)))
    else:
        tail = [int(round(srt[-1]))]
    return from_endpoints(head + tail, tail_open)
