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

    def lower(self, i: int) -> int:
        """Lower edge x_{i-1} of bucket i (1-based); bucket 1 starts at 0."""
        return 0 if i == 1 else self.endpoints[i - 2]

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
    def from_dict(cls, d: dict) -> "BucketScheme":
        return cls(tuple(int(x) for x in d["endpoints"]), bool(d["tail_open"]))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "BucketScheme":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def from_endpoints(raw: Iterable[int], tail_open: bool = False) -> BucketScheme:
    """Build a scheme from raw endpoint candidates: sort, dedup, keep positives."""
    values = list(raw)
    if not values:
        raise ValueError("no endpoints given")
    kept = sorted({int(v) for v in values if v >= 1})
    if not kept:
        raise ValueError(f"no positive endpoint among {values}")
    return BucketScheme(tuple(kept), tail_open)


def _as_fraction(step) -> Fraction:
    if isinstance(step, Fraction):
        return step
    if isinstance(step, int):
        return Fraction(step)
    return Fraction(str(step))


def _percentile_values(sorted_targets: Sequence[int], qs: Iterable[Fraction]) -> list[int]:
    """Empirical q-percentiles: element at 1-based index ceil(q*n/100)."""
    n = len(sorted_targets)
    out = []
    for q in qs:
        idx = ceil(q * n / 100)
        out.append(int(round(sorted_targets[min(max(idx, 1), n) - 1])))
    return out


def _grid(step: Fraction, upto: int = 100) -> list[Fraction]:
    qs = []
    q = step
    while q <= upto:
        qs.append(q)
        q += step
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
    step = _as_fraction(percent_step)
    if not 0 < step <= 50:
        raise ValueError(f"percent_step must be in (0, 50], got {percent_step}")
    srt = sorted(targets)
    return from_endpoints(_percentile_values(srt, _grid(step)), tail_open)


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
