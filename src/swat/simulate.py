"""Synthetic watch-time behavior and brute-force oracles.

Three user behaviors generate ground-truth data with known per-bucket
probabilities:

* wandering  -- picks seconds independently within each bucket: per-bucket
                watch time ~ Binomial(width_i, p_i).
* focused    -- watches sequentially, continuing each second with the
                probability of the bucket that second lies in.
* stationary -- the focused user with no closed bucket: one continuation
                probability, T ~ Geometric on {0, 1, ...}, pmf p^t (1 - p).

The module also carries exact enumeration oracles of the law the geo head
fits, the focused user's: after t seconds the stop factor is (1 - p) of the
bucket of second t + 1, so the pmf's mass is exactly 1.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import heads
from .buckets import BucketScheme


class Behavior(str, Enum):
    WANDERING = "wandering"
    FOCUSED = "focused"
    STATIONARY = "stationary"


# The head whose law each behavior draws from: a profile takes the scheme
# that head takes and one probability per logit of it (``heads.arity``).
HEAD_OF = {Behavior.WANDERING: heads.HeadKind.BINOM, Behavior.FOCUSED: heads.HeadKind.GEO,
           Behavior.STATIONARY: heads.HeadKind.VGEO}


@dataclass(frozen=True)
class BehaviorProfile:
    """Ground-truth probabilities and RNG seed for one synthetic population."""

    kind: Behavior
    probs: tuple[float, ...]
    scheme: BucketScheme | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        for p in self.probs:
            if not 0.0 < p < 1.0:
                raise ValueError(f"probabilities must be in (0, 1), got {p}")
        try:
            want = heads.arity(HEAD_OF[self.kind], self.scheme)
        except ValueError as exc:
            raise ValueError(f"{self.kind.value} profile: {exc}") from None
        if len(self.probs) != want:
            raise ValueError(f"{self.kind.value} profile needs {want} "
                             f"probabilit{'y' if want == 1 else 'ies'}, got {len(self.probs)}")


def wandering_buckets(profile: BehaviorProfile, n: int) -> np.ndarray:
    """n wandering draws as (n, N) seconds watched in each bucket."""
    if profile.kind is not Behavior.WANDERING:
        raise ValueError(f"expected a wandering profile, got {profile.kind.value}")
    rng = np.random.default_rng(profile.seed)
    return rng.binomial(profile.scheme.widths, profile.probs, size=(n, profile.scheme.n_buckets))


def _focused(profile: BehaviorProfile, n: int) -> np.ndarray:
    """n draws of the sequential per-second process, aggregated bucket by bucket.

    Within bucket i the count of further-watched seconds before the first
    stop is geometric; a draw of at least width_i means the bucket was
    watched through and the walk continues into the next bucket.  With no
    scheme (the stationary user) every draw is the open tail's.
    """
    rng = np.random.default_rng(profile.seed)
    totals = np.zeros(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    for width, p in zip(profile.scheme.widths if profile.scheme is not None else (), profile.probs):
        idx = np.nonzero(alive)[0]
        if idx.size == 0:
            break
        watched = rng.geometric(1.0 - p, size=idx.size) - 1
        totals[idx] += np.minimum(watched, width)
        alive[idx] = watched >= width
    idx = np.nonzero(alive)[0]
    if idx.size:
        totals[idx] += rng.geometric(1.0 - profile.probs[-1], size=idx.size) - 1
    return totals


_DRAW = {
    Behavior.WANDERING: lambda profile, n: wandering_buckets(profile, n).sum(axis=1),
    Behavior.FOCUSED: _focused,
    Behavior.STATIONARY: _focused,
}


def draw(profile: BehaviorProfile, n: int) -> np.ndarray:
    """n total watch times of the profile's behavior, from its seeded stream."""
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    return _DRAW[profile.kind](profile, n)


# ---------------------------------------------------------------------------
# exact oracles (plain arithmetic, independent of the heads module)
# ---------------------------------------------------------------------------


def _check_open_arity(probs, scheme: BucketScheme, what: str) -> None:
    want = heads.arity(heads.HeadKind.GEO, scheme)  # the open-tail rule of the law geo fits
    if len(probs) != want:
        raise ValueError(f"{what} needs {want} probabilities, got {len(probs)}")


def _survival(probs, scheme: BucketScheme, t: int) -> float:
    """Probability of watching at least t seconds: full buckets below t, then
    the partial power inside t's bucket n, the open tail N + 1 beyond x_N."""
    xs = (0,) + scheme.endpoints
    val = 1.0
    n = bisect_left(scheme.endpoints, t) + 1
    for i in range(1, n):
        val *= probs[i - 1] ** (xs[i] - xs[i - 1])
    return val * probs[n - 1] ** (t - xs[n - 1])


def process_pmf(probs, scheme: BucketScheme, t: int) -> float:
    """Sequential process law, fitted by the geo head: stop factor uses the
    bucket of second t + 1."""
    _check_open_arity(probs, scheme, "process_pmf")
    return _survival(probs, scheme, t) * (1.0 - probs[bisect_left(scheme.endpoints, t + 1)])


def process_mean(probs, scheme: BucketScheme) -> float:
    """Mean of the sequential process: enumeration below x_N plus the
    geometric tail that starts at the last endpoint."""
    _check_open_arity(probs, scheme, "process_mean")
    x_n = scheme.endpoints[-1]
    mean = sum(t * process_pmf(probs, scheme, t) for t in range(x_n))
    p = probs[-1]
    surv = _survival(probs, scheme, x_n)
    return mean + surv * (x_n + p / (1.0 - p))
