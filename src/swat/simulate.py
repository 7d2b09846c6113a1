"""Synthetic watch-time behavior and brute-force oracles.

Three user behaviors generate ground-truth data with known per-bucket
probabilities:

* wandering  -- picks seconds independently within each bucket: per-bucket
                watch time ~ Binomial(width_i, p_i).
* focused    -- watches sequentially, continuing each second with the
                probability of the bucket that second lies in.
* stationary -- one continuation probability over the whole horizon:
                T ~ Geometric on {0, 1, ...} with pmf p^t (1 - p).

The module also carries exact enumeration oracles for two laws.  The
``process_*`` oracles follow the focused user: the stop factor after t
seconds is (1 - p) of the bucket of second t + 1.  This is the law the geo
head fits, and its mass is exactly 1.  The ``model_*`` oracles (pmf, total
mass, mean) keep the contrast law whose stop factor uses the bucket that
contains t.  The two agree except at bucket endpoints t = x_n, where they
charge (1 - p_{n+1}) and (1 - p_n) respectively; ``total_mass`` exposes the
normalization gap of the contrast law.  PAPER.md (the abstract) does not
say which convention the paper uses at an endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .buckets import BucketScheme


class Behavior(str, Enum):
    WANDERING = "wandering"
    FOCUSED = "focused"
    STATIONARY = "stationary"


@dataclass(frozen=True)
class BehaviorProfile:
    """Ground-truth probabilities and RNG seed for one synthetic population."""

    kind: Behavior
    probs: tuple[float, ...]
    scheme: BucketScheme | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.probs:
            raise ValueError("profile needs at least one probability")
        for p in self.probs:
            if not 0.0 < p < 1.0:
                raise ValueError(f"probabilities must be in (0, 1), got {p}")
        if self.kind is Behavior.STATIONARY:
            if len(self.probs) != 1:
                raise ValueError("stationary profile takes a single probability")
            return
        if self.scheme is None:
            raise ValueError(f"{self.kind.value} profile needs a bucket scheme")
        want = self.scheme.n_buckets + (1 if self.kind is Behavior.FOCUSED else 0)
        if len(self.probs) != want:
            raise ValueError(
                f"{self.kind.value} profile needs {want} probabilities, got {len(self.probs)}"
            )


def draw_wandering(profile: BehaviorProfile, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n draws; returns (total watch times (n,), per-bucket times (n, N))."""
    if profile.kind is not Behavior.WANDERING:
        raise ValueError(f"expected a wandering profile, got {profile.kind.value}")
    rng = np.random.default_rng(profile.seed)
    widths = np.asarray(profile.scheme.widths)
    per_bucket = rng.binomial(widths, np.asarray(profile.probs), size=(n, len(widths)))
    return per_bucket.sum(axis=1), per_bucket


def draw_focused(profile: BehaviorProfile, n: int) -> np.ndarray:
    """n draws of the sequential per-second process, aggregated bucket by bucket.

    Within bucket i the count of further-watched seconds before the first
    stop is geometric; a draw of at least width_i means the bucket was
    watched through and the walk continues into the next bucket.
    """
    if profile.kind is not Behavior.FOCUSED:
        raise ValueError(f"expected a focused profile, got {profile.kind.value}")
    rng = np.random.default_rng(profile.seed)
    totals = np.zeros(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    for width, p in zip(profile.scheme.widths, profile.probs):
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


def draw_stationary(profile: BehaviorProfile, n: int) -> np.ndarray:
    if profile.kind is not Behavior.STATIONARY:
        raise ValueError(f"expected a stationary profile, got {profile.kind.value}")
    rng = np.random.default_rng(profile.seed)
    return rng.geometric(1.0 - profile.probs[0], size=n) - 1


def draw(profile: BehaviorProfile, n: int) -> np.ndarray:
    """Total watch times for any profile kind."""
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    if profile.kind is Behavior.WANDERING:
        return draw_wandering(profile, n)[0]
    if profile.kind is Behavior.FOCUSED:
        return draw_focused(profile, n)
    return draw_stationary(profile, n)


# ---------------------------------------------------------------------------
# exact oracles (plain arithmetic, independent of the heads module)
# ---------------------------------------------------------------------------


def _check_open_arity(probs, scheme: BucketScheme, what: str) -> None:
    if not scheme.tail_open:
        raise ValueError(f"{what} needs an open-tail scheme")
    if len(probs) != scheme.n_buckets + 1:
        raise ValueError(f"{what} needs {scheme.n_buckets + 1} probabilities, got {len(probs)}")


def _survival(probs, scheme: BucketScheme, t: int) -> float:
    """Probability of watching at least t seconds: full buckets below t, then
    the partial power inside t's bucket."""
    xs = (0,) + scheme.endpoints
    val = 1.0
    n = scheme.bucket_of(t)
    for i in range(1, n):
        val *= probs[i - 1] ** (xs[i] - xs[i - 1])
    return val * probs[n - 1] ** (t - xs[n - 1])


def model_pmf(probs, scheme: BucketScheme, t: int) -> float:
    """Contrast law: stop factor uses the bucket containing t (mass != 1)."""
    return _survival(probs, scheme, t) * (1.0 - probs[scheme.bucket_of(t) - 1])


def process_pmf(probs, scheme: BucketScheme, t: int) -> float:
    """Sequential process law, fitted by the geo head: stop factor uses the
    bucket of second t + 1."""
    return _survival(probs, scheme, t) * (1.0 - probs[scheme.bucket_of(t + 1) - 1])


def total_mass(probs, scheme: BucketScheme) -> float:
    """Sum of the contrast-law pmf (``model_pmf``) over all t.

    Exactly 1 when all probabilities are equal; otherwise the endpoint stop
    factors leave a gap, so this diagnostic can land on either side of 1.
    """
    _check_open_arity(probs, scheme, "total_mass")
    x_n = scheme.endpoints[-1]
    mass = sum(model_pmf(probs, scheme, t) for t in range(x_n + 1))
    return mass + _survival(probs, scheme, x_n) * probs[-1]


def model_mean(probs, scheme: BucketScheme) -> float:
    """Mean of the contrast law: exact enumeration to x_N plus the
    closed-form tail sum_{t > x_N} t P_N p^{t - x_N} (1 - p)."""
    _check_open_arity(probs, scheme, "model_mean")
    x_n = scheme.endpoints[-1]
    mean = sum(t * model_pmf(probs, scheme, t) for t in range(x_n + 1))
    p = probs[-1]
    return mean + _survival(probs, scheme, x_n) * (x_n * p + p / (1.0 - p))


def process_mean(probs, scheme: BucketScheme) -> float:
    """Mean of the sequential process: enumeration below x_N plus the
    geometric tail that starts at the last endpoint."""
    _check_open_arity(probs, scheme, "process_mean")
    x_n = scheme.endpoints[-1]
    mean = sum(t * process_pmf(probs, scheme, t) for t in range(x_n))
    p = probs[-1]
    surv = _survival(probs, scheme, x_n)
    return mean + surv * (x_n + p / (1.0 - p))
