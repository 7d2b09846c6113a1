"""Statistical heads: batch losses, analytic logit gradients, and expectation
estimators, dispatched through one table with an entry per head.

Four heads share the parameterization p = sigmoid(y), which only this module
knows: the pipeline hands every head its logits y.

* binom  -- per-bucket binary cross-entropy against soft labels; estimator
            sum_i width_i * p_i over the N closed buckets.
* geo    -- bucketized geometric likelihood with N+1 continuation
            probabilities (open tail): the law of a user who continues each
            second t+1 with the probability of the bucket holding t+1;
            closed-form expectation.
* vgeo   -- single stationary continuation probability; estimator the odds
            p / (1 - p), the mean of that geometric law.
* wlr    -- weighted-logistic baseline: the vgeo objective without the
            log(1-p) term when t > 0; same estimator.

Losses are negated log-likelihoods of logits: each forms log p =
log_sigmoid(y), log(1 - p) = log p - y and p = exp(log p), so its gradient is
the exact derivative of the loss it returns at every finite logit.  Only
`expectation_batch` clamps p to [1e-7, 1 - 1e-7], so every prediction is
finite: an odds factor p / (1 - p) is at most about 1e7.

All functions are pure and work on (B, arity) batches; watch times reach a
loss only through `encode_targets`, which turns a batch of integer watch
times into the targets that head's loss takes.  Adding a head means adding
one `HEADS` entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable

import numpy as np

from . import labels
from .buckets import BucketScheme

PROB_EPS = 1e-7


def log_sigmoid(y) -> np.ndarray:
    """log sigmoid(y) = -logaddexp(0, -y), finite at every finite y, without logaddexp's slower loop.

    Computed as min(y, 0) - log1p(exp(-|y|)) in two buffers.
    """
    y = np.asarray(y, dtype=np.float64)
    out = np.minimum(y, 0.0, out=np.empty(y.shape))
    tail = np.abs(y, out=np.empty(y.shape))
    np.negative(tail, out=tail)
    np.exp(tail, out=tail)
    np.log1p(tail, out=tail)
    return np.subtract(out, tail, out=out)


def sigmoid(y) -> np.ndarray:
    log_p = log_sigmoid(y)
    return np.exp(log_p, out=log_p)


def clamp_probs(p) -> np.ndarray:
    return np.clip(np.asarray(p, dtype=np.float64), PROB_EPS, 1.0 - PROB_EPS)


class HeadKind(str, Enum):
    BINOM = "binom"
    GEO = "geo"
    VGEO = "vgeo"
    WLR = "wlr"


# ---------------------------------------------------------------------------
# batch losses: logits (B, arity) -> per-sample losses (B,) and d(loss)/d(logits)
# ---------------------------------------------------------------------------


def _log_probs(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """log p, log(1 - p) and p of p = sigmoid(logits)."""
    log_p = log_sigmoid(logits)
    return log_p, log_p - logits, np.exp(log_p)


def binom_loss_batch(logits: np.ndarray, soft: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if logits.shape != soft.shape:
        raise ValueError(f"logits shape {logits.shape} != labels shape {soft.shape}")
    log_p, log_q, p = _log_probs(logits)
    losses = -(soft * log_p + (1.0 - soft) * log_q).sum(axis=1)
    return losses, p - soft


def geo_coefficients(scheme: BucketScheme, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample likelihood coefficients for the bucketized geometric head.

    Watching exactly t seconds means continuing at seconds 1..t and stopping
    before second t + 1, so log pmf(t) = sum_i A[b, i] log p_i + log(1 - p_k)
    with A = `labels.seconds` and k the bucket of second t + 1.  Returns
    (A, stop_idx) with stop_idx[b] = k, 0-based.  At an endpoint t = x_i the
    stop lands in bucket i + 1, so the pmf sums to 1.
    """
    return labels.seconds(scheme, targets), np.searchsorted(scheme.endpoints, targets, side="right")


def geo_loss_batch(logits: np.ndarray, a: np.ndarray, stop_idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row -log pmf and its logit gradient -A (1 - p), plus p at the stop bucket.

    log(1 - p) = log p - y is formed only at the stop bucket, and the
    (B, N+1) buffers are reused, so the loss takes three of them.
    """
    if logits.shape != a.shape:
        raise ValueError(f"logits shape {logits.shape} != coefficient shape {a.shape}")
    log_p = log_sigmoid(logits)
    rows = np.arange(len(a))
    stop_log_q = log_p[rows, stop_idx] - logits[rows, stop_idx]
    work = np.multiply(a, log_p)
    losses = work.sum(axis=1)
    np.negative(losses, out=losses)
    losses -= stop_log_q
    p = np.exp(log_p, out=log_p)
    grads = np.subtract(1.0, p, out=work)
    grads *= a
    np.negative(grads, out=grads)
    grads[rows, stop_idx] += p[rows, stop_idx]
    return losses, grads


def vgeo_loss_batch(logits: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    log_p, log_q, p = _log_probs(logits[:, 0])
    losses = -(t * log_p + log_q)
    grads = -(t * (1.0 - p) - p)
    return losses, grads[:, None]


def wlr_loss_batch(logits: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    log_p, log_q, p = _log_probs(logits[:, 0])
    zero = t == 0
    losses = -np.where(zero, log_q, t * log_p)
    grads = np.where(zero, p, -t * (1.0 - p))
    return losses, grads[:, None]


# ---------------------------------------------------------------------------
# batch expectations
# ---------------------------------------------------------------------------


def binom_expectation_batch(probs: np.ndarray, scheme: BucketScheme) -> np.ndarray:
    return probs @ np.asarray(scheme.widths, dtype=np.float64)


def geo_expectation_batch(probs: np.ndarray, scheme: BucketScheme) -> np.ndarray:
    """Closed-form mean of the bucketized geometric law, rows of (B, N+1) probs.

    E[T] is the survival sum over t >= 1 of P(T >= t): bucket i contributes
    prod_{j<i} p_j^{w_j} times (p_i + ... + p_i^{w_i}); the open tail
    contributes prod_j p_j^{w_j} times p / (1 - p).  The power sum is taken
    as p (1 - p^w) / (1 - p) with 1 - p^w = -expm1(w log p), which keeps its
    relative error near machine precision up to the clamp ceiling 1 - 1e-7.
    """
    n = scheme.n_buckets
    if probs.ndim != 2 or probs.shape[1] != n + 1:
        raise ValueError(f"geo head expects {n + 1} probs per row")
    widths = np.asarray(scheme.widths, dtype=np.float64)[None, :]

    inner = probs[:, :n]
    prefix = np.cumprod(np.exp(widths * np.log(inner)), axis=1)  # prod_{j<=i} p_j^{w_j}
    prefix = np.concatenate([np.ones((probs.shape[0], 1)), prefix], axis=1)

    tail_p = probs[:, n]
    series = inner * -np.expm1(widths * np.log(inner)) / (1.0 - inner)
    return (prefix[:, :n] * series).sum(axis=1) + prefix[:, n] * tail_p / (1.0 - tail_p)


def vgeo_expectation_batch(probs: np.ndarray, scheme: BucketScheme | None = None) -> np.ndarray:
    """Mean p / (1 - p) of the stationary geometric law, rows of (B, 1) probs.

    Equal to exp(y) for p = sigmoid(y), but finite: at the clamp ceiling it
    saturates at about 1e7, like the geo tail.
    """
    p = probs[:, 0]
    return p / (1.0 - p)


# ---------------------------------------------------------------------------
# the head table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Head:
    """What the pipeline needs to know about one head.

    ``tail_open`` is the scheme tail the head needs: None for no scheme, False
    for a closed tail (N probabilities), True for an open one (N + 1).
    ``encode(scheme, t)`` turns an int64 batch of watch times into the
    targets ``loss(logits, encoded)`` takes; the loss returns per-row losses
    and logit gradients.  ``expectation(probs, scheme)`` returns the per-row
    mean watch time of clamped probabilities.  Functions that a profiler may
    wrap are looked up by name when called, so the entries hold lambdas
    around them.
    """

    tail_open: bool | None
    encode: Callable[[BucketScheme | None, np.ndarray], Any]
    loss: Callable[[np.ndarray, Any], tuple[np.ndarray, np.ndarray]]
    expectation: Callable[[np.ndarray, BucketScheme | None], np.ndarray]


HEADS: dict[HeadKind, Head] = {
    HeadKind.BINOM: Head(
        tail_open=False,
        encode=lambda scheme, t: labels.matrix(scheme, t),
        loss=binom_loss_batch,
        expectation=binom_expectation_batch,
    ),
    HeadKind.GEO: Head(
        tail_open=True,
        encode=lambda scheme, t: geo_coefficients(scheme, t),
        loss=lambda logits, enc: geo_loss_batch(logits, *enc),
        expectation=geo_expectation_batch,
    ),
    HeadKind.VGEO: Head(None, lambda scheme, t: t, vgeo_loss_batch, vgeo_expectation_batch),
    HeadKind.WLR: Head(None, lambda scheme, t: t, wlr_loss_batch, vgeo_expectation_batch),
}


def arity(kind: HeadKind, scheme: BucketScheme | None) -> int:
    """Logits per sample; raises ValueError when the scheme does not suit the head."""
    tail_open = HEADS[kind].tail_open
    if tail_open is None:
        return 1
    if scheme is None:
        raise ValueError(f"{kind.value} head needs a bucket scheme")
    if scheme.tail_open != tail_open:
        need = "an open" if tail_open else "a closed"
        raise ValueError(f"{kind.value} head needs {need}-tail scheme (tail_open={tail_open})")
    return scheme.n_buckets + tail_open


def encode_targets(kind: HeadKind, scheme: BucketScheme | None, targets) -> Any:
    """Loss targets for a batch of integer watch times; negative times raise."""
    arity(kind, scheme)
    t = np.asarray(targets, dtype=np.int64)
    if np.any(t < 0):
        raise ValueError(f"watch time must be non-negative, got {int(t.min())}")
    return HEADS[kind].encode(scheme, t)


def loss_batch(kind: HeadKind, logits: np.ndarray, encoded_targets) -> tuple[np.ndarray, np.ndarray]:
    """Per-row losses and logit gradients; encoded_targets comes from encode_targets."""
    return HEADS[kind].loss(np.asarray(logits, dtype=np.float64), encoded_targets)


def expectation_batch(
    kind: HeadKind, logits: np.ndarray, scheme: BucketScheme | None = None
) -> np.ndarray:
    """Closed-form expected watch time of each logit row, read at clamped probabilities."""
    n = arity(kind, scheme)
    if logits.ndim != 2 or logits.shape[1] != n:
        raise ValueError(f"{kind.value} head expects {n} logits per row, got shape {logits.shape}")
    probs = clamp_probs(sigmoid(logits))
    return HEADS[kind].expectation(probs, scheme)
