"""Statistical heads: one Bernoulli likelihood with its logit gradient, and
expectation estimators, dispatched through one table with an entry per head.

Four heads share the parameterization p = sigmoid(y), which only this module
knows: the pipeline hands every head its logits y.

* binom  -- per-bucket binary cross-entropy against soft labels; estimator
            sum_i width_i * p_i over the N closed buckets.
* geo    -- bucketized geometric likelihood with N+1 continuation
            probabilities (open tail): the law of a user who continues each
            second t+1 with the probability of the bucket holding t+1;
            closed-form expectation.
* vgeo   -- geo with no closed bucket: one stationary continuation
            probability; its mean is the odds p / (1 - p).
* wlr    -- weighted-logistic baseline: the vgeo objective without the
            log(1-p) term when t > 0; same estimator.

Every head's likelihood is a Bernoulli likelihood per logit: a row's loss is
-sum_i (s_i log p_i + f_i log(1 - p_i)), with logit gradient (s + f) p - s.
The heads differ only in the successes s and failures f that ``Head.encode``
makes of a watch time t, so this table states each head's assumption:

    head   successes s_i                      failures f_i
    binom  soft label i                       1 - soft label i
    geo    seconds continued in bucket i      1 in the bucket of second t + 1
    vgeo   t, in one column                   1
    wlr    t, in one column                   1 when t = 0, else 0

geo and vgeo stop once per row, so their f is an index vector: one failure
at column f[b] of row b.  `bernoulli_loss_batch` forms log p = log_sigmoid(y),
log(1 - p) = log p - y and p = exp(log p), so its gradient is the exact
derivative of the loss it returns at every finite logit.  Only
`expectation_batch` clamps p to [1e-7, 1 - 1e-7], so every prediction is
finite: an odds factor p / (1 - p) is at most about 1e7.  It returns, beside
the predictions, the rows where that clamp moved a prediction: those whose
last probability, which a head without a closed tail reads through
p / (1 - p), sits at the upper bound.  Anywhere else a clamped probability
moves the prediction by a relative amount near 1e-7.

A logit's bias-only likelihood is that of its s and f summed over rows, so
its maximum-likelihood logit is log(s / f).  `prior_logits` returns the
Beta(1, 1)-smoothed log((s + 1) / (f + 1)), which training starts from; the
smoothing keeps a logit finite when s or f is 0, as for geo's open tail when
no watch time passes x_N.  wlr has no ``Head.prior``: when no watch time is
0 its bias-only loss falls without bound as the logit grows.

The kernels keep their input's dtype: `log_sigmoid`, `sigmoid` and the loss
compute in the float dtype of the logits (float64 for any other input), and
`loss_batch` encodes the targets in that dtype.  Training passes float32
logits; float64 logits give float64 results.  The estimators always read
float64 probabilities.

All functions are pure and work on (B, arity) batches; watch times reach the
loss only through `loss_batch`, which encodes them into the head's s and f.
Adding a head means adding one `HEADS` entry.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Any, Callable

import numpy as np

from . import labels
from .buckets import BucketScheme

PROB_EPS = 1e-7
PRIOR_BLOCK = 4096  # rows encoded at once by `prior_logits`


def _floating(y) -> np.ndarray:
    """y as an array of its own dtype when that is float32 or float64, else as float64."""
    y = np.asarray(y)
    return y if y.dtype in (np.float32, np.float64) else y.astype(np.float64)


def log_sigmoid(y) -> np.ndarray:
    """log sigmoid(y) = -logaddexp(0, -y), finite at every finite y, without logaddexp's slower loop.

    Computed as min(y, 0) - log1p(exp(-|y|)) in two buffers of y's float dtype.
    """
    y = _floating(y)
    out = np.minimum(y, 0.0, out=np.empty(y.shape, y.dtype))
    tail = np.abs(y, out=np.empty(y.shape, y.dtype))
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
# the loss: logits (B, arity) -> per-sample losses (B,) and d(loss)/d(logits)
# ---------------------------------------------------------------------------


def bernoulli_loss_batch(logits: np.ndarray, s: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row -sum_i (s_i log p_i + f_i log(1 - p_i)) and its logit gradient (s + f) p - s.

    f is either (B, arity) like s, or an index vector: one failure per row, at
    column f[b].  An index f forms log(1 - p) = log p - y only at f[b] and
    reuses the (B, arity) buffers, so the loss takes three of them.
    """
    s = np.asarray(s, dtype=logits.dtype)
    log_p = log_sigmoid(logits)
    if f.ndim == 2:
        f = np.asarray(f, dtype=logits.dtype)
        losses = -(s * log_p + f * (log_p - logits)).sum(axis=1)
        p = np.exp(log_p, out=log_p)
        return losses, (s + f) * p - s
    rows = np.arange(len(s))
    stop_log_q = log_p[rows, f] - logits[rows, f]
    work = np.multiply(s, log_p)
    losses = work.sum(axis=1)
    np.negative(losses, out=losses)
    losses -= stop_log_q
    p = np.exp(log_p, out=log_p)
    grads = np.subtract(1.0, p, out=work)
    grads *= s
    np.negative(grads, out=grads)
    grads[rows, f] += p[rows, f]
    return losses, grads


def geo_coefficients(scheme: BucketScheme, targets: np.ndarray,
                     dtype=np.float64) -> tuple[np.ndarray, np.ndarray]:
    """geo's successes and failures: seconds continued per bucket and the stop bucket.

    Watching exactly t seconds means continuing at seconds 1..t and stopping
    before second t + 1, so log pmf(t) = sum_i A[b, i] log p_i + log(1 - p_k)
    with A = `labels.seconds` and k the bucket of second t + 1.  Returns
    (A, stop_idx) with stop_idx[b] = k, 0-based.  At an endpoint t = x_i the
    stop lands in bucket i + 1, so the pmf sums to 1.  A is in the loss's
    float ``dtype``, each entry its float64 value cast to it.
    """
    return labels.seconds(scheme, targets, dtype), np.searchsorted(scheme.endpoints, targets, side="right")


def _soft_labels(scheme: BucketScheme, t: np.ndarray, dtype) -> tuple[np.ndarray, np.ndarray]:
    """binom's successes and failures: the soft labels in ``dtype`` and 1 minus them."""
    soft = labels.matrix(scheme, t).astype(dtype, copy=False)
    return soft, 1.0 - soft


# ---------------------------------------------------------------------------
# batch expectations
# ---------------------------------------------------------------------------


def binom_expectation_batch(probs: np.ndarray, scheme: BucketScheme) -> np.ndarray:
    return probs @ np.asarray(scheme.widths, dtype=np.float64)


def geo_expectation_batch(probs: np.ndarray, scheme: BucketScheme | None) -> np.ndarray:
    """Closed-form mean of the bucketized geometric law, rows of (B, N+1) probs.

    E[T] is the survival sum over t >= 1 of P(T >= t): bucket i contributes
    prod_{j<i} p_j^{w_j} times (p_i + ... + p_i^{w_i}); the open tail
    contributes prod_j p_j^{w_j} times p / (1 - p).  The power sum is taken
    as p (1 - p^w) / (1 - p) with 1 - p^w = -expm1(w log p), which keeps its
    relative error near machine precision up to the clamp ceiling 1 - 1e-7.
    No scheme means no closed bucket: the mean is the odds p / (1 - p).
    """
    widths = np.asarray(scheme.widths if scheme is not None else (), dtype=np.float64)[None, :]
    n = widths.shape[1]

    inner = probs[:, :n]
    prefix = np.cumprod(np.exp(widths * np.log(inner)), axis=1)  # prod_{j<=i} p_j^{w_j}
    prefix = np.concatenate([np.ones((probs.shape[0], 1)), prefix], axis=1)

    tail_p = probs[:, n]
    series = inner * -np.expm1(widths * np.log(inner)) / (1.0 - inner)
    return (prefix[:, :n] * series).sum(axis=1) + prefix[:, n] * tail_p / (1.0 - tail_p)


# ---------------------------------------------------------------------------
# the head table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Head:
    """What the pipeline needs to know about one head.

    ``tail_open`` is None for a head that takes no scheme; True when the open
    bucket (x_N, inf) joins as bucket N + 1 (N + 1 probabilities, geometric
    heads); False when watch times beyond x_N clip to bucket N (N of them).
    ``encode(scheme, t, dtype)`` turns an int64 batch of watch times into the
    successes and failures (s, f) that ``bernoulli_loss_batch`` reads against
    logits of float ``dtype``; ``prior`` says whether their sums give the
    head's starting bias (``prior_logits``).
    ``expectation(probs, scheme)`` returns the per-row mean watch time of
    clamped probabilities; unless the tail is closed, it reads the last one
    through p / (1 - p), where the upper clamp caps a prediction near 1e7.
    Functions that a profiler may wrap are looked up by name when called, so
    the entries hold lambdas around them.
    """

    tail_open: bool | None
    encode: Callable[[BucketScheme | None, np.ndarray, Any], tuple[np.ndarray, np.ndarray]]
    expectation: Callable[[np.ndarray, BucketScheme | None], np.ndarray]
    prior: bool


_GEO = Head(True, lambda scheme, t, dtype: geo_coefficients(scheme, t, dtype), geo_expectation_batch,
            prior=True)

HEADS: dict[HeadKind, Head] = {
    HeadKind.BINOM: Head(False, _soft_labels, binom_expectation_batch, prior=True),
    HeadKind.GEO: _GEO,
    # no closed bucket: a row continues its t seconds in the open tail and stops there
    HeadKind.VGEO: replace(_GEO, tail_open=None, encode=lambda scheme, t, dtype:
                           (t[:, None].astype(dtype), np.zeros(len(t), np.intp))),
    HeadKind.WLR: Head(None, lambda scheme, t, dtype: (t[:, None].astype(dtype), t[:, None] == 0),
                       geo_expectation_batch, prior=False),
}


def arity(kind: HeadKind, scheme: BucketScheme | None) -> int:
    """Logits per sample; raises ValueError when the scheme does not suit the head."""
    tail_open = HEADS[kind].tail_open
    if tail_open is None and scheme is not None:
        raise ValueError(f"{kind.value} head takes no bucket scheme")
    if tail_open is not None and scheme is None:
        raise ValueError(f"{kind.value} head needs a bucket scheme")
    return 1 if scheme is None else scheme.n_buckets + tail_open


def clipped(kind: HeadKind, targets, scheme: BucketScheme | None = None) -> int:
    """How many watch times the head clips to bucket N: those past x_N, when its tail is closed."""
    return int(np.count_nonzero(targets > scheme.endpoints[-1])) if HEADS[kind].tail_open is False else 0


def _checked(kind: HeadKind, logits, scheme: BucketScheme | None) -> np.ndarray:
    """The logits in their float dtype (``_floating``); ValueError when the scheme
    does not suit the head or the logits are not (B, arity)."""
    n, logits = arity(kind, scheme), _floating(logits)
    if logits.ndim != 2 or logits.shape[1] != n:
        raise ValueError(f"{kind.value} head expects {n} logits per row, got shape {logits.shape}")
    return logits


def _watch_times(targets) -> np.ndarray:
    """Integer watch times as int64; ValueError when one is negative."""
    t = np.asarray(targets, dtype=np.int64)
    if np.any(t < 0):
        raise ValueError(f"watch time must be non-negative, got {int(t.min())}")
    return t


def loss_batch(kind: HeadKind, logits: np.ndarray, targets,
               scheme: BucketScheme | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Per-row losses and logit gradients of (B, arity) logits against B integer
    watch times, in the logits' float dtype (float64 for any other input); the
    targets are encoded in that dtype.  Negative times raise ValueError."""
    logits = _checked(kind, logits, scheme)
    t = _watch_times(targets)
    if t.shape != logits.shape[:1]:
        raise ValueError(f"{len(logits)} logit rows but watch times of shape {t.shape}")
    return bernoulli_loss_batch(logits, *HEADS[kind].encode(scheme, t, logits.dtype))


def prior_logits(kind: HeadKind, targets, scheme: BucketScheme | None = None) -> np.ndarray:
    """(arity,) float64 smoothed bias-only maximum-likelihood logits
    log((s + 1) / (f + 1)) of the head on integer watch times; zeros for a head
    without a ``prior``.  s and f are summed over blocks of PRIOR_BLOCK rows
    encoded as ``loss_batch`` encodes them, so one block is held at a time.
    Negative times raise ValueError."""
    head, t = HEADS[kind], _watch_times(targets)
    successes, failures = np.zeros(arity(kind, scheme)), np.zeros(arity(kind, scheme))
    for lo in range(0, len(t) if head.prior else 0, PRIOR_BLOCK):
        s, f = head.encode(scheme, t[lo : lo + PRIOR_BLOCK], np.float64)
        successes += s.sum(axis=0)
        failures += f.sum(axis=0) if f.ndim == 2 else np.bincount(f, minlength=s.shape[1])
    return np.log1p(successes) - np.log1p(failures)


def expectation_batch(kind: HeadKind, logits: np.ndarray,
                      scheme: BucketScheme | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form expected watch time of each logit row, read at clamped
    probabilities, and which rows read an odds factor p / (1 - p) at the
    upper clamp (the last probability, unless the tail is closed)."""
    probs = clamp_probs(sigmoid(_checked(kind, logits, scheme)))
    at_bound = (probs[:, -1] == 1.0 - PROB_EPS) & (HEADS[kind].tail_open is not False)
    return HEADS[kind].expectation(probs, scheme), at_bound
