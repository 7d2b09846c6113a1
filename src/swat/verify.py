"""Self-contained property suite behind the `verify` subcommand.

Each check returns (passed, detail).  The suite covers the contracts that do
not need training: analytic gradients against central finite differences at
logits up to +-40, the closed-form geometric expectation against the
sequential-process enumeration oracle, the uniform-probability reduction,
the soft-label round trip through the binom estimator, gradient bounds, and
the total-mass diagnostic (the fitted geo law sums to 1).  Every check runs
on the batch head API, with one batch per scheme where it needs many watch
times or logit vectors.
"""

from __future__ import annotations

import numpy as np

from . import heads, labels, simulate
from .buckets import BucketScheme, from_endpoints
from .heads import HeadKind

FD_STEP = 1e-6
FD_RTOL = 1e-5


def _losses(kind: HeadKind, scheme, logits: np.ndarray, t: int):
    """Losses and logit gradients of (B, arity) logit rows, each against watch time t."""
    return heads.loss_batch(kind, logits, np.full(len(logits), t), scheme)


def _central_diff(kind: HeadKind, scheme, y: np.ndarray, t: int, step: float = FD_STEP):
    """Central finite differences of one sample's loss, all 2 * arity points in one batch."""
    shifts = step * np.eye(len(y))
    losses, _ = _losses(kind, scheme, np.vstack([y + shifts, y - shifts]), t)
    return (losses[: len(y)] - losses[len(y) :]) / (2.0 * step)


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
    return float(np.max(np.abs(a - b) / scale))


def _random_scheme(rng, max_buckets: int = 10, max_width: int = 30):
    n = int(rng.integers(1, max_buckets + 1))
    widths = rng.integers(1, max_width + 1, size=n)
    return BucketScheme(tuple(np.cumsum(widths)))


def check_gradients(trials: int, seed: int) -> dict[str, tuple[bool, str]]:
    """Analytic gradients vs central finite differences for every head."""
    results = {}
    for kind in HeadKind:
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(trials):
            # every head draws a scheme, which also bounds t; one that reads none gets None
            drawn = _random_scheme(rng, max_buckets=6, max_width=12)
            scheme = None if heads.HEADS[kind].tail_open is None else drawn
            y = rng.uniform(-40.0, 40.0, size=heads.arity(kind, scheme))
            t = int(rng.integers(0, drawn.endpoints[-1] + 5))
            grad = _losses(kind, scheme, y[None, :], t)[1][0]
            worst = max(worst, _rel_err(grad, _central_diff(kind, scheme, y, t)))
        ok = worst <= FD_RTOL
        results[f"gradient_fd_{kind.value}"] = (ok, f"max rel err {worst:.3e} over {trials} draws")
    return results


def check_expectation_vs_enumeration(trials: int, seed: int) -> tuple[bool, str]:
    """Closed-form geometric expectation vs the process-law enumeration oracle."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        scheme = _random_scheme(rng)
        probs = rng.uniform(0.05, 0.95, size=scheme.n_buckets + 1)
        closed = heads.geo_expectation_batch(probs[None, :], scheme)[0]
        brute = simulate.process_mean(probs, scheme)
        worst = max(worst, abs(closed - brute) / max(abs(brute), 1e-300))
    ok = worst <= 1e-9
    return ok, f"max rel err {worst:.3e} over {trials} schemes"


def _head_pmf(probs: np.ndarray, scheme: BucketScheme, t: np.ndarray) -> np.ndarray:
    """Geo head pmf of each watch time in t under one probability profile."""
    logits = np.broadcast_to(np.log(probs) - np.log1p(-probs), (len(t), len(probs)))
    return np.exp(-heads.loss_batch(HeadKind.GEO, logits, t, scheme)[0])


def check_uniform_reduction(seed: int) -> tuple[bool, str]:
    """With equal probabilities the law collapses to p^t (1-p), mean p/(1-p)."""
    rng = np.random.default_rng(seed)
    worst_pmf, worst_mean = 0.0, 0.0
    for p in (0.1, 0.5, 0.9):
        scheme = _random_scheme(rng, max_buckets=6, max_width=20)
        probs = np.full(scheme.n_buckets + 1, p)
        t = np.arange(200)
        worst_pmf = max(worst_pmf, np.max(np.abs(_head_pmf(probs, scheme, t) - p**t * (1 - p))))
        mean = heads.geo_expectation_batch(probs[None, :], scheme)[0]
        worst_mean = max(worst_mean, abs(mean - p / (1 - p)) / (p / (1 - p)))
    ok = worst_pmf <= 1e-12 and worst_mean <= 1e-9
    return ok, f"pmf abs err {worst_pmf:.3e}, mean rel err {worst_mean:.3e}"


def check_label_round_trip(trials: int, seed: int) -> tuple[bool, str]:
    """The binom estimator, read at the soft labels of t = 0..x_N, rounds to t."""
    rng = np.random.default_rng(seed)
    checked = 0
    for _ in range(trials):
        scheme = _random_scheme(rng, max_buckets=8, max_width=25)
        ts = np.arange(scheme.endpoints[-1] + 1)
        wrong = ts[np.rint(heads.HEADS[HeadKind.BINOM].expectation(labels.matrix(scheme, ts), scheme)) != ts]
        if len(wrong):
            return False, f"round trip broke at t={wrong[0]}, scheme={scheme.endpoints}"
        checked += len(ts)
    return True, f"{checked} (scheme, t) pairs decoded exactly"


def check_gradient_bounds(trials: int, seed: int) -> tuple[bool, str]:
    """binom gradients within [-1, 1]; geo component i <= N within width_i."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        scheme = _random_scheme(rng, max_buckets=6, max_width=12)
        y = rng.uniform(-8.0, 8.0, size=scheme.n_buckets)
        t = int(rng.integers(0, scheme.endpoints[-1] + 1))
        grad = _losses(HeadKind.BINOM, scheme, y[None, :], t)[1][0]
        i = int(np.argmax(np.abs(grad) > 1.0))  # the first component past its bound, if any
        if abs(grad[i]) > 1.0:
            return False, f"binom gradient component {i} ({grad[i]:.4g}) escapes [-1, 1]"
        y = rng.uniform(-8.0, 8.0, size=scheme.n_buckets + 1)
        t = int(rng.integers(0, scheme.endpoints[-1] + 10))
        grad = _losses(HeadKind.GEO, scheme, y[None, :], t)[1][0]
        i = int(np.argmax(np.abs(grad[: scheme.n_buckets]) > scheme.widths))
        if abs(grad[i]) > scheme.widths[i]:
            return False, (f"geo gradient component {i} ({grad[i]:.4g}) escapes width bounds "
                           f"(width {scheme.widths[i]})")
    return True, f"no violations over {trials} draws"


def _geo_mass(probs: np.ndarray, scheme: BucketScheme) -> float:
    """Head pmf summed over t = 0..x_N plus the survival past x_N."""
    x_n = scheme.endpoints[-1]
    return float(_head_pmf(probs, scheme, np.arange(x_n + 1)).sum() + simulate._survival(probs, scheme, x_n + 1))


def check_total_mass(trials: int, seed: int) -> tuple[bool, str]:
    """The fitted geo law sums to 1 for uniform and random profiles."""
    rng = np.random.default_rng(seed)
    worst = abs(_geo_mass(np.full(4, 0.37), from_endpoints([4, 9, 15])) - 1.0)
    for _ in range(trials):
        s = _random_scheme(rng, max_buckets=6, max_width=10)
        mass = _geo_mass(rng.uniform(0.05, 0.95, size=s.n_buckets + 1), s)
        worst = max(worst, abs(mass - 1.0))
    ok = worst <= 1e-9
    return ok, f"max |mass - 1| {worst:.3e} over {trials + 1} profiles"


def run_all(trials: int = 100, seed: int = 0) -> dict[str, dict]:
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    checks: dict[str, tuple[bool, str]] = {}
    checks.update(check_gradients(max(trials // 4, 10), seed))
    checks["expectation_vs_enumeration"] = check_expectation_vs_enumeration(trials, seed + 1)
    checks["uniform_reduction"] = check_uniform_reduction(seed + 2)
    checks["label_round_trip"] = check_label_round_trip(min(trials, 50), seed + 3)
    checks["gradient_bounds"] = check_gradient_bounds(trials * 10, seed + 4)
    checks["total_mass_diagnostic"] = check_total_mass(trials, seed + 5)
    return {name: {"passed": bool(ok), "detail": detail} for name, (ok, detail) in checks.items()}
