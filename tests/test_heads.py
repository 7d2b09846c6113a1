import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from swat import heads, labels, simulate
from swat.buckets import BucketScheme, from_endpoints
from swat.heads import HeadKind

from conftest import schemes

CLOSED = from_endpoints([5, 12, 22])
OPEN = from_endpoints([5, 12, 22], tail_open=True)


def fd_gradient(loss_fn, logits, step=1e-6):
    """Central finite differences of a scalar loss over the logit vector."""
    grad = np.zeros_like(logits)
    for i in range(len(logits)):
        up, dn = logits.copy(), logits.copy()
        up[i] += step
        dn[i] -= step
        grad[i] = (loss_fn(up) - loss_fn(dn)) / (2 * step)
    return grad


def assert_grad_close(analytic, numeric, rtol=1e-5):
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
    np.testing.assert_array_less(np.abs(analytic - numeric) / scale, rtol)


def scheme_for(kind):
    """The figure scheme with the tail the head needs, or None."""
    return {None: None, False: CLOSED, True: OPEN}[heads.HEADS[kind].tail_open]


def probs_of(logits):
    return heads.clamp_probs(heads.sigmoid(np.atleast_2d(logits)))


def logit(probs):
    """Logits of the given probabilities, the heads' input."""
    p = np.atleast_2d(np.asarray(probs, dtype=np.float64))
    return np.log(p) - np.log1p(-p)


def loss_at(kind, logits, t, scheme=None):
    """One sample's loss and logit gradient at the given logits."""
    losses, grads = heads.loss_batch(kind, np.atleast_2d(logits), [t], scheme or scheme_for(kind))
    return float(losses[0]), grads[0]


def loss(kind, probs, t, scheme=None):
    """One sample's loss and logit gradient at the given probabilities."""
    return loss_at(kind, logit(probs), t, scheme)


def head_pmf(probs, t, scheme=OPEN):
    """Head pmf exp(-loss) of each watch time in t."""
    t = np.atleast_1d(t)
    logits = np.broadcast_to(logit(probs), (len(t), scheme.n_buckets + 1))
    return np.exp(-heads.loss_batch(HeadKind.GEO, logits, t, scheme)[0])


def expectation(kind, probs, scheme=None):
    return float(heads.expectation_batch(kind, logit(probs), scheme)[0][0])


def geo_mean(probs, scheme=OPEN):
    return float(heads.geo_expectation_batch(np.atleast_2d(probs), scheme)[0])


class TestSigmoid:
    def test_probs_clamped(self):
        probs = probs_of([50.0, -50.0])[0]
        assert probs[0] == 1.0 - 1e-7
        assert probs[1] == 1e-7

    # |logit| near log((1 - 1e-7) / 1e-7) = 16.118 lands on either side of the clamp
    @given(arrays(np.float64, st.tuples(st.integers(1, 20), st.integers(1, 5)),
                  elements=st.floats(-40, 40) | st.floats(16.11, 16.13) | st.floats(-16.13, -16.11)))
    def test_expectation_marks_the_rows_with_a_probability_at_a_bound(self, logits):
        # only an odds factor p / (1 - p) read at the upper bound marks a row:
        # binom reads none, vgeo its one probability
        probs = heads.clamp_probs(heads.sigmoid(logits))
        scheme = BucketScheme(tuple(range(1, logits.shape[1] + 1)), tail_open=False)
        assert not heads.expectation_batch(HeadKind.BINOM, logits, scheme)[1].any()
        assert np.array_equal(heads.expectation_batch(HeadKind.VGEO, logits[:, :1])[1],
                              probs[:, 0] == 1.0 - heads.PROB_EPS)

    def test_zero_logits_give_half(self):
        assert np.allclose(probs_of([0.0, 0.0]), 0.5)

    def test_sigmoid_expectation_identity(self):
        # 1/(1 - sigmoid(y)) - 1 == exp(y); evaluated as p/(1-p) with
        # 1-p = sigmoid(-y) so float cancellation cannot mask the identity
        y = np.linspace(-30.0, 30.0, 2001)
        lhs = heads.sigmoid(y) / heads.sigmoid(-y)
        np.testing.assert_allclose(lhs, np.exp(y), rtol=1e-12)

    def test_log_sigmoid_finite_at_every_logit(self):
        # log p - log(1 - p) = y, and log p stays finite where p underflows
        y = np.array([-800.0, -40.0, -1.0, 0.0, 3.0, 40.0, 800.0])
        log_p = heads.log_sigmoid(y)
        assert np.all(np.isfinite(log_p))
        np.testing.assert_allclose(log_p - heads.log_sigmoid(-y), y, rtol=1e-15)
        assert log_p[0] == -800.0 and log_p[-1] == 0.0
        np.testing.assert_allclose(heads.sigmoid(y), np.exp(log_p), rtol=0)


class TestLossBatchInputs:
    def test_negative_time_rejected(self):
        # every head, geo included, rejects t < 0 on the one encoding path
        for kind in HeadKind:
            scheme = scheme_for(kind)
            with pytest.raises(ValueError, match="non-negative"):
                heads.loss_batch(kind, np.zeros((2, heads.arity(kind, scheme))), [3, -3], scheme)

    @pytest.mark.parametrize("kind", [HeadKind.VGEO, HeadKind.WLR])
    def test_wide_logits_rejected(self, kind):
        # the stationary kernels read column 0 only, so (2, 3) logits would
        # give losses and a (2, 1) gradient that fits no logit row
        with pytest.raises(ValueError, match=r"expects 1 logits per row, got shape \(2, 3\)"):
            heads.loss_batch(kind, np.zeros((2, 3)), [1, 2])

    def test_one_watch_time_per_logit_row(self):
        for kind in HeadKind:
            scheme = scheme_for(kind)
            with pytest.raises(ValueError, match="3 logit rows"):
                heads.loss_batch(kind, np.zeros((3, heads.arity(kind, scheme))), [4], scheme)


class TestBinomLoss:
    def test_stationary_point(self):
        soft = labels.matrix(CLOSED, [10])
        _, grad = loss(HeadKind.BINOM, soft.clip(1e-7, 1 - 1e-7), 10)
        assert np.allclose(grad, 0.0, atol=1e-7)

    def test_single_bucket_value_and_gradient(self):
        scheme = from_endpoints([4])
        value, grad = loss(HeadKind.BINOM, [0.5], 4, scheme)
        assert value == pytest.approx(math.log(2), rel=1e-12)
        assert grad[0] == pytest.approx(-0.5)
        fd = fd_gradient(lambda y: loss_at(HeadKind.BINOM, y, 4, scheme)[0], np.zeros(1))
        assert_grad_close(grad, fd)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        draws = [(rng.uniform(-5, 5, size=3), int(rng.integers(0, 23))) for _ in range(25)]
        # saturated: p = sigmoid(17) lies past the old probability clamp 1 - 1e-7
        for y, t in draws + [(np.full(3, 17.0), 8)]:
            _, grad = loss_at(HeadKind.BINOM, y, t)
            fd = fd_gradient(lambda yy: loss_at(HeadKind.BINOM, yy, t)[0], y)
            assert_grad_close(grad, fd)

    def test_gradient_bounded_by_one(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            y = rng.uniform(-10, 10, size=3)
            t = int(rng.integers(0, 23))
            _, grad = loss_at(HeadKind.BINOM, y, t)
            assert np.all(np.abs(grad) <= 1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            loss(HeadKind.BINOM, [0.5, 0.5], 10)


class TestGeoLoss:
    def test_zero_time(self):
        value, grad = loss(HeadKind.GEO, np.full(4, 0.3), 0)
        assert value == pytest.approx(-math.log(0.7), rel=1e-12)
        assert np.allclose(grad, [0.3, 0.0, 0.0, 0.0])

    def test_hand_evaluated_loss(self):
        # t = 13 lies in the third bucket: one in-bucket second, one stop,
        # and fully watched widths 5 and 7 all weight log(1/2)
        value, _ = loss(HeadKind.GEO, np.full(4, 0.5), 13)
        assert value == pytest.approx(14 * math.log(2), rel=1e-12)

    def test_gradient_zero_beyond_stop_bucket(self):
        rng = np.random.default_rng(3)
        y = rng.uniform(-4, 4, size=4)
        _, grad = loss_at(HeadKind.GEO, y, 7)
        assert grad[2] == 0.0 and grad[3] == 0.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        draws = [(rng.uniform(-5, 5, size=4), int(rng.integers(0, 40))) for _ in range(25)]
        for y, t in draws + [(np.full(4, 20.0), 13)]:  # saturated stop bucket
            _, grad = loss_at(HeadKind.GEO, y, t)
            fd = fd_gradient(lambda yy: loss_at(HeadKind.GEO, yy, t)[0], y)
            assert_grad_close(grad, fd)

    def test_gradient_bounded_by_widths(self):
        rng = np.random.default_rng(5)
        widths = np.asarray(OPEN.widths, dtype=float)
        for _ in range(500):
            y = rng.uniform(-10, 10, size=4)
            t = int(rng.integers(0, 60))
            _, grad = loss_at(HeadKind.GEO, y, t)
            assert np.all(np.abs(grad[:3]) <= widths)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            loss(HeadKind.GEO, np.full(3, 0.5), 5)


def reference_log_sigmoid(y):
    """log_sigmoid as first written, one temporary per operation."""
    return np.minimum(y, 0.0) - np.log1p(np.exp(-np.abs(y)))


def reference_geo_coefficients(scheme, targets):
    """geo_coefficients as first written: the width mask from np.where."""
    t = np.asarray(targets, dtype=np.int64)
    ends = np.asarray(scheme.endpoints, dtype=np.int64)
    lows = np.concatenate(([0], ends))
    in_idx = np.searchsorted(ends, t, side="left")
    cols = np.arange(scheme.n_buckets + 1)
    widths_ext = np.concatenate((np.asarray(scheme.widths, dtype=np.float64), [0.0]))
    a = np.where(cols[None, :] < in_idx[:, None], widths_ext[None, :], 0.0)
    a[np.arange(len(t)), in_idx] = t - lows[in_idx]
    return a, np.searchsorted(ends, t, side="right")


def reference_geo_loss_batch(logits, a, stop_idx):
    """geo's kernel as first written: full log(1 - p), fresh temporaries."""
    log_p = reference_log_sigmoid(logits)
    log_q, p = log_p - logits, np.exp(log_p)
    rows = np.arange(len(a))
    losses = -(a * log_p).sum(axis=1) - log_q[rows, stop_idx]
    grads = -a * (1.0 - p)
    grads[rows, stop_idx] += p[rows, stop_idx]
    return losses, grads


def assert_bit_equal(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))  # zeros keep their sign


class TestGeoKernelMatchesReference:
    """The buffer-reusing geo kernel performs the reference's floating-point
    operations, so it must agree exactly, not to a tolerance."""

    def test_exactly_equal_on_random_open_schemes(self):
        rng = np.random.default_rng(2024)
        for _ in range(150):
            n = int(rng.integers(1, 40))
            ends = np.unique(rng.integers(1, 400, size=n))
            scheme = BucketScheme(tuple(int(e) for e in ends), tail_open=True)
            # every endpoint, both its neighbours, zero and well beyond the last
            t = np.concatenate([[0], ends - 1, ends, ends + 1, ends[-1] + rng.integers(2, 500, size=3)])
            got_a, got_stop = heads.geo_coefficients(scheme, t)
            want_a, want_stop = reference_geo_coefficients(scheme, t)
            assert_bit_equal(got_a, want_a)
            assert np.array_equal(got_stop, want_stop)
            logits = rng.uniform(-40.0, 40.0, size=want_a.shape)
            logits.flat[rng.integers(0, logits.size, size=3)] = rng.choice([-40.0, 0.0, 40.0], size=3)
            for got, want in zip(heads.bernoulli_loss_batch(logits, got_a, got_stop),
                                 reference_geo_loss_batch(logits, want_a, want_stop)):
                assert_bit_equal(got, want)

    def test_log_sigmoid_and_sigmoid_exactly_equal(self):
        y = np.concatenate([np.random.default_rng(5).uniform(-40.0, 40.0, size=(257, 7)).ravel(),
                            [-40.0, -0.0, 0.0, 40.0, 745.0, -745.0]])
        assert_bit_equal(heads.log_sigmoid(y), reference_log_sigmoid(y))
        assert_bit_equal(heads.sigmoid(y), np.exp(reference_log_sigmoid(y)))


def float64_log_sigmoid(y):
    """heads.log_sigmoid before it kept its input's dtype: float64 for every input."""
    y = np.asarray(y, dtype=np.float64)
    out = np.minimum(y, 0.0, out=np.empty(y.shape))
    tail = np.abs(y, out=np.empty(y.shape))
    np.negative(tail, out=tail)
    np.exp(tail, out=tail)
    np.log1p(tail, out=tail)
    return np.subtract(out, tail, out=out)


@st.composite
def float32_batches(draw, kind):
    """A scheme that suits the head, a batch of watch times (some at or above
    2**24, where float32 no longer holds every integer) and float32 logits for
    them."""
    tail_open = heads.HEADS[kind].tail_open
    scheme = None
    if tail_open is not None:  # up to the 101 logits of a 100-bucket geo head
        scheme = draw(schemes(max_buckets=110, max_width=60, tail_open=tail_open))
    t = draw(st.lists(st.one_of(st.integers(0, 2000), st.integers(2**24, 2**26)), min_size=1, max_size=12))
    y = draw(arrays(np.float32, (len(t), heads.arity(kind, scheme)), elements=st.floats(-40, 40, width=32)))
    return scheme, t, y


def term_scales(kind, y, scheme, t):
    """Each row's absolute loss terms summed, and its largest absolute gradient term.

    The terms are what a kernel adds up: target coefficients times log p, and
    log p and y where it forms log(1 - p) = log p - y; in the gradient,
    coefficients a and a p of a (1 - p), and p.  A float32 error is measured
    against these, not against the result, since the sums cancel near the
    optimum.  A loss adds up to N + 1 terms per row, so its rounding grows
    with their count and with their absolute sum; each gradient entry adds
    at most three.
    """
    s, f = heads.HEADS[kind].encode(scheme, np.asarray(t), np.float64)
    log_p = float64_log_sigmoid(y)
    p = np.exp(log_p)
    if kind is HeadKind.BINOM:  # -(s log p + (1 - s)(log p - y)); p - s
        loss_terms, grad_terms = [log_p, y], [p, s]
    elif kind in (HeadKind.GEO, HeadKind.VGEO):  # -(sum a log p + log p_k - y_k); -a (1 - p) + p_k
        at_stop = np.zeros_like(y)  # vgeo: a = t in one column, where every row stops
        at_stop[np.arange(len(y)), f] = 1.0
        loss_terms, grad_terms = [s * log_p, at_stop * log_p, at_stop * y], [s, at_stop * p]
    else:
        # wlr: -(t log p) where t > 0, -(log p - y) where t = 0; t p - t or p
        keeps_log_q = f.astype(np.float64)
        loss_terms = [s * log_p, keeps_log_q * log_p, keeps_log_q * y]
        grad_terms = [s, keeps_log_q * p]
    return (np.sum(np.abs(np.hstack(loss_terms)), axis=1),
            np.max(np.abs(np.hstack(grad_terms)), axis=1))


class TestFloat32Kernels:
    """Training computes the losses in float32: they agree with float64 to
    1e-5 of each row's terms, and float64 logits still give exactly what the
    float64-only kernels gave."""

    @pytest.mark.parametrize("kind", list(HeadKind))
    @given(data=st.data())
    def test_float32_within_1e_5_of_float64(self, kind, data):
        scheme, t, y32 = data.draw(float32_batches(kind))
        y64 = y32.astype(np.float64)
        losses32, grads32 = heads.loss_batch(kind, y32, t, scheme)
        losses64, grads64 = heads.loss_batch(kind, y64, t, scheme)
        assert losses32.dtype == grads32.dtype == np.float32
        assert losses64.dtype == grads64.dtype == np.float64
        loss_scale, grad_scale = term_scales(kind, y64, scheme, t)
        assert np.all(np.abs(losses32 - losses64) <= 1e-5 * loss_scale)
        assert np.all(np.abs(grads32 - grads64) <= 1e-5 * grad_scale[:, None])

    @pytest.mark.parametrize("kind", list(HeadKind))
    @given(data=st.data())
    def test_float64_bit_equal_to_float64_only_log_sigmoid(self, kind, data):
        scheme, t, y32 = data.draw(float32_batches(kind))
        y = y32.astype(np.float64) + data.draw(st.floats(-0.5, 0.5))  # logits float32 cannot hold
        got = heads.loss_batch(kind, y, t, scheme)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(heads, "log_sigmoid", float64_log_sigmoid)
            want = heads.loss_batch(kind, y, t, scheme)
        for g, w in zip(got, want):
            assert_bit_equal(g, w)
        assert_bit_equal(heads.log_sigmoid(y), float64_log_sigmoid(y))

    @given(schemes(max_buckets=110, max_width=60, tail_open=True),
           st.lists(st.one_of(st.integers(0, 2000), st.integers(2**24, 2**26), st.integers(2**53, 2**62)),
                    min_size=1, max_size=12))
    # the partial 2**60 + 2**36 + 1 rounds up in a direct int64 -> float32
    # cast, and to even through float64
    @example(OPEN, [22 + 2**60 + 2**36 + 1])
    def test_geo_coefficients_in_float32_are_the_float64_ones_cast(self, scheme, t):
        a32, stop32 = heads.geo_coefficients(scheme, t, np.float32)
        a64, stop64 = heads.geo_coefficients(scheme, t)
        assert a64.dtype == np.float64
        assert_bit_equal(a32, a64.astype(np.float32))
        assert np.array_equal(stop32, stop64)

    def test_log_sigmoid_keeps_float_dtypes_and_widens_the_rest(self):
        y = np.array([-40, -1, 0, 3, 40])
        assert heads.log_sigmoid(y.astype(np.float32)).dtype == np.float32
        assert_bit_equal(heads.log_sigmoid(y), float64_log_sigmoid(y))
        assert_bit_equal(heads.sigmoid(y.astype(np.float64)), np.exp(float64_log_sigmoid(y)))


def reference_vgeo_loss_batch(logits, t):
    """vgeo's loss as its own one-column kernel, before vgeo became geo with no closed bucket."""
    t = np.asarray(t, dtype=logits.dtype)
    log_p = heads.log_sigmoid(logits[:, 0])
    log_q, p = log_p - logits[:, 0], np.exp(log_p)
    losses = -(t * log_p + log_q)
    grads = -(t * (1.0 - p) - p)
    return losses, grads[:, None]


def reference_vgeo_expectation_batch(probs, scheme=None):
    """vgeo's and wlr's estimator as its own function: the odds p / (1 - p)."""
    p = probs[:, 0]
    return p / (1.0 - p)


def reference_vgeo_prior(t):
    """vgeo's prior from its own counts: sum of t over rows, blocks summed in float64."""
    successes, failures = np.zeros(1), np.zeros(1)
    for lo in range(0, len(t), heads.PRIOR_BLOCK):
        block = t[lo : lo + heads.PRIOR_BLOCK]
        successes += block.sum(dtype=np.float64)
        failures += len(block)
    return np.log1p(successes) - np.log1p(failures)


class TestVgeoIsGeoWithNoClosedBucket:
    """vgeo runs through geo's kernel, estimator and counts with no closed
    bucket, and gives what its own one-column functions gave, bit for bit.
    The one exception is the sign of a zero gradient: where t (1 - p) = p
    exactly, geo adds p to -t (1 - p) and gets +0, the one-column kernel
    negated t (1 - p) - p and got -0."""

    @given(data=st.data(), dtype=st.sampled_from([np.float32, np.float64]))
    def test_loss_and_gradient_equal_the_one_column_kernel(self, data, dtype):
        _, t, y32 = data.draw(float32_batches(HeadKind.VGEO))
        t, y = np.asarray(t, dtype=np.int64), y32.astype(dtype)
        y[: len(t) // 2] = data.draw(st.sampled_from([-40.0, 0.0, 40.0]))  # log(1 - p) = 0 at -40
        t[: len(t) // 3] = data.draw(st.sampled_from([0, 1]))  # t = 1 at y = 0: t (1 - p) = p
        got_loss, got_grad = heads.loss_batch(HeadKind.VGEO, y, t)
        want_loss, want_grad = reference_vgeo_loss_batch(y, t)
        assert_bit_equal(got_loss, want_loss)
        assert got_grad.shape == want_grad.shape and got_grad.dtype == want_grad.dtype == dtype
        assert np.array_equal(got_grad, want_grad)
        nonzero = want_grad != 0
        assert np.array_equal(np.signbit(got_grad[nonzero]), np.signbit(want_grad[nonzero]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_the_zero_gradient_at_t_1_and_even_odds_is_positive(self, dtype):
        y, t = np.zeros((1, 1), dtype), [1]
        assert np.signbit(reference_vgeo_loss_batch(y, t)[1]).all()
        grad = heads.loss_batch(HeadKind.VGEO, y, t)[1]
        assert grad == 0 and not np.signbit(grad).any()

    @pytest.mark.parametrize("kind", [HeadKind.VGEO, HeadKind.WLR])
    @given(y=arrays(np.float64, st.integers(1, 40), elements=st.floats(-40, 40)))
    @example(y=np.array([-40.0, -16.2, 0.0, 16.2, 40.0]))  # both clamps and even odds
    def test_estimator_equals_the_odds(self, kind, y):
        logits = y[:, None]
        got = heads.expectation_batch(kind, logits)[0]
        assert_bit_equal(got, reference_vgeo_expectation_batch(probs_of(logits)))
        assert_bit_equal(heads.geo_expectation_batch(probs_of(logits), None), got)

    @given(st.lists(st.one_of(st.integers(0, 2000), st.integers(2**24, 2**26), st.integers(2**53, 2**62)),
                    min_size=1, max_size=12))
    @example([2**62] * 3)
    def test_prior_equals_the_one_column_counts(self, t):
        t = np.asarray(t, dtype=np.int64)
        assert_bit_equal(heads.prior_logits(HeadKind.VGEO, t), reference_vgeo_prior(t))

    def test_prior_over_several_blocks_equals_the_one_column_counts(self):
        t = np.random.default_rng(9).integers(2**53, 2**62, size=2 * heads.PRIOR_BLOCK + 17)
        assert_bit_equal(heads.prior_logits(HeadKind.VGEO, t), reference_vgeo_prior(t))


def binom_loss_batch(logits, soft):
    """Reference copy of binom's own kernel, before every head shared the Bernoulli one."""
    soft = np.asarray(soft, dtype=logits.dtype)
    log_p = heads.log_sigmoid(logits)
    log_q, p = log_p - logits, np.exp(log_p)
    losses = -(soft * log_p + (1.0 - soft) * log_q).sum(axis=1)
    return losses, p - soft


def geo_loss_batch(logits, a, stop_idx):
    """Reference copy of geo's and vgeo's own buffer-reusing kernel."""
    a = np.asarray(a, dtype=logits.dtype)
    log_p = heads.log_sigmoid(logits)
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


def wlr_loss_batch(logits, t):
    """Reference copy of wlr's own kernel: -(t log p) where t > 0, -log(1 - p) where t = 0."""
    t = np.asarray(t, dtype=logits.dtype)
    log_p = heads.log_sigmoid(logits[:, 0])
    log_q, p = log_p - logits[:, 0], np.exp(log_p)
    zero = t == 0
    losses = -np.where(zero, log_q, t * log_p)
    grads = np.where(zero, p, -t * (1.0 - p))
    return losses, grads[:, None]


def reference_loss_batch(kind, logits, t, scheme):
    """A head's loss through its own kernel and the encoding that kernel took."""
    if kind is HeadKind.BINOM:
        return binom_loss_batch(logits, labels.matrix(scheme, t))
    if kind is HeadKind.GEO:
        return geo_loss_batch(logits, *heads.geo_coefficients(scheme, t, logits.dtype))
    if kind is HeadKind.VGEO:
        return geo_loss_batch(logits, t[:, None].astype(logits.dtype), np.zeros(len(t), np.intp))
    return wlr_loss_batch(logits, t)


@st.composite
def kernel_batches(draw, kind):
    """``float32_batches`` in float32 or float64, with some rows at t = 0 and
    some logits at -40, 0 and 40."""
    scheme, t, y32 = draw(float32_batches(kind))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    t, y = np.asarray(t, dtype=np.int64), y32.astype(dtype)
    if dtype == np.float64:
        y += draw(st.floats(-0.5, 0.5))  # logits float32 cannot hold
    y[: len(t) // 2, 0] = draw(st.sampled_from([-40.0, 0.0, 40.0]))
    t[: len(t) // 3] = 0
    return scheme, t, y


class TestBernoulliKernelMatchesTheHeadKernels:
    """``bernoulli_loss_batch`` on each head's (s, f) performs what that head's
    own kernel performed.  binom's gradient (s + f) p - s is p - s because
    fl(s + fl(1 - s)) = 1 for every s in [0, 1] (checked over every float32
    there); only wlr's gradient t p - t for t > 0, once -t (1 - p), moves."""

    @pytest.mark.parametrize("kind", [HeadKind.BINOM, HeadKind.GEO, HeadKind.VGEO])
    @given(data=st.data())
    def test_bit_equal_to_the_head_kernel(self, kind, data):
        scheme, t, y = data.draw(kernel_batches(kind))
        got = heads.bernoulli_loss_batch(y, *heads.HEADS[kind].encode(scheme, t, y.dtype))
        for g, w in zip(got, reference_loss_batch(kind, y, t, scheme)):
            assert_bit_equal(g, w)

    @given(data=st.data())
    def test_wlr_loss_bit_equal_and_gradient_within_1_5_eps_t(self, data):
        # The analytic bound: fl(fl(t p) - t) and -fl(t fl(1 - p)) each round
        # twice, 1.5 eps t apart at most (for p < 1/2; eps t / 2 above).  The
        # largest gap measured over 3e7 draws per dtype was 0.99999 eps t.
        _, t, y = data.draw(kernel_batches(HeadKind.WLR))
        got_loss, got_grad = heads.bernoulli_loss_batch(y, *heads.HEADS[HeadKind.WLR].encode(None, t, y.dtype))
        want_loss, want_grad = wlr_loss_batch(y, t)
        assert_bit_equal(got_loss, want_loss)
        assert got_grad.shape == want_grad.shape and got_grad.dtype == want_grad.dtype
        zero = t == 0
        assert_bit_equal(got_grad[zero], want_grad[zero])
        bound = 1.5 * np.finfo(y.dtype).eps * t.astype(y.dtype).astype(np.float64)[:, None]
        assert np.all(np.abs(got_grad.astype(np.float64) - want_grad) <= bound)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @given(data=st.data())
    def test_a_success_plus_its_complement_is_one(self, dtype, data):
        edges = [0.0, 0.5, np.nextafter(dtype(0.5), dtype(0.0)), 1.0]
        drawn = data.draw(st.lists(st.floats(0.0, 1.0, width=np.finfo(dtype).bits), max_size=50))
        s = np.array(edges + drawn, dtype=dtype)
        assert np.all(s + (1 - s) == 1)


class TestGeoPmf:
    def test_first_bucket_value(self):
        assert head_pmf(np.full(4, 0.5), 4)[0] == pytest.approx(0.5**4 * 0.5, rel=1e-12)

    def test_zero_time(self):
        assert head_pmf(np.array([0.3, 0.5, 0.5, 0.5]), 0)[0] == pytest.approx(0.7, rel=1e-12)

    def test_uniform_probs_telescope(self):
        t = np.arange(60)
        for p in (0.1, 0.5, 0.9):
            want = p**t * (1 - p)
            np.testing.assert_allclose(head_pmf(np.full(4, p), t), want, rtol=0, atol=1e-12)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(6)
        probs = rng.uniform(0.05, 0.95, size=4)
        want = [simulate.process_pmf(probs, OPEN, t) for t in range(40)]
        np.testing.assert_allclose(head_pmf(probs, np.arange(40)), want, rtol=1e-12)


class TestGeoExpectation:
    def test_uniform_half_gives_one(self):
        assert geo_mean(np.full(4, 0.5)) == pytest.approx(1.0, rel=1e-9)

    def test_frozen_enumeration_value(self):
        # sum_t t * pmf(t) with the closed-form tail, computed by the
        # simulate.process_mean oracle and frozen here; by hand, the survival
        # sum (.9 + .. + .9^5) + .9^5 (.7 + .. + .7^7) + .9^5 .7^7 (.5 + .. + .5^10)
        # + .9^5 .7^7 .5^10 (.2 / .8) gives the same value
        assert geo_mean([0.9, 0.7, 0.5, 0.2]) == pytest.approx(4.99852519529455, rel=1e-9)

    def test_near_clamp_floor(self):
        probs = np.full(4, 1e-7)
        got = geo_mean(probs)
        assert got == pytest.approx(simulate.process_mean(probs, OPEN), rel=1e-9)
        assert got == pytest.approx(1e-7, rel=1e-3)

    def test_near_clamp_ceiling_stays_stable(self):
        probs = np.full(4, 1.0 - 1e-7)
        assert geo_mean(probs) == pytest.approx(simulate.process_mean(probs, OPEN), rel=1e-9)
        # buckets of width >= 1000 at and just below the ceiling
        wide = from_endpoints([3, 1003, 3003], tail_open=True)
        for probs in (np.full(4, 1.0 - 1e-7), np.array([0.5, 1.0 - 3e-7, 1.0 - 1e-7, 0.9])):
            want = simulate.process_mean(probs, wide)
            assert geo_mean(probs, wide) == pytest.approx(want, rel=1e-9)

    def test_random_schemes_match_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            widths = rng.integers(1, 30, size=rng.integers(1, 10))
            scheme = BucketScheme(tuple(np.cumsum(widths).tolist()), tail_open=True)
            probs = rng.uniform(0.05, 0.95, size=scheme.n_buckets + 1)
            want = simulate.process_mean(probs, scheme)
            assert geo_mean(probs, scheme) == pytest.approx(want, rel=1e-9)


class TestVGeoLoss:
    def test_zero_time(self):
        value, _ = loss(HeadKind.VGEO, [0.4], 0)
        assert value == pytest.approx(-math.log(0.6), rel=1e-12)

    def test_balanced_point(self):
        value, grad = loss(HeadKind.VGEO, [0.5], 1)
        assert value == pytest.approx(2 * math.log(2), rel=1e-12)
        assert grad[0] == pytest.approx(0.0, abs=1e-12)

    def test_gradient_zero_at_mle(self):
        for t in (0, 1, 5, 40):
            _, grad = loss(HeadKind.VGEO, [t / (t + 1) if t else 1e-7], t)
            assert grad[0] == pytest.approx(0.0, abs=1e-6)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        draws = [(rng.uniform(-5, 5, size=1), int(rng.integers(0, 50))) for _ in range(25)]
        for y, t in draws + [(np.array([20.0]), 3)]:  # saturated
            _, grad = loss_at(HeadKind.VGEO, y, t)
            fd = fd_gradient(lambda yy: loss_at(HeadKind.VGEO, yy, t)[0], y)
            assert_grad_close(grad, fd)


class TestWlrLoss:
    def test_matches_vgeo_at_zero(self):
        assert loss(HeadKind.WLR, [0.7], 0)[0] == loss(HeadKind.VGEO, [0.7], 0)[0]

    def test_gradient_gap_is_exactly_p(self):
        # the missing log(1-p) term shifts the gradient by exactly p; the
        # magnitude gap equals p wherever both gradients pull the same way
        # (p below the stationary point t/(t+1))
        rng = np.random.default_rng(9)
        for _ in range(50):
            y = rng.uniform(-4, 4, size=1)
            t = int(rng.integers(1, 30))
            gw = loss_at(HeadKind.WLR, y, t)[1][0]
            gv = loss_at(HeadKind.VGEO, y, t)[1][0]
            p = heads.sigmoid(y)[0]
            assert gv - gw == pytest.approx(p, abs=1e-12)
            if p < t / (t + 1):
                assert abs(gw) - abs(gv) == pytest.approx(p, abs=1e-9)

    def test_unregularized_above_zero(self):
        value, grad = loss(HeadKind.WLR, [0.999], 10)
        assert value == pytest.approx(-10 * math.log(0.999), rel=1e-9)
        assert grad[0] == pytest.approx(-0.01, rel=1e-6)
        # no log(1-p) term: loss keeps falling as p -> 1
        assert loss(HeadKind.WLR, [0.9999], 10)[0] < value

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        draws = [(rng.uniform(-5, 5, size=1), int(rng.integers(0, 50))) for _ in range(25)]
        for y, t in draws + [(np.array([-20.0]), 5)]:  # saturated
            _, grad = loss_at(HeadKind.WLR, y, t)
            fd = fd_gradient(lambda yy: loss_at(HeadKind.WLR, yy, t)[0], y)
            assert_grad_close(grad, fd)


class TestExpectation:
    def test_binom_reproduces_per_bucket_times(self):
        got = expectation(HeadKind.BINOM, [0.6, 2 / 7, 0.5], CLOSED)
        assert got == pytest.approx(10.0, rel=1e-12)

    def test_vgeo_unit(self):
        assert heads.expectation_batch(HeadKind.VGEO, np.zeros((1, 1)))[0][0] == 1.0

    def test_binom_saturates_at_horizon(self):
        got = expectation(HeadKind.BINOM, np.full(3, 1 - 1e-7), CLOSED)
        assert got == pytest.approx(22.0, rel=1e-6)

    def test_binom_monotone_and_bounded(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            p = rng.uniform(1e-7, 1 - 1e-7, size=3)
            base = expectation(HeadKind.BINOM, p, CLOSED)
            assert 0.0 <= base <= 22.0
            for i in range(3):
                bumped = p.copy()
                bumped[i] = min(bumped[i] + 0.01, 1 - 1e-7)
                assert expectation(HeadKind.BINOM, bumped, CLOSED) > base

    def test_wlr_and_vgeo_share_estimator(self):
        y = np.array([[1.3]])
        wlr = heads.expectation_batch(HeadKind.WLR, y)[0][0]
        assert wlr == heads.expectation_batch(HeadKind.VGEO, y)[0][0]
        assert wlr == pytest.approx(math.exp(1.3), rel=1e-12)

    def test_stationary_estimator_finite_at_extreme_logits(self):
        # the odds of clamped probabilities saturate near 1e7 like the geo
        # tail, where exp(y) would overflow to inf near y = 710
        for kind in (HeadKind.VGEO, HeadKind.WLR):
            extreme = heads.expectation_batch(kind, np.array([[-800.0], [-40.0], [40.0], [800.0]]))[0]
            assert np.all(np.isfinite(extreme)) and np.all(extreme > 0)
            assert extreme.max() == pytest.approx(1e7, rel=1e-6)
            y = np.linspace(-16.0, 16.0, 321)
            got = heads.expectation_batch(kind, y[:, None])[0]
            np.testing.assert_allclose(got, np.exp(y), rtol=1e-8)

    def test_geo_dispatch(self):
        assert expectation(HeadKind.GEO, np.full(4, 0.5), OPEN) == pytest.approx(1.0, rel=1e-9)

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            expectation(HeadKind.BINOM, [0.5, 0.5], CLOSED)
        with pytest.raises(ValueError):
            expectation(HeadKind.VGEO, [0.5, 0.5])

    def test_head_scheme_pairing_enforced(self):
        with pytest.raises(ValueError, match="closed"):
            heads.arity(HeadKind.BINOM, OPEN)
        with pytest.raises(ValueError, match="open"):
            heads.arity(HeadKind.GEO, CLOSED)


class TestExpandedBinomialForm:
    def test_loss_matches_piecewise_expansion(self):
        # expanding the soft labels into the objective gives, per bucket:
        # log(1-p_i) below the watched range, log p_i above it, and the
        # width-fraction mixture inside the stop bucket
        rng = np.random.default_rng(12)
        xs = (0,) + CLOSED.endpoints
        for _ in range(50):
            y = rng.uniform(-4, 4, size=3)
            probs = heads.sigmoid(y[None, :])
            t = int(rng.integers(0, 23))
            value, _ = loss_at(HeadKind.BINOM, y, t)
            expanded = 0.0
            for i in range(1, 4):
                lo, hi, p = xs[i - 1], xs[i], probs[0, i - 1]
                if t <= lo:
                    expanded -= math.log(1 - p)
                elif t > hi:
                    expanded -= math.log(p)
                else:
                    frac = (t - lo) / (hi - lo)
                    expanded -= frac * math.log(p) + (1 - frac) * math.log(1 - p)
            assert value == pytest.approx(expanded, rel=1e-12)


class TestPmfProductStructure:
    def test_heterogeneous_probability_products(self):
        # watch times 4, 10, 13 on buckets of widths 5, 7, 10: the pmf is the
        # product of fully watched bucket powers, the in-bucket power, and
        # one stop factor
        p = np.array([0.9, 0.7, 0.5, 0.2])
        pmf = head_pmf(p, [4, 10, 13, 25])
        assert pmf[0] == pytest.approx(p[0] ** 4 * (1 - p[0]), rel=1e-12)
        assert pmf[1] == pytest.approx(p[0] ** 5 * p[1] ** 5 * (1 - p[1]), rel=1e-12)
        assert pmf[2] == pytest.approx(p[0] ** 5 * p[1] ** 7 * p[2] ** 1 * (1 - p[2]), rel=1e-12)
        assert pmf[3] == pytest.approx(
            p[0] ** 5 * p[1] ** 7 * p[2] ** 10 * p[3] ** 3 * (1 - p[3]), rel=1e-12
        )


def bias_only_optimum(kind, scheme, t, i, lo=-40.0, hi=40.0, points=101, rounds=6):
    """The logit y_i in [lo, hi] minimizing the summed ``loss_batch`` over watch
    times t with every other logit at 0: the best of a grid, refined around
    the best point each round (the loss is convex in y_i)."""
    t = np.asarray(t)
    for _ in range(rounds):
        ys = np.linspace(lo, hi, points)
        logits = np.zeros((points * len(t), heads.arity(kind, scheme)))
        logits[:, i] = np.repeat(ys, len(t))
        totals = heads.loss_batch(kind, logits, np.tile(t, points), scheme)[0].reshape(points, -1).sum(axis=1)
        k = int(np.argmin(totals))
        lo, hi = ys[max(k - 1, 0)], ys[min(k + 1, points - 1)]
    return ys[k]


class TestPrior:
    PRIOR_HEADS = (HeadKind.BINOM, HeadKind.GEO, HeadKind.VGEO)

    @staticmethod
    def counts(kind, scheme, t):
        """Each logit's successes and failures summed over the rows of one encode."""
        s, f = heads.HEADS[kind].encode(scheme, np.asarray(t, dtype=np.int64), np.float64)
        failures = np.bincount(f, minlength=s.shape[1]) if f.ndim == 1 else f.sum(axis=0)
        return s.sum(axis=0), failures

    @settings(deadline=None)
    @given(schemes(max_buckets=5, max_width=12), st.lists(st.integers(0, 70), min_size=1, max_size=30))
    def test_successes_over_trials_minimize_the_bias_only_loss(self, drawn, t):
        for kind in self.PRIOR_HEADS:
            tail_open = heads.HEADS[kind].tail_open
            scheme = None if tail_open is None else BucketScheme(drawn.endpoints, tail_open)
            successes, failures = self.counts(kind, scheme, t)
            trials = np.broadcast_to(successes + failures, (heads.arity(kind, scheme),))
            for i in np.flatnonzero(trials):  # a logit no row reaches leaves the loss flat
                want = np.atleast_1d(successes)[i] / trials[i]
                got = float(heads.sigmoid(bias_only_optimum(kind, scheme, t, i)))
                assert got == pytest.approx(want, abs=1e-6), (kind, i)

    @pytest.mark.parametrize("kind", PRIOR_HEADS)
    def test_blockwise_sums_equal_one_whole_batch_encode(self, kind, monkeypatch):
        t = np.random.default_rng(5).geometric(0.08, size=20) - 1
        scheme = scheme_for(kind)
        successes, failures = self.counts(kind, scheme, t)
        monkeypatch.setattr(heads, "PRIOR_BLOCK", 3)
        np.testing.assert_allclose(heads.prior_logits(kind, t, scheme),
                                   np.log1p(successes) - np.log1p(failures), rtol=1e-12, atol=0)

    def test_geo_tail_stays_finite_with_no_watch_time_beyond_the_last_endpoint(self):
        # three of the times end at x_N = 22: each stops in the tail, which no
        # second continues, so its unsmoothed logit would be -inf
        prior = heads.prior_logits(HeadKind.GEO, [3, 9, 22, 22, 15, 22], OPEN)
        assert np.all(np.isfinite(prior))
        assert prior[-1] == pytest.approx(-math.log(4.0), rel=1e-12)

    def test_vgeo_sum_past_int64_stays_finite(self):
        # 3 * 2**62 seconds wrap an int64 sum negative, and log1p of it is NaN
        prior = heads.prior_logits(HeadKind.VGEO, [2**62] * 3)
        assert prior[0] == pytest.approx(math.log1p(3 * 2.0**62) - math.log1p(3), rel=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            heads.prior_logits(HeadKind.GEO, [3, -3], OPEN)
