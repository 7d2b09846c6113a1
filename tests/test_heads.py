import math

import numpy as np
import pytest

from swat import heads, labels, simulate
from swat.buckets import BucketScheme, from_endpoints
from swat.heads import HeadKind

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


def loss(kind, probs, t, scheme=None):
    """One sample's loss and logit gradient at the given probabilities."""
    scheme = scheme or scheme_for(kind)
    encoded = heads.encode_targets(kind, scheme, [t])
    losses, grads = heads.loss_batch(kind, np.atleast_2d(probs), encoded)
    return float(losses[0]), grads[0]


def loss_at(kind, logits, t, scheme=None):
    return loss(kind, probs_of(logits), t, scheme)


def head_pmf(probs, t, scheme=OPEN):
    """Head pmf exp(-loss) of each watch time in t."""
    a, stop = heads.encode_targets(HeadKind.GEO, scheme, np.atleast_1d(t))
    losses, _ = heads.loss_batch(HeadKind.GEO, np.broadcast_to(probs, a.shape), (a, stop))
    return np.exp(-losses)


def expectation(kind, probs, scheme=None):
    probs = np.atleast_2d(np.asarray(probs, dtype=np.float64))
    return float(heads.expectation_batch(kind, probs, scheme)[0])


def geo_mean(probs, scheme=OPEN):
    return float(heads.geo_expectation_batch(np.atleast_2d(probs), scheme)[0])


class TestSigmoid:
    def test_probs_clamped(self):
        probs = probs_of([50.0, -50.0])[0]
        assert probs[0] == 1.0 - 1e-7
        assert probs[1] == 1e-7

    def test_zero_logits_give_half(self):
        assert np.allclose(probs_of([0.0, 0.0]), 0.5)

    def test_sigmoid_expectation_identity(self):
        # 1/(1 - sigmoid(y)) - 1 == exp(y); evaluated as p/(1-p) with
        # 1-p = sigmoid(-y) so float cancellation cannot mask the identity
        y = np.linspace(-30.0, 30.0, 2001)
        lhs = heads.sigmoid(y) / heads.sigmoid(-y)
        np.testing.assert_allclose(lhs, np.exp(y), rtol=1e-12)


class TestEncodeTargets:
    def test_negative_time_rejected(self):
        # every head, geo included, rejects t < 0 on the one encoding path
        for kind in HeadKind:
            with pytest.raises(ValueError, match="non-negative"):
                heads.encode_targets(kind, scheme_for(kind), [3, -3])


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
        for _ in range(25):
            y = rng.uniform(-5, 5, size=3)
            t = int(rng.integers(0, 23))
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
        for _ in range(25):
            y = rng.uniform(-5, 5, size=4)
            t = int(rng.integers(0, 40))
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
        for _ in range(25):
            y = rng.uniform(-5, 5, size=1)
            t = int(rng.integers(0, 50))
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
            probs = probs_of(rng.uniform(-4, 4, size=1))
            t = int(rng.integers(1, 30))
            gw = loss(HeadKind.WLR, probs, t)[1][0]
            gv = loss(HeadKind.VGEO, probs, t)[1][0]
            p = probs[0, 0]
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
        for _ in range(25):
            y = rng.uniform(-5, 5, size=1)
            t = int(rng.integers(0, 50))
            _, grad = loss_at(HeadKind.WLR, y, t)
            fd = fd_gradient(lambda yy: loss_at(HeadKind.WLR, yy, t)[0], y)
            assert_grad_close(grad, fd)


class TestExpectation:
    def test_binom_reproduces_per_bucket_times(self):
        got = expectation(HeadKind.BINOM, [0.6, 2 / 7, 0.5], CLOSED)
        assert got == pytest.approx(10.0, rel=1e-12)

    def test_vgeo_unit(self):
        assert expectation(HeadKind.VGEO, probs_of([0.0])) == 1.0

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
        probs = probs_of([1.3])
        wlr = expectation(HeadKind.WLR, probs)
        assert wlr == expectation(HeadKind.VGEO, probs)
        assert wlr == pytest.approx(math.exp(1.3), rel=1e-12)

    def test_stationary_estimator_finite_at_extreme_logits(self):
        # the odds of clamped probabilities saturate near 1e7 like the geo
        # tail, where exp(y) would overflow to inf near y = 710
        for kind in (HeadKind.VGEO, HeadKind.WLR):
            extreme = heads.expectation_batch(kind, probs_of([[-800.0], [-40.0], [40.0], [800.0]]))
            assert np.all(np.isfinite(extreme)) and np.all(extreme > 0)
            assert extreme.max() == pytest.approx(1e7, rel=1e-6)
            y = np.linspace(-16.0, 16.0, 321)
            got = heads.expectation_batch(kind, probs_of(y[:, None]))
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
            probs = probs_of(rng.uniform(-4, 4, size=3))
            t = int(rng.integers(0, 23))
            value, _ = loss(HeadKind.BINOM, probs, t)
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
