import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from swat import heads, simulate
from swat.buckets import BucketScheme, from_endpoints
from swat.heads import HeadKind
from swat.simulate import Behavior, BehaviorProfile

from conftest import schemes

SCHEME = from_endpoints([5, 12, 22])
# SCHEME as read from scheme.json files written while schemes carried a tail flag, now ignored
CLOSED_FILE, OPEN_FILE = (BucketScheme.from_dict({"endpoints": [5, 12, 22], "tail_open": tail})
                          for tail in (False, True))


def profile(kind, probs, scheme=None, seed=0):
    return BehaviorProfile(kind, tuple(probs), scheme, seed)


class TestProfileValidation:
    def test_probability_bounds(self):
        with pytest.raises(ValueError, match="in \\(0, 1\\)"):
            profile(Behavior.STATIONARY, (1.0,))

    def test_arity_checks(self):
        with pytest.raises(ValueError, match="3 probabilities"):
            profile(Behavior.WANDERING, (0.5, 0.5), SCHEME)
        with pytest.raises(ValueError, match="4 probabilities"):
            profile(Behavior.FOCUSED, (0.5, 0.5, 0.5), SCHEME)
        with pytest.raises(ValueError, match="stationary profile needs 1 probability, got 2"):
            profile(Behavior.STATIONARY, (0.5, 0.5))

    def test_scheme_required(self):
        with pytest.raises(ValueError, match="scheme"):
            profile(Behavior.FOCUSED, (0.5,) * 4)

    @pytest.mark.parametrize("scheme", [CLOSED_FILE, OPEN_FILE])
    def test_stationary_takes_no_scheme(self, scheme):
        # the stationary law reads no bucket, so a scheme would be recorded and never used
        with pytest.raises(ValueError, match="stationary profile: vgeo head takes no bucket scheme"):
            profile(Behavior.STATIONARY, (0.5,), scheme)

    def test_each_behavior_is_the_law_of_one_head(self):
        assert simulate.HEAD_OF == {Behavior.WANDERING: HeadKind.BINOM, Behavior.FOCUSED: HeadKind.GEO,
                                    Behavior.STATIONARY: HeadKind.VGEO}

    @pytest.mark.parametrize("kind", list(Behavior), ids=lambda k: k.value)
    @pytest.mark.parametrize("scheme", [None, CLOSED_FILE, OPEN_FILE],
                             ids=["no scheme", "closed tail", "open tail"])
    def test_accepts_exactly_what_its_head_accepts(self, kind, scheme):
        # whatever tail an old file recorded, the head decides the probabilities
        assert scheme in (None, SCHEME)
        try:
            arity = heads.arity(simulate.HEAD_OF[kind], scheme)
        except ValueError:
            arity = None
        for n in range(7):
            try:
                profile(kind, (0.5,) * n, scheme)
            except ValueError:
                assert n != arity
            else:
                assert n == arity


class TestWandering:
    def test_extreme_probabilities(self):
        # probabilities cannot be exactly 0/1; the clamp boundary is close enough
        hi = profile(Behavior.WANDERING, (1 - 1e-12,) * 3, SCHEME)
        assert np.all(simulate.draw(hi, 100) == 22)
        assert np.all(simulate.wandering_buckets(hi, 100) == np.asarray(SCHEME.widths))
        lo = profile(Behavior.WANDERING, (1e-12,) * 3, SCHEME)
        assert np.all(simulate.draw(lo, 100) == 0)

    def test_mean_matches_width_weighted_probabilities(self):
        p = (0.6, 2 / 7, 0.5)
        prof = profile(Behavior.WANDERING, p, SCHEME, seed=123)
        t, per = simulate.draw(prof, 1_000_000), simulate.wandering_buckets(prof, 1_000_000)
        true_mean = sum(w * pi for w, pi in zip(SCHEME.widths, p))  # = 10
        band = 4 * t.std() / np.sqrt(len(t))
        assert abs(t.mean() - true_mean) < band
        assert np.all(t == per.sum(axis=1))

    def test_seed_determinism(self):
        prof = profile(Behavior.WANDERING, (0.3, 0.5, 0.7), SCHEME, seed=9)
        assert np.array_equal(simulate.draw(prof, 1000), simulate.draw(prof, 1000))


class TestFocused:
    def test_near_deterministic_boundary(self):
        prof = profile(Behavior.FOCUSED, (1 - 1e-7, 1e-7, 1e-7, 1e-7), SCHEME, seed=1)
        t = simulate.draw(prof, 5000)
        assert np.mean(t == SCHEME.endpoints[0]) > 0.999

    def test_uniform_probability_matches_geometric_pmf(self):
        prof = profile(Behavior.FOCUSED, (0.5,) * 4, SCHEME, seed=2)
        draws = simulate.draw(prof, 1_000_000)
        for t in range(9):
            want = 0.5**t * 0.5
            got = np.mean(draws == t)
            se = np.sqrt(want * (1 - want) / len(draws))
            assert abs(got - want) < 5 * se

    def test_mean_matches_process_oracle(self):
        p = (0.9, 0.6, 0.4, 0.3)
        prof = profile(Behavior.FOCUSED, p, SCHEME, seed=3)
        draws = simulate.draw(prof, 1_000_000)
        want = simulate.process_mean(p, SCHEME)
        band = 4 * draws.std() / np.sqrt(len(draws))
        assert abs(draws.mean() - want) < band

    def test_seed_determinism(self):
        prof = profile(Behavior.FOCUSED, (0.8, 0.6, 0.4, 0.2), SCHEME, seed=4)
        assert np.array_equal(simulate.draw(prof, 2000), simulate.draw(prof, 2000))


class TestStationary:
    def test_mean_is_odds(self):
        prof = profile(Behavior.STATIONARY, (0.5,), seed=5)
        draws = simulate.draw(prof, 1_000_000)
        assert draws.mean() == pytest.approx(1.0, abs=0.01)

    def test_tiny_probability_draws_zero(self):
        prof = profile(Behavior.STATIONARY, (1e-7,), seed=6)
        assert np.all(simulate.draw(prof, 10_000) == 0)

    def test_mass_at_zero(self):
        p = 0.35
        prof = profile(Behavior.STATIONARY, (p,), seed=7)
        draws = simulate.draw(prof, 500_000)
        assert np.mean(draws == 0) == pytest.approx(1 - p, abs=0.005)

    @given(st.floats(1e-7, 1 - 1e-7), st.integers(0, 2**32), st.integers(1, 2000))
    def test_focused_with_no_scheme_is_the_stationary_stream(self, p, seed, n):
        # the sampler the stationary user had before it became focused with no closed bucket
        want = np.random.default_rng(seed).geometric(1.0 - p, size=n) - 1
        got = simulate.draw(profile(Behavior.STATIONARY, (p,), seed=seed), n)
        assert got.dtype == want.dtype and np.array_equal(got, want)


class TestOracles:
    def test_process_mass_is_exactly_one(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            widths = rng.integers(1, 10, size=rng.integers(1, 6))
            scheme = from_endpoints(np.cumsum(widths).tolist())
            probs = rng.uniform(0.05, 0.95, size=scheme.n_buckets + 1)
            x_n = scheme.endpoints[-1]
            mass = sum(simulate.process_pmf(probs, scheme, t) for t in range(x_n))
            mass += simulate._survival(probs, scheme, x_n)
            assert mass == pytest.approx(1.0, abs=1e-12)

    # the pmfs take t's bucket by the open-tail rule: bucket 1 holds t = 0,
    # bucket i holds (x_{i-1}, x_i] and bucket N + 1 every t past x_N
    def test_pmf_interior_bucket(self):
        probs = (0.9, 0.6, 0.4, 0.3)
        assert simulate.process_pmf(probs, SCHEME, 10) == pytest.approx(0.9**5 * 0.6**5 * 0.4, rel=1e-12)

    def test_pmf_zero_in_first_bucket(self):
        assert simulate.process_pmf((0.9, 0.6, 0.4, 0.3), SCHEME, 0) == pytest.approx(0.1, rel=1e-12)

    def test_pmf_open_tail(self):
        probs = (0.9, 0.6, 0.4, 0.3)
        assert simulate.process_pmf(probs, SCHEME, 23) == pytest.approx(
            0.9**5 * 0.6**7 * 0.4**10 * 0.3 * 0.7, rel=1e-12)

    @given(schemes(), st.integers(0, 400), st.data())
    def test_pmfs_match_the_per_second_walk(self, scheme, t, data):
        # second s continues with the probability of the first bucket whose
        # endpoint is >= s, found by a scan, else of the open tail
        k = scheme.n_buckets + 1
        probs = data.draw(st.lists(st.floats(0.05, 0.95), min_size=k, max_size=k))

        def p(s):
            return probs[next((i for i, x in enumerate(scheme.endpoints) if s <= x), k - 1)]

        survival = math.prod(p(s) for s in range(1, t + 1))
        assert simulate.process_pmf(probs, scheme, t) == pytest.approx(survival * (1 - p(t + 1)), rel=1e-9)


class TestDrawGuards:
    def test_kind_mismatch_rejected(self):
        prof = profile(Behavior.STATIONARY, (0.5,))
        with pytest.raises(ValueError, match="wandering"):
            simulate.wandering_buckets(prof, 10)

    def test_oracles_check_arity(self):
        with pytest.raises(ValueError, match="4 probabilities"):
            simulate.process_mean((0.5, 0.5), SCHEME)
        with pytest.raises(ValueError, match="4 probabilities"):
            simulate.process_pmf((0.5,) * 3, SCHEME, 23)

    def test_draw_dispatch_covers_all_kinds(self):
        for prof in (
            profile(Behavior.WANDERING, (0.5, 0.5, 0.5), SCHEME, seed=1),
            profile(Behavior.FOCUSED, (0.5,) * 4, SCHEME, seed=1),
            profile(Behavior.STATIONARY, (0.5,), seed=1),
        ):
            draws = simulate.draw(prof, 50)
            assert draws.shape == (50,)
            assert np.all(draws >= 0)
