import numpy as np
import pytest
from hypothesis import given, strategies as st

from swat import labels
from swat.buckets import from_endpoints

from conftest import schemes

SCHEME = from_endpoints([5, 12, 22])


def row(scheme, t):
    return labels.matrix(scheme, [t])[0]


def per_sample_encode(scheme, t):
    """The piecewise label definition, one bucket at a time."""
    xs = (0,) + scheme.endpoints
    vals = []
    for lo, hi in zip(xs, xs[1:]):
        vals.append(0.0 if t <= lo else 1.0 if t > hi else (t - lo) / (hi - lo))
    return vals


class TestEncode:
    def test_partial_bucket(self):
        assert tuple(row(SCHEME, 10)) == (1.0, 5 / 7, 0.0)

    def test_zero_time_all_zero(self):
        assert tuple(row(SCHEME, 0)) == (0.0, 0.0, 0.0)

    def test_beyond_horizon_clips_to_ones(self):
        assert tuple(row(SCHEME, 30)) == (1.0, 1.0, 1.0)

    def test_no_clip_inside_horizon(self):
        # x_N itself is inside the horizon: its all-ones row decodes exactly
        assert tuple(row(SCHEME, 22)) == (1.0, 1.0, 1.0)
        assert labels.decode(SCHEME, row(SCHEME, 22)) == 22

    def test_exact_endpoint_fills_bucket(self):
        assert tuple(row(SCHEME, 12)) == (1.0, 1.0, 0.0)

    @given(schemes(tail_open=False), st.integers(0, 500))
    def test_labels_non_increasing_and_bounded(self, scheme, t):
        vals = row(scheme, t)
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert sum(1 for v in vals if 0.0 < v < 1.0) <= 1

    @given(schemes(tail_open=False), st.integers(0, 300), st.integers(0, 300))
    def test_monotone_in_time(self, scheme, t1, t2):
        lo, hi = sorted((t1, t2))
        assert all(x <= y for x, y in zip(row(scheme, lo), row(scheme, hi)))


class TestMatrix:
    def test_matches_per_sample_encode(self):
        targets = np.arange(0, 30)
        mat = labels.matrix(SCHEME, targets)
        for got, t in zip(mat, targets):
            assert np.allclose(got, per_sample_encode(SCHEME, int(t)))

    def test_expected_labels_non_increasing_under_any_distribution(self):
        # per-row monotonicity survives averaging, so the per-bucket
        # cross-entropy optimum is non-increasing for any watch-time law
        rng = np.random.default_rng(0)
        for _ in range(20):
            targets = rng.integers(0, 30, size=rng.integers(1, 500))
            expected = labels.matrix(SCHEME, targets).mean(axis=0)
            assert np.all(np.diff(expected) <= 1e-12)


class TestDecode:
    def test_inverse_of_partial_encoding(self):
        assert labels.decode(SCHEME, (1.0, 5 / 7, 0.0)) == 10

    def test_all_zero_decodes_to_zero(self):
        assert labels.decode(SCHEME, (0.0, 0.0, 0.0)) == 0

    def test_non_monotone_rejected(self):
        with pytest.raises(ValueError, match="non-increasing"):
            labels.decode(SCHEME, (0.0, 1.0, 0.0))

    def test_out_of_range_label_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            labels.decode(SCHEME, (1.5, 0.0, 0.0))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="buckets"):
            labels.decode(SCHEME, (1.0, 0.0))

    def test_exhaustive_round_trip_on_figure_scheme(self):
        ts = np.arange(SCHEME.endpoints[-1] + 1)
        for t, got in zip(ts, labels.matrix(SCHEME, ts)):
            assert labels.decode(SCHEME, got) == t

    @given(schemes(tail_open=False), st.integers(0, 10_000))
    def test_round_trip(self, scheme, t):
        t = min(t, scheme.endpoints[-1])
        assert labels.decode(scheme, row(scheme, t)) == t


class TestClippedDecode:
    def test_clipped_encoding_decodes_to_horizon_edge(self):
        assert labels.decode(SCHEME, row(SCHEME, 99)) == SCHEME.endpoints[-1]
