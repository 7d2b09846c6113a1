import numpy as np
from hypothesis import given, strategies as st

from swat import heads, labels
from swat.buckets import from_endpoints
from swat.heads import HeadKind

from conftest import schemes

SCHEME = from_endpoints([5, 12, 22])


def row(scheme, t):
    return labels.matrix(scheme, [t])[0]


def read_back(scheme, rows):
    """The binom estimator at label rows, rounded to whole seconds."""
    return np.rint(heads.HEADS[HeadKind.BINOM].expectation(np.atleast_2d(rows), scheme))


def clip_matrix(scheme, targets):
    """The label matrix as a clip of (t - x_{i-1}) / width to [0, 1]."""
    t = np.asarray(targets, dtype=np.float64)[:, None]
    lo = np.array((0,) + scheme.endpoints[:-1], dtype=np.float64)[None, :]
    widths = np.array(scheme.widths, dtype=np.float64)[None, :]
    return np.clip((t - lo) / widths, 0.0, 1.0)


@st.composite
def schemes_and_targets(draw):
    """A scheme with targets at 0, at every endpoint, past x_N and in between."""
    scheme = draw(schemes())
    last = scheme.endpoints[-1]
    past = draw(st.lists(st.integers(last + 1, last + 1000), min_size=1, max_size=4))
    inside = draw(st.lists(st.integers(0, last), max_size=10))
    return scheme, np.array([0, *scheme.endpoints, *past, *inside], dtype=np.int64)


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
        assert read_back(SCHEME, row(SCHEME, 22)) == [22]

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


class TestSeconds:
    def test_partial_bucket_and_tail(self):
        assert labels.seconds(SCHEME, [10, 30]).tolist() == [[5.0, 5.0, 0.0, 0.0], [5.0, 7.0, 10.0, 8.0]]

    @given(schemes_and_targets())
    def test_matrix_bit_equal_to_clip_formula(self, drawn):
        scheme, targets = drawn
        got, want = labels.matrix(scheme, targets), clip_matrix(scheme, targets)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @given(schemes_and_targets())
    def test_rows_sum_to_t_within_bucket_widths(self, drawn):
        scheme, targets = drawn
        secs = labels.seconds(scheme, targets)
        assert secs.shape == (len(targets), scheme.n_buckets + 1) and secs.dtype == np.float64
        assert np.array_equal(secs.sum(axis=1), targets)
        assert np.all((secs[:, :-1] >= 0) & (secs[:, :-1] <= np.array(scheme.widths)))
        assert np.all(secs[:, -1] >= 0)

    @given(schemes_and_targets())
    def test_buckets_fill_in_order(self, drawn):
        scheme, targets = drawn
        secs = labels.seconds(scheme, targets)
        # filled_through[:, i]: buckets 0..i are all full, so bucket i + 1 may hold seconds
        filled_through = np.logical_and.accumulate(secs[:, :-1] == np.array(scheme.widths), axis=1)
        assert np.all(secs[:, 1:][~filled_through] == 0)


class TestDecode:
    """The binom estimator reads each watch time back from its soft labels."""

    def test_inverse_of_partial_encoding(self):
        assert read_back(SCHEME, (1.0, 5 / 7, 0.0)) == [10]

    def test_all_zero_decodes_to_zero(self):
        assert read_back(SCHEME, (0.0, 0.0, 0.0)) == [0]

    def test_exhaustive_round_trip_on_figure_scheme(self):
        ts = np.arange(SCHEME.endpoints[-1] + 1)
        assert np.array_equal(read_back(SCHEME, labels.matrix(SCHEME, ts)), ts)

    @given(schemes(tail_open=False), st.integers(0, 10_000))
    def test_round_trip(self, scheme, t):
        t = min(t, scheme.endpoints[-1])
        assert read_back(scheme, row(scheme, t)) == [t]


class TestClippedDecode:
    def test_clipped_encoding_decodes_to_horizon_edge(self):
        assert read_back(SCHEME, row(SCHEME, 99)) == [SCHEME.endpoints[-1]]
