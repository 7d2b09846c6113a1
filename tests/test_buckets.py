import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from swat.buckets import BucketScheme, ablation_choice, from_endpoints, from_percentiles

from conftest import schemes


def sorted_percentile(values, q):
    """Independent oracle: 1-based index ceil(q * n / 100) into the sorted list."""
    srt = sorted(values)
    idx = math.ceil(q * len(srt) / 100)
    return srt[max(idx, 1) - 1]


class TestFromEndpoints:
    def test_widths_of_figure_scheme(self):
        scheme = from_endpoints([5, 12, 22])
        assert scheme.widths == (5, 7, 10)

    def test_sort_and_dedup(self):
        scheme = from_endpoints([10, 10, 5])
        assert scheme.endpoints == (5, 10)
        assert scheme.widths == (5, 5)

    def test_no_positive_endpoint_raises(self):
        with pytest.raises(ValueError, match=r"no positive endpoint among \[0, -3\]"):
            from_endpoints([0, -3])

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="no endpoints"):
            from_endpoints([])

    def test_nonpositive_values_dropped(self):
        assert from_endpoints([-1, 0, 3]).endpoints == (3,)

    def test_constructor_rejects_unsorted(self):
        with pytest.raises(ValueError):
            BucketScheme((5, 3))


class TestFromPercentiles:
    def test_uniform_grid(self):
        scheme = from_percentiles(list(range(1, 101)), 10)
        assert scheme.endpoints == tuple(range(10, 101, 10))

    def test_all_equal_collapse(self):
        scheme = from_percentiles([3] * 17, 5)
        assert scheme.endpoints == (3,)

    def test_skewed_targets(self):
        scheme = from_percentiles([1, 1, 1, 1, 50], 20)
        assert scheme.endpoints == (1, 50)

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(0)
        targets = rng.integers(1, 500, size=373).tolist()
        step = 5
        expected = sorted({sorted_percentile(targets, q) for q in range(step, 101, step)})
        assert from_percentiles(targets, step).endpoints == tuple(expected)

    def test_maximum_always_included(self):
        targets = [1] * 99 + [777]
        # step 3 does not divide 100; the max still closes the grid
        assert from_percentiles(targets, 3).endpoints[-1] == 777

    def test_empty_targets_raise(self):
        with pytest.raises(ValueError, match="no targets"):
            from_percentiles([], 10)

    def test_bad_step_raises(self):
        with pytest.raises(ValueError, match="percent_step"):
            from_percentiles([1, 2, 3], 60)

    @given(st.lists(st.integers(1, 200), min_size=1, max_size=80), st.randoms())
    def test_permutation_invariant(self, targets, rnd):
        shuffled = list(targets)
        rnd.shuffle(shuffled)
        assert from_percentiles(targets, 5).endpoints == from_percentiles(shuffled, 5).endpoints

    @given(st.lists(st.integers(1, 300), min_size=1, max_size=120))
    def test_coarser_step_never_adds_buckets(self, targets):
        fine = from_percentiles(targets, 2).n_buckets
        coarse = from_percentiles(targets, 10).n_buckets
        assert coarse <= fine


class TestAblationChoices:
    def test_grid_choices_match_percentile_steps(self):
        targets = list(range(1, 1001))
        assert ablation_choice(targets, 1).endpoints == from_percentiles(targets, 5).endpoints
        assert ablation_choice(targets, 2).endpoints == from_percentiles(targets, 2).endpoints

    def test_choice_3_equal_counts(self):
        scheme = ablation_choice(list(range(1, 1001)), 3)
        assert scheme.endpoints == tuple(range(10, 1001, 10))
        assert scheme.n_buckets == 100

    def test_choice_4_refines_the_right_tail(self):
        # heavy tail: the 5-percentile grid of the top 4% adds endpoints
        # beyond the 96th percentile of the whole sample
        targets = list(range(1, 97)) + [200, 400, 600, 800]
        scheme = ablation_choice(targets, 4)
        p96 = sorted_percentile(targets, 96)
        assert sum(1 for e in scheme.endpoints if e > p96) > 1
        assert scheme.endpoints[-1] == 800

    def test_choice_4_collapses_on_constant_targets(self):
        assert ablation_choice([7] * 100, 4).n_buckets == 1

    def test_choice_6_concatenation(self):
        targets = list(range(1, 101))
        scheme = ablation_choice(targets, 6)
        head = {sorted_percentile(targets, q) for q in range(1, 91)}
        top = sorted(targets)[90:]
        tail = {sorted_percentile(top, q) for q in range(1, 101)}
        assert scheme.endpoints == tuple(sorted(head | tail))

    def test_duplicate_removal_shrinks_count(self):
        # long-tailed duplicates: a 5-percentile grid lands on repeated values,
        # so dedup leaves fewer than the arithmetic 20 endpoints
        targets = [1] * 400 + [2] * 300 + [3] * 200 + list(range(4, 104))
        scheme = ablation_choice(targets, 1)
        assert scheme.n_buckets < 20

    def test_bad_choice_raises(self):
        with pytest.raises(ValueError, match="choice"):
            ablation_choice([1, 2, 3], 9)


class TestBucketOf:
    def test_interior(self):
        assert from_endpoints([5, 12, 22]).bucket_of(10) == 2

    def test_zero_in_first_bucket(self):
        assert from_endpoints([5, 12, 22]).bucket_of(0) == 1

    def test_open_tail(self):
        assert from_endpoints([5, 12, 22], tail_open=True).bucket_of(23) == 4

    def test_closed_tail_clips(self):
        scheme = from_endpoints([5, 12, 22])
        assert scheme.bucket_of(23) == 3
        assert scheme.bucket_of(22) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            from_endpoints([5]).bucket_of(-1)

    @given(schemes(), st.integers(0, 400))
    def test_total_and_bracketing(self, scheme, t):
        i = scheme.bucket_of(t)
        xs = (0,) + scheme.endpoints
        assert 1 <= i <= scheme.n_buckets + (1 if scheme.tail_open else 0)
        if i <= scheme.n_buckets:
            clipped = t > scheme.endpoints[-1]
            if not clipped:
                assert t <= xs[i]
            assert t == 0 or t > xs[i - 1] or clipped
        else:
            assert t > scheme.endpoints[-1]

    @given(schemes())
    def test_widths_sum_to_last_endpoint(self, scheme):
        assert sum(scheme.widths) == scheme.endpoints[-1]


class TestSerialization:
    def test_round_trip(self, tmp_path):
        scheme = from_endpoints([5, 12, 22], tail_open=True)
        path = tmp_path / "scheme.json"
        scheme.save(path)
        assert BucketScheme.load(path) == scheme


class TestEdgeCases:
    def test_non_integer_endpoint_rejected(self):
        with pytest.raises(ValueError, match="not an integer"):
            BucketScheme((5.5, 12))

    def test_choice_5_refines_tail_finer_than_choice_4(self):
        rng = np.random.default_rng(3)
        targets = np.concatenate([rng.integers(1, 50, 960), rng.integers(50, 5000, 40)]).tolist()
        four = ablation_choice(targets, 4)
        five = ablation_choice(targets, 5)
        p96 = sorted_percentile(targets, 96)
        tail4 = sum(1 for e in four.endpoints if e > p96)
        tail5 = sum(1 for e in five.endpoints if e > p96)
        assert tail5 >= tail4

    def test_fractional_percent_step(self):
        targets = list(range(1, 2001))
        scheme = from_percentiles(targets, 0.5)
        assert scheme.n_buckets == 200
        assert scheme.endpoints == tuple(range(10, 2001, 10))
