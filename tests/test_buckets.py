import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from swat.buckets import BucketScheme, ablation_choice, from_endpoints, from_percentiles
from swat.heads import HeadKind
from swat.predictor import FeatureSpec, Model

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

    @given(schemes())
    def test_widths_sum_to_last_endpoint(self, scheme):
        assert sum(scheme.widths) == scheme.endpoints[-1]

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

    def test_constructor_rejects_an_endpoint_past_int64(self):
        assert BucketScheme((5, 2**63 - 1)).widths == (5, 2**63 - 6)
        with pytest.raises(ValueError, match=r"^endpoint 9223372036854775808 is not below 2\*\*63$"):
            BucketScheme((5, 2**63))

    def test_constructor_rejects_no_endpoints(self):
        with pytest.raises(ValueError, match="needs at least one endpoint"):
            BucketScheme(())


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

    def test_tiny_step_makes_every_target_an_endpoint(self):
        # a grid of 1e-9 steps would hold 1e11 points; it must not be built
        targets = [7, 3, 3, 0, 12, 5]
        assert from_percentiles(targets, 1e-9) == from_endpoints(targets)

    @given(st.lists(st.integers(1, 300), min_size=2, max_size=120),
           st.sampled_from([Fraction(1), Fraction(999, 1000), Fraction(1, 2)]))
    def test_step_at_most_100_over_n_matches_sort_oracle(self, targets, scale):
        step = Fraction(100, len(targets)) * scale
        qs = [step * k for k in range(1, math.floor(100 / step) + 1)] + [100]
        expected = from_endpoints([sorted_percentile(targets, q) for q in qs])
        assert from_percentiles(targets, step) == expected

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


def sorted_grid(targets, step, upto=100):
    """Percentiles at step, 2 step, ... up to ``upto`` (and 100 when
    ``upto`` is 100), read from Python's sorted()."""
    qs = [step * k for k in range(1, math.floor(upto / step) + 1)]
    if upto == 100 and qs[-1:] != [100]:
        qs.append(100)
    return [sorted_percentile(targets, q) for q in qs]


def sorted_ablation_choice(targets, choice):
    """ablation_choice as written with sorted() over a list."""
    if choice <= 3:  # through from_percentiles, whose step is at least 100 / n
        step = max(Fraction({1: 5, 2: 2, 3: 1}[choice]), Fraction(100, len(targets)))
        return from_endpoints(sorted_grid(targets, step))
    head_step, head_upto, tail_step = {4: (2, 96, 5), 5: (2, 96, 2), 6: (1, 90, 1)}[choice]
    srt = sorted(targets)
    top = srt[math.ceil(Fraction(head_upto) * len(srt) / 100):]
    tail = sorted_grid(top, tail_step) if top else [srt[-1]]
    return from_endpoints(sorted_grid(srt, head_step, head_upto) + tail)


def below_one(targets):
    """The error of the percentile constructors when no target rounds to 1 or more, else None."""
    if round(max(targets)) < 1:
        return f"no positive endpoint: all {len(targets)} targets round below 1 (the largest is {max(targets)})"
    return None


def outcome(build, *args):
    """The scheme ``build(*args)`` makes, or the message of its ValueError."""
    try:
        return build(*args)
    except ValueError as exc:
        return str(exc)


class TestNumpySortMatchesSorted:
    """The constructors sort with np.sort; lists and int64 arrays give the
    endpoints (or the error) that Python's sorted() gives."""

    targets = st.lists(st.integers(0, 300) | st.integers(0, 2**62), min_size=1, max_size=150)

    @given(targets, st.sampled_from([Fraction(1), Fraction(1, 2), 2, 5, 7, 10, 50]))
    def test_from_percentiles(self, targets, step):
        grid = sorted_grid(targets, max(Fraction(step), Fraction(100, len(targets))))
        want = below_one(targets) or outcome(from_endpoints, grid)
        assert outcome(from_percentiles, targets, step) == want
        assert outcome(from_percentiles, np.asarray(targets, dtype=np.int64), step) == want

    @given(targets, st.integers(1, 6))
    def test_ablation_choice(self, targets, choice):
        want = below_one(targets) or outcome(sorted_ablation_choice, targets, choice)
        assert outcome(ablation_choice, targets, choice) == want
        assert outcome(ablation_choice, np.asarray(targets, dtype=np.int64), choice) == want

    @pytest.mark.parametrize("targets", [np.zeros(20_000, dtype=np.int64), [0.4, -3.0, 0.5]])
    def test_targets_below_one_raise_one_short_message(self, targets):
        # a 0.01 step would list all 10,000 percentiles in from_endpoints' message
        for make in (lambda t: from_percentiles(t, 0.01), lambda t: ablation_choice(t, 6)):
            with pytest.raises(ValueError) as info:
                make(targets)
            largest = max(targets)
            assert str(info.value) == (f"no positive endpoint: all {len(targets)} targets round below 1 "
                                       f"(the largest is {largest})")

    def test_empty_array_raises(self):
        for make in (from_percentiles, lambda t, _: ablation_choice(t, 1)):
            with pytest.raises(ValueError, match="no targets"):
                make(np.array([], dtype=np.int64), 5)


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

    def test_bad_choice_names_the_valid_set(self):
        with pytest.raises(ValueError) as err:
            ablation_choice([1, 2, 3], 7)
        assert str(err.value) == "choice must be one of [1, 2, 3, 4, 5, 6], got 7"


class TestSerialization:
    def test_round_trip(self, tmp_path):
        scheme = from_endpoints([5, 12, 22])
        path = tmp_path / "scheme.json"
        scheme.save(path, 50.0)
        assert BucketScheme.load(path) == (scheme, 50.0)

    def test_saved_bytes(self, tmp_path):
        path = tmp_path / "scheme.json"
        BucketScheme((5, 12, 22)).save(path, 1)
        assert path.read_bytes() == b'{"c": 1.0, "endpoints": [5, 12, 22]}\n'

    @pytest.mark.parametrize("tail", ["true", "false"])
    def test_a_file_with_the_old_tail_flag_loads_as_its_endpoints(self, tmp_path, tail):
        # schemes once recorded whether the open bucket (x_N, inf) was read; the head decides that now
        path = tmp_path / "scheme.json"
        path.write_text('{"c": 2.0, "endpoints": [5, 12, 22], "tail_open": %s}\n' % tail, encoding="utf-8")
        assert BucketScheme.load(path) == (BucketScheme((5, 12, 22)), 2.0)

    @pytest.mark.parametrize("endpoints", [(np.int64(5), np.int64(12)), (5.0, 12.0)], ids=["int64", "float"])
    def test_integral_endpoints_round_trip_as_ints(self, tmp_path, endpoints):
        # any integral number is an endpoint, and every file writes it back as an integer
        scheme = BucketScheme(endpoints)
        assert [type(x) for x in scheme.endpoints] == [int, int]
        scheme.save(tmp_path / "scheme.json", 1.0)
        assert BucketScheme.load(tmp_path / "scheme.json") == (scheme, 1.0)
        model = Model.init(FeatureSpec(4), 0, HeadKind.GEO, scheme, 1.0, np.random.default_rng(0))
        model.save(tmp_path / "model.json")
        assert Model.load(tmp_path / "model.json").scheme == scheme


class TestEdgeCases:
    def test_non_integer_endpoint_rejected(self):
        with pytest.raises(ValueError, match="not an integer"):
            BucketScheme((5.5, 12))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    def test_non_finite_endpoint_is_not_an_integer(self, bad):
        # int() of these raises OverflowError or its own ValueError; the scheme names the endpoint
        with pytest.raises(ValueError, match=f"^endpoint {bad!r} is not an integer$"):
            BucketScheme((5, bad))
        if bad > 0:  # from_endpoints drops what is not >= 1, nan included
            with pytest.raises(ValueError, match=f"^endpoint {bad!r} is not an integer$"):
                from_endpoints([5, bad])

    def test_from_endpoints_rejects_a_fraction_instead_of_truncating_it(self):
        with pytest.raises(ValueError, match="^endpoint 5.5 is not an integer$"):
            from_endpoints([5.5, 12])
        assert from_endpoints([12.0, 5, 5.0]).endpoints == (5, 12)

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
