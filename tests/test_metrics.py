import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from swat import metrics

finite_floats = st.floats(-1e6, 1e6, allow_nan=False)


class TestMae:
    def test_perfect(self):
        assert metrics.mae([1, 2, 3], [1, 2, 3]) == 0.0

    def test_hand_value(self):
        assert metrics.mae([1, 2], [2, 4]) == pytest.approx(1.5, abs=1e-12)

    def test_mismatch_and_empty(self):
        with pytest.raises(ValueError):
            metrics.mae([1, 2], [1])
        with pytest.raises(ValueError):
            metrics.mae([], [])

    @given(st.lists(st.tuples(finite_floats, finite_floats), min_size=1, max_size=50), st.randoms())
    def test_permutation_invariant(self, pairs, rnd):
        preds, targets = zip(*pairs)
        base = metrics.mae(preds, targets)
        shuffled = list(pairs)
        rnd.shuffle(shuffled)
        p2, t2 = zip(*shuffled)
        assert metrics.mae(p2, t2) == pytest.approx(base, rel=1e-12, abs=1e-12)

    @given(st.lists(st.tuples(finite_floats, finite_floats), min_size=1, max_size=50),
           st.floats(-1e3, 1e3, allow_nan=False))
    def test_joint_shift_invariant(self, pairs, c):
        preds, targets = map(np.asarray, zip(*pairs))
        assert metrics.mae(preds + c, targets + c) == pytest.approx(
            metrics.mae(preds, targets), rel=1e-9, abs=1e-9
        )


def enumerated_xauc(preds, targets):
    """Reference score: every pair of triu_indices, scored one by one."""
    ia, ib = np.triu_indices(len(preds), k=1)
    sign_p = np.sign(preds[ia] - preds[ib])
    sign_t = np.sign(targets[ia] - targets[ib])
    tied = (sign_p == 0) | (sign_t == 0)
    return float(np.where(tied, 0.5, (sign_p == sign_t).astype(np.float64)).mean())


class TestXauc:
    def test_comonotone(self):
        score, _ = metrics.xauc([1, 2, 3, 4], [10, 20, 30, 40])
        assert score == 1.0

    def test_antimonotone(self):
        score, _ = metrics.xauc([4, 3, 2, 1], [10, 20, 30, 40])
        assert score == 0.0

    def test_constant_predictions_score_half(self):
        score, _ = metrics.xauc([5, 5, 5, 5], [1, 2, 3, 4])
        assert score == 0.5

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            metrics.xauc([1], [1])

    def test_exhaustive_pair_count(self):
        _, used = metrics.xauc(np.arange(10), np.arange(10))
        assert used == 45

    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=2, max_size=60),
           st.lists(st.tuples(finite_floats, finite_floats), max_size=60))
    def test_matches_pair_enumeration(self, tied, spread):
        # small-integer pairs force ties on either side and on both
        preds, targets = map(np.asarray, zip(*(tied + spread)))
        score, pairs = metrics.xauc(preds, targets)
        assert pairs == len(preds) * (len(preds) - 1) // 2
        assert score == pytest.approx(enumerated_xauc(preds, targets), abs=1e-12)

    def test_large_sample_is_exact(self):
        rng = np.random.default_rng(3000)
        p = rng.normal(size=3000).round(1)
        t = (p + rng.normal(size=3000)).round(1)
        score, pairs = metrics.xauc(p, t)
        assert pairs == 3000 * 2999 // 2
        assert score == pytest.approx(enumerated_xauc(p, t), abs=1e-12)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            metrics.xauc([1.0, float("nan")], [1.0, 2.0])

    @given(st.lists(st.tuples(finite_floats, finite_floats), min_size=2, max_size=40))
    def test_invariant_to_increasing_transform(self, pairs):
        preds, targets = map(np.asarray, zip(*pairs))
        base = metrics.xauc(preds, targets)
        # rank mapping: strictly increasing in the values and exactly
        # tie-preserving in float arithmetic (shifts/scales are not: they can
        # absorb subnormal differences and so create ties)
        _, ranks = np.unique(preds, return_inverse=True)
        assert metrics.xauc(ranks.astype(float), targets) == base


class TestPearson:
    def test_identity(self):
        assert metrics.pearson([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0, abs=1e-12)

    def test_negation(self):
        assert metrics.pearson([1, 2, 3], [-1, -2, -3]) == pytest.approx(-1.0, abs=1e-12)

    def test_textbook_value(self):
        # covariance / sigma formula on (1,2,3) vs (2,4,7): r = 15 / sqrt(228)
        assert metrics.pearson([1, 2, 3], [2, 4, 7]) == pytest.approx(
            0.9933992677987828, abs=1e-12
        )

    def test_single_sample_rejected(self):
        with pytest.raises(ValueError, match="at least two samples"):
            metrics.pearson([1.0], [2.0])

    # a constant vector has no correlation: pearson gives NaN, as evaluate does
    def test_constant_vector_rejected(self):
        assert np.isnan(metrics.pearson([1, 1, 1], [1, 2, 3]))

    def test_constant_vector_whose_mean_rounds_away_rejected(self):
        # the float64 mean of these 4000 equal values is not the value, so
        # their deviations from it are not all zero
        constant = np.full(4000, 3439.71890526845)
        assert constant.mean() != constant[0]
        varying = np.arange(4000.0)
        for preds, targets in ((constant, varying), (varying, constant)):
            assert np.isnan(metrics.pearson(preds, targets))
            assert np.isnan(metrics.evaluate(preds, targets).pearson)

    @given(finite_floats, st.integers(2, 5000), st.booleans())
    def test_constant_vector_of_any_length_rejected(self, value, n, constant_preds):
        constant, varying = np.full(n, value), np.arange(float(n))
        preds, targets = (constant, varying) if constant_preds else (varying, constant)
        assert np.isnan(metrics.pearson(preds, targets))
        assert np.isnan(metrics.evaluate(preds, targets).pearson)

    @given(st.lists(st.tuples(st.floats(-100, 100), st.floats(-100, 100)), min_size=3, max_size=40),
           st.floats(0.1, 50), st.floats(-20, 20))
    def test_positive_affine_invariance(self, pairs, a, b):
        preds, targets = map(np.asarray, zip(*pairs))
        if np.ptp(preds) < 1e-6 or np.ptp(targets) < 1e-6:
            return
        base = metrics.pearson(preds, targets)
        assert metrics.pearson(a * preds + b, targets) == pytest.approx(base, abs=1e-6)


class TestEvaluate:
    def test_report_fields_and_json(self):
        report = metrics.evaluate([1.0, 2.0, 3.0], [1.5, 2.0, 2.5])
        decoded = dataclasses.asdict(report)
        assert decoded["n"] == 3
        assert 0.0 <= decoded["xauc"] <= 1.0
        assert decoded["mae"] >= 0.0
        assert decoded["xauc_pairs"] == 3
        assert "seed" not in decoded

    def test_constant_predictions_yield_nan_pearson(self):
        report = metrics.evaluate([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
        assert np.isnan(report.pearson)
        assert report.xauc == 0.5

    def test_table_is_aligned(self):
        table = metrics.evaluate([1.0, 2.0], [2.0, 1.0]).table()
        lines = table.splitlines()
        assert len(lines) == 5
        keys = {"samples", "mae", "xauc", "pearson", "xauc_pairs"}
        width = max(map(len, keys))
        assert {line[:width].strip() for line in lines} == keys
        assert all(line[width:width + 2] == "  " for line in lines)

