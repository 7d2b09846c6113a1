import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swat import heads, labels, predictor, simulate
from swat.buckets import from_endpoints
from swat.dataio import Dataset
from swat.heads import HeadKind
from swat.predictor import FeatureSpec, Model, TrainConfig, TrainingDiverged
from swat.simulate import Behavior, BehaviorProfile

from conftest import constant_feature_dataset, encode_tokens

CLOSED = from_endpoints([5, 12, 22])
OPEN = from_endpoints([5, 12, 22], tail_open=True)


def constant_probs(model):
    x = encode_tokens(model.feature_spec, ("all",))
    return heads.clamp_probs(heads.sigmoid(model.forward_batch(x)))[0]


class TestFeatureSpec:
    def test_hash_dim_floor(self):
        with pytest.raises(ValueError):
            FeatureSpec(hash_dim=1)

    def test_hashing_is_seed_stable(self):
        spec = FeatureSpec(hash_dim=32, seed=5)
        again = FeatureSpec(hash_dim=32, seed=5)
        other = FeatureSpec(hash_dim=32, seed=6)
        tokens = [f"tok{i}" for i in range(100)]
        assert [spec.slot(t) for t in tokens] == [again.slot(t) for t in tokens]
        assert [spec.slot(t) for t in tokens] != [other.slot(t) for t in tokens]

    def test_mean_pooling(self):
        spec = FeatureSpec(hash_dim=64, seed=0)
        x = encode_tokens(spec, ("a", "b", "a"))[0]
        assert x.sum() == pytest.approx(1.0)
        assert x[spec.slot("feat=a")] == pytest.approx(2 / 3)

    @settings(max_examples=50, deadline=None)
    @given(rows=st.lists(st.lists(st.sampled_from("abcdefgh"), max_size=7), min_size=1, max_size=12))
    def test_matches_per_row_reference(self, rows):
        # each cell adds 1/len(row) once per occurrence, in token order
        spec = FeatureSpec(hash_dim=5, seed=2)
        expected = np.zeros((len(rows), spec.hash_dim))
        for i, tokens in enumerate(rows):
            for token in tokens:
                expected[i, spec.slot(f"feat={token}")] += 1.0 / len(tokens)
        ds = Dataset([str(i) for i in range(len(rows))], np.zeros(len(rows)),
                     {"feat": ["|".join(t) for t in rows]})
        assert spec.encode_dataset(ds).tobytes() == expected.tobytes()

    def test_each_distinct_token_hashed_once(self, monkeypatch):
        hashed, tokenised = [], []
        slot, tokenize = FeatureSpec.slot, predictor.tokenize
        monkeypatch.setattr(FeatureSpec, "slot", lambda self, t: hashed.append(t) or slot(self, t))
        monkeypatch.setattr(predictor, "tokenize", lambda col, cell: tokenised.append(cell) or tokenize(col, cell))
        cells = ["a b a", "", "b c", "c c a", "b c", None, "a b a"]
        FeatureSpec(hash_dim=8).encode_dataset(Dataset(list("0123456"), np.zeros(7), {"feat": cells}))
        assert sorted(hashed) == ["feat=a", "feat=b", "feat=c"]
        assert len(tokenised) == 5


class TestForward:
    def test_zero_model_gives_half_probs(self):
        spec = FeatureSpec(hash_dim=4, seed=0)
        model = Model(spec, 0, 3, HeadKind.BINOM, CLOSED, 0,
                      {"w": np.zeros((3, 4)), "b": np.zeros(3)})
        logits = model.forward_batch(encode_tokens(spec, ("a",)))
        assert np.allclose(logits, 0.0)
        assert np.allclose(heads.clamp_probs(heads.sigmoid(logits)), 0.5)

    def test_affine_lookup_on_one_hot(self):
        spec = FeatureSpec(hash_dim=4, seed=0)
        w = np.arange(12, dtype=float).reshape(3, 4)
        model = Model(spec, 0, 3, HeadKind.BINOM, CLOSED, 0, {"w": w, "b": np.zeros(3)})
        token = "a"
        x = encode_tokens(spec, (token,))
        assert np.allclose(model.forward_batch(x)[0], w[:, spec.slot(f"feat={token}")])

    def test_random_model_finite(self):
        rng = np.random.default_rng(0)
        spec = FeatureSpec(hash_dim=9, seed=0)
        model = Model.init(spec, 6, HeadKind.GEO, OPEN, 0, rng)
        x = rng.normal(size=(10, spec.hash_dim))
        assert np.all(np.isfinite(model.forward_batch(x)))

    def test_dimension_mismatch(self):
        spec = FeatureSpec(hash_dim=8, seed=0)
        model = Model.init(spec, 0, HeadKind.VGEO, None, 0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            model.forward_batch(np.zeros((2, 5)))


class TestBackward:
    def fd_param_grad(self, model, x, loss_of_logits, step=1e-6):
        grads = {}
        for key, value in model.params.items():
            g = np.zeros_like(value)
            flat = value.ravel()
            for i in range(flat.size):
                old = flat[i]
                flat[i] = old + step
                up = loss_of_logits(model.forward_batch(x))
                flat[i] = old - step
                dn = loss_of_logits(model.forward_batch(x))
                flat[i] = old
                g.ravel()[i] = (up - dn) / (2 * step)
            grads[key] = g
        return grads

    def test_finite_difference_agreement_tiny_model(self):
        # 3-parameter model: 1 input, no hidden layer, vgeo head with bias
        rng = np.random.default_rng(1)
        spec = FeatureSpec(hash_dim=2, seed=0)
        model = Model.init(spec, 0, HeadKind.VGEO, None, 0, rng)
        x = rng.normal(size=(4, 2))
        t = np.array([0, 3, 1, 7])

        def loss_of_logits(logits):
            return float(heads.vgeo_loss_batch(logits, t)[0].sum())

        _, dlogits = heads.vgeo_loss_batch(model.forward_batch(x), t)
        analytic = model.backward_batch(x, dlogits)
        numeric = self.fd_param_grad(model, x, loss_of_logits)
        for key in analytic:
            scale = np.maximum(np.maximum(np.abs(analytic[key]), np.abs(numeric[key])), 1.0)
            assert np.max(np.abs(analytic[key] - numeric[key]) / scale) < 1e-5

    @pytest.mark.parametrize("kind", list(HeadKind))
    def test_end_to_end_gradient_all_heads(self, kind):
        rng = np.random.default_rng(2)
        scheme = CLOSED if kind is HeadKind.BINOM else OPEN if kind is HeadKind.GEO else None
        spec = FeatureSpec(hash_dim=4, seed=0)
        model = Model.init(spec, 2, kind, scheme, 0, rng)  # hidden layer in the loop
        assert sum(v.size for v in model.params.values()) <= 50
        x = rng.normal(size=(5, spec.hash_dim))
        t = rng.integers(0, 30, size=5)
        enc = heads.encode_targets(kind, scheme, t)

        def total_loss(logits):
            return float(heads.loss_batch(kind, logits, enc)[0].sum())

        _, dlogits = heads.loss_batch(kind, model.forward_batch(x), enc)
        analytic = model.backward_batch(x, dlogits)
        numeric = self.fd_param_grad(model, x, total_loss)
        for key in analytic:
            scale = np.maximum(np.maximum(np.abs(analytic[key]), np.abs(numeric[key])), 1.0)
            assert np.max(np.abs(analytic[key] - numeric[key]) / scale) < 1e-5

    def test_zero_logit_gradient_zero_param_gradient(self):
        spec = FeatureSpec(hash_dim=4, seed=0)
        model = Model.init(spec, 3, HeadKind.VGEO, None, 0, np.random.default_rng(3))
        x = np.random.default_rng(4).normal(size=(6, 4))
        grads = model.backward_batch(x, np.zeros((6, 1)))
        assert all(np.all(g == 0) for g in grads.values())

    def test_duplicated_sample_doubles_contribution(self):
        rng = np.random.default_rng(5)
        spec = FeatureSpec(hash_dim=4, seed=0)
        model = Model.init(spec, 0, HeadKind.VGEO, None, 0, rng)
        x = rng.normal(size=(1, 4))
        dlogit = np.array([[0.37]])
        single = model.backward_batch(x, dlogit)
        doubled = model.backward_batch(np.vstack([x, x]), np.vstack([dlogit, dlogit]))
        for key in single:
            assert np.allclose(doubled[key], 2 * single[key])


class TestTraining:
    def test_epoch_zero_loss_matches_analytic_at_half(self):
        # an untouched all-zero model outputs p = 0.5 everywhere
        targets = np.array([0, 3, 10, 22])
        ds = constant_feature_dataset(targets)
        spec = FeatureSpec(hash_dim=4, seed=0)
        model = Model(spec, 0, 3, HeadKind.BINOM, CLOSED, 0,
                      {"w": np.zeros((3, 4)), "b": np.zeros(3)})
        x = spec.encode_dataset(ds)
        losses, _ = heads.binom_loss_batch(model.forward_batch(x), labels.matrix(CLOSED, targets))
        assert np.allclose(losses, 3 * math.log(2))

    def test_loss_trace_decreases_early(self):
        prof = BehaviorProfile(Behavior.STATIONARY, (0.6,), None, seed=0)
        ds = constant_feature_dataset(simulate.draw_stationary(prof, 4000))
        cfg = TrainConfig(head=HeadKind.VGEO, hash_dim=4, max_epochs=5, rel_tol=0.0,
                          batch_size=256, seed=1)
        trace = predictor.train(ds, cfg).epoch_losses
        assert len(trace) == 5
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))

    def test_reproducibility_in_memory(self):
        prof = BehaviorProfile(Behavior.STATIONARY, (0.5,), None, seed=2)
        ds = constant_feature_dataset(simulate.draw_stationary(prof, 2000))
        cfg = TrainConfig(head=HeadKind.VGEO, hash_dim=8, max_epochs=4, seed=9)
        a = predictor.train(ds, cfg).model
        b = predictor.train(ds, cfg).model
        assert a.to_dict() == b.to_dict()

    def test_seed_changes_model(self):
        prof = BehaviorProfile(Behavior.STATIONARY, (0.5,), None, seed=2)
        ds = constant_feature_dataset(simulate.draw_stationary(prof, 2000))
        a = predictor.train(ds, TrainConfig(head=HeadKind.VGEO, max_epochs=2, seed=0)).model
        b = predictor.train(ds, TrainConfig(head=HeadKind.VGEO, max_epochs=2, seed=1)).model
        assert a.to_dict() != b.to_dict()

    def test_vgeo_converges_to_mle(self):
        prof = BehaviorProfile(Behavior.STATIONARY, (0.7,), None, seed=3)
        draws = simulate.draw_stationary(prof, 30_000)
        ds = constant_feature_dataset(draws)
        cfg = TrainConfig(head=HeadKind.VGEO, hash_dim=4, max_epochs=40, rel_tol=1e-7, seed=4)
        model = predictor.train(ds, cfg).model
        mle = draws.mean() / (draws.mean() + 1)
        assert constant_probs(model)[0] == pytest.approx(mle, abs=0.005)

    def test_geo_scheme_pairing_enforced(self):
        ds = constant_feature_dataset([1, 2, 3])
        with pytest.raises(ValueError, match="open-tail"):
            predictor.train(ds, TrainConfig(head=HeadKind.GEO, scheme=CLOSED))
        with pytest.raises(ValueError, match="scheme"):
            predictor.train(ds, TrainConfig(head=HeadKind.BINOM))

    def test_clip_counting(self):
        ds = constant_feature_dataset([5, 22, 30, 40])
        cfg = TrainConfig(head=HeadKind.BINOM, scheme=CLOSED, max_epochs=1, batch_size=4)
        assert predictor.train(ds, cfg).clipped == 2

    def test_negative_watch_time_rejected(self):
        # a hand-built dataset bypasses load_csv's row filter
        ds = constant_feature_dataset([3, -3, 5])
        cfg = TrainConfig(head=HeadKind.GEO, scheme=OPEN, max_epochs=1)
        with pytest.raises(ValueError, match="non-negative"):
            predictor.train(ds, cfg)

    def test_non_finite_loss_aborts_with_diagnostics(self):
        # log-sigmoid losses stay finite at every finite logit, so the abort
        # path guards against corrupt inputs reaching the loss: here a NaN
        # entry in every row's binom labels
        ds = constant_feature_dataset(np.arange(8.0))
        labels_with_nan = np.full((8, CLOSED.n_buckets), 0.5)
        labels_with_nan[:, 0] = np.nan
        cfg = TrainConfig(head=HeadKind.BINOM, scheme=CLOSED, hash_dim=4, max_epochs=3, batch_size=4, seed=0)
        with pytest.raises(TrainingDiverged) as err:
            predictor.train(ds, cfg, binom_labels=labels_with_nan)
        assert err.value.epoch == 0
        assert err.value.batch == 0
        assert err.value.param_norm > 0


class TestRecoveryFeasible:
    """MLE recovery on identifiable synthetic populations (moderate sizes)."""

    def test_binom_recovery_with_true_bucket_labels(self):
        prof = BehaviorProfile(Behavior.WANDERING, (0.8, 0.4, 0.3), CLOSED, seed=6)
        totals, per_bucket = simulate.draw_wandering(prof, 30_000)
        ds = constant_feature_dataset(totals)
        true_labels = per_bucket / np.asarray(CLOSED.widths, dtype=float)
        cfg = TrainConfig(head=HeadKind.BINOM, scheme=CLOSED, hash_dim=4,
                          max_epochs=40, rel_tol=1e-7, seed=7)
        model = predictor.train(ds, cfg, binom_labels=true_labels).model
        assert np.allclose(constant_probs(model), prof.probs, atol=0.02)

    def test_geo_recovery_inner_buckets(self):
        # well-populated profile: every closed bucket sees plenty of traffic,
        # and about 900 per-second trials reach the tail. The geo likelihood
        # is the focused user's own law, so the tail recovers its true p too.
        scheme = from_endpoints([20, 40, 60, 80, 100], tail_open=True)
        probs = (0.98, 0.97, 0.96, 0.95, 0.9, 0.3)
        prof = BehaviorProfile(Behavior.FOCUSED, probs, scheme, seed=17)
        ds = constant_feature_dataset(simulate.draw_focused(prof, 100_000))
        cfg = TrainConfig(head=HeadKind.GEO, scheme=scheme, hash_dim=4,
                          max_epochs=40, rel_tol=1e-7, seed=5)
        model = predictor.train(ds, cfg).model
        p_hat = constant_probs(model)
        assert np.allclose(p_hat[:5], probs[:5], atol=0.01)
        assert p_hat[5] == pytest.approx(probs[-1], abs=0.05)


class TestArtifact:
    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        spec = FeatureSpec(hash_dim=9, seed=3)
        model = Model.init(spec, 4, HeadKind.GEO, OPEN, 3, rng)
        path = tmp_path / "model.json"
        model.save(path)
        loaded = Model.load(path)
        assert loaded.head is HeadKind.GEO
        assert loaded.scheme == OPEN
        assert loaded.feature_spec == spec
        for key, value in model.params.items():
            assert np.array_equal(loaded.params[key], value)
        x = rng.normal(size=(3, spec.hash_dim))
        assert np.array_equal(model.predict(x), loaded.predict(x))

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format_version": 99}', encoding="utf-8")
        with pytest.raises(ValueError, match="format"):
            Model.load(path)


class TestHiddenLayerTraining:
    def test_hidden_layer_fits_grouped_data(self):
        # two token groups with different stationary probabilities; a model
        # with one rectified hidden layer separates them
        rng = np.random.default_rng(13)
        rows = []
        for token, p in (("a", 0.5), ("b", 0.9)):
            draws = rng.geometric(1 - p, size=3000) - 1
            rows.extend((token, int(t)) for t in draws)
        ds = Dataset([str(i) for i in range(len(rows))], [float(t) for _, t in rows],
                     {"feat": [tok for tok, _ in rows]})
        cfg = TrainConfig(head=HeadKind.VGEO, hash_dim=16, hidden=8, lr=5e-3,
                          batch_size=256, max_epochs=150, rel_tol=1e-8, seed=3)
        model = predictor.train(ds, cfg).model
        pred_a = model.predict(encode_tokens(model.feature_spec, ("a",)))[0]
        pred_b = model.predict(encode_tokens(model.feature_spec, ("b",)))[0]
        assert pred_a == pytest.approx(1.0, abs=0.15)   # odds of 0.5
        assert pred_b == pytest.approx(9.0, rel=0.15)   # odds of 0.9
