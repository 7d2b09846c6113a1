import itertools
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swat import heads, predictor, simulate
from swat.buckets import from_endpoints
from swat.dataio import Dataset
from swat.heads import HeadKind
from swat.predictor import FeatureSpec, Model, TrainConfig, TrainingDiverged
from swat.simulate import Behavior, BehaviorProfile

from conftest import constant_feature_dataset, encode_tokens, fit_binom_to_labels

CLOSED = from_endpoints([5, 12, 22])
OPEN = from_endpoints([5, 12, 22], tail_open=True)


# every character str.split splits on
SPACES = "".join(ch for ch in map(chr, range(sys.maxunicode + 1)) if ch.isspace())


def reference_slot(token, seed, hash_dim):
    """The documented hash in plain Python: the polynomial sum_k q_k P^k +
    0xFF P^n mod 2**64 of the token's n UTF-8 bytes q, P = 0x100000001B3,
    XOR the seed, MurmurHash3's fmix64, then the remainder by ``hash_dim``."""
    h = 0
    for byte in reversed(token.encode("utf-8") + b"\xff"):  # Horner's rule, last byte first
        h = (h * 0x100000001B3 + byte) % 2**64
    h ^= seed
    h ^= h >> 33
    h = h * 0xFF51AFD7ED558CCD % 2**64
    h ^= h >> 33
    h = h * 0xC4CEB9FE1A85EC53 % 2**64
    return (h ^ h >> 33) % hash_dim


# tokens of 1 byte to 9 KB, ASCII and not, joined by '|', ASCII or wide
# spaces into cells that may be empty or absent
TOKENS = st.text(st.sampled_from("a9=é漢"), min_size=1, max_size=6) | st.builds(
    str.__mul__, st.sampled_from("aé漢"), st.integers(1, 3000))
CELLS = st.none() | st.builds(str.join, st.sampled_from(["|", " ", "\t", "\u3000", "\x85 |"]),
                              st.lists(TOKENS, max_size=4))


def slot(spec, token):
    """The encoder's slot of one ``column=value`` token: the hash of a one-token cell."""
    column, value = token.split("=", 1)
    return int(spec.encode_dataset(Dataset(["0"], np.zeros(1), {column: [value]})).slots[0])


def constant_probs(model):
    x = encode_tokens(model.feature_spec, ("all",))
    return heads.clamp_probs(heads.sigmoid(model.forward_batch(x)[0]))[0]


class TestFeatureSpec:
    def test_hash_dim_floor(self):
        with pytest.raises(ValueError):
            FeatureSpec(hash_dim=1)

    def test_hashing_is_seed_stable(self):
        spec = FeatureSpec(hash_dim=32, seed=5)
        again = FeatureSpec(hash_dim=32, seed=5)
        other = FeatureSpec(hash_dim=32, seed=6)
        tokens = [f"feat=tok{i}" for i in range(100)]
        assert [slot(spec, t) for t in tokens] == [slot(again, t) for t in tokens]
        assert [slot(spec, t) for t in tokens] != [slot(other, t) for t in tokens]

    def test_mean_pooling(self):
        spec = FeatureSpec(hash_dim=64, seed=0)
        x = encode_tokens(spec, ("a", "b", "a"))[0]
        assert x.sum() == pytest.approx(1.0)
        assert x[slot(spec, "feat=a")] == pytest.approx(2 / 3)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data(),
           rows=st.lists(st.lists(st.sampled_from("abcdefgh"), max_size=7), min_size=1, max_size=12))
    def test_matches_per_row_reference(self, data, rows):
        # each cell adds 1/len(row) once per occurrence, in token order, over
        # both columns; the bags give those rows for any selection: subsets,
        # repeats, any order
        kinds = data.draw(st.lists(st.lists(st.sampled_from("xyz"), max_size=3),
                                   min_size=len(rows), max_size=len(rows)))
        spec = FeatureSpec(hash_dim=5, seed=2)
        expected = np.zeros((len(rows), spec.hash_dim))
        for i, (feats, kind) in enumerate(zip(rows, kinds)):
            tokens = [f"feat={t}" for t in feats] + [f"kind={t}" for t in kind]
            for token in tokens:
                expected[i, slot(spec, token)] += 1.0 / len(tokens)
        ds = Dataset([str(i) for i in range(len(rows))], np.zeros(len(rows)),
                     {"feat": ["|".join(t) for t in rows], "kind": [" ".join(t) for t in kinds]})
        bags = spec.encode_dataset(ds)
        assert bags.rows(np.arange(len(rows))).tobytes() == expected.tobytes()
        idx = data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=20))
        assert bags.rows(idx).tobytes() == expected[idx].tobytes()
        # float32 rows add the float32 weights in the same order
        expected32 = np.zeros((len(rows), spec.hash_dim), np.float32)
        for i, (feats, kind) in enumerate(zip(rows, kinds)):
            tokens = [f"feat={t}" for t in feats] + [f"kind={t}" for t in kind]
            for token in tokens:
                expected32[i, slot(spec, token)] += np.float32(1.0 / len(tokens))
        assert bags.rows(idx, np.float32).tobytes() == expected32[idx].tobytes()

    def test_each_distinct_cell_tokenized_once(self, monkeypatch):
        # the hash sees the tokens of each of the five distinct cells once,
        # not the 13 tokens of the seven rows; the column's prefix enters as
        # a constant
        hashed, polynomials = [], predictor._polynomials

        def spy(buf, starts, ends, powers, inverses):
            hashed.extend(buf[a:b].tobytes() for a, b in zip(starts.tolist(), ends.tolist()))
            return polynomials(buf, starts, ends, powers, inverses)

        monkeypatch.setattr(predictor, "_polynomials", spy)
        cells = ["a b a", "", "b c", "c c a", "b c", None, "a b a"]
        FeatureSpec(hash_dim=8).encode_dataset(Dataset(list("0123456"), np.zeros(7), {"feat": cells}))
        assert sorted(hashed) == sorted(b"a b a b c c c a".split())

    @pytest.mark.parametrize("seed, golden", [(0, [719, 21, 915, 125]),
                                              (2**64 - 1, [820, 298, 461, 105])])
    def test_slots_follow_the_documented_hash(self, seed, golden):
        spec = FeatureSpec(hash_dim=1024, seed=seed)
        dataset = Dataset(["0", "1"], np.zeros(2), {"items": ["42|é", None], "ключ": ["", "слово 42"]})
        tokens = ["items=42", "items=é", "ключ=слово", "ключ=42"]
        assert [reference_slot(token, seed, 1024) for token in tokens] == golden
        assert spec.encode_dataset(dataset).slots.tolist() == golden
        # many tokens of mixed lengths in one buffer
        many = [f"t{i}" + "é" * (i % 7) for i in range(100)]
        slots = spec.encode_dataset(Dataset(["0"], np.zeros(1), {"ключ": [" ".join(many)]})).slots
        assert slots.tolist() == [reference_slot(f"ключ={token}", seed, 1024) for token in many]

    @settings(max_examples=25, deadline=None)
    @given(cells=st.lists(CELLS, min_size=1, max_size=6), seed=st.integers(0, 2**64 - 1),
           hash_dim=st.integers(2, 2**16))
    def test_slots_match_the_reference_hash(self, cells, seed, hash_dim):
        dataset = Dataset([str(i) for i in range(len(cells))], np.zeros(len(cells)), {"ключ": cells})
        slots = FeatureSpec(hash_dim, seed).encode_dataset(dataset).slots
        assert slots.tolist() == [reference_slot(f"ключ={token}", seed, hash_dim)
                                  for cell in cells for token in (cell or "").replace("|", " ").split()]

    @pytest.mark.parametrize("hash_dim", [64, 1024])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_slots_are_uniform(self, hash_dim, seed):
        # chi-square over 50k distinct tokens against its 0.1% critical value
        # (the Wilson-Hilferty approximation, z = 3.09)
        cells = [" ".join(f"i{k}" for k in range(i, i + 50)) for i in range(0, 50_000, 50)]
        slots = FeatureSpec(hash_dim, seed).encode_dataset(
            Dataset([str(i) for i in range(len(cells))], np.zeros(len(cells)), {"items": cells})).slots
        expected = 50_000 / hash_dim
        chi2 = float(((np.bincount(slots, minlength=hash_dim) - expected) ** 2).sum() / expected)
        dof = hash_dim - 1
        assert chi2 < dof * (1 - 2 / (9 * dof) + 3.09 * math.sqrt(2 / (9 * dof))) ** 3

    def test_encoding_does_not_hold_per_token_temporaries(self):
        # 40k distinct cells of 30 tokens: the int64 slots of the rows and of
        # the distinct cells take 9.2 MiB each; the chunked tokenizing and
        # bag assembly add under 6 MiB, where whole-array temporaries of all
        # 1.2M tokens would take several times the slots
        cells = [" ".join(f"item{(i * 31 + k) % 50_000}" for k in range(30)) for i in range(40_000)]
        dataset = Dataset([str(i) for i in range(40_000)], np.zeros(40_000), {"items": cells})
        tracemalloc.start()
        try:
            bags = FeatureSpec(hash_dim=1024).encode_dataset(dataset)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(bags.slots) == 1_200_000
        assert peak < 24 * 2**20

    @staticmethod
    def _reference_bags(spec, dataset):
        """A direct encoder: the token rule written out, one hashed
        ``column=token`` per occurrence, rows merged by a stable sort."""
        n = len(dataset)
        rows, slots = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
        for column, cells in dataset.features.items():
            per_row = [[slot(spec, f"{column}={tok}") for tok in (cell or "").replace("|", " ").split()]
                       for cell in cells.tolist()]
            counts = np.fromiter(map(len, per_row), np.int64, n)
            rows.append(np.repeat(np.arange(n), counts))
            slots.append(np.fromiter(itertools.chain.from_iterable(per_row), np.int64, counts.sum()))
        rows, slots = np.concatenate(rows), np.concatenate(slots)
        offsets = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
        return offsets, slots[np.argsort(rows, kind="stable")]

    @settings(max_examples=200, deadline=None)
    @given(columns=st.integers(1, 8).flatmap(lambda n: st.lists(
        st.lists(st.none() | st.text(st.sampled_from("ab=é|") | st.sampled_from(SPACES), max_size=12),
                 min_size=n, max_size=n),
        min_size=1, max_size=3)))
    @example(columns=[["é" + "a" * 99_999 + " b", None], [SPACES.join("xy"), "\u3000|\x85"]])
    def test_bags_match_the_token_rule(self, columns):
        # every character str.split splits on, '=' and non-ASCII letters inside
        # tokens, absent cells, a 100k-character token, and short alphabets, so
        # the same raw token turns up in several columns and must hash with
        # each one's name
        n = len(columns[0])
        features = dict(zip(["feat", "kind", "ключ"], columns))
        dataset = Dataset([str(i) for i in range(n)], np.zeros(n), features)
        spec = FeatureSpec(hash_dim=1024, seed=3)
        bags = spec.encode_dataset(dataset)
        offsets, slots = self._reference_bags(spec, dataset)
        assert np.array_equal(bags.offsets, offsets) and bags.offsets.dtype == offsets.dtype
        assert np.array_equal(bags.slots, slots) and bags.slots.dtype == slots.dtype


class TestForward:
    def test_zero_model_gives_half_probs(self):
        spec = FeatureSpec(hash_dim=4, seed=0)
        model = Model(spec, 0, HeadKind.BINOM, CLOSED, 1.0,
                      {"w": np.zeros((3, 4)), "b": np.zeros(3)})
        logits, _ = model.forward_batch(encode_tokens(spec, ("a",)))
        assert np.allclose(logits, 0.0)
        assert np.allclose(heads.clamp_probs(heads.sigmoid(logits)), 0.5)

    def test_affine_lookup_on_one_hot(self):
        spec = FeatureSpec(hash_dim=4, seed=0)
        w = np.arange(12, dtype=float).reshape(3, 4)
        model = Model(spec, 0, HeadKind.BINOM, CLOSED, 1.0, {"w": w, "b": np.zeros(3)})
        token = "a"
        x = encode_tokens(spec, (token,))
        assert np.allclose(model.forward_batch(x)[0][0], w[:, slot(spec, f"feat={token}")])

    def test_random_model_finite(self):
        rng = np.random.default_rng(0)
        spec = FeatureSpec(hash_dim=9, seed=0)
        model = Model.init(spec, 6, HeadKind.GEO, OPEN, 1.0, rng)
        x = rng.normal(size=(10, spec.hash_dim))
        assert np.all(np.isfinite(model.forward_batch(x)[0]))

    def test_dimension_mismatch(self):
        spec = FeatureSpec(hash_dim=8, seed=0)
        model = Model.init(spec, 0, HeadKind.VGEO, None, 1.0, np.random.default_rng(0))
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
                up = loss_of_logits(model.forward_batch(x)[0])
                flat[i] = old - step
                dn = loss_of_logits(model.forward_batch(x)[0])
                flat[i] = old
                g.ravel()[i] = (up - dn) / (2 * step)
            grads[key] = g
        return grads

    def test_finite_difference_agreement_tiny_model(self):
        # 3-parameter model: 1 input, no hidden layer, vgeo head with bias
        rng = np.random.default_rng(1)
        spec = FeatureSpec(hash_dim=2, seed=0)
        model = Model.init(spec, 0, HeadKind.VGEO, None, 1.0, rng)
        x = rng.normal(size=(4, 2))
        t = np.array([0, 3, 1, 7])

        def loss_of_logits(logits):
            return float(heads.loss_batch(HeadKind.VGEO, logits, t)[0].sum())

        logits, h = model.forward_batch(x)
        _, dlogits = heads.loss_batch(HeadKind.VGEO, logits, t)
        analytic = model.backward_batch(x, h, dlogits)
        numeric = self.fd_param_grad(model, x, loss_of_logits)
        for key in analytic:
            scale = np.maximum(np.maximum(np.abs(analytic[key]), np.abs(numeric[key])), 1.0)
            assert np.max(np.abs(analytic[key] - numeric[key]) / scale) < 1e-5

    @pytest.mark.parametrize("kind", list(HeadKind))
    def test_end_to_end_gradient_all_heads(self, kind):
        rng = np.random.default_rng(2)
        scheme = CLOSED if kind is HeadKind.BINOM else OPEN if kind is HeadKind.GEO else None
        spec = FeatureSpec(hash_dim=4, seed=0)
        model = Model.init(spec, 2, kind, scheme, 1.0, rng)  # hidden layer in the loop
        assert sum(v.size for v in model.params.values()) <= 50
        x = rng.normal(size=(5, spec.hash_dim))
        t = rng.integers(0, 30, size=5)

        def total_loss(logits):
            return float(heads.loss_batch(kind, logits, t, scheme)[0].sum())

        logits, h = model.forward_batch(x)
        _, dlogits = heads.loss_batch(kind, logits, t, scheme)
        analytic = model.backward_batch(x, h, dlogits)
        numeric = self.fd_param_grad(model, x, total_loss)
        for key in analytic:
            scale = np.maximum(np.maximum(np.abs(analytic[key]), np.abs(numeric[key])), 1.0)
            assert np.max(np.abs(analytic[key] - numeric[key]) / scale) < 1e-5

    def test_zero_logit_gradient_zero_param_gradient(self):
        spec = FeatureSpec(hash_dim=4, seed=0)
        model = Model.init(spec, 3, HeadKind.VGEO, None, 1.0, np.random.default_rng(3))
        x = np.random.default_rng(4).normal(size=(6, 4))
        grads = model.backward_batch(x, model.forward_batch(x)[1], np.zeros((6, 1)))
        assert all(np.all(g == 0) for g in grads.values())

    def test_duplicated_sample_doubles_contribution(self):
        rng = np.random.default_rng(5)
        spec = FeatureSpec(hash_dim=4, seed=0)
        model = Model.init(spec, 0, HeadKind.VGEO, None, 1.0, rng)
        x = rng.normal(size=(1, 4))
        dlogit = np.array([[0.37]])
        x2 = np.vstack([x, x])
        single = model.backward_batch(x, model.forward_batch(x)[1], dlogit)
        doubled = model.backward_batch(x2, model.forward_batch(x2)[1], np.vstack([dlogit, dlogit]))
        for key in single:
            assert np.allclose(doubled[key], 2 * single[key])


def recomputing_forward(params, x):
    """Reference logits of either net, written out from x."""
    if "w1" in params:
        z = x @ params["w1"].T + params["b1"]
        return np.maximum(z, 0.0) @ params["w2"].T + params["b2"]
    return x @ params["w"].T + params["b"]


def recomputing_backward(params, x, dlogits):
    """Reference gradients of either net, with the hidden layer recomputed from x."""
    if "w1" in params:
        z = x @ params["w1"].T + params["b1"]
        h = np.maximum(z, 0.0)
        dz = (dlogits @ params["w2"]) * (z > 0.0)
        return {"w1": dz.T @ x, "b1": dz.sum(axis=0), "w2": dlogits.T @ h, "b2": dlogits.sum(axis=0)}
    return {"w": dlogits.T @ x, "b": dlogits.sum(axis=0)}


class TestForwardHandsHToBackward:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("hidden", [0, 1, 2, 4])
    def test_bit_equal_to_the_recomputing_net(self, hidden, dtype):
        for trial in range(25):
            rng = np.random.default_rng([hidden, trial])
            spec = FeatureSpec(hash_dim=int(rng.integers(2, 9)), seed=0)
            model = Model(spec, hidden, HeadKind.GEO, OPEN, 1.0)  # 4 logits
            model.params = {key: rng.normal(size=shape).astype(dtype)
                            for key, shape in model.shapes().items()}
            x = rng.normal(size=(int(rng.integers(1, 8)), spec.hash_dim)).astype(dtype)
            x[0] = 0.0  # an all-zero feature row
            if hidden > 0:
                model.params["b1"][0] = 0.0  # so the zero row meets unit 0 at z == 0 exactly
                model.params["w1"][-1], model.params["b1"][-1] = 0.0, 0.0  # z == 0 on every row
            dlogits = rng.normal(size=(len(x), 4)).astype(dtype)

            logits, h = model.forward_batch(x)
            want = recomputing_forward(model.params, x)
            assert logits.dtype == want.dtype == dtype and np.array_equal(logits, want)
            grads = model.backward_batch(x, h, dlogits)
            want = recomputing_backward(model.params, x, dlogits)
            assert grads.keys() == want.keys() == model.params.keys()
            for key, g in grads.items():
                assert g.dtype == want[key].dtype == dtype and np.array_equal(g, want[key]), key


class TestTraining:
    def test_epoch_zero_loss_matches_analytic_at_half(self):
        # an untouched all-zero model outputs p = 0.5 everywhere
        targets = np.array([0, 3, 10, 22])
        ds = constant_feature_dataset(targets)
        spec = FeatureSpec(hash_dim=4, seed=0)
        model = Model(spec, 0, HeadKind.BINOM, CLOSED, 1.0,
                      {"w": np.zeros((3, 4)), "b": np.zeros(3)})
        x = spec.encode_dataset(ds).rows(np.arange(len(ds)))
        losses, _ = heads.loss_batch(HeadKind.BINOM, model.forward_batch(x)[0], targets, CLOSED)
        assert np.allclose(losses, 3 * math.log(2))

    def test_train_does_not_materialise_all_features(self):
        # the dense (4000, 4096) float64 features alone would take 125 MiB
        ds = Dataset([str(i) for i in range(4000)], np.arange(4000.0) % 7,
                     {"feat": [f"u{i}" for i in range(4000)]})
        cfg = TrainConfig(head=HeadKind.VGEO, hash_dim=4096, batch_size=64, max_epochs=1)
        tracemalloc.start()
        try:
            predictor.train(ds, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_loss_trace_decreases_early(self):
        # at p = 0.9 the optimal logit, 2.2, lies outside every slot's initial
        # weight range of +-0.5, wherever the token hashes
        prof = BehaviorProfile(Behavior.STATIONARY, (0.9,), None, seed=0)
        ds = constant_feature_dataset(simulate.draw(prof, 4000))
        cfg = TrainConfig(head=HeadKind.VGEO, hash_dim=4, max_epochs=5, rel_tol=0.0,
                          batch_size=256, seed=1)
        trace = predictor.train(ds, cfg).epoch_losses
        assert len(trace) == 5
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))

    def test_reproducibility_in_memory(self):
        prof = BehaviorProfile(Behavior.STATIONARY, (0.5,), None, seed=2)
        ds = constant_feature_dataset(simulate.draw(prof, 2000))
        cfg = TrainConfig(head=HeadKind.VGEO, hash_dim=8, max_epochs=4, seed=9)
        a = predictor.train(ds, cfg).model
        b = predictor.train(ds, cfg).model
        assert a.to_dict() == b.to_dict()

    @pytest.mark.parametrize("hidden", [0, 6])
    def test_float32_training_returns_float64_params_run_to_run_equal(self, hidden):
        rng = np.random.default_rng(4)
        ds = Dataset([str(i) for i in range(1500)], rng.geometric(0.1, size=1500) - 1.0,
                     {"feat": [f"u{u} v{v}" for u, v in rng.integers(0, 12, size=(1500, 2))]})
        cfg = TrainConfig(head=HeadKind.GEO, scheme=OPEN, hash_dim=16, hidden=hidden, lr=1e-2,
                          batch_size=128, max_epochs=3, seed=7)
        a = predictor.train(ds, cfg).model
        assert {key: value.dtype for key, value in a.params.items()} == dict.fromkeys(a.shapes(), np.float64)
        assert a.to_dict() == predictor.train(ds, cfg).model.to_dict()

    def test_result_says_how_training_stopped(self):
        prof = BehaviorProfile(Behavior.STATIONARY, (0.5,), None, seed=2)
        ds = constant_feature_dataset(simulate.draw(prof, 2000))

        def fit(max_epochs):
            return predictor.train(ds, TrainConfig(head=HeadKind.VGEO, hash_dim=4, lr=2e-2,
                                                   max_epochs=max_epochs, seed=0))

        settled = fit(200)
        epochs = len(settled.epoch_losses)
        assert settled.stopped == "rel_tol" and 1 < epochs < 200
        # the same fit settling on its last allowed epoch still stops on rel_tol
        assert fit(epochs).stopped == "rel_tol"
        cut = fit(epochs - 1)
        assert cut.stopped == "max_epochs" and len(cut.epoch_losses) == epochs - 1

    def test_result_holds_each_epochs_norms_summed_in_float64(self):
        # at --lr 1e20 the float32 parameters stay finite, but their float32 squares do not
        ds = constant_feature_dataset(np.arange(8.0))
        cfg = TrainConfig(head=HeadKind.BINOM, scheme=CLOSED, hash_dim=4, lr=1e20, max_epochs=3,
                          batch_size=4, seed=0)
        result = predictor.train(ds, cfg)
        assert len(result.grad_norms) == len(result.param_norms) == len(result.epoch_losses) == 3
        assert all(map(math.isfinite, result.grad_norms + result.param_norms))
        params = np.concatenate([value.ravel() for value in result.model.params.values()])
        assert result.param_norms[-1] == pytest.approx(np.linalg.norm(params), rel=1e-12)

    def test_seed_changes_model(self):
        prof = BehaviorProfile(Behavior.STATIONARY, (0.5,), None, seed=2)
        ds = constant_feature_dataset(simulate.draw(prof, 2000))
        a = predictor.train(ds, TrainConfig(head=HeadKind.VGEO, max_epochs=2, seed=0)).model
        b = predictor.train(ds, TrainConfig(head=HeadKind.VGEO, max_epochs=2, seed=1)).model
        assert a.to_dict() != b.to_dict()

    def test_vgeo_converges_to_mle(self):
        prof = BehaviorProfile(Behavior.STATIONARY, (0.7,), None, seed=3)
        draws = simulate.draw(prof, 30_000)
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

    def test_non_finite_loss_aborts_with_diagnostics(self, monkeypatch):
        # log-sigmoid losses stay finite at every finite logit, so the abort
        # path guards against corrupt inputs reaching the loss: here a NaN
        # entry in every row's binom labels
        ds = constant_feature_dataset(np.arange(8.0))
        labels_with_nan = np.full((8, CLOSED.n_buckets), 0.5)
        labels_with_nan[:, 0] = np.nan
        fit_binom_to_labels(monkeypatch, labels_with_nan)
        cfg = TrainConfig(head=HeadKind.BINOM, scheme=CLOSED, hash_dim=4, max_epochs=3, batch_size=4, seed=0)
        with pytest.raises(TrainingDiverged) as err:
            predictor.train(ds, cfg)
        assert err.value.epoch == 0
        assert err.value.batch == 0
        assert err.value.param_norm > 0


class TestWarmStart:
    """At a learning rate too small to move them, the trained biases read where training started."""

    @staticmethod
    def fit(kind, scheme, targets, hidden):
        cfg = TrainConfig(head=kind, scheme=scheme, hash_dim=4, hidden=hidden, lr=1e-9,
                          max_epochs=1, batch_size=64, seed=3)
        return predictor.train(constant_feature_dataset(targets), cfg).model.params

    @pytest.mark.parametrize("kind, scheme", [(HeadKind.GEO, OPEN), (HeadKind.VGEO, None)])
    def test_prior_lands_in_the_output_bias(self, kind, scheme):
        targets = np.random.default_rng(2).geometric(0.1, size=300) - 1
        prior = heads.prior_logits(kind, targets, scheme)
        np.testing.assert_allclose(self.fit(kind, scheme, targets, 0)["b"], prior, rtol=1e-6, atol=1e-6)
        params = self.fit(kind, scheme, targets, 4)
        np.testing.assert_allclose(params["b2"], prior, rtol=1e-6, atol=1e-6)
        assert np.all(np.abs(params["b1"]) < 1e-6)

    @pytest.mark.parametrize("hidden, key", [(0, "b"), (4, "b2")])
    def test_wlr_bias_starts_at_zero(self, hidden, key):
        assert np.all(np.abs(self.fit(HeadKind.WLR, None, np.arange(1, 40), hidden)[key]) < 1e-6)


class TestRecoveryFeasible:
    """MLE recovery on identifiable synthetic populations (moderate sizes)."""

    def test_binom_recovery_with_true_bucket_labels(self, monkeypatch):
        prof = BehaviorProfile(Behavior.WANDERING, (0.8, 0.4, 0.3), CLOSED, seed=6)
        per_bucket = simulate.wandering_buckets(prof, 30_000)
        ds = constant_feature_dataset(np.arange(len(per_bucket)))
        fit_binom_to_labels(monkeypatch, per_bucket / np.asarray(CLOSED.widths, dtype=float))
        cfg = TrainConfig(head=HeadKind.BINOM, scheme=CLOSED, hash_dim=4,
                          max_epochs=40, rel_tol=1e-7, seed=7)
        model = predictor.train(ds, cfg).model
        assert np.allclose(constant_probs(model), prof.probs, atol=0.02)

    def test_geo_recovery_inner_buckets(self):
        # well-populated profile: every closed bucket sees plenty of traffic,
        # and about 900 per-second trials reach the tail. The geo likelihood
        # is the focused user's own law, so the tail recovers its true p too.
        scheme = from_endpoints([20, 40, 60, 80, 100], tail_open=True)
        probs = (0.98, 0.97, 0.96, 0.95, 0.9, 0.3)
        prof = BehaviorProfile(Behavior.FOCUSED, probs, scheme, seed=17)
        ds = constant_feature_dataset(simulate.draw(prof, 100_000))
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
        model = Model.init(spec, 4, HeadKind.GEO, OPEN, 2.5, rng)
        path = tmp_path / "model.json"
        model.save(path)
        loaded = Model.load(path)
        assert loaded.head is HeadKind.GEO
        assert loaded.scheme == OPEN
        assert loaded.hidden == 4 and loaded.c == 2.5
        assert loaded.feature_spec == spec
        for key, value in model.params.items():
            assert np.array_equal(loaded.params[key], value)
        x = rng.normal(size=(3, spec.hash_dim))
        assert np.array_equal(model.predict(x)[0], loaded.predict(x)[0])

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format_version": 99}', encoding="utf-8")
        with pytest.raises(ValueError, match="format"):
            Model.load(path)

    def test_saved_bytes(self, tmp_path):
        spec = FeatureSpec(hash_dim=2, seed=1)
        model = Model(spec, 0, HeadKind.BINOM, from_endpoints([3]), 4.0,
                      {"w": np.array([[0.5, -1.25]]), "b": np.array([0.1])})
        model.save(tmp_path / "model.json")
        assert (tmp_path / "model.json").read_bytes() == (
            b'{"c": 4.0, "feature_spec": {"hash_dim": 2, "seed": 1}, "format_version": %d, '
            b'"head": "binom", "hidden": 0, "params": {"b": [0.1], "w": [0.5, -1.25]}, '
            b'"scheme": {"endpoints": [3], "tail_open": false}}\n' % predictor.ARTIFACT_VERSION)


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
        pred_a = model.predict(encode_tokens(model.feature_spec, ("a",)))[0][0]
        pred_b = model.predict(encode_tokens(model.feature_spec, ("b",)))[0][0]
        assert pred_a == pytest.approx(1.0, abs=0.15)   # odds of 0.5
        assert pred_b == pytest.approx(9.0, rel=0.15)   # odds of 0.9
