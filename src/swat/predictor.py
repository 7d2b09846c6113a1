"""Trainable predictor: hashed features -> small feed-forward net -> head logits.

The feature encoder mean-pools hashed one-hot id tokens and appends dense
numerics.  The net is a single affine map, or one rectified hidden layer when
``hidden > 0``.  Training is seeded mini-batch Adam against any head's loss;
given the same config and seed, two runs produce bit-identical models.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import heads
from .buckets import BucketScheme
from .dataio import Dataset
from .heads import HeadKind

ARTIFACT_VERSION = 2  # 2: the geo stop factor uses the bucket of second t + 1


class TrainingDiverged(RuntimeError):
    """Raised when a batch loss goes non-finite."""

    def __init__(self, epoch: int, batch: int, param_norm: float):
        self.epoch = epoch
        self.batch = batch
        self.param_norm = param_norm
        super().__init__(
            f"non-finite loss at epoch {epoch}, batch {batch} (parameter norm {param_norm:.3e})"
        )


@dataclass(frozen=True)
class FeatureSpec:
    """Deterministic hashed encoding of id lists plus dense numerics."""

    hash_dim: int
    numeric_dims: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.hash_dim < 2:
            raise ValueError(f"hash_dim must be >= 2, got {self.hash_dim}")

    @property
    def input_dim(self) -> int:
        return self.hash_dim + self.numeric_dims

    def slot(self, token: str) -> int:
        digest = hashlib.blake2b(
            token.encode("utf-8"), digest_size=8, salt=self.seed.to_bytes(8, "little")
        ).digest()
        return int.from_bytes(digest, "little") % self.hash_dim

    def encode_dataset(self, dataset: Dataset) -> np.ndarray:
        """(n, input_dim) rows: the mean-pooled slots of each sample's tokens,
        then its numerics.  Each distinct token is hashed once."""
        samples = dataset.samples
        for s in samples:
            if len(s.numeric) != self.numeric_dims:
                raise ValueError(f"expected {self.numeric_dims} numeric features, got {len(s.numeric)}")
        n = len(samples)
        counts = np.fromiter((len(s.categorical_ids) for s in samples), np.int64, n)
        slot = functools.cache(self.slot)
        flat = np.fromiter((slot(t) for s in samples for t in s.categorical_ids), np.int64, counts.sum())
        flat += np.repeat(np.arange(n, dtype=np.int64) * self.input_dim, counts)  # row offsets
        x = np.zeros((n, self.input_dim))
        # add.at applies repeated cells in token order, as a per-row loop would
        np.add.at(x.reshape(-1), flat, np.repeat(1.0 / np.maximum(counts, 1), counts))
        x[:, self.hash_dim:] = [s.numeric for s in samples]
        return x

    def to_dict(self) -> dict:
        return {"hash_dim": self.hash_dim, "numeric_dims": self.numeric_dims, "seed": self.seed}


@dataclass
class Model:
    """Affine(-ReLU-affine) map from features to head logits."""

    feature_spec: FeatureSpec
    hidden: int
    arity: int
    head: HeadKind
    scheme: BucketScheme | None
    seed: int
    params: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def init(cls, feature_spec, hidden, head, scheme, seed, rng) -> "Model":
        arity = heads.arity(head, scheme)
        d = feature_spec.input_dim
        params: dict[str, np.ndarray] = {}
        if hidden > 0:
            params["w1"] = rng.uniform(-1.0, 1.0, size=(hidden, d)) / np.sqrt(d)
            params["b1"] = np.zeros(hidden)
            params["w2"] = rng.uniform(-1.0, 1.0, size=(arity, hidden)) / np.sqrt(hidden)
            params["b2"] = np.zeros(arity)
        else:
            params["w"] = rng.uniform(-1.0, 1.0, size=(arity, d)) / np.sqrt(d)
            params["b"] = np.zeros(arity)
        return cls(feature_spec, hidden, arity, head, scheme, seed, params)

    def forward_batch(self, x: np.ndarray) -> np.ndarray:
        """(B, d) features -> (B, arity) logits."""
        if x.shape[1] != self.feature_spec.input_dim:
            raise ValueError(
                f"input dim {x.shape[1]} != feature dim {self.feature_spec.input_dim}"
            )
        if self.hidden > 0:
            z = x @ self.params["w1"].T + self.params["b1"]
            return np.maximum(z, 0.0) @ self.params["w2"].T + self.params["b2"]
        return x @ self.params["w"].T + self.params["b"]

    def backward_batch(self, x: np.ndarray, dlogits: np.ndarray) -> dict[str, np.ndarray]:
        """Exact gradients of sum_b loss_b given d(loss)/d(logits) rows."""
        if self.hidden > 0:
            z = x @ self.params["w1"].T + self.params["b1"]
            h = np.maximum(z, 0.0)
            dh = dlogits @ self.params["w2"]
            dz = dh * (z > 0.0)
            return {
                "w1": dz.T @ x,
                "b1": dz.sum(axis=0),
                "w2": dlogits.T @ h,
                "b2": dlogits.sum(axis=0),
            }
        return {"w": dlogits.T @ x, "b": dlogits.sum(axis=0)}

    def param_norm(self) -> float:
        return float(np.sqrt(sum(float((v * v).sum()) for v in self.params.values())))

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Expected watch times (scaled-target units) for feature rows."""
        return heads.expectation_batch(self.head, self.forward_batch(x), self.scheme)

    def predict_dataset(self, dataset: Dataset) -> np.ndarray:
        return self.predict(self.feature_spec.encode_dataset(dataset))

    def to_dict(self) -> dict:
        return {
            "format_version": ARTIFACT_VERSION,
            "feature_spec": self.feature_spec.to_dict(),
            "layer_sizes": [self.feature_spec.input_dim, self.hidden, self.arity],
            "head": self.head.value,
            "scheme": self.scheme.to_dict() if self.scheme is not None else None,
            "seed": self.seed,
            "params": {k: v.ravel().tolist() for k, v in sorted(self.params.items())},
        }

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "Model":
        with open(path, encoding="utf-8") as fh:
            d = json.load(fh)
        if d.get("format_version") != ARTIFACT_VERSION:
            raise ValueError(f"unsupported model format {d.get('format_version')!r}")
        spec = FeatureSpec(**d["feature_spec"])
        input_dim, hidden, arity = d["layer_sizes"]
        scheme = None if d["scheme"] is None else BucketScheme.from_dict(d["scheme"])
        model = cls(spec, hidden, arity, HeadKind(d["head"]), scheme, d["seed"])
        if hidden > 0:
            shapes = {"w1": (hidden, input_dim), "b1": (hidden,), "w2": (arity, hidden), "b2": (arity,)}
        else:
            shapes = {"w": (arity, input_dim), "b": (arity,)}
        model.params = {
            k: np.asarray(d["params"][k], dtype=np.float64).reshape(shape)
            for k, shape in shapes.items()
        }
        for key, value in model.params.items():
            if not np.all(np.isfinite(value)):
                raise ValueError(f"non-finite parameters in artifact ({key})")
        return model


ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Adam: moment accumulators plus step count."""

    lr: float
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def for_params(cls, params, lr) -> "AdamState":
        return cls(
            lr=lr,
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )

    def update(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        beta1, beta2 = ADAM_BETAS
        self.step += 1
        for key in sorted(params):
            g = grads[key]
            self.m[key] = beta1 * self.m[key] + (1.0 - beta1) * g
            self.v[key] = beta2 * self.v[key] + (1.0 - beta2) * g * g
            m_hat = self.m[key] / (1.0 - beta1**self.step)
            v_hat = self.v[key] / (1.0 - beta2**self.step)
            params[key] -= self.lr * (m_hat / (np.sqrt(v_hat) + ADAM_EPS))


@dataclass(frozen=True)
class TrainConfig:
    head: HeadKind
    scheme: BucketScheme | None = None
    lr: float = 2e-3
    batch_size: int = 1024
    max_epochs: int = 50
    rel_tol: float = 1e-4
    seed: int = 0
    hash_dim: int = 64
    hidden: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"learning rate must be positive and finite, got {self.lr}")
        if self.max_epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.max_epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")
        if self.hidden < 0:
            raise ValueError(f"hidden width must be >= 0, got {self.hidden}")
        if self.hash_dim < 2:
            raise ValueError(f"hash_dim must be >= 2, got {self.hash_dim}")


@dataclass
class TrainResult:
    model: Model
    epoch_losses: list[float]
    clipped: int = 0


def train(dataset: Dataset, config: TrainConfig, binom_labels=None) -> TrainResult:
    """Seeded shuffled mini-batch Adam fit of the configured head.

    Targets are encoded one batch at a time.  ``binom_labels`` optionally
    replaces the binom head's soft labels derived from total watch time with
    true per-bucket fractions (n, N).  Raises ValueError when the scheme does
    not suit the head or a watch time is negative, and TrainingDiverged on a
    non-finite batch loss.
    """
    numeric_dims = len(dataset.samples[0].numeric)
    spec = FeatureSpec(config.hash_dim, numeric_dims, seed=config.seed)
    rng = np.random.default_rng(config.seed)
    model = Model.init(spec, config.hidden, config.head, config.scheme, config.seed, rng)
    x = spec.encode_dataset(dataset)
    targets = dataset.targets()
    clipped = 0
    if binom_labels is not None:
        binom_labels = np.asarray(binom_labels, dtype=np.float64)
    elif heads.HEADS[config.head].tail_open is False:
        clipped = int(np.count_nonzero(targets > config.scheme.endpoints[-1]))

    optimizer = AdamState.for_params(model.params, config.lr)
    n = len(dataset)
    epoch_losses: list[float] = []

    for epoch in range(config.max_epochs):
        perm = rng.permutation(n)
        total = 0.0
        for bi, start in enumerate(range(0, n, config.batch_size)):
            idx = perm[start : start + config.batch_size]
            xb = x[idx]
            if binom_labels is None:
                enc = heads.encode_targets(config.head, config.scheme, targets[idx])
            else:
                enc = binom_labels[idx]
            losses, dlogits = heads.loss_batch(config.head, model.forward_batch(xb), enc)
            total += float(losses.sum())  # one non-finite loss makes the total non-finite
            if not np.isfinite(total):
                raise TrainingDiverged(epoch, bi, model.param_norm())
            grads = model.backward_batch(xb, dlogits / len(idx))
            optimizer.update(model.params, grads)
        epoch_losses.append(total / n)
        if epoch > 0:
            prev, cur = epoch_losses[-2], epoch_losses[-1]
            if abs(prev - cur) / max(abs(prev), 1e-12) < config.rel_tol:
                break
    return TrainResult(model, epoch_losses, clipped)

