"""Trainable predictor: hashed features -> small feed-forward net -> head logits.

The feature encoder hashes each row's tokens to slots and keeps them as CSR
token bags.  Training and scoring densify one batch of rows at a time into
the mean-pooled one-hot slots of each row, so feature memory grows with the
token count and the batch size, not with rows x ``hash_dim``.  The net is a
single affine map, or one rectified hidden layer when ``hidden > 0``.
Training is seeded mini-batch Adam against any head's loss; given the same
config and seed, two runs produce bit-identical models.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import heads
from .buckets import BucketScheme
from .dataio import Dataset, tokenize
from .heads import HeadKind

ARTIFACT_VERSION = 3  # 2: the geo stop factor uses the bucket of second t + 1; 3: token features only
PREDICT_BLOCK = 4096  # rows scored at once, which bounds the estimators' temporaries


class TrainingDiverged(RuntimeError):
    """Raised when a batch loss goes non-finite."""

    def __init__(self, epoch: int, batch: int, param_norm: float):
        self.epoch = epoch
        self.batch = batch
        self.param_norm = param_norm
        super().__init__(
            f"non-finite loss at epoch {epoch}, batch {batch} (parameter norm {param_norm:.3e})"
        )


@dataclass(frozen=True, eq=False)
class TokenBags:
    """Hashed token slots of n rows in CSR form: row i holds
    ``slots[offsets[i]:offsets[i + 1]]``, in token order."""

    offsets: np.ndarray  # (n + 1,) int64, offsets[0] == 0
    slots: np.ndarray  # (nnz,) int64 in [0, hash_dim)
    hash_dim: int

    def rows(self, idx) -> np.ndarray:
        """(len(idx), hash_dim) feature rows for the row indices ``idx``:
        each row's slots mean-pooled, a row without tokens all zeros."""
        idx = np.asarray(idx, dtype=np.int64)
        starts = self.offsets[idx]
        counts = self.offsets[idx + 1] - starts
        # position of every selected token in `slots`, row after row
        pos = np.arange(counts.sum()) + np.repeat(starts - (np.cumsum(counts) - counts), counts)
        cells = np.repeat(np.arange(len(idx)) * self.hash_dim, counts) + self.slots[pos]
        # every token of a row adds the same 1/len(row), so the order of the
        # additions to a cell cannot change its sum
        weights = np.repeat(1.0 / np.maximum(counts, 1), counts)
        x = np.bincount(cells, weights, minlength=len(idx) * self.hash_dim)
        return x.reshape(len(idx), self.hash_dim)


@dataclass(frozen=True)
class FeatureSpec:
    """Deterministic hashed encoding of token lists."""

    hash_dim: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.hash_dim < 2:
            raise ValueError(f"hash_dim must be >= 2, got {self.hash_dim}")
        if not 0 <= self.seed < 2**64:  # the hash salt is the seed's 8 bytes
            raise ValueError(f"feature seed must be in [0, 2**64), got {self.seed}")

    def slot(self, token: str) -> int:
        digest = hashlib.blake2b(
            token.encode("utf-8"), digest_size=8, salt=self.seed.to_bytes(8, "little")
        ).digest()
        return int.from_bytes(digest, "little") % self.hash_dim

    def encode_dataset(self, dataset: Dataset) -> TokenBags:
        """The hashed slots of each row's tokens, as CSR token bags; dense
        feature rows come from ``TokenBags.rows``, a batch at a time.  Each
        distinct cell is tokenised once and each distinct token hashed once."""
        n = len(dataset)
        slot = functools.cache(self.slot)
        rows, slots = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
        for column, cells in dataset.features.items():
            cells = cells.tolist()
            memo = {cell: [slot(t) for t in tokenize(column, cell)] for cell in dict.fromkeys(cells)}
            per_row = list(map(memo.__getitem__, cells))
            counts = np.fromiter(map(len, per_row), np.int64, n)
            rows.append(np.repeat(np.arange(n), counts))
            slots.append(np.fromiter(itertools.chain.from_iterable(per_row), np.int64, counts.sum()))
        rows, slots = np.concatenate(rows), np.concatenate(slots)
        # columns come one after another; a stable sort groups each row's
        # tokens and keeps their order
        slots = slots[np.argsort(rows, kind="stable")]
        offsets = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
        return TokenBags(offsets, slots, self.hash_dim)

    def to_dict(self) -> dict:
        return {"hash_dim": self.hash_dim, "seed": self.seed}


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
        model = cls(feature_spec, hidden, heads.arity(head, scheme), head, scheme, seed)
        for key, shape in model.shapes().items():
            if len(shape) == 2:  # weights (out, in): uniform over +-1/sqrt(fan-in)
                model.params[key] = rng.uniform(-1.0, 1.0, size=shape) / np.sqrt(shape[1])
            else:
                model.params[key] = np.zeros(shape)
        return model

    def shapes(self) -> dict[str, tuple[int, ...]]:
        """Each parameter's key and shape, in layer order."""
        d, h, k = self.feature_spec.hash_dim, self.hidden, self.arity
        if h > 0:
            return {"w1": (h, d), "b1": (h,), "w2": (k, h), "b2": (k,)}
        return {"w": (k, d), "b": (k,)}

    def forward_batch(self, x: np.ndarray) -> np.ndarray:
        """(B, d) features -> (B, arity) logits."""
        if x.shape[1] != self.feature_spec.hash_dim:
            raise ValueError(f"input dim {x.shape[1]} != feature dim {self.feature_spec.hash_dim}")
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
        bags, n = self.feature_spec.encode_dataset(dataset), len(dataset)
        blocks = np.split(np.arange(n), range(PREDICT_BLOCK, n, PREDICT_BLOCK))
        return np.concatenate([self.predict(bags.rows(block)) for block in blocks])

    def to_dict(self) -> dict:
        return {
            "format_version": ARTIFACT_VERSION,
            "feature_spec": self.feature_spec.to_dict(),
            "layer_sizes": [self.feature_spec.hash_dim, self.hidden, self.arity],
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
        """Read a ``save``d artifact; ValueError naming the file, and the
        field that is missing or ill-typed, when it is not one."""
        with open(path, encoding="utf-8") as fh:
            try:
                return cls._from_dict(json.load(fh))
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None

    @classmethod
    def _from_dict(cls, d) -> "Model":
        if not isinstance(d, dict):
            raise ValueError(f"a model is a JSON object, got {type(d).__name__}")
        if d.get("format_version") != ARTIFACT_VERSION:
            raise ValueError(f"unsupported model format {d.get('format_version')!r}")
        spec = FeatureSpec(_field(d, "feature_spec.hash_dim", int), _field(d, "feature_spec.seed", int))
        sizes = _field(d, "layer_sizes", list)
        if len(sizes) != 3 or not all(type(v) is int for v in sizes):
            raise ValueError("field 'layer_sizes' must be three integers")
        raw_scheme = _field(d, "scheme", (dict, type(None)))
        scheme = None if raw_scheme is None else BucketScheme.from_dict(raw_scheme)
        head = HeadKind(_field(d, "head", str))
        inputs, hidden, arity = sizes
        want = heads.arity(head, scheme)
        if inputs != spec.hash_dim or hidden < 0 or arity != want:
            raise ValueError(f"field 'layer_sizes' must be [{spec.hash_dim}, hidden >= 0, {want}], "
                             f"got {sizes}")
        model = cls(spec, hidden, arity, head, scheme, _field(d, "seed", int))
        for key, shape in model.shapes().items():
            values = _field(d, f"params.{key}", list)
            try:
                model.params[key] = np.asarray(values, dtype=np.float64).reshape(shape)
            except (TypeError, ValueError):
                raise ValueError(f"field 'params.{key}' must be {math.prod(shape)} numbers") from None
            if not np.all(np.isfinite(model.params[key])):
                raise ValueError(f"non-finite parameters in artifact ({key})")
        return model


def _field(d: dict, name: str, kind):
    """The value at the dotted ``name`` in nested JSON objects; ValueError
    naming the field when it is absent or not a ``kind`` (no bool passes as int)."""
    value = d
    for key in name.split("."):
        if not isinstance(value, dict) or key not in value:
            raise ValueError(f"missing field {name!r}")
        value = value[key]
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is int):
        raise ValueError(f"field {name!r} has the wrong type ({type(value).__name__})")
    return value


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
        FeatureSpec(self.hash_dim, self.seed)  # checks the hash width and seed


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
    spec = FeatureSpec(config.hash_dim, seed=config.seed)
    rng = np.random.default_rng(config.seed)
    model = Model.init(spec, config.hidden, config.head, config.scheme, config.seed, rng)
    bags = spec.encode_dataset(dataset)
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
            xb = bags.rows(idx)
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

