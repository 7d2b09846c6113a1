"""Trainable predictor: hashed features -> small feed-forward net -> head logits.

The feature encoder works on whole arrays, with no Python step per token.
It joins each column's distinct cells into one UTF-8 buffer, a chunk at a
time, finds the token bounds with a byte table of ``dataio.split_cell``'s
separators, and hashes every ``column=token`` with a seeded 64-bit hash: the
polynomial sum_k q_k P^k + 0xFF P^n mod 2**64 of its n UTF-8 bytes q, with
P = 0x100000001B3, read off prefix sums of the chunk's bytes, XOR the seed,
then MurmurHash3's fmix64, then the remainder by ``hash_dim``.  0xFF, which
UTF-8 never uses, ends every string, so distinct strings are distinct
polynomials.  Each row's slots are kept as CSR token bags.
Training and scoring densify one batch of rows at a time into the
mean-pooled one-hot slots of each row, so feature memory grows with the
token count and the batch size, not with rows x ``hash_dim``.  The net's
affine output layer reads h: the features, or one rectified hidden layer of
them when ``hidden > 0``; the forward returns h and the backward reuses it.
Training is seeded mini-batch Adam against any head's loss, started with
the output bias at the head's smoothed bias-only optimum
(``heads.prior_logits``) and every other bias at 0; given the same
config and seed, two runs produce bit-identical models, which ``dataio``
writes and reads as JSON.  A model records the target scale ``c`` it was
fitted at and predicts in raw units.

Training computes in float32: the parameters, the Adam moments, each batch's
feature rows (scattered straight into float32) and encoded targets, and the
head's loss and gradient.  The trained parameters are cast back to float64, and everything
after training (scoring, the estimators and the artifact) works in float64.
"""

from __future__ import annotations

import itertools
import logging
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import dataio, heads
from .buckets import BucketScheme
from .dataio import Dataset, json_field
from .heads import HeadKind

log = logging.getLogger(__name__)

# 2: geo stop factor of second t + 1; 3: token features only; 4: c, each setting once;
# 5: token slots from the FNV-1a/fmix64 hash; 6: token slots from the polynomial hash
ARTIFACT_VERSION = 6
PREDICT_BLOCK = 4096  # rows scored at once, which bounds the estimators' temporaries


class TrainingDiverged(RuntimeError):
    """Raised when a batch loss, or a parameter after the last step, goes non-finite."""

    def __init__(self, epoch: int, batch: int, param_norm: float, what: str = "loss"):
        self.epoch = epoch
        self.batch = batch
        self.param_norm = param_norm
        super().__init__(
            f"non-finite {what} at epoch {epoch}, batch {batch} (parameter norm {param_norm:.3e})"
        )


_P = 0x100000001B3  # the hash's base: odd, so P^-1 mod 2**64 exists
_FMIX = (np.uint64(0xFF51AFD7ED558CCD), np.uint64(0xC4CEB9FE1A85EC53))
# the UTF-8 bytes that end a token: ASCII whitespace as str.isspace has it, and '|'
_SEPARATOR = np.array([b < 128 and (chr(b).isspace() or chr(b) == "|") for b in range(256)])
# the other characters str.split splits on; a cell maps them to a space first
_WIDE_SPACES = str.maketrans(dict.fromkeys("\x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005"
                                           "\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f"
                                           "\u205f\u3000", " "))
ENCODE_CHUNK = 1 << 16  # characters tokenized, or tokens gathered into bags, at once


def _run_positions(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The positions starts[0], ..., starts[0] + counts[0] - 1, then those of the next run, ..."""
    return np.arange(counts.sum()) + np.repeat(starts - (np.cumsum(counts) - counts), counts)


def _chunks(sizes: np.ndarray, limit: int):
    """Consecutive (lo, hi) ranges covering ``sizes``, each summing to at most
    ``limit`` or holding a single item."""
    ends, cuts = np.cumsum(sizes), [0]
    while cuts[-1] < len(sizes):
        reached = ends[cuts[-1] - 1] if cuts[-1] else 0
        cuts.append(max(cuts[-1] + 1, int(np.searchsorted(ends, reached + limit, "right"))))
    return zip(cuts[:-1], cuts[1:])


def _powers(base: int, n: int) -> np.ndarray:
    """base**0, ..., base**(n - 1) mod 2**64, as uint64."""
    powers = np.full(n, base, np.uint64)
    powers[0] = 1
    return np.multiply.accumulate(powers, out=powers)


def _polynomials(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray, powers, inverses):
    """sum_k b_k P^k + 0xFF P^(e - s) mod 2**64 of each token's bytes b =
    ``buf[s:e]``: with S[i] the sum of buf[j] P^j over j < i, that is
    (S[e] - S[s]) P^-s + 0xFF P^(e - s).  ``powers`` and ``inverses`` hold
    P^i and P^-i for i up to len(buf)."""
    sums = np.zeros(len(buf) + 1, np.uint64)
    np.cumsum(buf * powers[: len(buf)], out=sums[1:])
    return (sums[ends] - sums[starts]) * inverses[starts] + np.uint64(0xFF) * powers[ends - starts]


def _fmix64(h: np.ndarray) -> np.ndarray:
    """MurmurHash3's 64-bit finalizer, which spreads every input bit over the low bits."""
    h = h ^ (h >> 33)
    h *= _FMIX[0]
    h ^= h >> 33
    h *= _FMIX[1]
    return h ^ (h >> 33)


@dataclass(frozen=True, eq=False)
class TokenBags:
    """Hashed token slots of n rows in CSR form: row i holds
    ``slots[offsets[i]:offsets[i + 1]]``, in token order."""

    offsets: np.ndarray  # (n + 1,) int64, offsets[0] == 0
    slots: np.ndarray  # (nnz,) int64 in [0, hash_dim)
    hash_dim: int

    def rows(self, idx, dtype=np.float64) -> np.ndarray:
        """(len(idx), hash_dim) feature rows of ``dtype`` for the row indices
        ``idx``: each row's slots mean-pooled, a row without tokens all zeros."""
        idx = np.asarray(idx, dtype=np.int64)
        starts = self.offsets[idx]
        counts = self.offsets[idx + 1] - starts
        slots = self.slots[_run_positions(starts, counts)]
        cells = np.repeat(np.arange(len(idx)) * self.hash_dim, counts) + slots
        # every token of a row adds the same 1/len(row), in token order, straight into `dtype`
        weights = np.repeat((1.0 / np.maximum(counts, 1)).astype(dtype), counts)
        x = np.zeros((len(idx), self.hash_dim), dtype)
        np.add.at(x.reshape(-1), cells, weights)
        return x


@dataclass(frozen=True)
class FeatureSpec:
    """Deterministic hashed encoding of token lists."""

    hash_dim: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.hash_dim < 2:
            raise ValueError(f"hash_dim must be >= 2, got {self.hash_dim}")
        if not 0 <= self.seed < 2**64:  # the seed is XOR-ed into the 64-bit hash
            raise ValueError(f"feature seed must be in [0, 2**64), got {self.seed}")

    def encode_dataset(self, dataset: Dataset) -> TokenBags:
        """The hashed slots of each row's tokens, as CSR token bags (each distinct
        cell tokenized once); dense feature rows come from ``TokenBags.rows``."""
        source, starts, counts = self._runs(dataset)
        offsets = np.concatenate([[0], np.cumsum(counts.sum(axis=1))])
        starts, counts = starts.ravel(), counts.ravel()  # the runs in row order
        slots, done = np.empty(offsets[-1], np.int64), 0
        for lo, hi in _chunks(counts, ENCODE_CHUNK):
            chunk = source[_run_positions(starts[lo:hi], counts[lo:hi])]
            slots[done : done + len(chunk)] = chunk
            done += len(chunk)
        return TokenBags(offsets, slots, self.hash_dim)

    def _runs(self, dataset: Dataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(source, starts, counts): the slots of every column's distinct cells
        in one array, and the (n, columns) runs of it that row i's tokens are,
        column after column: ``source[starts[i, j]:starts[i, j] + counts[i, j]]``."""
        shape = (len(dataset), len(dataset.features))
        starts, counts = np.empty(shape, np.int64), np.empty(shape, np.int64)
        chunks, done = [np.empty(0, np.int64)], 0
        for j, (column, cells) in enumerate(dataset.features.items()):
            cells = cells.tolist()
            index = dict(zip(dict.fromkeys(cells), itertools.count()))
            cell_of_row = np.fromiter(map(index.__getitem__, cells), np.int64, len(cells))
            cell_counts = []
            for slots, tokens in self._tokenize(column, list(index)):
                chunks.append(slots)
                cell_counts.append(tokens)
            cell_counts = np.concatenate(cell_counts)
            starts[:, j] = (done + np.cumsum(cell_counts) - cell_counts)[cell_of_row]
            counts[:, j] = cell_counts[cell_of_row]
            done += cell_counts.sum()
        return np.concatenate(chunks), starts, counts

    def _tokenize(self, column: str, cells: list):
        """For consecutive chunks of about ENCODE_CHUNK characters of ``cells``:
        (the slots of the chunk's tokens, cell after cell; each cell's token count).
        ``column=``'s m bytes enter once, as their polynomial plus P^m times the
        token's; the power tables grow to the column's longest chunk."""
        prefix = f"{column}=".encode("utf-8")
        head = np.uint64(sum(b * pow(_P, k, 2**64) for k, b in enumerate(prefix)) % 2**64)
        shift, seed = np.uint64(pow(_P, len(prefix), 2**64)), np.uint64(self.seed)
        powers = inverses = np.ones(1, np.uint64)
        texts = [cell or "" for cell in cells]
        for lo, hi in _chunks(np.fromiter(map(len, texts), np.int64, len(texts)) + 1, ENCODE_CHUNK):
            raw = [t.encode("utf-8") if t.isascii() else t.translate(_WIDE_SPACES).encode("utf-8")
                   for t in texts[lo:hi]]
            buf = np.frombuffer(b" ".join(raw), np.uint8)
            if len(buf) >= len(powers):
                powers, inverses = _powers(_P, len(buf) + 1), _powers(pow(_P, -1, 2**64), len(buf) + 1)
            bounds = np.flatnonzero(np.diff(~_SEPARATOR[buf], prepend=False, append=False))
            starts, ends = bounds[::2], bounds[1::2]
            h = (head + shift * _polynomials(buf, starts, ends, powers, inverses)) ^ seed
            cell_ends = np.cumsum(np.fromiter(map(len, raw), np.int64, len(raw)) + 1)
            yield ((_fmix64(h) % np.uint64(self.hash_dim)).astype(np.int64),
                   np.diff(np.searchsorted(starts, cell_ends), prepend=0))


def _norm(arrays) -> float:
    """The Euclidean norm of the arrays taken as one vector, summed in float64."""
    return math.sqrt(sum(float(np.square(a, dtype=np.float64).sum()) for a in arrays))


@dataclass
class Model:
    """Affine(-ReLU-affine) map from features to head logits, fitted on the
    integer targets round(c * raw) of a dataset scaled by ``c``."""

    feature_spec: FeatureSpec
    hidden: int
    head: HeadKind
    scheme: BucketScheme | None
    c: float
    params: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def init(cls, feature_spec, hidden, head, scheme, c, rng) -> "Model":
        model = cls(feature_spec, hidden, head, scheme, c)
        for key, shape in model.shapes().items():
            if len(shape) == 2:  # weights (out, in): uniform over +-1/sqrt(fan-in)
                model.params[key] = rng.uniform(-1.0, 1.0, size=shape) / np.sqrt(shape[1])
            else:
                model.params[key] = np.zeros(shape)
        return model

    @property
    def output(self) -> tuple[str, str]:
        """The keys of the output layer's (weight, bias)."""
        return ("w2", "b2") if self.hidden > 0 else ("w", "b")

    def shapes(self) -> dict[str, tuple[int, ...]]:
        """Each parameter's key and shape, in layer order."""
        d, h, k = self.feature_spec.hash_dim, self.hidden, heads.arity(self.head, self.scheme)
        if h > 0:
            return {"w1": (h, d), "b1": (h,), "w2": (k, h), "b2": (k,)}
        return {"w": (k, d), "b": (k,)}

    def forward_batch(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(B, d) features -> (B, arity) logits and the output layer's input h:
        the rectified hidden units, or x itself without a hidden layer."""
        h = x
        if self.hidden > 0:
            h = np.maximum(x @ self.params["w1"].T + self.params["b1"], 0.0)
        w, b = self.output
        return h @ self.params[w].T + self.params[b], h

    def backward_batch(self, x: np.ndarray, h: np.ndarray, dlogits: np.ndarray) -> dict[str, np.ndarray]:
        """Exact gradients of sum_b loss_b given d(loss)/d(logits) rows and the forward's h."""
        w, b = self.output
        grads = {w: dlogits.T @ h, b: dlogits.sum(axis=0)}
        if self.hidden > 0:  # h > 0 exactly where the unit's pre-activation z > 0
            dz = (dlogits @ self.params["w2"]) * (h > 0.0)
            grads |= {"w1": dz.T @ x, "b1": dz.sum(axis=0)}
        return grads

    def predict(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Expected watch times (scaled-target units) for feature rows, and which
        rows read a probability at the clamp (``heads.expectation_batch``)."""
        return heads.expectation_batch(self.head, self.forward_batch(x)[0], self.scheme)

    def predict_dataset(self, dataset: Dataset) -> tuple[np.ndarray, int]:
        """Expected watch times of the dataset's rows in raw units (``predict`` / c),
        and how many rows read a probability at the clamp."""
        bags, n = self.feature_spec.encode_dataset(dataset), len(dataset)
        blocks = np.split(np.arange(n), range(PREDICT_BLOCK, n, PREDICT_BLOCK))
        preds, clamped = zip(*(self.predict(bags.rows(block)) for block in blocks))
        return np.concatenate(preds) / self.c, int(np.concatenate(clamped).sum())

    def to_dict(self) -> dict:
        return {
            "format_version": ARTIFACT_VERSION,
            "feature_spec": asdict(self.feature_spec),
            "hidden": self.hidden,
            "head": self.head.value,
            "scheme": asdict(self.scheme) if self.scheme is not None else None,
            "c": float(self.c),  # a JSON float, as the loader requires
            "params": {k: v.ravel().tolist() for k, v in sorted(self.params.items())},
        }

    def save(self, path) -> None:
        dataio.write_json(path, self.to_dict())

    @classmethod
    def load(cls, path) -> "Model":
        """Read a ``save``d artifact; ValueError naming the file and the faulty field when it is not one."""
        return dataio.read_json(path, cls._from_dict)

    @classmethod
    def _from_dict(cls, d) -> "Model":
        if not isinstance(d, dict):
            raise ValueError(f"a model is a JSON object, got {type(d).__name__}")
        if d.get("format_version") != ARTIFACT_VERSION:
            raise ValueError(f"unsupported model format {d.get('format_version')!r}")
        spec = FeatureSpec(json_field(d, "feature_spec.hash_dim", int),
                           json_field(d, "feature_spec.seed", int))
        hidden = json_field(d, "hidden", int)
        if hidden < 0:
            raise ValueError(f"field 'hidden' must be >= 0, got {hidden}")
        c = json_field(d, "c", float)
        dataio.check_c(c)
        raw_scheme = json_field(d, "scheme", (dict, type(None)))
        scheme = None if raw_scheme is None else BucketScheme.from_dict(raw_scheme, "scheme.")
        model = cls(spec, hidden, HeadKind(json_field(d, "head", str)), scheme, c)
        for key, shape in model.shapes().items():
            values = json_field(d, f"params.{key}", list)
            try:
                model.params[key] = np.asarray(values, dtype=np.float64).reshape(shape)
            except (TypeError, ValueError):
                raise ValueError(f"field 'params.{key}' must be {math.prod(shape)} numbers") from None
            if not np.all(np.isfinite(model.params[key])):
                raise ValueError(f"non-finite parameters in artifact ({key})")
        return model


ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


class AdamState:
    """Adam: moment accumulators plus step count."""

    def __init__(self, params: dict[str, np.ndarray], lr: float):
        self.lr, self.step = lr, 0
        self.m = {k: np.zeros_like(p) for k, p in params.items()}
        self.v = {k: np.zeros_like(p) for k, p in params.items()}

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
        heads.arity(self.head, self.scheme)  # checks that the scheme suits the head


@dataclass
class TrainResult:
    """The fitted model; each epoch's mean loss, last batch gradient norm and
    parameter norm after that step; the count of targets clipped to the last
    closed bucket; and how training stopped: "rel_tol" when the mean loss
    changed by less than ``rel_tol`` relative between two epochs, else "max_epochs"."""

    model: Model
    epoch_losses: list[float]
    grad_norms: list[float]
    param_norms: list[float]
    clipped: int = 0
    stopped: str = "max_epochs"


def train(dataset: Dataset, config: TrainConfig) -> TrainResult:
    """Seeded shuffled mini-batch Adam fit of the configured head, in float32.

    The head fits the dataset's integer targets round(c * raw), encoded one
    batch at a time and read by the loss in float32; the returned model
    records the dataset's c, and its parameters are float64.  The output
    bias (``Model.output``) starts at the head's ``heads.prior_logits`` of
    the targets, an entry that is not finite at 0; the weights start at
    random.  At logging level INFO each epoch logs one line: its mean loss,
    the norm of its last batch gradient, the parameter norm and samples/s.
    Raises ValueError when a watch time is negative, and TrainingDiverged on
    a non-finite batch loss or returned parameter.
    """
    spec = FeatureSpec(config.hash_dim, seed=config.seed)
    rng = np.random.default_rng(config.seed)
    model = Model.init(spec, config.hidden, config.head, config.scheme, dataset.c, rng)
    targets = dataset.targets()
    prior = heads.prior_logits(config.head, targets, config.scheme)
    model.params[model.output[1]] = np.where(np.isfinite(prior), prior, 0.0)
    model.params = {key: value.astype(np.float32) for key, value in model.params.items()}
    bags = spec.encode_dataset(dataset)
    clipped = 0
    if heads.HEADS[config.head].tail_open is False:
        clipped = int(np.count_nonzero(targets > config.scheme.endpoints[-1]))

    optimizer = AdamState(model.params, config.lr)
    n = len(dataset)
    epoch_losses: list[float] = []
    grad_norms: list[float] = []  # each epoch's last batch gradient, the one Adam applied last
    param_norms: list[float] = []
    stopped = "max_epochs"
    verbose = log.isEnabledFor(logging.INFO)  # the epoch line's timing

    # an overflow surfaces as a non-finite loss, which raises TrainingDiverged
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.max_epochs):
            if verbose:
                started = time.perf_counter()
            perm = rng.permutation(n)
            total = 0.0
            for bi, start in enumerate(range(0, n, config.batch_size)):
                idx = perm[start : start + config.batch_size]
                xb = bags.rows(idx, np.float32)
                logits, h = model.forward_batch(xb)
                losses, dlogits = heads.loss_batch(config.head, logits, targets[idx], config.scheme)
                total += float(losses.sum())  # one non-finite loss makes the total non-finite
                if not np.isfinite(total):
                    raise TrainingDiverged(epoch, bi, _norm(model.params.values()))
                grads = model.backward_batch(xb, h, dlogits / len(idx))
                optimizer.update(model.params, grads)
            epoch_losses.append(total / n)
            grad_norms.append(_norm(grads.values()))
            param_norms.append(_norm(model.params.values()))
            if verbose:
                log.info("epoch %d: mean loss %.6f, gradient norm %.6g, parameter norm %.6g, %.0f samples/s",
                         epoch, epoch_losses[-1], grad_norms[-1], param_norms[-1],
                         n / (time.perf_counter() - started))
            if epoch > 0:
                prev, cur = epoch_losses[-2], epoch_losses[-1]
                if abs(prev - cur) / max(abs(prev), 1e-12) < config.rel_tol:
                    stopped = "rel_tol"
                    break
        # a step after the last loss, or on rows no later batch reads, can still overflow
        if not all(np.isfinite(value).all() for value in model.params.values()):
            raise TrainingDiverged(epoch, bi, _norm(model.params.values()), "parameters")
    model.params = {key: value.astype(np.float64) for key, value in model.params.items()}
    return TrainResult(model, epoch_losses, grad_norms, param_norms, clipped, stopped)

