"""Head comparison on synthetic populations of mixed user groups.

Each population blends several user groups with their own per-bucket
probabilities; the group id is the only model feature, so a good head
recovers per-group watch time and the ranking metrics separate the heads.
Everything is seeded: reruns reproduce the tables exactly.

Usage: python scripts/synthetic_experiment.py [--n 60000] [--seed 0]
"""

import argparse

import numpy as np

from swat import dataio, heads, metrics, predictor, simulate
from swat.buckets import BucketScheme, from_percentiles
from swat.heads import HeadKind
from swat.predictor import FeatureSpec, TrainConfig
from swat.simulate import Behavior, BehaviorProfile

ENDPOINTS = (8, 20, 45)

GROUPS = {
    "casual": 0.55,
    "regular": 0.85,
    "hooked": 0.97,
}


def group_profiles(kind, seed):
    base = {
        Behavior.WANDERING: np.array([0.8, 0.5, 0.2]),
        Behavior.FOCUSED: np.array([0.97, 0.93, 0.85, 0.5]),
        Behavior.STATIONARY: np.array([0.9]),
    }[kind]
    # each population's scheme has the tail of the head that models it, or is none
    tail_open = heads.HEADS[simulate.HEAD_OF[kind]].tail_open
    scheme = None if tail_open is None else BucketScheme(ENDPOINTS, tail_open)
    for g, (token, factor) in enumerate(GROUPS.items()):
        probs = tuple(np.clip(base * factor, 0.02, 0.995))
        yield token, BehaviorProfile(kind, probs, scheme, seed + g)


def mixed_dataset(kind, n, seed):
    """n // len(GROUPS) draws per group, shuffled; the `group` column holds
    each row's group name."""
    groups, totals = [], []
    per_group = n // len(GROUPS)
    for token, profile in group_profiles(kind, seed):
        groups.extend([token] * per_group)
        totals.extend(simulate.draw(profile, per_group))
    order = np.random.default_rng(seed + 99).permutation(len(totals))
    return dataio.Dataset(
        [str(i) for i in order], np.asarray(totals, dtype=float)[order],
        {"group": np.asarray(groups, dtype=object)[order]},
    )


def group_width(width, seed):
    """The smallest hash width, doubling from ``width``, at which the group
    tokens land in distinct slots under the hash seed ``seed``, encoded as
    training encodes them."""
    probe = dataio.Dataset([str(g) for g in range(len(GROUPS))], np.zeros(len(GROUPS)),
                           {"group": np.asarray(list(GROUPS), dtype=object)})
    while len(set(FeatureSpec(width, seed).encode_dataset(probe).slots.tolist())) < len(GROUPS):
        width *= 2
    return width


def fit_and_score(train_set, test_set, head, seed, hash_dim):
    """The head's report on the test rows, how its fit stopped and how many
    test rows it predicted from a probability at the clamp."""
    scheme = None
    tail_open = heads.HEADS[head].tail_open
    if tail_open is not None:
        scheme = from_percentiles(train_set.targets(), 5, tail_open=tail_open)
    config = TrainConfig(head=head, scheme=scheme, lr=2e-2, hash_dim=hash_dim, max_epochs=100, seed=seed)
    result = predictor.train(train_set, config)
    preds, clamped = result.model.predict_dataset(test_set)
    return metrics.evaluate(preds, test_set.raw_targets), result.stopped, clamped


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=60_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    hash_dim = group_width(16, args.seed)
    print(f"hash_dim {hash_dim}: the smallest from 16 that keeps the {len(GROUPS)} groups apart at seed {args.seed}")

    for kind in Behavior:
        full = mixed_dataset(kind, args.n, args.seed)
        train_set, test_set = map(full.take, dataio.split(len(full), 0.8, seed=args.seed))
        mean_t = full.raw_targets.mean()
        print(f"\n== {kind.value} population: n={len(full)}, "
              f"{len(GROUPS)} groups, mean watch time {mean_t:.3f} ==")
        print(f"{'head':8s}  {'mae':>9s}  {'xauc':>6s}  {'pearson':>8s}  {'stopped':>10s}  {'clamped':>7s}")
        for head in HeadKind:
            rep, stopped, clamped = fit_and_score(train_set, test_set, head, args.seed, hash_dim)
            pearson = "---" if np.isnan(rep.pearson) else f"{rep.pearson:8.4f}"
            print(f"{head.value:8s}  {rep.mae:9.4f}  {rep.xauc:6.4f}  {pearson:>8s}  {stopped:>10s}  {clamped:7d}")


if __name__ == "__main__":
    main()
