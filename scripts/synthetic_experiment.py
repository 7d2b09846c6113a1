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
from swat.predictor import TrainConfig
from swat.simulate import Behavior, BehaviorProfile

WANDER_SCHEME = BucketScheme((8, 20, 45), tail_open=False)
FOCUS_SCHEME = BucketScheme((8, 20, 45), tail_open=True)

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
    scheme = {
        Behavior.WANDERING: WANDER_SCHEME,
        Behavior.FOCUSED: FOCUS_SCHEME,
        Behavior.STATIONARY: None,
    }[kind]
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


def fit_and_score(train_set, test_set, head, seed):
    scheme = None
    tail_open = heads.HEADS[head].tail_open
    if tail_open is not None:
        scheme = from_percentiles(train_set.targets().tolist(), 5, tail_open=tail_open)
    config = TrainConfig(head=head, scheme=scheme, hash_dim=16, max_epochs=30, seed=seed)
    model = predictor.train(train_set, config).model
    preds = model.predict_dataset(test_set)
    return metrics.evaluate(preds, test_set.raw_targets)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=60_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    for kind in Behavior:
        full = mixed_dataset(kind, args.n, args.seed)
        train_set, test_set = dataio.split(full, 0.8, seed=args.seed)
        mean_t = full.raw_targets.mean()
        print(f"\n== {kind.value} population: n={len(full)}, "
              f"{len(GROUPS)} groups, mean watch time {mean_t:.3f} ==")
        print(f"{'head':8s}  {'mae':>8s}  {'xauc':>6s}  {'pearson':>8s}")
        for head in HeadKind:
            rep = fit_and_score(train_set, test_set, head, args.seed)
            pearson = "---" if np.isnan(rep.pearson) else f"{rep.pearson:8.4f}"
            print(f"{head.value:8s}  {rep.mae:8.4f}  {rep.xauc:6.4f}  {pearson:>8s}")


if __name__ == "__main__":
    main()
