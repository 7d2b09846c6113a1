"""Bucket-count sweep: metric sensitivity to the percentile grid resolution.

Varies the number of percentile buckets across {10, 20, 50, 100, 200}
(percent steps 10, 5, 2, 1, 0.5), fits the two bucketized heads at each
setting, and writes one plot-ready CSV row per (head, bucket-count).

Usage:
  python scripts/bucket_sweep.py --data samples.csv [--schema sim] [--c 1]
  python scripts/bucket_sweep.py            # synthetic focused user groups

The synthetic data are synthetic_experiment.py's focused population: user
groups with their own per-bucket probabilities, the group id as the only
feature.
"""

import argparse
import sys

from synthetic_experiment import group_width, mixed_dataset

from swat import dataio, heads, metrics, predictor
from swat.buckets import from_percentiles
from swat.heads import HeadKind
from swat.predictor import TrainConfig
from swat.simulate import Behavior

STEPS = {10: 10.0, 20: 5.0, 50: 2.0, 100: 1.0, 200: 0.5}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data", default=None, help="CSV path; synthetic data when absent")
    parser.add_argument("--schema", default="sim", choices=sorted(dataio.DEFAULT_SCHEMAS))
    parser.add_argument("--c", type=float, default=None)
    parser.add_argument("--n", type=int, default=40_000, help="synthetic sample count")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epochs", type=int, default=25)
    parser.add_argument("--out", default="bucket_sweep.csv")
    args = parser.parse_args()

    hash_dim = 8
    if args.data:
        schema = dataio.DEFAULT_SCHEMAS[args.schema]
        full = dataio.load_csv(args.data, schema, c=schema.c if args.c is None else args.c)
    else:
        full = mixed_dataset(Behavior.FOCUSED, args.n, args.seed)
        hash_dim = group_width(hash_dim, args.seed)
        print(f"hash_dim {hash_dim}: the smallest from 8 that keeps the groups apart at seed {args.seed}")
    train_set, test_set = map(full.take, dataio.split(len(full), 0.8, seed=args.seed))
    train_targets = train_set.targets()

    rows = []
    for n_buckets, step in sorted(STEPS.items()):
        for head in (HeadKind.BINOM, HeadKind.GEO):
            scheme = from_percentiles(train_targets, step, tail_open=heads.HEADS[head].tail_open)
            config = TrainConfig(head=head, scheme=scheme, hash_dim=hash_dim,
                                 max_epochs=args.epochs, seed=args.seed)
            model = predictor.train(train_set, config).model
            rep = metrics.evaluate(model.predict(test_set)[0], test_set.raw_targets)
            rows.append({
                "requested_buckets": n_buckets,
                "actual_buckets": scheme.n_buckets,
                "head": head.value,
                "mae": rep.mae,
                "xauc": rep.xauc,
                "pearson": rep.pearson,
            })
            print(f"{head.value:6s} buckets={scheme.n_buckets:4d} "
                  f"mae={rep.mae:.4f} xauc={rep.xauc:.4f}", file=sys.stderr)

    dataio.write_csv(args.out, list(rows[0]), (row.values() for row in rows))
    print(f"wrote {args.out} ({len(rows)} rows)")


if __name__ == "__main__":
    main()
