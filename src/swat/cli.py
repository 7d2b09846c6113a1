"""Command-line pipeline: bucket construction, training, evaluation,
simulation, and self-verification.

Exit codes: 0 success, 1 verification failure, 2 usage or configuration
error, 3 numeric failure during training.  The SWAT_LOG environment variable
(debug/info/warning/error) controls verbosity.  Every command that writes
files also writes a manifest.json recording the resolved configuration,
input hashes, and output paths.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import dataio, heads, metrics, predictor, simulate, verify
from .buckets import BucketScheme, ablation_choice, check_percent_step, from_endpoints, from_percentiles
from .heads import HeadKind
from .predictor import Model, TrainConfig, TrainingDiverged

log = logging.getLogger("swat")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat()


def _write_manifest(
    outdir: Path, command: str, config: dict, inputs: list, outputs: list, started: str
) -> None:
    config = {k: v for k, v in config.items() if k != "fn"}
    manifest = {
        "command": command,
        "config": config,
        "seed": config.get("seed"),
        "timestamps": {"started": started, "finished": _utcnow()},
        "inputs": {str(p): _sha256(Path(p)) for p in inputs},
        "outputs": [str(p) for p in outputs],
    }
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    (outdir / "manifest.json").write_text(text, encoding="utf-8")


def _write_csv(path: Path, header: list, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _list_of(kind):
    """The type of a comma-separated list flag whose non-blank items parse as ``kind``."""
    def parse(text: str) -> list:
        try:
            return [kind(tok) for tok in text.split(",") if tok.strip()]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _seed(text: str) -> int:
    """The type of every --seed: an integer >= 0, checked while parsing."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


def _load_dataset(args, part: str, *, targets_only: bool = False) -> dataio.Dataset:
    """Load args.data; when --ratio is set, keep the train or test part.

    The split is a pure function of (--ratio, --seed), so `train` and `eval`
    invoked with the same values see disjoint parts of the same file.
    ``targets_only`` keeps only the target column (see ``dataio.load_csv``).
    """
    if args.ratio is not None:
        dataio.check_ratio(args.ratio)  # before the file is read
    c = args.c if args.c is not None else dataio.DEFAULT_C[args.schema]
    schema = dataio.DEFAULT_SCHEMAS[args.schema]
    dataset = dataio.load_csv(args.data, schema, c=c, targets_only=targets_only)
    if dataset.skipped:
        log.warning("%d unusable rows of %s skipped", dataset.skipped, args.data)
    if args.ratio is not None:
        train_part, test_part = dataio.split(dataset, args.ratio, args.seed)
        dataset = train_part if part == "train" else test_part
    return dataset


def _scheme(args, tail_open: bool) -> BucketScheme | None:
    """The scheme of --scheme, else of --endpoints with the given tail, else None."""
    if args.scheme is not None:
        return BucketScheme.load(args.scheme)
    return from_endpoints(args.endpoints, tail_open=tail_open) if args.endpoints is not None else None


def _ensure_outdir(path_str: str) -> Path:
    outdir = Path(path_str)
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_buckets(args) -> int:
    started = _utcnow()
    cfg = dict(vars(args))
    if args.endpoints is not None:
        scheme = from_endpoints(args.endpoints, tail_open=args.tail_open)
        inputs = []
    else:
        if args.choice is None:
            check_percent_step(args.percent_step)  # before the data is read
        dataset = _load_dataset(args, part="train", targets_only=True)
        cfg["skipped"] = dataset.skipped
        targets = dataset.targets().tolist()
        if args.choice is not None:
            scheme = ablation_choice(targets, args.choice, tail_open=args.tail_open)
        else:
            scheme = from_percentiles(targets, args.percent_step, tail_open=args.tail_open)
        inputs = [args.data]
    outdir = _ensure_outdir(args.out)
    scheme_path = outdir / "scheme.json"
    scheme.save(scheme_path)
    _write_manifest(outdir, "buckets", cfg, inputs, [scheme_path], started)
    print(f"buckets: N={scheme.n_buckets} endpoints={','.join(map(str, scheme.endpoints))}")
    print(f"wrote {scheme_path}")
    return 0


def cmd_train(args) -> int:
    started = _utcnow()
    head = HeadKind(args.head)
    scheme = _scheme(args, tail_open=bool(heads.HEADS[head].tail_open))
    heads.arity(head, scheme)  # reject unsuitable settings before reading the data
    config = TrainConfig(
        head=head,
        scheme=scheme,
        lr=args.lr,
        batch_size=args.batch,
        max_epochs=args.epochs,
        seed=args.seed,
        hash_dim=args.hash_dim,
        hidden=args.hidden,
    )
    dataset = _load_dataset(args, part="train")
    result = predictor.train(dataset, config)
    if result.clipped:
        log.warning("%d samples clipped beyond the last bucket edge", result.clipped)

    outdir = _ensure_outdir(args.out)
    model_path = outdir / "model.json"
    trace_path = outdir / "loss_trace.csv"
    result.model.save(model_path)
    _write_csv(trace_path, ["epoch", "mean_loss"],
               ([epoch, repr(loss)] for epoch, loss in enumerate(result.epoch_losses)))
    inputs = [args.data] + ([args.scheme] if args.scheme else [])
    cfg = dict(vars(args), clipped=result.clipped, skipped=dataset.skipped)
    _write_manifest(outdir, "train", cfg, inputs, [model_path, trace_path], started)
    print(f"trained {head.value} head: {len(result.epoch_losses)} epochs, "
          f"final loss {result.epoch_losses[-1]:.6f}")
    print(f"wrote {model_path}")
    return 0


def cmd_eval(args) -> int:
    started = _utcnow()
    model = Model.load(args.model)
    dataset = _load_dataset(args, part="test")
    preds = model.predict_dataset(dataset) / dataset.c
    report = metrics.evaluate(preds, dataset.raw_targets)
    outdir = _ensure_outdir(args.out)
    report_path = outdir / "report.json"
    preds_path = outdir / "predictions.csv"
    report_path.write_text(report.to_json() + "\n", encoding="utf-8")
    dataio.write_predictions(preds_path, dataset, preds)
    cfg = dict(vars(args), skipped=dataset.skipped)
    _write_manifest(outdir, "eval", cfg, [args.model, args.data],
                    [report_path, preds_path], started)
    print(report.table())
    return 0


def cmd_simulate(args) -> int:
    started = _utcnow()
    kind = simulate.Behavior(args.kind)
    scheme = _scheme(args, tail_open=kind is simulate.Behavior.FOCUSED)
    profile = simulate.BehaviorProfile(kind, tuple(args.probs), scheme, args.seed)
    totals = simulate.draw(profile, args.n)
    outdir = _ensure_outdir(args.out)
    csv_path = outdir / "samples.csv"
    _write_csv(csv_path, ["sample_id", "feat", "watch_time"],
               ([i, "all", int(t)] for i, t in enumerate(totals)))
    _write_manifest(outdir, "simulate", vars(args), [], [csv_path], started)
    print(f"simulated {args.n} {kind.value} samples, mean watch time {totals.mean():.4f}")
    print(f"wrote {csv_path}")
    return 0


def cmd_verify(args) -> int:
    started = _utcnow()
    results = verify.run_all(trials=args.trials, seed=args.seed)
    failed = [name for name, r in results.items() if not r["passed"]]
    for name, r in results.items():
        print(f"[{'PASS' if r['passed'] else 'FAIL'}] {name}: {r['detail']}")
    if args.out:
        outdir = _ensure_outdir(args.out)
        results_path = outdir / "verify.json"
        text = json.dumps(results, indent=2, sort_keys=True) + "\n"
        results_path.write_text(text, encoding="utf-8")
        _write_manifest(outdir, "verify", vars(args), [], [results_path], started)
    else:
        print(json.dumps(results, sort_keys=True))
    if failed:
        print(f"verification FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    print("verification passed")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="swat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data_flags(p, source=None):
        """--data, required unless it is one of the group `source`, and the CSV layout flags."""
        (source or p).add_argument("--data", required=source is None, help="input CSV path")
        p.add_argument("--schema", default="sim", choices=sorted(dataio.DEFAULT_SCHEMAS),
                       help="CSV layout")
        p.add_argument("--c", type=float, default=None,
                       help="target scaling constant (default per schema)")
        p.add_argument("--ratio", type=float, default=None,
                       help="train fraction; buckets/train use it, eval takes the rest")

    def add_scheme_flags(p):
        source = p.add_mutually_exclusive_group()
        source.add_argument("--scheme", help="scheme JSON path")
        source.add_argument("--endpoints", type=_list_of(int),
                            help="inline scheme, e.g. 5,12,22 (tail set by the head or kind)")

    p = sub.add_parser("buckets", help="construct a bucket scheme")
    source = p.add_mutually_exclusive_group(required=True)
    add_data_flags(p, source)
    source.add_argument("--endpoints", type=_list_of(int), help="explicit endpoints, e.g. 5,12,22")
    p.add_argument("--choice", type=int, choices=range(1, 7), default=None,
                   help="endpoint construction 1..6")
    p.add_argument("--percent-step", type=float, default=1.0,
                   help="percentile grid step when --choice is absent")
    p.add_argument("--tail-open", action="store_true",
                   help="include the unbounded tail bucket (geometric heads)")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default="buckets_out")
    p.set_defaults(fn=cmd_buckets)

    p = sub.add_parser("train", help="fit a head on a CSV")
    add_data_flags(p)
    p.add_argument("--head", required=True, choices=[k.value for k in HeadKind])
    add_scheme_flags(p)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--lr", type=float, default=2e-3)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--batch", type=int, default=1024)
    p.add_argument("--hidden", type=int, default=0)
    p.add_argument("--hash-dim", type=int, default=64)
    p.add_argument("--out", default="train_out")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a model artifact on a CSV")
    add_data_flags(p)
    p.add_argument("--model", required=True, help="model JSON path")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default="eval_out")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("simulate", help="draw synthetic watch times")
    p.add_argument("--kind", required=True,
                   choices=[b.value for b in simulate.Behavior])
    p.add_argument("--probs", required=True, type=_list_of(float),
                   help="per-bucket probabilities, e.g. 0.9,0.5,0.2")
    add_scheme_flags(p)
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default="simulate_out")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("verify", help="run the built-in property suite")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("SWAT_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError, MemoryError) as exc:
        # OSError: a path that is no readable file or usable directory;
        # MemoryError: a size setting whose arrays cannot be allocated
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrainingDiverged as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
