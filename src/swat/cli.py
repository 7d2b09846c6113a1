"""Command-line pipeline: bucket construction, training, evaluation,
simulation, and self-verification.

Exit codes: 0 success, 1 verification failure, 2 usage or configuration
error, 3 numeric failure during training.  The SWAT_LOG environment variable
(debug/info/warning/error) controls verbosity.  Every command that writes
files also writes a manifest.json recording the resolved configuration,
input hashes, and output paths (``Run``).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import dataio, heads, metrics, predictor, simulate, verify
from .buckets import (ABLATIONS, BucketScheme, ablation_choice, check_percent_step, from_endpoints,
                      from_percentiles)
from .heads import HeadKind
from .predictor import Model, TrainConfig, TrainingDiverged

log = logging.getLogger("swat")
LOG_LEVELS = {"debug": logging.DEBUG, "info": logging.INFO, "warning": logging.WARNING, "error": logging.ERROR}


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat()


class Run:
    """One command's manifest.json, which ``main`` writes after the command
    returns when it took an output path from ``output``: the config is
    ``vars(args)`` at that point plus what the command ``resolved``, and the
    inputs are the files it took from ``read``."""

    def __init__(self, args) -> None:
        self.args, self.started = args, _utcnow()
        self.inputs, self.outputs, self.resolved = [], [], {}

    def read(self, path: str) -> str:
        """``path``, recorded as an input of the command."""
        self.inputs.append(path)
        return path

    def output(self, name: str) -> Path:
        """The path of ``name`` under --out, which is created on first use."""
        outdir = Path(self.args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        self.outputs.append(outdir / name)
        return self.outputs[-1]

    def write(self) -> None:
        if not self.outputs:
            return
        config = {k: v for k, v in vars(self.args).items() if k != "fn"} | self.resolved
        dataio.write_json(Path(self.args.out) / "manifest.json", {
            "command": self.args.command,
            "config": config,
            "seed": config.get("seed"),
            "timestamps": {"started": self.started, "finished": _utcnow()},
            "inputs": {str(p): _sha256(Path(p)) for p in self.inputs},
            "outputs": [str(p) for p in self.outputs],
        }, indent=2)


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


def _c(args) -> float:
    """The target scale: --c, else the schema's default, which becomes --c so the
    manifest records it; ValueError unless positive and finite."""
    if args.c is None:
        args.c = dataio.DEFAULT_SCHEMAS[args.schema].c
    dataio.check_c(args.c)
    return args.c


def _take_c(args, c: float, source: str) -> None:
    """--c becomes ``c``, the scale an artifact was made at (``source`` says
    which); ValueError naming both when an explicit --c differs."""
    if args.c not in (None, c):
        raise ValueError(f"--c {args.c} differs from {source}")
    args.c = c  # the data is read, and the manifest records c, at that scale


def _load_dataset(args, run: Run, part: str, *, targets_only: bool = False) -> dataio.Dataset:
    """Load args.data, an input of ``run``, which records its skipped rows;
    when --ratio is set, only the train or test part.

    The split is a pure function of (--ratio, --seed) and the usable-row
    count, so `train` and `eval` invoked with the same values see disjoint
    parts of the same file.  ``targets_only`` keeps only the target column
    (see ``dataio.load_csv``).
    """
    rows = None
    if args.ratio is not None:
        dataio.check_ratio(args.ratio)  # before the file is read

        def rows(n: int):
            return dataio.split(n, args.ratio, args.seed)[part == "test"]
    schema = dataio.DEFAULT_SCHEMAS[args.schema]
    dataset = dataio.load_csv(run.read(args.data), schema, c=_c(args), targets_only=targets_only, rows=rows)
    run.resolved["skipped"] = dataset.skipped
    if dataset.skipped:
        log.warning("%d unusable rows of %s skipped", dataset.skipped, args.data)
    return dataset


def _scheme(args, run: Run) -> tuple[BucketScheme | None, float | None]:
    """The scheme of --scheme, an input of ``run``, and the c it was built at,
    else the scheme of --endpoints and no c, else neither."""
    if args.scheme is not None:
        return BucketScheme.load(run.read(args.scheme))
    return (None if args.endpoints is None else from_endpoints(args.endpoints)), None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_buckets(args, run: Run) -> int:
    c = _c(args)  # scheme.json records it, with --endpoints too
    if args.endpoints is not None:
        if (args.choice, args.percent_step, args.ratio) != (None, None, None):
            raise ValueError("--choice, --percent-step and --ratio apply only with --data, not with --endpoints")
        scheme = from_endpoints(args.endpoints)
    else:
        if args.choice is None:
            if args.percent_step is None:
                args.percent_step = 1.0  # the manifest records the step the grid was built at
            check_percent_step(args.percent_step)  # before the data is read
        targets = _load_dataset(args, run, part="train", targets_only=True).targets()
        if args.choice is not None:
            scheme = ablation_choice(targets, args.choice)
        else:
            scheme = from_percentiles(targets, args.percent_step)
    scheme_path = run.output("scheme.json")
    scheme.save(scheme_path, c)
    print(f"buckets: N={scheme.n_buckets} endpoints={','.join(map(str, scheme.endpoints))}")
    print(f"wrote {scheme_path}")
    return 0


def cmd_train(args, run: Run) -> int:
    head = HeadKind(args.head)
    scheme, scheme_c = _scheme(args, run)
    if scheme_c is not None:
        _take_c(args, scheme_c, f"the scheme's c {scheme_c}, the scale it was built at")
    # TrainConfig checks every setting, so before the data is read
    config = TrainConfig(head, scheme, lr=args.lr, batch_size=args.batch, max_epochs=args.epochs,
                         seed=args.seed, hash_dim=args.hash_dim, hidden=args.hidden)
    dataset = _load_dataset(args, run, part="train")
    result = predictor.train(dataset, config)
    if result.clipped:
        log.warning("%d samples clipped beyond the last bucket edge", result.clipped)
    if result.stopped == "max_epochs":
        log.warning("training stopped at --epochs %d before the mean loss settled (relative change >= %g)",
                    config.max_epochs, config.rel_tol)

    model_path = run.output("model.json")
    trace_path = run.output("loss_trace.csv")
    result.model.save(model_path)
    epochs = enumerate(zip(result.epoch_losses, result.grad_norms, result.param_norms))
    dataio.write_csv(trace_path, ["epoch", "mean_loss", "grad_norm", "param_norm"],
                     ([k, *map(repr, values)] for k, values in epochs))
    run.resolved.update(clipped=result.clipped, stopped=result.stopped)
    print(f"trained {head.value} head: {len(result.epoch_losses)} epochs, "
          f"final loss {result.epoch_losses[-1]:.6f}")
    print(f"wrote {model_path}")
    return 0


def cmd_eval(args, run: Run) -> int:
    model = Model.load(run.read(args.model))
    _take_c(args, model.c, f"the model's c {model.c}, the scale it was trained at")
    dataset = _load_dataset(args, run, part="test")
    if len(dataset) < 2:  # before anything is written
        raise ValueError(f"--data {args.data} leaves {len(dataset)} usable row to score; XAUC ranks pairs of rows")
    preds, clamped = model.predict(dataset)
    with np.errstate(over="ignore"):  # a sum of errors past the float range is reported below
        report = metrics.evaluate(preds, dataset.raw_targets) if np.isfinite(preds).all() else None
    if report is None or not (math.isfinite(report.mae) and math.isfinite(report.xauc)):
        raise ValueError(f"--model {args.model} at its c {model.c} predicts watch times, or an MAE, "
                         "beyond the float range; train at a larger --c")
    if clamped:
        log.warning("%d of %d rows predicted from a probability at the clamp (%g from 0 or 1)",
                    clamped, len(preds), heads.PROB_EPS)
    fields = dataclasses.asdict(report)
    if math.isnan(report.pearson):
        fields["pearson"] = None  # undefined for constant predictions; JSON has no NaN
    report_path = run.output("report.json")
    preds_path = run.output("predictions.csv")
    dataio.write_json(report_path, fields)
    dataio.write_predictions(preds_path, dataset, preds)
    run.resolved["clamped"] = clamped
    print(report.table())
    return 0


def cmd_simulate(args, run: Run) -> int:
    kind = simulate.Behavior(args.kind)
    scheme, _ = _scheme(args, run)  # the draws are in seconds: no c
    profile = simulate.BehaviorProfile(kind, tuple(args.probs), scheme, args.seed)
    totals = simulate.draw(profile, args.n)
    csv_path = run.output("samples.csv")
    dataio.write_csv(csv_path, ["sample_id", "feat", "watch_time"],
                     ([i, "all", int(t)] for i, t in enumerate(totals)))
    print(f"simulated {args.n} {kind.value} samples, mean watch time {totals.mean():.4f}")
    print(f"wrote {csv_path}")
    return 0


def cmd_verify(args, run: Run) -> int:
    results = verify.run_all(trials=args.trials, seed=args.seed)
    failed = [name for name, r in results.items() if not r["passed"]]
    for name, r in results.items():
        print(f"[{'PASS' if r['passed'] else 'FAIL'}] {name}: {r['detail']}")
    if args.out:
        dataio.write_json(run.output("verify.json"), results, indent=2)
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
                       help="target scaling constant (default per schema; "
                            "train --scheme: the scheme's; eval: the model's)")
        p.add_argument("--ratio", type=float, default=None,
                       help="train fraction; buckets/train use it, eval takes the rest")

    def add_scheme_flags(p):
        source = p.add_mutually_exclusive_group()
        source.add_argument("--scheme", help="scheme JSON path")
        source.add_argument("--endpoints", type=_list_of(int),
                            help="inline scheme, e.g. 5,12,22")

    p = sub.add_parser("buckets", help="construct a bucket scheme")
    source = p.add_mutually_exclusive_group(required=True)
    add_data_flags(p, source)
    source.add_argument("--endpoints", type=_list_of(int), help="explicit endpoints, e.g. 5,12,22")
    construction = p.add_mutually_exclusive_group()
    construction.add_argument("--choice", type=int, choices=sorted(ABLATIONS), default=None,
                              help="endpoint construction 1..6")
    construction.add_argument("--percent-step", type=float, default=None,
                              help="percentile grid step (default 1) when --choice is absent")
    p.add_argument("--tail-open", action="store_true",
                   help="ignored: the head decides whether it reads the open bucket past the last endpoint")
    p.add_argument("--out", default="buckets_out")
    p.set_defaults(fn=cmd_buckets)

    p = sub.add_parser("train", help="fit a head on a CSV")
    add_data_flags(p)
    p.add_argument("--head", required=True, choices=[k.value for k in HeadKind])
    add_scheme_flags(p)
    p.add_argument("--lr", type=float, default=TrainConfig.lr)  # a field's class attribute is its default
    p.add_argument("--epochs", type=int, default=TrainConfig.max_epochs)
    p.add_argument("--batch", type=int, default=TrainConfig.batch_size)
    p.add_argument("--hidden", type=int, default=TrainConfig.hidden)
    p.add_argument("--hash-dim", type=int, default=TrainConfig.hash_dim)
    p.add_argument("--out", default="train_out")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a model artifact on a CSV")
    add_data_flags(p)
    p.add_argument("--model", required=True, help="model JSON path")
    p.add_argument("--out", default="eval_out")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("simulate", help="draw synthetic watch times")
    p.add_argument("--kind", required=True,
                   choices=[b.value for b in simulate.Behavior])
    p.add_argument("--probs", required=True, type=_list_of(float),
                   help="per-bucket probabilities, e.g. 0.9,0.5,0.2")
    add_scheme_flags(p)
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--out", default="simulate_out")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("verify", help="run the built-in property suite")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_verify)
    for p in sub.choices.values():
        p.add_argument("--seed", type=_seed, default=0)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("SWAT_LOG", "warning").lower()
    logging.basicConfig(level=LOG_LEVELS.get(level, logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)
    run = Run(args)
    try:
        code = args.fn(args, run)
        run.write()
        return code
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
