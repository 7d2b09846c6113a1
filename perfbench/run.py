"""Benchmark of the `swat buckets -> swat train -> swat eval` pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program under test is the
`swat` package in its `src/`.  The seed drives only the data generator, so
the same seed gives the same CSV.  Each repetition runs the three CLI
commands as separate child processes, one at a time (a closed loop with one
client), with BLAS/OpenMP pinned to one thread.  Repetitions continue while
another one still fits in S seconds, with a minimum of three (one with
--trace 1), and timings are reported as medians.

--trace 0 reports the end-to-end metrics.  --trace 1 runs each command of a
repetition twice, plainly and under `perfbench/tracer.py`, which wraps the
public functions of each pipeline module, and reports per-module self times,
counters and the tracing overhead.  Every output is checked; a command whose
exit code or output fails a check counts as a failed operation.  The last
line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gen
import quality
import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACER = Path(__file__).resolve().with_name("tracer.py")
DEADLINE_S = 170.0  # the whole run, generation included, ends before 180 s
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
COMMANDS = ("buckets", "train", "eval")
CLI_SEED = "0"  # fixed: the workload seed changes only the data


@dataclass(frozen=True)
class Workload:
    generator: object
    size: int
    schema: str
    ratio: float
    buckets_flags: tuple[str, ...]
    train_flags: tuple[str, ...]
    spans: tuple[str, ...]  # spans that only this kind of workload fires

    @property
    def train_rows(self) -> int:
        return int(self.ratio * self.size)

    @property
    def test_rows(self) -> int:
        return self.size - self.train_rows


# --lr 2e-2: with the default 2e-3, 5 epochs leave XAUC near 0.5 on this data.
WORKLOADS = {
    "kuairec-geo-train": Workload(
        gen.kuairec_csv, 200_000, "kuairec", 0.8, ("--percent-step", "1", "--tail-open"),
        ("--head", "geo", "--epochs", "5", "--hash-dim", "64", "--lr", "2e-2"),
        ("buckets.from_percentiles", "heads.geo_coefficients"),
    ),
    "cikm-binom-tokens": Workload(
        gen.cikm_csv, 40_000, "cikm", 0.8, ("--choice", "1"),
        ("--head", "binom", "--epochs", "5", "--hash-dim", "1024", "--lr", "2e-2"),
        ("buckets.ablation_choice", "buckets.from_percentiles", "labels.matrix"),
    ),
}

# Spans that fire on every workload; the rest are listed per workload.
COMMON_SPANS = tuple(
    name for name, _, _ in tracer.SITES
    if name not in {s for w in WORKLOADS.values() for s in w.spans}
)
SELF_TIMED = [name for name, _, _ in tracer.SITES]
COUNTED = [
    ("dataio.load_csv", "rows", "count"),
    ("predictor.encode_dataset", "tokens", "count"),
    ("predictor.forward_batch", "calls", "count"),
    ("predictor.backward_batch", "calls", "count"),
    ("predictor.adamw_update", "calls", "count"),
    ("labels.matrix", "bytes", "B"),
    ("heads.geo_coefficients", "bytes", "B"),
    ("metrics.evaluate", "pairs", "count"),
]


class Deadline(Exception):
    pass


@dataclass
class Child:
    command: str
    wall_s: float
    cpu_s: float
    rss_mb: float


def run_child(argv: list[str], env: dict, log_path: Path, stop_at: float) -> tuple[int, float, object]:
    """Run one child process to completion; (exit code, wall s, rusage).

    The rusage comes from wait4 on this child, so it covers only our process.
    A child still running at ``stop_at`` is killed and reported as exit -9.
    """
    remaining = stop_at - time.monotonic()
    if remaining <= 0:
        raise Deadline()
    with open(log_path, "wb") as log:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
        killer = threading.Timer(remaining, os.kill, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return proc.returncode, wall, usage


class Bench:
    def __init__(self, workload: Workload, seconds: float, workdir: Path):
        self.workload = workload
        self.seconds = seconds
        self.workdir = workdir
        self.data = workdir / "data.csv"
        self.stop_at = time.monotonic() + DEADLINE_S
        self.env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "SWAT_LOG")}
        self.env.update(PINNED, PYTHONPATH=str(SRC))
        self.attempted = 0
        self.failed_ops: set[str] = set()
        self.failures: list[str] = []
        self.walls: dict[str, list[float]] = {}  # "<rep>/<command>" -> [wall s, cpu s], for the run record

    # -- running -------------------------------------------------------------

    def _swat_args(self, command: str, rep_dir: Path) -> list[str]:
        w = self.workload
        common = ["--data", str(self.data), "--schema", w.schema, "--ratio", repr(w.ratio),
                  "--seed", CLI_SEED, "--out", str(rep_dir / command)]
        if command == "buckets":
            return ["buckets", *common, *w.buckets_flags]
        if command == "train":
            return ["train", *common, "--scheme", str(rep_dir / "buckets" / "scheme.json"),
                    *w.train_flags]
        return ["eval", *common, "--model", str(rep_dir / "train" / "model.json")]

    def pipelines(self, runs: list[tuple[Path, bool]]) -> list[list[Child]]:
        """Run one or more (output dir, traced) pipelines, command by command.

        With several pipelines, each command runs in all of them before the
        next command starts, so an untraced and a traced run of a command sit
        close together in time.  A pipeline stops at its first failed
        command; only commands that exited 0 are returned.
        """
        done: list[list[Child]] = [[] for _ in runs]
        for rep_dir, _ in runs:
            rep_dir.mkdir(parents=True)
        for step, command in enumerate(COMMANDS):
            for (rep_dir, traced), children in zip(runs, done):
                if len(children) < step:
                    continue
                swat_args = self._swat_args(command, rep_dir)
                if traced:
                    argv = [sys.executable, str(TRACER), "--src", str(SRC), "--trace-id", command,
                            "--spans", str(rep_dir / f"spans-{command}.json"), "--", *swat_args]
                else:
                    argv = [sys.executable, "-m", "swat", *swat_args]
                self.attempted += 1
                code, wall, usage = run_child(argv, self.env, rep_dir / f"{command}.log", self.stop_at)
                cpu = usage.ru_utime + usage.ru_stime
                self.walls[f"{rep_dir.name}/{command}"] = [round(wall, 4), round(cpu, 4)]
                if code != 0:
                    self.fail(f"{rep_dir.name}/{command}", f"exit code {code}")
                    continue
                children.append(Child(command, wall, cpu, usage.ru_maxrss / 1024.0))
        return done

    def fail(self, op: str, why: str) -> None:
        """Record why operation ``op`` (a repetition's command) failed."""
        self.failed_ops.add(op)
        self.failures.append(f"{op}: {why}")
        print(f"FAILED {op}: {why}", file=sys.stderr)

    def repetitions(self, minimum: int, one_rep) -> list:
        """Call one_rep(k) at least ``minimum`` times, then while another fits."""
        started = time.perf_counter()
        results = []
        while True:
            results.append(one_rep(len(results)))
            elapsed = time.perf_counter() - started
            if len(results) >= minimum and elapsed * (len(results) + 1) / len(results) > self.seconds:
                return results

    # -- checks --------------------------------------------------------------

    def check_outputs(self, rep_dir: Path) -> dict | None:
        """Check one repetition's outputs; returns its quality figures."""
        w = self.workload
        try:
            with open(rep_dir / "train" / "loss_trace.csv", encoding="utf-8") as fh:
                losses = [float(line.split(",")[1]) for line in fh.read().splitlines()[1:]]
            with open(rep_dir / "eval" / "report.json", encoding="utf-8") as fh:
                report = json.load(fh)
            targets, preds = quality.read_predictions(rep_dir / "eval" / "predictions.csv")
        except (OSError, ValueError, IndexError) as exc:
            self.fail(f"{rep_dir.name}/eval", f"unreadable output: {exc}")
            return None
        bad = []
        if not losses or not all(math.isfinite(v) for v in losses):
            bad.append(f"loss trace {losses}")
        numbers = [v for v in report.values() if isinstance(v, (int, float))]
        if not all(math.isfinite(v) for v in numbers):
            bad.append(f"non-finite report {report}")
        if not (np.all(np.isfinite(preds)) and np.all(np.isfinite(targets))):
            bad.append("non-finite predictions.csv")
        if len(preds) != w.test_rows or report.get("n") != w.test_rows:
            bad.append(f"{len(preds)} predictions, report n={report.get('n')}, test part {w.test_rows}")
        mae = quality.mae(preds, targets)
        if not abs(report.get("mae", math.nan) - mae) <= 1e-9 * max(1.0, abs(mae)):
            bad.append(f"report mae {report.get('mae')!r} != recomputed {mae!r}")
        if bad:
            self.fail(f"{rep_dir.name}/eval", "; ".join(bad))
            return None
        return {
            "rep": rep_dir.name,
            "test_mae": mae,
            "test_xauc": quality.exact_xauc(preds, targets),
            "final_loss": losses[-1],
            "epochs": len(losses),
            "model_sha256": hashlib.sha256((rep_dir / "train" / "model.json").read_bytes()).hexdigest(),
        }

    def check_repeats(self, figures: list[dict]) -> None:
        """Same workload and seed: byte-identical model.json and equal quality."""
        first = figures[0]
        for other in figures[1:]:
            for key in ("model_sha256", "test_mae", "test_xauc", "final_loss", "epochs"):
                if other[key] != first[key]:
                    self.fail(f"{other['rep']}/train",
                              f"{key} {other[key]!r} differs from {first['rep']}'s {first[key]!r}")

    # -- modes ---------------------------------------------------------------

    def end_to_end(self) -> dict:
        def one_rep(k):
            rep_dir = self.workdir / f"rep{k}"
            [children] = self.pipelines([(rep_dir, False)])
            figures = self.check_outputs(rep_dir) if len(children) == 3 else None
            shutil.rmtree(rep_dir / "eval", ignore_errors=True)  # predictions are large
            return children, figures

        reps = self.repetitions(3, one_rep)
        good = [(c, f) for c, f in reps if f is not None]
        if len(good) < 2:
            return {}
        self.check_repeats([f for _, f in good])
        figures = good[0][1]
        return {
            "pipeline_s": (statistics.median(sum(ch.wall_s for ch in c) for c, _ in good), "s"),
            "setup_s": (statistics.median(c[0].wall_s for c, _ in good), "s"),
            "peak_rss_mb": (statistics.median(max(ch.rss_mb for ch in c) for c, _ in good), "MB"),
            "test_mae": (figures["test_mae"], "s"),
            "test_xauc": (figures["test_xauc"], "ratio"),
            "final_loss": (figures["final_loss"], "nats"),
        }

    def per_layer(self) -> dict:
        overheads, layer_reps = [], []

        def one_rep(k):
            plain_dir, traced_dir = self.workdir / f"rep{k}", self.workdir / f"rep{k}-traced"
            plain, traced = self.pipelines([(plain_dir, False), (traced_dir, True)])
            if len(plain) == 3 and len(traced) == 3:
                figures = self.check_outputs(plain_dir)
                self.check_traced(plain_dir, traced_dir)
                if figures is not None:
                    overheads.append(sum(ch.wall_s for ch in traced) - sum(ch.wall_s for ch in plain))
                    layer_reps.append(self.layers(plain, figures["epochs"], traced_dir))
            for d in (plain_dir, traced_dir):
                shutil.rmtree(d / "eval", ignore_errors=True)

        self.repetitions(1, one_rep)
        if not layer_reps:
            return {}
        metrics = {
            key: (statistics.median(rep[key][0] for rep in layer_reps), layer_reps[0][key][1])
            for key in layer_reps[0]
        }
        metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
        return metrics

    def check_traced(self, plain_dir: Path, traced_dir: Path) -> None:
        """Tracing must not change what the program computes."""
        for part in ("buckets/scheme.json", "train/model.json", "eval/report.json"):
            if (plain_dir / part).read_bytes() != (traced_dir / part).read_bytes():
                self.fail(f"{traced_dir.name}/{part.split('/')[0]}", f"traced {part} differs from the untraced one")

    def layers(self, plain: list[Child], epochs: int, traced_dir: Path) -> dict:
        """Per-layer figures of one traced pipeline, plus rusage of the untraced one."""
        self_s: dict[str, float] = {}
        counts: dict[str, dict[str, int]] = {}
        imports = []
        for command in COMMANDS:
            with open(traced_dir / f"spans-{command}.json", encoding="utf-8") as fh:
                dump = json.load(fh)
            if dump["missing"]:
                self.fail(f"{traced_dir.name}/{command}", f"trace sites not found: {dump['missing']}")
            imports.append(dump["import_s"])
            for name, value in tracer.self_times(dump["spans"]).items():
                self_s[name] = self_s.get(name, 0.0) + value
            for name, counters in dump["counts"].items():
                for counter, value in counters.items():
                    counts.setdefault(name, {}).setdefault(counter, 0)
                    counts[name][counter] += value
        required = COMMON_SPANS + self.workload.spans
        silent = [name for name in required if counts.get(name, {}).get("calls", 0) == 0]
        if silent:
            self.fail(f"{traced_dir.name}/eval", f"spans never fired: {silent}")

        w = self.workload
        out = {"cli.import_s": (statistics.median(imports), "s")}
        for child in plain:
            out[f"cli.{child.command}.cpu_s"] = (child.cpu_s, "s")
            out[f"cli.{child.command}.rss_mb"] = (child.rss_mb, "MB")
        out["cli.train.samples_per_s"] = (w.train_rows * epochs / plain[1].wall_s, "1/s")
        out["cli.eval.rows_per_s"] = (w.test_rows / plain[2].wall_s, "1/s")
        for name in SELF_TIMED:
            out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
        for name, counter, unit in COUNTED:
            out[f"{name}.{counter}"] = (counts.get(name, {}).get(counter, 0), unit)
        return out


def machine_state() -> dict:
    return {
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "nproc": len(os.sched_getaffinity(0)),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "swat" / "cli.py").is_file():
        print(f"no swat sources under {SRC}; run from the root of a swat checkout", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        bench = Bench(WORKLOADS[args.workload], args.seconds, workdir)
        # Warm-up, untimed: compile bytecode and confirm which swat is imported.
        probe = subprocess.run(
            [sys.executable, "-c", "import swat.cli; print(swat.cli.__file__)"],
            env=bench.env, cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        imported = Path(probe.stdout.strip() or "?").resolve()
        if probe.returncode != 0 or not imported.is_relative_to(SRC):
            print(f"cannot import swat from {SRC}: {probe.stderr.strip() or imported}", file=sys.stderr)
            return 2
        bench.workload.generator(bench.data, bench.workload.size, args.seed)

        before = machine_state()
        try:
            metrics = bench.per_layer() if args.trace else bench.end_to_end()
        except Deadline:
            bench.fail("deadline", f"out of time after {DEADLINE_S} s")
            metrics = {}
        info = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "python": sys.version.split()[0], "numpy": np.__version__,
            "before": before, "after": machine_state(), "walls": bench.walls, "failures": bench.failures,
        }
        print("run " + json.dumps(info, sort_keys=True))
        print(json.dumps({
            "correct": not bench.failures and bool(metrics),
            "attempted": max(bench.attempted, 1),
            "failed": min(len(bench.failed_ops), max(bench.attempted, 1)),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
