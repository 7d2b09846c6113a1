"""The benchmark's tracer (perfbench/tracer.py) still finds every site it wraps,
sees each span the benchmark requires of a geo pipeline fire, and counts the
tokens each command encodes, over commands that read a CSV; and the CLI still
parses every command line the benchmark (perfbench/run.py) runs."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from swat import dataio
from swat.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import run as bench  # noqa: E402


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_the_cli_parses_every_command_line_of_the_benchmark(tmp_path, workload):
    # a flag the benchmark passes and the CLI no longer has fails here, before a benchmark run
    runner = bench.Bench(bench.WORKLOADS[workload], 1.0, tmp_path)
    for command in bench.COMMANDS:
        argv = runner._swat_args(command, tmp_path / "rep")
        assert build_parser().parse_args(argv).command == command


def test_tracer_runs_buckets_train_eval_and_counts_encoded_tokens(tmp_path):
    # 0 to 4 tokens per row, some repeated and some '|'-separated
    rows = [f"s{i},\"{'|'.join(f'u{j}' for j in range(i % 4))} v{i % 3}\",{i % 9}" for i in range(60)]
    rows[7] = "s7,,4"
    data = tmp_path / "d.csv"
    data.write_text("\n".join(["sample_id,feat,watch_time", *rows]) + "\n", encoding="utf-8")
    common = ["--data", data, "--ratio", "0.8", "--seed", "0"]
    argvs = {
        "buckets": ["buckets", *common, "--percent-step", "25", "--tail-open", "--out", tmp_path / "b"],
        "train": ["train", *common, "--head", "geo", "--scheme", tmp_path / "b" / "scheme.json",
                  "--epochs", "2", "--out", tmp_path / "t"],
        "eval": ["eval", *common, "--model", tmp_path / "t" / "model.json", "--out", tmp_path / "e"],
    }
    full = dataio.load_csv(data, dataio.DEFAULT_SCHEMAS["sim"])
    train_part, test_part = map(full.take, dataio.split(len(full), 0.8, seed=0))
    encoded = {"buckets": None, "train": train_part, "eval": test_part}
    fired = set()

    for command, argv in argvs.items():
        spans = tmp_path / f"spans-{command}.json"
        done = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "tracer.py"), "--src", str(ROOT / "src"),
             "--spans", str(spans), "--trace-id", command, "--", *map(str, argv)],
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        record = json.loads(spans.read_text(encoding="utf-8"))
        assert record["exit"] == 0 and record["missing"] == []
        fired |= {name for name, counters in record["counts"].items() if counters.get("calls", 0) > 0}
        counts = record["counts"].get("predictor.encode_dataset")
        part = encoded[command]
        if part is None:
            assert counts is None  # buckets reads the targets only
        else:
            tokens = sum(len(dataio.split_cell(cell)) for cell in part.features["feat"])
            assert tokens > len(part)
            assert counts == {"calls": 1, "tokens": tokens}

    required = bench.COMMON_SPANS + bench.WORKLOADS["kuairec-geo-train"].spans
    assert [name for name in required if name not in fired] == []
