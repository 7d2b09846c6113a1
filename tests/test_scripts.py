"""Smoke tests: the experiment scripts under scripts/ run end to end on small inputs."""

import csv
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        cwd=cwd, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300,
    )


def test_synthetic_experiment_runs(tmp_path):
    done = run_script("synthetic_experiment.py", "--n", 3000, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert "wlr" in done.stdout


def test_bucket_sweep_writes_one_row_per_head_and_bucket_count(tmp_path):
    done = run_script("bucket_sweep.py", "--n", 2000, "--epochs", 2, "--out", "tmp", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    with open(tmp_path / "tmp", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10
    assert {(r["requested_buckets"], r["head"]) for r in rows} == {
        (n, head) for n in ("10", "20", "50", "100", "200") for head in ("binom", "geo")
    }
