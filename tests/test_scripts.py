"""Smoke tests: the experiment scripts under scripts/ run end to end on small inputs."""

import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from swat.dataio import Dataset
from swat.predictor import FeatureSpec

ROOT = Path(__file__).resolve().parents[1]
GROUPS = ["casual", "regular", "hooked"]  # synthetic_experiment.GROUPS


def run_script(name, *args, cwd):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        cwd=cwd, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300,
    )


def test_synthetic_experiment_runs(tmp_path):
    # at 12000 rows binom, geo and vgeo settle on every population; at 3000
    # the wandering binom and geo fits still run all 100 epochs
    done = run_script("synthetic_experiment.py", "--n", 12000, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    tables = [list(filter(None, block.splitlines()[1:])) for block in done.stdout.split("== ")[1:]]
    assert len(tables) == 3
    for table in tables:
        assert table[0].split() == ["head", "mae", "xauc", "pearson", "stopped", "clamped"]
        rows = {row.split()[0]: row.split()[1:] for row in table[1:]}
        assert list(rows) == ["binom", "geo", "vgeo", "wlr"]
        for head in ("binom", "geo", "vgeo"):
            assert rows[head][3] == "rel_tol", (head, table)
        assert all(int(row[4]) >= 0 for row in rows.values())
    # wlr has no minimum where no wandering draw is 0 s long: it does not settle
    assert tables[0][-1].split()[4] == "max_epochs", tables[0]


def test_bucket_sweep_writes_one_row_per_head_and_bucket_count(tmp_path):
    done = run_script("bucket_sweep.py", "--n", 2000, "--epochs", 2, "--out", "tmp", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    with open(tmp_path / "tmp", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10
    assert {(r["requested_buckets"], r["head"]) for r in rows} == {
        (n, head) for n in ("10", "20", "50", "100", "200") for head in ("binom", "geo")
    }
    # the synthetic groups differ, so predictions rank rows and correlate
    for r in rows:
        assert float(r["xauc"]) != 0.5, r
        assert math.isfinite(float(r["pearson"])), r


def test_bucket_sweep_keeps_the_groups_in_distinct_slots(tmp_path):
    # width 8 merges `casual` and `regular` at seed 1
    done = run_script("bucket_sweep.py", "--n", 600, "--epochs", 1, "--seed", 1, "--out", "tmp", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    width = int(done.stdout.split()[1].rstrip(":"))
    spec = FeatureSpec(width, seed=1)
    slots = spec.encode_dataset(Dataset(["0", "1", "2"], np.zeros(3), {"group": GROUPS})).slots
    assert width > 8 and len(set(slots.tolist())) == 3
