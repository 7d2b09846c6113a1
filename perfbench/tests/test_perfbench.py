"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import quality  # noqa: E402
import tracer  # noqa: E402


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("generator, size", [(gen.kuairec_csv, 3000), (gen.cikm_csv, 400)])
def test_generator_is_a_function_of_its_seed(tmp_path, generator, size):
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    for path, seed in zip(paths, (7, 7, 8)):
        assert generator(path, size, seed) == size
    assert _sha256(paths[0]) == _sha256(paths[1])
    assert _sha256(paths[0]) != _sha256(paths[2])
    lines = paths[0].read_text(encoding="utf-8").splitlines()
    assert len(lines) == size + 1
    assert all(float(line.rsplit(",", 1)[1]) > 0 for line in lines[1:])


def test_cikm_sessions_hold_5_to_60_items_and_dwell_is_capped(tmp_path):
    gen.cikm_csv(tmp_path / "c.csv", 500, 3)
    rows = (tmp_path / "c.csv").read_text(encoding="utf-8").splitlines()[1:]
    lengths = [len(row.split(",")[1].split("|")) for row in rows]
    assert min(lengths) >= 5 and max(lengths) <= 60
    assert max(float(row.rsplit(",", 1)[1]) for row in rows) <= 10.0


def _brute_xauc(p, t) -> float:
    ia, ib = np.triu_indices(len(p), k=1)
    sp = np.sign(p[ia] - p[ib])
    st = np.sign(t[ia] - t[ib])
    return float(np.where((sp == 0) | (st == 0), 0.5, (sp == st).astype(np.float64)).mean())


@pytest.mark.parametrize("n", [2, 3, 10, 57, 400])
@pytest.mark.parametrize("levels", [2, 5, 1000])
def test_exact_xauc_matches_pair_enumeration_with_ties(n, levels):
    rng = np.random.default_rng(n * 1000 + levels)
    p = rng.integers(0, levels, n).astype(np.float64)
    t = np.round(p + rng.normal(0.0, levels / 3, n))
    assert quality.exact_xauc(p, t) == pytest.approx(_brute_xauc(p, t), abs=1e-12)


def test_exact_xauc_degenerate_inputs():
    assert quality.exact_xauc([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) == 0.5
    assert quality.exact_xauc([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == 0.0
    assert quality.exact_xauc([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0
    with pytest.raises(ValueError):
        quality.exact_xauc([1.0], [1.0])


def _span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent, "trace": "t"}


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("root", 0.0, 10.0, None),          # 0
        _span("a", 1.0, 4.0, 0),                 # 1
        _span("leaf", 2.0, 3.0, 1),              # 2
        _span("b", 3.0, 6.0, 0),                 # 3: overlaps a; the union counts once
        _span(tracer.BOOKKEEPING, 6.0, 6.5, 0),  # 4: excluded, yet covers root
        _span("a", 7.0, 8.0, 0),                 # 5: same name as 1, summed
        _span("c", 9.5, 11.0, 0),                # 6: clipped to its parent
    ]
    got = tracer.self_times(spans)
    # root: 10 - |[1,6] u [6,6.5] u [7,8] u [9.5,10]| = 10 - 7 = 3
    assert got == pytest.approx({"root": 3.0, "a": 2.0 + 1.0, "leaf": 1.0, "b": 3.0, "c": 1.5})
    assert tracer.BOOKKEEPING not in got


def test_recorder_links_nested_spans_and_counts():
    rec = tracer.Recorder("trace-1")
    inner = rec.wrap("inner", lambda x: [x] * x, lambda args, result: {"items": len(result)})
    outer = rec.wrap("outer", lambda x: inner(x) + inner(x + 1))
    assert outer(2) == [2, 2, 3, 3, 3]
    names = [s["name"] for s in rec.spans]
    assert names == ["outer", "inner", tracer.BOOKKEEPING, "inner", tracer.BOOKKEEPING]
    assert [s["parent"] for s in rec.spans] == [None, 0, 0, 0, 0]
    assert {s["trace"] for s in rec.spans} == {"trace-1"}
    assert rec.counts == {"inner": {"calls": 2, "items": 5}, "outer": {"calls": 1}}


def test_recorder_closes_a_span_whose_call_raises():
    rec = tracer.Recorder("t")

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        rec.wrap("boom", boom)()
    assert rec.spans[0]["end"] is not None and rec._stack == []


def test_tracer_finds_every_site_and_runs_a_command(tmp_path):
    src = BENCH.parent / "src"
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "tracer.py"), "--src", str(src), "--spans", str(spans),
         "--trace-id", "buckets", "--", "buckets", "--endpoints", "5,12,22", "--out", str(tmp_path / "b")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    dump = json.loads(spans.read_text(encoding="utf-8"))
    assert dump["missing"] == [] and dump["exit"] == 0 and dump["import_s"] > 0
    assert [s["name"] for s in dump["spans"]] == ["cli.main"]
    assert (tmp_path / "b" / "scheme.json").is_file()
