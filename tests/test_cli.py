import csv
import dataclasses
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from swat import heads, predictor, simulate
from swat.buckets import ABLATIONS, from_endpoints
from swat.cli import build_parser, main
from swat.heads import HeadKind
from swat.predictor import FeatureSpec, Model


ROOT = Path(__file__).resolve().parents[1]


def run(*argv):
    return main([str(a) for a in argv])


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture()
def sim_csv(tmp_path):
    """A small stationary population in the simulate-emitted CSV shape."""
    out = tmp_path / "sim"
    assert run("simulate", "--kind", "stationary", "--probs", "0.7",
               "--n", "400", "--seed", "3", "--out", out) == 0
    return out / "samples.csv"


class TestBuckets:
    def test_explicit_endpoints_bypass_data(self, tmp_path, capsys):
        out = tmp_path / "b"
        assert run("buckets", "--endpoints", "5,12,22", "--out", out) == 0
        scheme = json.loads((out / "scheme.json").read_text())
        assert scheme == {"c": 1.0, "endpoints": [5, 12, 22], "tail_open": False}
        assert "N=3" in capsys.readouterr().out
        assert (out / "manifest.json").exists()

    def test_choice_from_data(self, tmp_path, sim_csv):
        out = tmp_path / "b"
        assert run("buckets", "--data", sim_csv, "--choice", "4", "--tail-open", "--out", out) == 0
        scheme = json.loads((out / "scheme.json").read_text())
        assert scheme["tail_open"] is True
        assert len(scheme["endpoints"]) >= 1

    @pytest.mark.parametrize("flag", [("--choice", "3"), ("--percent-step", "2"), ("--ratio", "0.8"),
                                      ("--ratio", "7")], ids=["choice", "percent-step", "ratio-0.8", "ratio-7"])
    def test_endpoints_with_a_construction_flag_exit_2(self, tmp_path, flag, capsys):
        # the flag reads --data, which --endpoints replaces; an out-of-range ratio too
        out = tmp_path / "b"
        assert run("buckets", "--endpoints", "5,12", *flag, "--out", out) == 2
        assert capsys.readouterr().err == ("error: --choice, --percent-step and --ratio apply only with --data, "
                                           "not with --endpoints\n")
        assert not (out / "scheme.json").exists() and not (out / "manifest.json").exists()

    def test_manifest_records_the_step_only_of_a_percentile_grid(self, tmp_path, sim_csv):
        for out, flags in {"grid": (), "choice": ("--choice", "4")}.items():
            assert run("buckets", "--data", sim_csv, *flags, "--out", tmp_path / out) == 0
        config = {out: json.loads((tmp_path / out / "manifest.json").read_text())["config"]
                  for out in ("grid", "choice")}
        assert (config["grid"]["choice"], config["grid"]["percent_step"]) == (None, 1.0)
        assert (config["choice"]["choice"], config["choice"]["percent_step"]) == (4, None)

    def test_choice_flag_offers_the_ablation_table(self):
        commands = next(a for a in build_parser()._actions if a.dest == "command")
        choice = next(a for a in commands.choices["buckets"]._actions if a.dest == "choice")
        assert list(choice.choices) == sorted(ABLATIONS)

    @pytest.mark.parametrize("c", ["0", "-1", "nan", "inf"])
    def test_unusable_scaling_constant_exits_2(self, tmp_path, sim_csv, c, capsys):
        assert run("buckets", "--data", sim_csv, "--c", c, "--out", tmp_path / "b") == 2
        assert "scaling constant must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "b" / "scheme.json").exists()

    def test_tiny_percent_step_keeps_every_target(self, tmp_path, sim_csv):
        # a 1e-9 grid would hold 1e11 percentiles; 400 targets need none of them
        out = tmp_path / "b"
        assert run("buckets", "--data", sim_csv, "--percent-step", "1e-9", "--out", out) == 0
        targets = {int(r["watch_time"]) for r in read_rows(sim_csv)} - {0}
        assert json.loads((out / "scheme.json").read_text())["endpoints"] == sorted(targets)

    def test_targets_below_one_exit_2_with_one_short_line(self, tmp_path, capsys):
        data = tmp_path / "zeros.csv"
        data.write_text("sample_id,feat,watch_time\n" + "".join(f"{i},a,0\n" for i in range(20_000)),
                        encoding="utf-8")
        assert run("buckets", "--data", data, "--percent-step", "0.01", "--out", tmp_path / "b") == 2
        assert capsys.readouterr().err == ("error: no positive endpoint: all 20000 targets round below 1 "
                                           "(the largest is 0)\n")

    @pytest.mark.parametrize("flags, message", [
        (("--ratio", "1.5"), "split ratio must be in (0, 1)"),
        (("--ratio", "0"), "split ratio must be in (0, 1)"),
        (("--ratio", "nan"), "split ratio must be in (0, 1)"),
        (("--percent-step", "nan"), "percent_step must be in (0, 50]"),
        (("--percent-step", "inf"), "percent_step must be in (0, 50]"),
        (("--percent-step", "0"), "percent_step must be in (0, 50]"),
        (("--percent-step", "51"), "percent_step must be in (0, 50]"),
    ])
    def test_unusable_bucket_setting_exits_2(self, tmp_path, flags, message, capsys):
        # the data file does not exist: the setting must be rejected before it is read
        assert run("buckets", "--data", tmp_path / "missing.csv", *flags, "--out", tmp_path / "b") == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "b" / "scheme.json").exists()


class TestTrainEval:
    def test_pipeline_and_reproducibility(self, tmp_path, sim_csv, capsys):
        bdir = tmp_path / "b"
        assert run("buckets", "--data", sim_csv, "--percent-step", "10", "--out", bdir) == 0
        scheme = bdir / "scheme.json"

        t1, t2 = tmp_path / "t1", tmp_path / "t2"
        args = ("train", "--data", sim_csv, "--head", "binom", "--scheme", scheme,
                "--epochs", "5", "--batch", "128", "--hash-dim", "8", "--seed", "11")
        assert run(*args, "--out", t1) == 0
        assert run(*args, "--out", t2) == 0
        assert (t1 / "model.json").read_bytes() == (t2 / "model.json").read_bytes()

        trace = read_rows(t1 / "loss_trace.csv")
        assert len(trace) == 5
        assert float(trace[0]["mean_loss"]) > 0

        edir = tmp_path / "e"
        assert run("eval", "--model", t1 / "model.json", "--data", sim_csv, "--out", edir) == 0
        report = json.loads((edir / "report.json").read_text())
        assert np.isfinite(report["mae"])
        assert 0.0 <= report["xauc"] <= 1.0
        out = capsys.readouterr().out
        assert "mae" in out and "xauc" in out
        preds = read_rows(edir / "predictions.csv")
        assert len(preds) == report["n"] == 400
        assert set(preds[0]) == {"id", "raw_target", "prediction"}

    def test_geo_requires_open_tail_scheme(self, tmp_path, sim_csv):
        bdir = tmp_path / "b"
        assert run("buckets", "--data", sim_csv, "--percent-step", "20", "--out", bdir) == 0
        code = run("train", "--data", sim_csv, "--head", "geo",
                   "--scheme", bdir / "scheme.json", "--out", tmp_path / "t")
        assert code == 2

    def test_train_without_scheme_exits_2(self, tmp_path, sim_csv):
        assert run("train", "--data", sim_csv, "--head", "geo", "--out", tmp_path / "t") == 2

    def test_unknown_head_exits_2(self, tmp_path, sim_csv):
        with pytest.raises(SystemExit) as err:
            run("train", "--data", sim_csv, "--head", "nonsense", "--out", tmp_path / "t")
        assert err.value.code == 2

    @pytest.mark.parametrize("command", [("train", "--head", "vgeo"), ("eval", "--model", "m.json")],
                             ids=["train", "eval"])
    def test_data_is_required(self, tmp_path, command, capsys):
        with pytest.raises(SystemExit) as err:
            run(*command, "--out", tmp_path / "out")
        assert err.value.code == 2
        assert "--data" in capsys.readouterr().err

    def test_geo_model_of_old_format_exits_2(self, tmp_path, sim_csv, capsys):
        # format 1 charged the geo stop factor to the bucket holding t;
        # format 2 carried a numeric feature width; format 3 did not record c;
        # formats 4 and 5 hashed their tokens into other slots; every older
        # format exits 2
        tdir = tmp_path / "t"
        assert run("train", "--data", sim_csv, "--head", "geo", "--endpoints", "1,3",
                   "--epochs", "2", "--hash-dim", "4", "--out", tdir) == 0
        artifact = json.loads((tdir / "model.json").read_text())
        assert artifact["format_version"] == predictor.ARTIFACT_VERSION
        for old in range(1, predictor.ARTIFACT_VERSION):
            path = tmp_path / f"model_v{old}.json"
            path.write_text(json.dumps(dict(artifact, format_version=old)), encoding="utf-8")
            capsys.readouterr()
            assert run("eval", "--model", path, "--data", sim_csv, "--out", tmp_path / "e") == 2
            assert f"unsupported model format {old}" in capsys.readouterr().err

    def test_eval_takes_c_from_the_model(self, tmp_path, sim_csv, capsys):
        tdir = tmp_path / "t"
        assert run("train", "--data", sim_csv, "--head", "vgeo", "--c", "10", "--epochs", "2",
                   "--out", tdir) == 0
        assert json.loads((tdir / "model.json").read_text())["c"] == 10.0
        model = ("--model", tdir / "model.json", "--data", sim_csv)
        assert run("eval", *model, "--out", tmp_path / "implicit") == 0
        assert run("eval", *model, "--c", "10", "--out", tmp_path / "explicit") == 0
        implicit, explicit = (tmp_path / d / "predictions.csv" for d in ("implicit", "explicit"))
        assert implicit.read_bytes() == explicit.read_bytes()
        assert json.loads((tmp_path / "implicit" / "manifest.json").read_text())["config"]["c"] == 10.0

        capsys.readouterr()
        assert run("eval", *model, "--c", "1", "--out", tmp_path / "e") == 2
        err = capsys.readouterr().err
        assert "--c 1.0" in err and "10.0" in err
        assert not (tmp_path / "e").exists()

    @staticmethod
    def eval_clamped(tmp_path, sim_csv, caplog, model):
        """`clamped` in the manifest of `eval` of ``model`` on ``sim_csv``, after
        checking that the warning names it."""
        model.save(tmp_path / "model.json")
        assert run("eval", "--data", sim_csv, "--model", tmp_path / "model.json", "--out", tmp_path / "e") == 0
        clamped = json.loads((tmp_path / "e" / "manifest.json").read_text())["config"]["clamped"]
        warned = [r.getMessage() for r in caplog.records if "at the clamp" in r.getMessage()]
        assert warned == ([f"{clamped} of 400 rows predicted from a probability at the clamp "
                           "(1e-07 from 0 or 1)"] if clamped else [])
        return clamped

    @pytest.mark.parametrize("bias, clamped", [(20.0, 400), (-20.0, 0), (16.0, 0)])
    def test_rows_predicted_at_the_clamp_are_counted(self, tmp_path, sim_csv, caplog, bias, clamped):
        # a logit beyond 16.12 puts the vgeo probability at the upper clamp, which
        # caps its odds p / (1 - p); the lower clamp moves the odds by about 1e-7
        model = Model(FeatureSpec(hash_dim=4), 0, HeadKind.VGEO, None, 1.0,
                      {"w": np.zeros((1, 4)), "b": np.array([bias])})
        assert self.eval_clamped(tmp_path, sim_csv, caplog, model) == clamped

    @pytest.mark.parametrize("bucket, clamped", [(0, 0), (1, 0), (2, 400)])
    def test_only_the_geo_tail_at_the_clamp_is_counted(self, tmp_path, sim_csv, caplog, bucket, clamped):
        # an inner bucket at the upper clamp adds about its width, as it would
        # unclamped; the tail's odds are capped near 1e7
        bias = np.zeros(3)
        bias[bucket] = 20.0
        model = Model(FeatureSpec(hash_dim=4), 0, HeadKind.GEO, from_endpoints([5, 12], tail_open=True),
                      1.0, {"w": np.zeros((3, 4)), "b": bias})
        assert self.eval_clamped(tmp_path, sim_csv, caplog, model) == clamped

    def test_constant_prediction_report_is_strict_json(self, tmp_path, sim_csv):
        # every sim row carries the one token `feat=all`, so the predictions are constant
        assert run("train", "--data", sim_csv, "--head", "vgeo", "--epochs", "1",
                   "--out", tmp_path / "t") == 0
        assert run("eval", "--data", sim_csv, "--model", tmp_path / "t" / "model.json",
                   "--out", tmp_path / "e") == 0

        def no_constant(name):
            raise ValueError(f"non-JSON constant {name}")

        report = json.loads((tmp_path / "e" / "report.json").read_text(), parse_constant=no_constant)
        assert report["pearson"] is None

    def test_target_beyond_int64_is_skipped(self, tmp_path, sim_csv, caplog):
        data = tmp_path / "big.csv"
        data.write_text(sim_csv.read_text() + "huge,all,1e30\n", encoding="utf-8")
        bdir, tdir, edir = tmp_path / "b", tmp_path / "t", tmp_path / "e"
        assert run("buckets", "--data", data, "--percent-step", "25", "--out", bdir) == 0
        assert run("train", "--data", data, "--head", "binom", "--scheme", bdir / "scheme.json",
                   "--epochs", "2", "--hash-dim", "4", "--out", tdir) == 0
        assert run("eval", "--model", tdir / "model.json", "--data", data, "--out", edir) == 0
        assert json.loads((edir / "report.json").read_text())["n"] == 400
        for out in (bdir, tdir, edir):
            assert json.loads((out / "manifest.json").read_text())["config"]["skipped"] == 1
        assert sum("1 unusable rows" in r.getMessage() for r in caplog.records) == 3

    def test_clean_data_records_zero_skipped(self, tmp_path, sim_csv, caplog):
        tdir = tmp_path / "t"
        assert run("train", "--data", sim_csv, "--head", "vgeo", "--epochs", "1",
                   "--out", tdir) == 0
        assert json.loads((tdir / "manifest.json").read_text())["config"]["skipped"] == 0
        assert not any("unusable" in r.getMessage() for r in caplog.records)

    def test_how_training_stopped_is_recorded(self, tmp_path, caplog):
        # no wandering draw is 0 s long, so the wlr loss -t log p keeps falling
        # as p -> 1 and never meets rel_tol; vgeo, on the same rows, does
        assert run("simulate", "--kind", "wandering", "--probs", "0.8,0.5,0.2", "--endpoints", "8,20,45",
                   "--n", "20000", "--seed", "1", "--out", tmp_path / "s") == 0
        data = tmp_path / "s" / "samples.csv"
        fit = ("train", "--data", data, "--epochs", "200", "--lr", "2e-2", "--ratio", "0.8")

        def warned():
            return [r for r in caplog.records if "before the mean loss settled" in r.getMessage()]

        assert run(*fit, "--head", "wlr", "--out", tmp_path / "wlr") == 0
        config = json.loads((tmp_path / "wlr" / "manifest.json").read_text())["config"]
        assert config["stopped"] == "max_epochs" and config["clipped"] == 0
        assert len(read_rows(tmp_path / "wlr" / "loss_trace.csv")) == 200
        [record] = warned()
        assert record.levelname == "WARNING" and "--epochs 200" in record.getMessage()

        caplog.clear()
        assert run(*fit, "--head", "vgeo", "--out", tmp_path / "vgeo") == 0
        config = json.loads((tmp_path / "vgeo" / "manifest.json").read_text())["config"]
        assert config["stopped"] == "rel_tol"
        assert len(read_rows(tmp_path / "vgeo" / "loss_trace.csv")) < 200
        assert warned() == []

    @pytest.mark.parametrize("flag,value", [
        ("--epochs", 0), ("--epochs", -1), ("--batch", 0), ("--batch", -5), ("--hidden", -1),
        ("--lr", 0), ("--lr", -1), ("--lr", "nan"), ("--lr", "inf"),
        ("--hash-dim", 1), ("--hash-dim", 0), ("--ratio", 1.5), ("--ratio", "nan"),
    ])
    def test_unusable_training_setting_exits_2(self, tmp_path, flag, value, capsys):
        # the data file does not exist: the setting must be rejected before it is read
        assert run("train", "--data", tmp_path / "missing.csv", "--head", "vgeo", flag, value,
                   "--out", tmp_path / "t") == 2
        assert "must be" in capsys.readouterr().err
        assert not (tmp_path / "t" / "model.json").exists()

    @pytest.mark.parametrize("head", ["vgeo", "wlr"])
    def test_scheme_for_a_head_that_reads_none_exits_2(self, tmp_path, head, capsys):
        # the data file does not exist: the scheme must be rejected before it is read
        assert run("train", "--data", tmp_path / "missing.csv", "--head", head,
                   "--endpoints", "5,10", "--out", tmp_path / "t") == 2
        assert f"{head} head takes no bucket scheme" in capsys.readouterr().err
        assert not (tmp_path / "t").exists()

    def test_vgeo_memorizes_distinct_tokens(self, tmp_path):
        # four distinct constant features, one per target: the model can
        # interpolate exactly, so the ordering is perfect
        data = tmp_path / "toy.csv"
        rows = ["sample_id,feat,watch_time"] + [f"s{i},u{i},{t}" for i, t in enumerate([1, 3, 8, 20])]
        data.write_text("\n".join(rows) + "\n", encoding="utf-8")
        tdir = tmp_path / "t"
        assert run("train", "--data", data, "--head", "vgeo", "--epochs", "400",
                   "--batch", "4", "--hash-dim", "64", "--lr", "0.05", "--out", tdir) == 0
        edir = tmp_path / "e"
        assert run("eval", "--model", tdir / "model.json", "--data", data, "--out", edir) == 0
        report = json.loads((edir / "report.json").read_text())
        assert report["xauc"] == 1.0


SIM_HEADER = "sample_id,feat,watch_time"
LONG_FIELD = "x" * 131_073  # one past the csv module's default field limit
CELLS = st.one_of(
    st.sampled_from(["", "0", "7", "-3", "2.5", "1e30", "nan", "inf", "all", '"', 'a"b', LONG_FIELD]),
    st.text(alphabet='019.-e,"|x \r\n\x00', max_size=6),
)


@st.composite
def malformed_csvs(draw):
    """CSV bytes with short/long rows, stray quotes, empty cells, long fields
    and, in some examples, bytes that are not UTF-8."""
    header = draw(st.one_of(st.just(SIM_HEADER), st.sampled_from(["sample_id,feat", "watch_time", ""])))
    rows = draw(st.lists(st.lists(CELLS, max_size=5), max_size=8))
    data = ("\n".join([header, *(",".join(row) for row in rows)]) + "\n").encode("utf-8")
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff\xfe" + data[at:]
    return data


class TestMalformedCsv:
    @pytest.fixture()
    def model_path(self, tmp_path, sim_csv):
        assert run("train", "--data", sim_csv, "--head", "vgeo", "--epochs", "1",
                   "--hash-dim", "4", "--out", tmp_path / "m") == 0
        return tmp_path / "m" / "model.json"

    @example(data=f"{SIM_HEADER}\na,all\nb\n".encode(), head=("vgeo",), ratio=())  # short rows
    @example(data=f'{SIM_HEADER}\na,"all,3\nb,al"l,4\n'.encode(), head=("wlr",), ratio=())  # stray quotes
    @example(data=f"{SIM_HEADER}\n,,\n,all,\n,,5\n".encode(), head=("geo", "--endpoints", "2,5"),
             ratio=())  # empty cells
    @example(data=f"{SIM_HEADER}\na,all,1\nb,{LONG_FIELD},2\n".encode(),
             head=("binom", "--endpoints", "2,5"), ratio=())  # long field
    @example(data=f"{SIM_HEADER}\na,all,1\n".encode() + b"b,\xff\xfe,2\n", head=("vgeo",),
             ratio=("--ratio", "0.5"))  # not UTF-8
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=malformed_csvs(),
           head=st.sampled_from([("binom", "--endpoints", "2,5"), ("geo", "--endpoints", "2,5"),
                                 ("vgeo",), ("wlr",)]),
           ratio=st.sampled_from([(), ("--ratio", "0.5")]))
    def test_every_command_exits_with_a_code(self, tmp_path, model_path, data, head, ratio):
        path = tmp_path / "fuzz.csv"
        path.write_bytes(data)
        common = ("--data", path, *ratio)
        assert run("buckets", *common, "--percent-step", "25", "--out", tmp_path / "b") in (0, 2, 3)
        assert run("train", *common, "--head", *head, "--epochs", "2", "--hash-dim", "4",
                   "--out", tmp_path / "t") in (0, 2, 3)
        assert run("eval", *common, "--model", model_path, "--out", tmp_path / "e") in (0, 2, 3)


class TestSimulate:
    def test_csv_shape(self, sim_csv):
        rows = read_rows(sim_csv)
        assert len(rows) == 400
        assert set(rows[0]) == {"sample_id", "feat", "watch_time"}
        assert all(int(r["watch_time"]) >= 0 for r in rows)

    def test_focused_needs_buckets(self, tmp_path):
        assert run("simulate", "--kind", "focused", "--probs", "0.5,0.5",
                   "--out", tmp_path / "s") == 2

    def test_prob_arity_checked(self, tmp_path):
        assert run("simulate", "--kind", "focused", "--probs", "0.5,0.5",
                   "--endpoints", "5,12", "--out", tmp_path / "s") == 2

    def test_stationary_with_a_scheme_exits_2(self, tmp_path, capsys):
        out = tmp_path / "s"
        assert run("simulate", "--kind", "stationary", "--probs", "0.7", "--endpoints", "5,10",
                   "--n", "100", "--out", out) == 2
        assert "stationary profile: vgeo head takes no bucket scheme" in capsys.readouterr().err
        assert not (out / "samples.csv").exists()

    @pytest.mark.parametrize("n", [0, -5])
    def test_sample_count_below_one_exits_2(self, tmp_path, n, capsys):
        out = tmp_path / "s"
        assert run("simulate", "--kind", "stationary", "--probs", "0.7", "--n", n, "--out", out) == 2
        assert "sample count must be >= 1" in capsys.readouterr().err
        assert not (out / "samples.csv").exists()

    def test_deterministic_given_seed(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("simulate", "--kind", "wandering", "--probs", "0.9,0.5,0.2",
                       "--endpoints", "5,12,22", "--n", "100", "--seed", "5", "--out", out) == 0
        assert (a / "samples.csv").read_bytes() == (b / "samples.csv").read_bytes()


class TestAllocationFailure:
    """A size setting whose arrays cannot be allocated exits 2, not with a traceback.
    1e15 float64 or int64 values need 8 PB, more than a process's 128 TiB address
    space, so the allocation fails at once."""

    HUGE = "1000000000000000"

    def test_train_hash_dim(self, tmp_path, capsys):
        data = tmp_path / "toy.csv"
        data.write_text(f"{SIM_HEADER}\na,x,1\nb,y,3\nc,z,8\n", encoding="utf-8")
        out = tmp_path / "t"
        assert run("train", "--data", data, "--head", "vgeo", "--epochs", "1",
                   "--hash-dim", self.HUGE, "--out", out) == 2
        assert "Unable to allocate" in capsys.readouterr().err
        assert not (out / "model.json").exists()

    def test_simulate_sample_count(self, tmp_path, capsys):
        out = tmp_path / "s"
        assert run("simulate", "--kind", "stationary", "--probs", "0.5", "--n", self.HUGE, "--out", out) == 2
        assert "Unable to allocate" in capsys.readouterr().err
        assert not (out / "samples.csv").exists()


class TestVerify:
    def test_default_run_passes(self, tmp_path, capsys):
        out = tmp_path / "v"
        assert run("verify", "--trials", "40", "--seed", "7", "--out", out) == 0
        stdout = capsys.readouterr().out
        assert "[PASS]" in stdout and "[FAIL]" not in stdout
        results = json.loads((out / "verify.json").read_text())
        assert all(r["passed"] for r in results.values())

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_below_one_exits_2(self, tmp_path, trials, capsys):
        assert run("verify", "--trials", trials, "--out", tmp_path / "v") == 2
        captured = capsys.readouterr()
        assert "trials must be >= 1" in captured.err
        assert "[PASS]" not in captured.out
        assert not (tmp_path / "v" / "verify.json").exists()

    def test_deterministic_report(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("verify", "--trials", "25", "--seed", "7", "--out", a) == 0
        assert run("verify", "--trials", "25", "--seed", "7", "--out", b) == 0
        assert (a / "verify.json").read_bytes() == (b / "verify.json").read_bytes()

    def test_injected_bad_gradient_fails_naming_head(self, monkeypatch, capsys):
        alter_gradient(monkeypatch, HeadKind.GEO, np.negative)
        assert run("verify", "--trials", "20") == 1
        out = capsys.readouterr()
        assert "[FAIL] gradient_fd_geo" in out.out
        assert "gradient_fd_geo" in out.err
        assert failed_checks(out.out) == {"gradient_fd_geo"}

    @pytest.mark.parametrize("fault, check, message", [
        ("binom-estimator", "label_round_trip", "round trip broke at t="),
        ("binom", "gradient_bounds", "escapes [-1, 1]"),
        ("geo", "gradient_bounds", "escapes width bounds"),
    ])
    def test_injected_fault_fails_its_check(self, monkeypatch, capsys, fault, check, message):
        failing = {check}
        if fault == "binom-estimator":
            entry = heads.HEADS[HeadKind.BINOM]
            monkeypatch.setitem(heads.HEADS, HeadKind.BINOM,
                                dataclasses.replace(entry, expectation=lambda p, s: entry.expectation(p, s) + 1))
        else:  # past 1, and past the widths of at most 12 the check draws
            alter_gradient(monkeypatch, HeadKind(fault), lambda grad: 100.0 * grad)
            failing.add(f"gradient_fd_{fault}")
        assert run("verify", "--trials", "20") == 1
        out = capsys.readouterr()
        *lines, dump = out.out.splitlines()
        results = json.loads(dump)
        assert not results[check]["passed"] and message in results[check]["detail"]
        # one line per check, and every failed detail printed whole on its line
        failed = [f"[FAIL] {name}: {r['detail']}" for name, r in results.items() if not r["passed"]]
        assert len(lines) == len(results) and all("\n" not in line and line in lines for line in failed)
        assert check in out.err
        assert failed_checks(out.out) == failing  # only the faulty head's checks


class Encoded(np.ndarray):
    """Successes that one head's encode marked, so the loss kernel can tell its rows."""


def alter_gradient(monkeypatch, kind, alter):
    """Pass the gradient that ``bernoulli_loss_batch`` returns for the head's
    own (s, f) through ``alter``; every other head's stays as it is."""
    entry, kernel = heads.HEADS[kind], heads.bernoulli_loss_batch

    def encode(scheme, t, dtype):
        s, f = entry.encode(scheme, t, dtype)
        return s.view(Encoded), f

    def faulty(logits, s, f):
        losses, grad = kernel(logits, np.asarray(s), f)
        return losses, alter(grad) if isinstance(s, Encoded) else grad

    monkeypatch.setitem(heads.HEADS, kind, dataclasses.replace(entry, encode=encode))
    monkeypatch.setattr(heads, "bernoulli_loss_batch", faulty)


def failed_checks(stdout):
    """Names of the checks a verify run's JSON line reports failed."""
    return {name for name, r in json.loads(stdout.splitlines()[-1]).items() if not r["passed"]}


class TestRatioSplit:
    def test_train_eval_use_disjoint_parts(self, tmp_path, sim_csv):
        tdir, edir = tmp_path / "t", tmp_path / "e"
        assert run("train", "--data", sim_csv, "--head", "vgeo", "--epochs", "3",
                   "--ratio", "0.8", "--seed", "5", "--out", tdir) == 0
        assert run("eval", "--model", tdir / "model.json", "--data", sim_csv,
                   "--ratio", "0.8", "--seed", "5", "--out", edir) == 0
        report = json.loads((edir / "report.json").read_text())
        assert report["n"] == 80  # the held-out 20% of 400 rows

    def test_a_ratio_that_empties_the_train_part_exits_2_naming_it(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("sample_id,feat,watch_time\n" + "".join(f"{i},a,{i}\n" for i in range(5)),
                        encoding="utf-8")
        assert run("train", "--data", data, "--head", "vgeo", "--ratio", "0.1", "--out", tmp_path / "t") == 2
        assert capsys.readouterr().err == "error: split ratio 0.1 of 5 rows leaves the train part empty\n"

    @pytest.mark.parametrize("rows, flags", [(5, ("--ratio", "0.8")), (1, ())],
                             ids=["one-test-row", "one-row-file"])
    def test_eval_of_fewer_than_two_rows_exits_2_naming_the_file(self, tmp_path, capsys, rows, flags):
        # XAUC ranks pairs of rows, and one row holds none
        train_data, data = tmp_path / "train.csv", tmp_path / "d.csv"
        for path, n in ((train_data, 5), (data, rows)):
            path.write_text(SIM_HEADER + "\n" + "".join(f"{i},a,{i}\n" for i in range(n)), encoding="utf-8")
        assert run("train", "--data", train_data, "--head", "vgeo", "--ratio", "0.8", "--out", tmp_path / "t") == 0
        capsys.readouterr()
        out = tmp_path / "e"
        assert run("eval", "--model", tmp_path / "t" / "model.json", "--data", data, *flags, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"--data {data} leaves 1 usable row" in err
        assert not out.exists()  # no report.json, predictions.csv or manifest


class TestExitCodes:
    def test_training_divergence_maps_to_3(self, tmp_path, sim_csv, monkeypatch):
        from swat import cli
        from swat.predictor import TrainingDiverged

        def explode(dataset, config):
            raise TrainingDiverged(2, 7, 1.5)

        monkeypatch.setattr(cli.predictor, "train", explode)
        assert run("train", "--data", sim_csv, "--head", "vgeo", "--out", tmp_path / "t") == 3

    def test_a_real_divergence_exits_3_with_one_stderr_line(self, tmp_path, sim_csv, capsys):
        # the overflowing Adam step warns nothing: the non-finite loss that follows is the report
        assert run("train", "--data", sim_csv, "--head", "vgeo", "--lr", "1e300", "--out", tmp_path / "t") == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: non-finite loss at epoch ") and err.count("\n") == 1
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("head", ["vgeo", "wlr"])
    def test_a_divergence_in_the_last_step_exits_3_with_one_stderr_line(self, tmp_path, sim_csv, capsys, head):
        # one epoch of one batch: no loss follows the overflowing step, so the parameters are the report
        assert run("train", "--data", sim_csv, "--head", head, "--lr", "1e300", "--epochs", "1",
                   "--out", tmp_path / "t") == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: non-finite parameters at epoch 0, batch 0 ")
        assert err.count("\n") == 1
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("value, level", [("basic_format", "WARNING"), ("_STYLES", "WARNING"),
                                              ("nonsense", "WARNING"), ("INFO", "INFO"), ("debug", "DEBUG")])
    def test_swat_log_reads_only_the_documented_levels(self, tmp_path, value, level):
        # in a fresh interpreter: in-process, basicConfig leaves pytest's root handlers be
        probe = ("import logging, sys; from swat.cli import main; code = main(sys.argv[1:]); "
                 "print(logging.getLevelName(logging.getLogger().level)); sys.exit(code)")
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", probe, "buckets", "--endpoints", "5,12", "--out", str(tmp_path / "b")],
            capture_output=True, text=True, timeout=120, env={**os.environ, "SWAT_LOG": value, "PYTHONPATH": path},
        )
        assert done.returncode == 0 and "Traceback" not in done.stderr, done.stderr
        assert done.stdout.splitlines()[-1] == level

    def test_verify_without_out_emits_json_line(self, capsys):
        assert run("verify", "--trials", "10") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        json_line = next(line for line in lines if line.startswith("{"))
        results = json.loads(json_line)
        assert all(r["passed"] for r in results.values())


class TestInlineScheme:
    def test_train_accepts_endpoints_flag(self, tmp_path, sim_csv):
        tdir = tmp_path / "t"
        assert run("train", "--data", sim_csv, "--head", "geo", "--endpoints", "2,5,9",
                   "--epochs", "3", "--out", tdir) == 0
        model = json.loads((tdir / "model.json").read_text())
        assert model["scheme"] == {"endpoints": [2, 5, 9], "tail_open": True}

    def test_manifest_records_timestamps_and_hashes(self, tmp_path, sim_csv):
        tdir = tmp_path / "t"
        assert run("train", "--data", sim_csv, "--head", "vgeo", "--epochs", "2",
                   "--out", tdir) == 0
        manifest = json.loads((tdir / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert set(manifest["timestamps"]) == {"started", "finished"}
        assert len(manifest["inputs"]) == 1
        assert all(len(h) == 64 for h in manifest["inputs"].values())


    @pytest.mark.parametrize("argv", [
        ("train", "--head", "vgeo", "--data", "missing.csv"),
        ("simulate", "--kind", "stationary", "--probs", "0.5"),
    ], ids=["train", "simulate"])
    def test_empty_endpoints_exit_2(self, tmp_path, argv, capsys):
        # a scheme source that is given must be usable, even where the law needs no scheme
        assert run(*argv, "--endpoints", ",", "--out", tmp_path / "o") == 2
        assert "no endpoints given" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestJsonLayout:
    """Every JSON file has sorted keys and ends in exactly one newline; the
    manifest and verify results are indented by 2, the report is one line."""

    @staticmethod
    def assert_layout(path, indent):
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=indent, sort_keys=True) + "\n"

    def test_train_eval_and_verify_files(self, tmp_path, sim_csv):
        assert run("train", "--data", sim_csv, "--head", "vgeo", "--epochs", "2",
                   "--out", tmp_path / "t") == 0
        assert run("eval", "--data", sim_csv, "--model", tmp_path / "t" / "model.json",
                   "--out", tmp_path / "e") == 0
        assert run("verify", "--trials", "5", "--out", tmp_path / "v") == 0
        self.assert_layout(tmp_path / "e" / "report.json", None)
        for command in "tev":
            self.assert_layout(tmp_path / command / "manifest.json", 2)
        self.assert_layout(tmp_path / "v" / "verify.json", 2)


class TestManifest:
    """``main`` writes each command's manifest.json from one run record, with
    the keys, config keys, inputs and outputs the commands wrote before it."""

    def test_every_command_records_its_config_inputs_and_outputs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        common = ("--data", "s/samples.csv", "--ratio", "0.8")
        argvs = [
            ("simulate", "--kind", "stationary", "--probs", "0.7", "--n", "200", "--seed", "3", "--out", "s"),
            ("buckets", *common, "--percent-step", "20", "--tail-open", "--out", "b"),
            ("train", *common, "--head", "geo", "--scheme", "b/scheme.json", "--epochs", "2", "--out", "t"),
            ("eval", *common, "--model", "t/model.json", "--out", "e"),
            ("verify", "--trials", "5", "--out", "v"),
            ("buckets", "--endpoints", "5,12", "--tail-open", "--out", "f"),
            ("simulate", "--kind", "focused", "--probs", "0.9,0.5,0.2", "--scheme", "f/scheme.json",
             "--n", "50", "--out", "g"),
        ]
        data_flags = ["c", "command", "data", "out", "ratio", "schema", "seed"]
        expected = {  # out: (command, seed, config keys, inputs, outputs)
            "s": ("simulate", 3, ["command", "endpoints", "kind", "n", "out", "probs", "scheme", "seed"],
                  [], ["s/samples.csv"]),
            "b": ("buckets", 0, sorted(data_flags + ["choice", "endpoints", "percent_step", "skipped",
                                                     "tail_open"]),
                  ["s/samples.csv"], ["b/scheme.json"]),
            "t": ("train", 0, sorted(data_flags + ["batch", "clipped", "endpoints", "epochs", "hash_dim",
                                                   "head", "hidden", "lr", "scheme", "skipped", "stopped"]),
                  ["b/scheme.json", "s/samples.csv"], ["t/model.json", "t/loss_trace.csv"]),
            "e": ("eval", 0, sorted(data_flags + ["clamped", "model", "skipped"]),
                  ["s/samples.csv", "t/model.json"], ["e/report.json", "e/predictions.csv"]),
            "v": ("verify", 0, ["command", "out", "seed", "trials"], [], ["v/verify.json"]),
            "g": ("simulate", 0, ["command", "endpoints", "kind", "n", "out", "probs", "scheme", "seed"],
                  ["f/scheme.json"], ["g/samples.csv"]),
        }
        for argv in argvs:
            assert run(*argv) == 0, argv
        for out, want in expected.items():
            manifest = json.loads((tmp_path / out / "manifest.json").read_text(encoding="utf-8"))
            assert list(manifest) == ["command", "config", "inputs", "outputs", "seed", "timestamps"]
            assert (manifest["command"], manifest["seed"], list(manifest["config"]), list(manifest["inputs"]),
                    manifest["outputs"]) == want
            assert manifest["config"]["command"] == manifest["command"]
            assert all(len(digest) == 64 for digest in manifest["inputs"].values())
            assert list(manifest["timestamps"]) == ["finished", "started"]

    @pytest.mark.parametrize("schema, header, c", [("sim", "sample_id,feat,watch_time", 1.0),
                                                   ("kuairec", "user_id,video_id,play_duration", 50.0),
                                                   ("cikm", "session_id,items,dwell_time", 100.0)])
    def test_buckets_and_train_record_the_schema_default_c(self, tmp_path, schema, header, c):
        data = tmp_path / "d.csv"
        data.write_text(header + "\n" + "".join(f"{i},a|b,{i % 10 + 1}\n" for i in range(50)),
                        encoding="utf-8")
        common = ("--data", data, "--schema", schema)
        assert run("buckets", *common, "--percent-step", "20", "--out", tmp_path / "b") == 0
        assert run("train", *common, "--head", "vgeo", "--epochs", "1", "--out", tmp_path / "t") == 0
        assert json.loads((tmp_path / "b" / "scheme.json").read_text())["c"] == c
        for out in "bt":
            assert json.loads((tmp_path / out / "manifest.json").read_text())["config"]["c"] == c

    def test_verify_writes_a_manifest_only_with_out(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run("verify", "--trials", "5") == 0
        assert list(tmp_path.iterdir()) == []
        a_file = tmp_path / "a_file"
        a_file.write_text("", encoding="utf-8")
        assert run("verify", "--trials", "5", "--out", a_file) == 2
        assert a_file.read_text(encoding="utf-8") == ""


class TestBehaviorHeads:
    """Each simulated behavior is checked by, and fitted with, the head that models it."""

    PROBS = {"wandering": "0.8,0.5,0.3", "focused": "0.9,0.8,0.6,0.4", "stationary": "0.7"}

    @pytest.mark.parametrize("kind", sorted(PROBS))
    def test_simulate_train_eval_with_the_head_of_each_kind(self, tmp_path, kind):
        head = simulate.HEAD_OF[simulate.Behavior(kind)].value
        scheme = ("--endpoints", "5,12,22") if heads.HEADS[HeadKind(head)].tail_open is not None else ()
        assert run("simulate", "--kind", kind, "--probs", self.PROBS[kind], *scheme,
                   "--n", "300", "--seed", "1", "--out", tmp_path / "s") == 0
        data = tmp_path / "s" / "samples.csv"
        assert run("train", "--data", data, "--head", head, *scheme, "--epochs", "2",
                   "--out", tmp_path / "t") == 0
        assert run("eval", "--data", data, "--model", tmp_path / "t" / "model.json",
                   "--out", tmp_path / "e") == 0
        report = json.loads((tmp_path / "e" / "report.json").read_text())
        assert np.isfinite(report["mae"]) and report["n"] == 300

    @pytest.mark.parametrize("kind, tail, message", [
        ("focused", (), "geo head needs an open-tail scheme"),
        ("wandering", ("--tail-open",), "binom head needs a closed-tail scheme"),
    ], ids=["focused-closed", "wandering-open"])
    def test_a_scheme_with_the_wrong_tail_exits_2(self, tmp_path, sim_csv, kind, tail, message, capsys):
        assert run("buckets", "--endpoints", "5,12,22", *tail, "--out", tmp_path / "b") == 0
        scheme = tmp_path / "b" / "scheme.json"
        capsys.readouterr()
        assert run("simulate", "--kind", kind, "--probs", "0.5,0.5,0.5,0.5", "--scheme", scheme,
                   "--out", tmp_path / "s") == 2
        assert f"{kind} profile: {message}" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()
        # the head that models the behavior rejects the scheme alike
        head = simulate.HEAD_OF[simulate.Behavior(kind)].value
        assert run("train", "--data", sim_csv, "--head", head, "--scheme", scheme,
                   "--out", tmp_path / "t") == 2
        assert message in capsys.readouterr().err


class TestSchemeScale:
    """scheme.json records the c its endpoints were built at, and train reads the data at it."""

    def test_train_takes_c_from_the_scheme(self, tmp_path, sim_csv):
        assert run("buckets", "--data", sim_csv, "--c", "10", "--percent-step", "20", "--tail-open",
                   "--out", tmp_path / "b") == 0
        assert json.loads((tmp_path / "b" / "scheme.json").read_text())["c"] == 10.0
        assert run("train", "--data", sim_csv, "--head", "geo", "--scheme", tmp_path / "b" / "scheme.json",
                   "--epochs", "1", "--out", tmp_path / "t") == 0
        assert json.loads((tmp_path / "t" / "model.json").read_text())["c"] == 10.0
        assert json.loads((tmp_path / "t" / "manifest.json").read_text())["config"]["c"] == 10.0

    def test_a_differing_c_exits_2_naming_both(self, tmp_path, sim_csv, capsys):
        assert run("buckets", "--data", sim_csv, "--percent-step", "20", "--tail-open",
                   "--out", tmp_path / "b") == 0
        capsys.readouterr()
        assert run("train", "--data", sim_csv, "--c", "10", "--head", "geo",
                   "--scheme", tmp_path / "b" / "scheme.json", "--out", tmp_path / "t") == 2
        err = capsys.readouterr().err
        assert "--c 10.0 differs from the scheme's c 1.0" in err
        assert not (tmp_path / "t").exists()

    def test_a_scheme_without_c_exits_2_asking_for_a_rebuild(self, tmp_path, sim_csv, capsys):
        old = tmp_path / "scheme.json"
        old.write_text('{"endpoints": [2, 5], "tail_open": true}\n', encoding="utf-8")
        assert run("train", "--data", sim_csv, "--head", "geo", "--scheme", old, "--out", tmp_path / "t") == 2
        assert f"error: {old}: no field 'c'" in capsys.readouterr().err
        assert not (tmp_path / "t").exists()


class TestSchemeFileForSimulate:
    def test_simulate_accepts_scheme_json(self, tmp_path):
        bdir = tmp_path / "b"
        assert run("buckets", "--endpoints", "5,12,22", "--tail-open", "--out", bdir) == 0
        sdir = tmp_path / "s"
        assert run("simulate", "--kind", "focused", "--probs", "0.9,0.6,0.4,0.3",
                   "--scheme", bdir / "scheme.json", "--n", "50", "--seed", "2",
                   "--out", sdir) == 0
        rows = read_rows(sdir / "samples.csv")
        assert len(rows) == 50


class TestEndpointBound:
    """The targets, the encoded seconds and the draws are int64, so an
    endpoint at or past 2**63 exits 2 with one line in every command."""

    @pytest.mark.parametrize("endpoint", [2**63, 10**20])
    def test_exits_2_with_one_line(self, tmp_path, sim_csv, endpoint, capsys):
        inline = ("--endpoints", f"5,{endpoint}")
        scheme = tmp_path / "scheme.json"
        scheme.write_text(json.dumps({"c": 1.0, "endpoints": [5, endpoint], "tail_open": True}), encoding="utf-8")
        assert run("train", "--data", sim_csv, "--head", "geo", "--endpoints", "1,3", "--epochs", "1",
                   "--out", tmp_path / "t") == 0
        model = json.loads((tmp_path / "t" / "model.json").read_text())
        model["scheme"]["endpoints"] = [1, endpoint]
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(model), encoding="utf-8")
        focused = ("simulate", "--kind", "focused", "--probs", "0.5,0.5,0.5")
        argvs = {  # the file that holds the endpoint, if any: argv
            None: [("buckets", *inline, "--tail-open"), ("train", "--data", sim_csv, "--head", "geo", *inline),
                   (*focused, *inline)],
            scheme: [("train", "--data", sim_csv, "--head", "geo", "--scheme", scheme),
                     (*focused, "--scheme", scheme)],
            model_path: [("eval", "--data", sim_csv, "--model", model_path)],
        }
        capsys.readouterr()
        for path, commands in argvs.items():
            for argv in commands:
                out = tmp_path / "out"
                assert run(*argv, "--out", out) == 2, argv
                where = "" if path is None else f"{path}: "
                assert capsys.readouterr().err == f"error: {where}endpoint {endpoint} is not below 2**63\n"
                assert not out.exists()

    @pytest.mark.parametrize("head, tail", [("geo", ("--tail-open",)), ("binom", ())])
    def test_the_largest_int64_endpoint_trains_and_scores(self, tmp_path, sim_csv, head, tail):
        assert run("buckets", "--endpoints", f"5,{2**63}", *tail, "--out", tmp_path / "over") == 2
        assert run("buckets", "--endpoints", f"5,{2**63 - 1}", *tail, "--out", tmp_path / "b") == 0
        assert run("train", "--data", sim_csv, "--head", head, "--scheme", tmp_path / "b" / "scheme.json",
                   "--epochs", "2", "--out", tmp_path / "t") == 0
        assert run("eval", "--data", sim_csv, "--model", tmp_path / "t" / "model.json",
                   "--out", tmp_path / "e") == 0
        preds = [float(row["prediction"]) for row in read_rows(tmp_path / "e" / "predictions.csv")]
        assert len(preds) == 400 and all(map(np.isfinite, preds))


class TestEpochLog:
    def test_swat_log_info_logs_one_line_per_epoch(self, tmp_path, sim_csv):
        # in a fresh interpreter: in-process, basicConfig leaves pytest's root handlers be
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        env = {k: v for k, v in os.environ.items() if k != "SWAT_LOG"} | {"PYTHONPATH": path}
        stderr = {}
        for level in ("info", None):
            done = subprocess.run(
                [sys.executable, "-m", "swat", "train", "--data", str(sim_csv), "--head", "wlr", "--epochs", "3",
                 "--out", str(tmp_path / str(level))],
                capture_output=True, text=True, timeout=120, env=env | ({"SWAT_LOG": level} if level else {}),
            )
            assert done.returncode == 0, done.stderr
            stderr[level] = done.stderr
        trace = read_rows(tmp_path / "info" / "loss_trace.csv")
        assert len(trace) == 3 and list(trace[0]) == ["epoch", "mean_loss", "grad_norm", "param_norm"]
        assert all(math.isfinite(float(row[key])) for row in trace for key in list(row)[1:])
        lines = [line for line in stderr["info"].splitlines() if re.search(r"\bepoch \d+:", line)]
        pattern = (r"INFO:swat\.predictor:epoch (\d+): mean loss (\S+), gradient norm (\S+), "
                   r"parameter norm (\S+), \d+ samples/s")
        logged = [re.fullmatch(pattern, line).groups() for line in lines]
        assert logged == [(row["epoch"], f"{float(row['mean_loss']):.6f}", f"{float(row['grad_norm']):.6g}",
                           f"{float(row['param_norm']):.6g}") for row in trace]
        assert not re.search(r"\bepoch \d+:", stderr[None])
        for name in ("model.json", "loss_trace.csv"):  # the norms are computed at every level
            assert (tmp_path / "info" / name).read_bytes() == (tmp_path / "None" / name).read_bytes()


class TestSettingsCheckedWhileParsing:
    """A setting argparse can check exits 2 before any file is read: --data
    does not exist, so a later check would name the path, not the flag."""

    DATA = ("--data", "{missing}")
    BOTH_SCHEMES = ("--scheme", "{scheme}", "--endpoints", "2,5")
    CASES = {
        "buckets --schema nonsense": (("buckets", "--schema", "nonsense", *DATA),
                                      "argument --schema:"),
        "train --schema nonsense": (("train", "--head", "vgeo", "--schema", "nonsense", *DATA),
                                    "argument --schema:"),
        "buckets --seed -1": (("buckets", "--seed", "-1", *DATA), "argument --seed:"),
        "buckets --seed 1.5": (("buckets", "--seed", "1.5", *DATA), "argument --seed:"),
        "eval --seed -1": (("eval", "--model", "missing.json", "--ratio", "0.8", "--seed", "-1", *DATA),
                           "argument --seed:"),
        "train --seed -1": (("train", "--head", "vgeo", "--seed", "-1", *DATA), "argument --seed:"),
        "simulate --seed -1": (("simulate", "--kind", "stationary", "--probs", "0.5", "--seed", "-1"),
                               "argument --seed:"),
        "verify --seed -1": (("verify", "--seed", "-1"), "argument --seed:"),
        "buckets --choice 9": (("buckets", "--choice", "9", *DATA), "argument --choice:"),
        "buckets --choice and --percent-step": (("buckets", "--choice", "4", "--percent-step", "0.5", *DATA),
                                                "argument --percent-step: not allowed with argument --choice"),
        "buckets --endpoints 5,x": (("buckets", "--endpoints", "5,x"),
                                    "argument --endpoints: invalid literal for int()"),
        "train --endpoints 5,x": (("train", "--head", "geo", "--endpoints", "5,x", *DATA),
                                  "argument --endpoints: invalid literal for int()"),
        "simulate --endpoints 5,x": (("simulate", "--kind", "wandering", "--probs", "0.5,0.5",
                                      "--endpoints", "5,x"),
                                     "argument --endpoints: invalid literal for int()"),
        "simulate --probs 0.5,x": (("simulate", "--kind", "stationary", "--probs", "0.5,x"),
                                   "argument --probs: could not convert string to float"),
        "train --scheme and --endpoints": (("train", "--head", "geo", *BOTH_SCHEMES, *DATA),
                                           "argument --endpoints: not allowed with argument --scheme"),
        "simulate --scheme and --endpoints": (("simulate", "--kind", "focused",
                                               "--probs", "0.5,0.5,0.5", *BOTH_SCHEMES),
                                              "argument --endpoints: not allowed with argument --scheme"),
        "buckets --data and --endpoints": (("buckets", "--endpoints", "2,5", *DATA),
                                           "argument --data: not allowed with argument --endpoints"),
        "buckets no source": (("buckets",), "one of the arguments --data --endpoints is required"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exits_2_naming_the_flag(self, tmp_path, case, capsys):
        scheme = tmp_path / "scheme.json"
        scheme.write_text('{"endpoints": [2, 5], "tail_open": true}\n', encoding="utf-8")
        argv, message = self.CASES[case]
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            run(*[a.format(missing=tmp_path / "missing.csv", scheme=scheme) for a in argv], "--out", out)
        assert err.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestUnreadablePaths:
    """A path that is missing or no readable file, or an --out that names a
    file, exits 2 with a message naming it, never 1, which `verify` uses for
    a failure."""

    @pytest.fixture()
    def paths(self, tmp_path, sim_csv):
        model = tmp_path / "m"
        assert run("train", "--data", sim_csv, "--head", "vgeo", "--epochs", "1",
                   "--hash-dim", "4", "--out", model) == 0
        scheme = tmp_path / "b"
        assert run("buckets", "--endpoints", "2,5", "--tail-open", "--out", scheme) == 0
        directory = tmp_path / "a_directory"
        directory.mkdir()
        a_file = tmp_path / "a_file"
        a_file.write_text("", encoding="utf-8")
        return {"data": sim_csv, "model": model / "model.json", "scheme": scheme / "scheme.json",
                "dir": directory, "file": a_file, "missing": tmp_path / "missing",
                "out": tmp_path / "out"}

    CASES = {
        "buckets --data dir": ("buckets", "--data", "{dir}", "--out", "{out}"),
        "buckets --data missing": ("buckets", "--data", "{missing}", "--out", "{out}"),
        "buckets --out file": ("buckets", "--data", "{data}", "--out", "{file}"),
        "train --data dir": ("train", "--data", "{dir}", "--head", "vgeo", "--out", "{out}"),
        "train --scheme dir": ("train", "--data", "{data}", "--head", "geo", "--scheme", "{dir}",
                               "--out", "{out}"),
        "train --scheme missing": ("train", "--data", "{data}", "--head", "geo",
                                   "--scheme", "{missing}", "--out", "{out}"),
        "train --out file": ("train", "--data", "{data}", "--head", "vgeo", "--epochs", "1",
                             "--out", "{file}"),
        "eval --data dir": ("eval", "--data", "{dir}", "--model", "{model}", "--out", "{out}"),
        "eval --model dir": ("eval", "--data", "{data}", "--model", "{dir}", "--out", "{out}"),
        "eval --model missing": ("eval", "--data", "{data}", "--model", "{missing}",
                                 "--out", "{out}"),
        "eval --out file": ("eval", "--data", "{data}", "--model", "{model}", "--out", "{file}"),
        "simulate --scheme dir": ("simulate", "--kind", "focused", "--probs", "0.5,0.5,0.5",
                                  "--scheme", "{dir}", "--out", "{out}"),
        "simulate --scheme missing": ("simulate", "--kind", "focused", "--probs", "0.5,0.5,0.5",
                                      "--scheme", "{missing}", "--out", "{out}"),
        "simulate --out file": ("simulate", "--kind", "stationary", "--probs", "0.5", "--n", "5",
                                "--out", "{file}"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exits_2_naming_the_path(self, paths, case, capsys):
        argv = [arg.format(**paths) for arg in self.CASES[case]]
        capsys.readouterr()
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert str(paths[case.rsplit(" ", 1)[1]]) in err


class TestMalformedArtifacts:
    """A scheme or model JSON that lacks a field or holds one of the wrong
    type exits 2 naming the file and the field."""

    SCHEMES = {
        "empty object": ("{}", "missing field 'endpoints'"),
        "a list": ("[1]", "a scheme is a JSON object, got list"),
        "no tail": ('{"endpoints": [2, 5]}', "missing field 'tail_open'"),
        "text endpoints": ('{"endpoints": "2,5", "tail_open": true}',
                           "field 'endpoints' has the wrong type (str)"),
        "fractional endpoint": ('{"endpoints": [2.5, 5], "tail_open": true}',
                                "field 'endpoints' must be a list of integers"),
        "text tail": ('{"endpoints": [2, 5], "tail_open": "yes"}',
                      "field 'tail_open' has the wrong type (str)"),
        "not JSON": ("{endpoints", "Expecting property name"),
        "no c": ('{"endpoints": [2, 5], "tail_open": true}', "no field 'c'"),
        "text c": ('{"c": "1", "endpoints": [2, 5], "tail_open": true}',
                   "field 'c' has the wrong type (str)"),
        "zero c": ('{"c": 0.0, "endpoints": [2, 5], "tail_open": true}',
                   "scaling constant must be positive and finite, got 0.0"),
    }

    @pytest.mark.parametrize("case", sorted(SCHEMES))
    @pytest.mark.parametrize("command", ["train", "simulate"])
    def test_bad_scheme_exits_2(self, tmp_path, sim_csv, case, command, capsys):
        text, message = self.SCHEMES[case]
        scheme = tmp_path / "scheme.json"
        scheme.write_text(text, encoding="utf-8")
        if command == "train":
            argv = ("train", "--data", sim_csv, "--head", "geo", "--scheme", scheme)
        else:
            argv = ("simulate", "--kind", "focused", "--probs", "0.5,0.5,0.5", "--scheme", scheme)
        assert run(*argv, "--out", tmp_path / "out") == 2
        assert f"error: {scheme}: {message}" in capsys.readouterr().err

    def _model_with(self, tmp_path, sim_csv, edit):
        tdir = tmp_path / "t"
        assert run("train", "--data", sim_csv, "--head", "geo", "--endpoints", "1,3",
                   "--epochs", "1", "--hash-dim", "4", "--out", tdir) == 0
        artifact = json.loads((tdir / "model.json").read_text())
        edit(artifact)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(artifact), encoding="utf-8")
        return path

    MODELS = {
        "no params.b": (lambda d: d["params"].pop("b"), "missing field 'params.b'"),
        "no params": (lambda d: d.pop("params"), "missing field 'params.w'"),
        "short params.w": (lambda d: d["params"]["w"].pop(), "field 'params.w' must be 12 numbers"),
        # json reads NaN and Infinity as floats
        "NaN in params.w": (lambda d: d["params"]["w"].__setitem__(0, float("nan")),
                            "non-finite parameters in artifact (w)"),
        "Infinity in params.w": (lambda d: d["params"]["w"].__setitem__(0, float("inf")),
                                 "non-finite parameters in artifact (w)"),
        "text in params.b": (lambda d: d["params"]["b"].__setitem__(0, "x"),
                             "field 'params.b' must be 3 numbers"),
        "no feature_spec": (lambda d: d.pop("feature_spec"), "missing field 'feature_spec.hash_dim'"),
        "negative feature seed": (lambda d: d["feature_spec"].__setitem__("seed", -1),
                                  "feature seed must be in [0, 2**64), got -1"),
        "text hash_dim": (lambda d: d["feature_spec"].__setitem__("hash_dim", "4"),
                          "field 'feature_spec.hash_dim' has the wrong type (str)"),
        "negative hidden": (lambda d: d.__setitem__("hidden", -1), "field 'hidden' must be >= 0, got -1"),
        "text hidden": (lambda d: d.__setitem__("hidden", "0"), "field 'hidden' has the wrong type (str)"),
        "true hidden": (lambda d: d.__setitem__("hidden", True), "field 'hidden' has the wrong type (bool)"),
        "hidden without its params": (lambda d: d.__setitem__("hidden", 2), "missing field 'params.w1'"),
        "negative c": (lambda d: d.__setitem__("c", -1.0),
                       "scaling constant must be positive and finite, got -1.0"),
        "text c": (lambda d: d.__setitem__("c", "1"), "field 'c' has the wrong type (str)"),
        "zero c": (lambda d: d.__setitem__("c", 0.0),
                   "scaling constant must be positive and finite, got 0.0"),
        "true c": (lambda d: d.__setitem__("c", True), "field 'c' has the wrong type (bool)"),
        "scheme without tail": (lambda d: d["scheme"].pop("tail_open"), "missing field 'scheme.tail_open'"),
        "scheme with a text endpoint": (lambda d: d["scheme"]["endpoints"].__setitem__(0, "5"),
                                        "field 'scheme.endpoints' must be a list of integers"),
        "empty object": (lambda d: d.clear(), "unsupported model format None"),
    }

    @pytest.mark.parametrize("case", sorted(MODELS))
    def test_bad_model_exits_2(self, tmp_path, sim_csv, case, capsys):
        edit, message = self.MODELS[case]
        path = self._model_with(tmp_path, sim_csv, edit)
        capsys.readouterr()
        assert run("eval", "--data", sim_csv, "--model", path, "--out", tmp_path / "e") == 2
        assert f"error: {path}: {message}" in capsys.readouterr().err

    def test_model_that_is_a_list_exits_2(self, tmp_path, sim_csv, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1]", encoding="utf-8")
        assert run("eval", "--data", sim_csv, "--model", path, "--out", tmp_path / "e") == 2
        assert f"error: {path}: a model is a JSON object, got list" in capsys.readouterr().err


class TestBucketsReadsTargetsOnly:
    def test_missing_feature_column_exits_2_with_the_full_read_message(self, tmp_path, capsys):
        # buckets keeps only the target cells but checks the header against
        # every configured column, as train does
        data = tmp_path / "k.csv"
        data.write_text("user_id,play_duration\n1,3.5\n2,4.0\n", encoding="utf-8")
        common = ("--data", data, "--schema", "kuairec")
        assert run("train", *common, "--head", "vgeo", "--out", tmp_path / "t") == 2
        expected = capsys.readouterr().err
        assert "missing configured columns ['video_id']" in expected
        assert run("buckets", *common, "--out", tmp_path / "b") == 2
        assert capsys.readouterr().err == expected
        assert not (tmp_path / "b").exists()


class TestReadmeWalkthrough:
    def test_cli_block_runs_in_order(self, tmp_path, monkeypatch):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        block = readme.split("## CLI", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
        commands = [line for line in block.replace("\\\n", " ").splitlines()
                    if line.startswith("swat ")]
        assert len(commands) >= 8
        monkeypatch.chdir(tmp_path)
        for command in commands:
            assert run(*shlex.split(command)[1:]) == 0, command
