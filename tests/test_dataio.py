import numpy as np
import pytest

from swat import dataio
from swat.dataio import DEFAULT_SCHEMAS, Dataset, Sample, SchemaConfig


def write_csv(path, rows, header="sample_id,feat,watch_time"):
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    return path


SIM = DEFAULT_SCHEMAS["sim"]


class TestLoadCsv:
    def test_scaling_rounds_to_integer(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["a,u1,3.4"])
        ds = dataio.load_csv(path, SIM, c=50)
        assert ds.samples[0].target == 170
        assert ds.samples[0].raw_target == 3.4

    def test_negative_target_skipped_and_counted(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["a,u1,-1", "b,u2,2", "c,u3,oops"])
        ds = dataio.load_csv(path, SIM, c=1)
        assert len(ds) == 1
        assert ds.skipped == 2

    def test_identity_scaling(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["a,u1,7", "b,u2,0"])
        ds = dataio.load_csv(path, SIM, c=1)
        assert [s.target for s in ds.samples] == [7, 0]

    def test_token_lists_split_and_namespaced(self, tmp_path):
        schema = SchemaConfig("session_id", ("items",), "dwell_time")
        path = write_csv(tmp_path / "d.csv", ['s1,"i1 i2|i3",4.0'], header="session_id,items,dwell_time")
        ds = dataio.load_csv(path, schema, c=1)
        assert ds.samples[0].categorical_ids == ("items=i1", "items=i2", "items=i3")

    def test_numeric_columns(self, tmp_path):
        schema = SchemaConfig("id", ("tok",), "y", numeric_columns=("d1", "d2"))
        path = write_csv(tmp_path / "d.csv", ["a,u,1.0,0.5,2"], header="id,tok,y,d1,d2")
        ds = dataio.load_csv(path, schema, c=1)
        assert ds.samples[0].numeric == (0.5, 2.0)

    def test_non_finite_numeric_cell_skipped_and_counted(self, tmp_path):
        schema = SchemaConfig("id", ("tok",), "y", numeric_columns=("d1",))
        rows = ["a,u,1.0,nan", "b,u,1.0,inf", "c,u,1.0,-inf", "d,u,1.0,oops", "e,u,1.0,0.5"]
        ds = dataio.load_csv(write_csv(tmp_path / "d.csv", rows, header="id,tok,y,d1"), schema, c=1)
        assert [s.id for s in ds.samples] == ["e"]
        assert ds.skipped == 4

    def test_target_beyond_int64_skipped_and_counted(self, tmp_path):
        rows = ["a,u1,1e30", "b,u2,2", "c,u3,1e308", "d,u4,nan", "e,u5,inf"]
        ds = dataio.load_csv(write_csv(tmp_path / "d.csv", rows), SIM, c=50)
        assert ds.targets().tolist() == [100]
        assert ds.skipped == 4

    def test_missing_column_raises(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["a,u1,1"])
        with pytest.raises(ValueError, match="missing configured columns"):
            dataio.load_csv(path, SchemaConfig("sample_id", ("nope",), "watch_time"), c=1)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            dataio.load_csv(tmp_path / "absent.csv", SIM, c=1)

    def test_zero_valid_rows_raises(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["a,u1,-3"])
        with pytest.raises(ValueError, match="no usable rows"):
            dataio.load_csv(path, SIM, c=1)

    def test_bad_c_rejected(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["a,u1,1"])
        with pytest.raises(ValueError, match="positive"):
            dataio.load_csv(path, SIM, c=0)


class TestSplit:
    def _dataset(self, n):
        samples = tuple(
            Sample(str(i), (f"u{i}",), (), float(i), i) for i in range(n)
        )
        return Dataset(samples, c=1.0)

    def test_80_20_sizes(self):
        train, test = dataio.split(self._dataset(10), 0.8, seed=0)
        assert (len(train), len(test)) == (8, 2)

    def test_floor_rule(self):
        train, test = dataio.split(self._dataset(2), 0.5, seed=0)
        assert (len(train), len(test)) == (1, 1)

    def test_same_seed_same_split(self):
        ds = self._dataset(50)
        a = dataio.split(ds, 0.8, seed=3)
        b = dataio.split(ds, 0.8, seed=3)
        assert [s.id for s in a[0].samples] == [s.id for s in b[0].samples]

    def test_partition(self):
        ds = self._dataset(31)
        train, test = dataio.split(ds, 0.7, seed=1)
        ids = sorted(s.id for s in train.samples) + sorted(s.id for s in test.samples)
        assert sorted(ids) == sorted(s.id for s in ds.samples)
        assert not set(s.id for s in train.samples) & set(s.id for s in test.samples)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            dataio.split(self._dataset(10), 1.2, seed=0)
        with pytest.raises(ValueError):
            dataio.split(self._dataset(1), 0.5, seed=0)


class TestUnscale:
    def test_inverse_of_scaling(self):
        assert dataio.scale_target(3.4, 50) / 50 == pytest.approx(3.4)
        assert dataio.scale_target(0.0, 7) / 7 == 0.0

    def test_round_trip_error_bounded_by_half_step(self):
        rng = np.random.default_rng(0)
        c = 50.0
        for raw in rng.uniform(0, 100, size=500):
            target = dataio.scale_target(raw, c)
            assert abs(target / c - raw) <= 0.5 / c + 1e-12

