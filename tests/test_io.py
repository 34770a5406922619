"""File formats: bit-exact round trips, atomicity, CSV error reporting."""
import json
import os

import numpy as np
import pytest

from koopmetrics import io
from koopmetrics.io import (
    FileFormatError,
    ModelRecord,
    load_model,
    read_trajectory_csv,
    save_model,
    save_report,
    write_trajectory_csv,
)

from conftest import lifted_system, random_diagonalizable


@pytest.fixture
def record(rng):
    k = random_diagonalizable(rng, 4)
    psi = rng.standard_normal((4, 15)) + 1j * rng.standard_normal((4, 15))
    model, phi = lifted_system(k, psi)
    return ModelRecord(
        model=model,
        names=("a", "b", "c", "d"),
        has_constant=False,
        n_primary=4,
        aux_enabled=False,
        theta=None,
        phi0=phi.phi[:, 0].copy(),
        n_steps=15,
    )


class TestModelFile:
    def test_round_trip_bit_exact(self, record, tmp_path):
        path = str(tmp_path / "model.json")
        save_model(record, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.model.K, record.model.K)
        assert np.array_equal(loaded.model.W, record.model.W)
        assert np.array_equal(loaded.model.lambdas, record.model.lambdas)
        assert np.array_equal(loaded.model.scales, record.model.scales)
        assert np.array_equal(loaded.phi0, record.phi0)
        assert loaded.model.dt == record.model.dt
        assert loaded.names == record.names
        assert loaded.n_steps == record.n_steps

    def test_double_round_trip_identical_bytes(self, record, tmp_path):
        p1, p2 = str(tmp_path / "m1.json"), str(tmp_path / "m2.json")
        save_model(record, p1)
        save_model(load_model(p1), p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_schema_version_checked(self, record, tmp_path):
        path = str(tmp_path / "model.json")
        save_model(record, path)
        doc = json.load(open(path))
        doc["schemaVersion"] = 99
        open(path, "w").write(json.dumps(doc))
        with pytest.raises(FileFormatError, match="schema"):
            load_model(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc.pop("K"),
            lambda doc: doc["layout"].pop("names"),
            lambda doc: doc["W"].pop(),
            lambda doc: doc.update(scales=doc["scales"][:-1]),
            lambda doc: doc.update(Lambda=[["x", 0.0]] * 4),
            lambda doc: doc["Lambda"][0].__setitem__(0, float("nan")),
            lambda doc: doc["phi0"][1].__setitem__(1, float("inf")),
        ],
        ids=["no-K", "no-names", "short-W", "short-scales", "text-entry", "nan", "inf"],
    )
    def test_malformed_model_is_a_format_error(self, record, tmp_path, edit):
        path = str(tmp_path / "model.json")
        save_model(record, path)
        doc = json.load(open(path))
        edit(doc)
        open(path, "w").write(json.dumps(doc))
        with pytest.raises(FileFormatError):
            load_model(path)

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
    def test_written_files_follow_umask(self, record, tmp_path, umask, mode):
        previous = os.umask(umask)
        try:
            save_model(record, str(tmp_path / "model.json"))
        finally:
            os.umask(previous)
        assert os.stat(tmp_path / "model.json").st_mode & 0o777 == mode

    def test_no_temp_files_left(self, record, tmp_path):
        save_model(record, str(tmp_path / "model.json"))
        assert sorted(os.listdir(tmp_path)) == ["model.json"]

    def test_implied_trajectory_normalized(self, record):
        phi = record.implied_trajectory()
        assert phi.phi.shape == (4, 15)
        np.testing.assert_allclose(np.max(np.abs(phi.phi), axis=1), 1.0, atol=1e-12)


class TestReportFile:
    def test_rejects_unordered_deviations(self, tmp_path):
        doc = {"deviations": {"dMin": 2.0, "dAvg": 1.0, "dMax": 3.0}}
        with pytest.raises(ValueError, match="unordered"):
            save_report(doc, str(tmp_path / "r.json"))

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "r.json")
        doc = {"deviations": {"dMin": 1.0, "dAvg": 2.0, "dMax": 3.0}, "x": [1, 2]}
        save_report(doc, path)
        assert io.load_report(path)["x"] == [1, 2]


class TestTrajectoryCsv:
    def test_seventeen_digit_round_trip(self, rng, tmp_path):
        path = str(tmp_path / "traj.csv")
        values = rng.standard_normal((3, 9))
        write_trajectory_csv(path, ["u", "v", "w"], values, t=np.arange(9) * 0.125)
        series = read_trajectory_csv(path)
        assert series.names == ("u", "v", "w")
        assert np.array_equal(series.values, values)
        assert series.dt == 0.125

    def test_explicit_dt_without_time_column(self, tmp_path):
        path = str(tmp_path / "traj.csv")
        write_trajectory_csv(path, ["a"], np.array([[1.0, 2.0, 3.0]]))
        with pytest.raises(FileFormatError, match="sampling interval"):
            read_trajectory_csv(path)
        series = read_trajectory_csv(path, dt=0.5)
        assert series.dt == 0.5

    def test_ragged_row_reported_with_position(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        open(path, "w").write("a,b\n1,2\n3\n")
        with pytest.raises(FileFormatError, match="row 3"):
            read_trajectory_csv(path, dt=0.1)

    def test_non_numeric_cell_reported_with_column(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        open(path, "w").write("a,b\n1,2\n3,oops\n")
        with pytest.raises(FileFormatError, match="column 'b'"):
            read_trajectory_csv(path, dt=0.1)

    def test_empty_file_rejected(self, tmp_path):
        path = str(tmp_path / "empty.csv")
        open(path, "w").write("")
        with pytest.raises(FileFormatError, match="empty"):
            read_trajectory_csv(path, dt=0.1)
