"""File formats: bit-exact round trips, atomicity, CSV error reporting."""
import base64
import dataclasses
import json
import os
import tracemalloc

import numpy as np
import pytest

from koopmetrics import io
from koopmetrics.cli import main
from koopmetrics.io import (
    FileFormatError,
    ModelRecord,
    load_model,
    read_trajectory_csv,
    save_model,
    save_report,
    write_trajectory_csv,
)

from koopmetrics.koopman import AuxiliaryConfig, PrimarySeries, decompose
from koopmetrics.linalg import conjugate_basis

from conftest import lifted_system, random_diagonalizable, real_system


def encode_complex_v1(arr):
    """Row-major list of [re, im] pairs."""
    flat = np.asarray(arr, dtype=complex).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in flat]


def save_model_v1(record, path):
    """A schema v1 document of the record's model, laid out as the v1 writer
    wrote it: complex arrays as [re, im] pairs, no training data."""
    m = record.model
    n = m.n_psi
    doc = {
        "schemaVersion": 1,
        "nPsi": n,
        "dt": m.dt,
        "ridge": m.ridge,
        "spectrumKind": "discrete",
        "layout": {
            "names": list(record.series.names),
            "hasConstant": True,
            "nPrimary": record.series.n_primary,
            "aux": False,
            "theta": None,
        },
        "K": encode_complex_v1(m.K),
        "W": encode_complex_v1(m.W),
        "Lambda": encode_complex_v1(m.lambdas),
        "scales": [1.0] * n,
        "eigCondition": m.eig_condition,
        "phi0": encode_complex_v1(m.W[:, 0]),
        "nSteps": record.series.n_steps,
    }
    io.atomic_write_text(path, json.dumps(doc))


def encode_array_whole(arr):
    """A payload encoded in one piece."""
    arr = np.asarray(arr)
    if np.iscomplexobj(arr) and not (np.any(arr.imag) or np.any(np.signbit(arr.imag))):
        arr = arr.real
    data = np.ascontiguousarray(arr, dtype="<c16" if np.iscomplexobj(arr) else "<f8")
    return {"dtype": data.dtype.str, "shape": list(data.shape),
            "data": base64.b64encode(data.tobytes()).decode("ascii")}


def model_file_text(record):
    """The schema v3 document as one json.dumps, the text save_model streams."""
    m, aux = record.model, record.aux
    return json.dumps({
        "schemaVersion": 3,
        "nPsi": m.n_psi,
        "dt": m.dt,
        "ridge": m.ridge,
        "layout": {
            "names": list(record.series.names),
            "theta": list(aux.theta) if aux.enabled else None,
        },
        "eigCondition": m.eig_condition,
        "diagnostics": {"oneStepResidual": record.one_step_residual},
        "K": encode_array_whole(m.K),
        "W": encode_array_whole(m.W),
        "Lambda": encode_array_whole(m.lambdas),
        "primary": encode_array_whole(record.series.values),
    })


def model_file_v2_text(record):
    """A schema v2 document: the v3 arrays without training data, plus scales and phi0."""
    doc = json.loads(model_file_text(record))
    del doc["primary"]
    doc.update(schemaVersion=2, nSteps=record.series.n_steps, spectrumKind="discrete",
               scales=encode_array_whole(np.ones(record.model.n_psi)),
               phi0=encode_array_whole(record.model.W[:, 0]))
    return json.dumps(doc)


def series_for(rng, n_psi, n_steps=15, dt=0.1):
    """A training series that lifts, without auxiliaries, to n_psi rows."""
    return PrimarySeries(
        names=tuple(f"g{i}" for i in range(n_psi - 1)),
        values=rng.standard_normal((n_psi - 1, n_steps)),
        dt=dt,
    )


def real_record(rng, n, n_steps=15):
    """Record of a real K (closed under conjugation) and a real series."""
    model, _ = real_system(rng, n, n_steps)
    return ModelRecord(model=model, series=series_for(rng, n, n_steps),
                       aux=AuxiliaryConfig.disabled(), one_step_residual=0.5)


@pytest.fixture
def record(rng):
    k = random_diagonalizable(rng, 4)
    psi = rng.standard_normal((4, 15)) + 1j * rng.standard_normal((4, 15))
    model, _ = lifted_system(k, psi)
    return ModelRecord(
        model=model,
        series=PrimarySeries(names=("a", "b", "c"), values=rng.standard_normal((3, 15)), dt=0.1),
        aux=AuxiliaryConfig.disabled(),
        one_step_residual=1.25e-7,
    )


@pytest.fixture
def aux_record(rng):
    """A record with auxiliary rows: n_psi = 1 + 2 primary + 6 snapshots."""
    k = random_diagonalizable(rng, 9)
    model = decompose(k, dt=0.25)
    series = PrimarySeries(names=("x", "v"), values=rng.standard_normal((2, 6)), dt=0.25)
    return ModelRecord(model=model, series=series, aux=AuxiliaryConfig((0.5, 2.0)),
                       one_step_residual=3e-9)


@pytest.fixture
def signed_zero_record(record):
    """The record with -0.0 in real and imaginary parts of every complex array."""
    m = record.model
    k, w, lam = m.K.copy(), m.W.copy(), m.lambdas.copy()
    k[0, 0] = complex(-0.0, 0.5)
    k[1, 2] = complex(0.25, -0.0)
    w[3, 1] = complex(-0.0, -0.0)
    lam[2] = complex(lam[2].real, -0.0)
    values = record.series.values.copy()
    values[1, 4] = -0.0
    model = dataclasses.replace(m, K=k, W=w, lambdas=lam)
    series = dataclasses.replace(record.series, values=values)
    return dataclasses.replace(record, model=model, series=series)


def real_k(record):
    """The record with a real K: float64 data in a complex128 array."""
    k = np.array(record.model.K.real, dtype=complex)
    return dataclasses.replace(record, model=dataclasses.replace(record.model, K=k))


def assert_bit_identical(loaded, saved):
    pairs = [
        (loaded.model.K, saved.model.K),
        (loaded.model.W, saved.model.W),
        (loaded.model.lambdas, saved.model.lambdas),
        (loaded.series.values, saved.series.values),
    ]
    for got, want in pairs:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    for field in ("dt", "ridge", "eig_condition"):
        assert getattr(loaded.model, field) == getattr(saved.model, field)
    assert loaded.series.names == saved.series.names
    assert loaded.series.dt == saved.series.dt
    assert loaded.aux == saved.aux
    assert loaded.one_step_residual == saved.one_step_residual


def corrupt(path, edit):
    doc = json.load(open(path))
    edit(doc)
    open(path, "w").write(json.dumps(doc))


def payload(doc, key, dtype, values, shape=None):
    doc[key] = {
        "dtype": dtype,
        "shape": doc[key]["shape"] if shape is None else shape,
        "data": base64.b64encode(np.asarray(values, dtype=dtype).tobytes()).decode(),
    }


V1_EDITS = {
    "intact": lambda doc: None,
    "no-K": lambda doc: doc.pop("K"),
    "no-names": lambda doc: doc["layout"].pop("names"),
    "short-W": lambda doc: doc["W"].pop(),
    "short-scales": lambda doc: doc.update(scales=doc["scales"][:-1]),
    "text-entry": lambda doc: doc.update(Lambda=[["x", 0.0]] * 4),
    "triple-entry": lambda doc: doc["phi0"].__setitem__(2, [1.0, 0.0, 0.0]),
    "nan": lambda doc: doc["Lambda"][0].__setitem__(0, float("nan")),
    "inf": lambda doc: doc["phi0"][1].__setitem__(1, float("inf")),
}

# Edits of the base64 payload format, which schema v3 keeps from v2.
V2_EDITS = {
    "no-K": lambda doc: doc.pop("K"),
    "no-data": lambda doc: doc["W"].pop("data"),
    "list-payload": lambda doc: doc.update(Lambda=[[1.0, 0.0]] * 4),
    "bad-base64": lambda doc: doc["W"].update(data=doc["W"]["data"][:-4] + "!!!!"),
    "unsupported-dtype": lambda doc: payload(doc, "W", "<f4", np.ones(16)),
    "big-endian": lambda doc: payload(doc, "W", ">c16", np.ones(16)),
    "complex-primary": lambda doc: payload(doc, "primary", "<c16", np.ones(45)),
    "byte-count": lambda doc: payload(doc, "Lambda", "<c16", np.ones(3)),
    "shape": lambda doc: doc["K"].update(shape=[4, 3]),
    "nan": lambda doc: payload(doc, "Lambda", "<c16", [1, 2, complex(0, np.nan), 4]),
    "inf-primary": lambda doc: payload(doc, "primary", "<f8", np.full(45, np.inf)),
    "zero-nPsi": lambda doc: doc.update(nPsi=0),
    "singular-W": lambda doc: payload(doc, "W", "<c16", np.zeros(16)),
    "subnormal-W": lambda doc: payload(doc, "W", "<c16", 1e-310 * np.eye(4).ravel()),
}

# Schema v3 files whose training data does not lift to nPsi rows.
LAYOUT_EDITS = {
    "primary-rows": lambda doc: payload(doc, "primary", "<f8", np.ones(30), shape=[2, 15]),
    "primary-1d": lambda doc: payload(doc, "primary", "<f8", np.ones(45), shape=[45]),
    "one-snapshot": lambda doc: payload(doc, "primary", "<f8", np.ones(3), shape=[3, 1]),
    "names": lambda doc: doc["layout"].update(names=["a", "b"]),
    "theta-length": lambda doc: doc["layout"].update(theta=[1.0, 1.0]),
    "theta-sign": lambda doc: doc["layout"].update(theta=[1.0, -1.0, 1.0]),
    "no-primary": lambda doc: doc.pop("primary"),
    "no-theta": lambda doc: doc["layout"].pop("theta"),
}


def assert_rejected(path, tmp_path, capsys) -> str:
    """load_model raises FileFormatError; compare exits 2 with a one-line message, returned."""
    with pytest.raises(FileFormatError):
        load_model(path)
    code = main(["compare", "--model-a", path, "--model-b", path,
                 "--output", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    return err


class TestModelFile:
    def test_round_trip_bit_exact(self, record, tmp_path):
        path = str(tmp_path / "model.json")
        save_model(record, path)
        assert_bit_identical(load_model(path), record)
        doc = json.load(open(path))
        assert doc["schemaVersion"] == 3
        assert [doc[key]["dtype"] for key in ("K", "W", "Lambda", "primary")] == [
            "<c16", "<c16", "<c16", "<f8"
        ]
        assert doc["W"]["shape"] == [4, 4] and doc["primary"]["shape"] == [3, 15]
        assert doc["layout"] == {"names": ["a", "b", "c"], "theta": None}

    def test_aux_record_round_trip(self, aux_record, tmp_path):
        path = str(tmp_path / "model.json")
        save_model(aux_record, path)
        loaded = load_model(path)
        assert_bit_identical(loaded, aux_record)
        assert loaded.aux == AuxiliaryConfig((0.5, 2.0))
        assert json.load(open(path))["layout"]["theta"] == [0.5, 2.0]

    def test_real_k_stored_as_f8(self, record, tmp_path):
        record = real_k(record)
        path = str(tmp_path / "model.json")
        save_model(record, path)
        assert_bit_identical(load_model(path), record)
        doc = json.load(open(path))
        assert doc["K"]["dtype"] == "<f8"
        assert len(base64.b64decode(doc["K"]["data"])) == 16 * 8

    def test_signed_zeros_round_trip(self, signed_zero_record, tmp_path):
        path = str(tmp_path / "model.json")
        save_model(signed_zero_record, path)
        assert_bit_identical(load_model(path), signed_zero_record)
        # K holds a -0.0 imaginary part, so storing it as <f8 would lose a bit.
        assert json.load(open(path))["K"]["dtype"] == "<c16"

    def test_double_round_trip_identical_bytes(self, record, tmp_path):
        for rec in (record, real_k(record)):
            p1, p2, p3 = (str(tmp_path / f"m{i}.json") for i in (1, 2, 3))
            save_model(rec, p1)
            save_model(load_model(p1), p2)
            save_model(load_model(p2), p3)
            assert open(p1, "rb").read() == open(p2, "rb").read() == open(p3, "rb").read()

    @pytest.mark.parametrize("version", [1, 2])
    def test_older_schema_is_rejected_with_one_line(self, record, tmp_path, capsys, version):
        path = str(tmp_path / "old.json")
        if version == 1:
            save_model_v1(record, path)
        else:
            io.atomic_write_text(path, model_file_v2_text(record))
        err = assert_rejected(path, tmp_path, capsys)
        assert f"model schema {version} unsupported" in err and "re-run identify" in err

    def test_diagnostics_and_unknown_keys(self, record, tmp_path):
        path = str(tmp_path / "model.json")
        save_model(record, path)
        doc = json.load(open(path))
        assert doc["diagnostics"] == {"oneStepResidual": 1.25e-7}
        doc["stageSeconds"] = {"identify": 1.0}
        doc["diagnostics"]["eigResidual"] = 3e-15
        open(path, "w").write(json.dumps(doc))
        assert load_model(path).one_step_residual == 1.25e-7

    def test_schema_version_checked(self, record, tmp_path):
        path = str(tmp_path / "model.json")
        save_model(record, path)
        corrupt(path, lambda doc: doc.update(schemaVersion=99))
        with pytest.raises(FileFormatError, match="schema"):
            load_model(path)

    def test_right_eigenvectors_from_one_inverse(self, record, tmp_path):
        path = str(tmp_path / "model.json")
        save_model(record, path)
        assert "R" not in json.load(open(path))
        model = load_model(path).model
        np.testing.assert_array_equal(model.R, np.linalg.inv(model.W))

    @pytest.mark.parametrize(
        "w, message",
        [(np.zeros(16), "singular"), (1e-310 * np.eye(4).ravel(), "non-finite")],
        ids=["singular", "subnormal"],
    )
    def test_uninvertible_w_is_a_format_error(self, record, tmp_path, w, message):
        path = str(tmp_path / "model.json")
        save_model(record, path)
        corrupt(path, lambda doc: payload(doc, "W", "<c16", w))
        with pytest.raises(FileFormatError, match=f"W: .*{message}"):
            load_model(path)

    @pytest.mark.parametrize("edit", V1_EDITS.values(), ids=V1_EDITS.keys())
    def test_malformed_model_is_a_format_error(self, record, tmp_path, capsys, edit):
        # A v1 file, intact or malformed, is rejected by its schema number.
        path = str(tmp_path / "model.json")
        save_model_v1(record, path)
        corrupt(path, edit)
        assert "model schema 1 unsupported" in assert_rejected(path, tmp_path, capsys)

    @pytest.mark.parametrize("edit", V2_EDITS.values(), ids=V2_EDITS.keys())
    def test_malformed_v2_model_is_a_format_error(self, record, tmp_path, capsys, edit):
        path = str(tmp_path / "model.json")
        save_model(record, path)
        corrupt(path, edit)
        assert_rejected(path, tmp_path, capsys)

    @pytest.mark.parametrize("edit", LAYOUT_EDITS.values(), ids=LAYOUT_EDITS.keys())
    def test_layout_that_does_not_lift_to_npsi_is_a_format_error(
        self, record, tmp_path, capsys, edit
    ):
        # The record lifts its 3 primary rows to nPsi = 4; with aux, 1 + 3 + 15 = 19.
        path = str(tmp_path / "model.json")
        save_model(record, path)
        corrupt(path, edit)
        assert "malformed" in assert_rejected(path, tmp_path, capsys)

    def test_aux_layout_must_match_npsi(self, aux_record, tmp_path, capsys):
        path = str(tmp_path / "model.json")
        save_model(aux_record, path)
        corrupt(path, lambda doc: doc["layout"].update(theta=None))
        assert "nPsi 9 != 1 constant + 2 primary + 0 auxiliary" in assert_rejected(
            path, tmp_path, capsys
        )

    def test_encode_complex_matches_pair_lists(self, record):
        for arr in (record.model.W, real_k(record).model.K, record.model.lambdas):
            assert json.dumps(io.encode_complex(arr)) == json.dumps(encode_complex_v1(arr))

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

    def test_implied_trajectory_of_a_real_model_is_closed(self):
        # The re-lifted Psi is real, so Phi's paired rows are exact conjugates
        # and its rows of real eigenvalues are real.
        record = real_record(np.random.default_rng(3), 9, n_steps=150)
        lam = record.model.lambdas
        phi = record.implied_trajectory()
        basis = conjugate_basis(lam, record.model.W, phi.phi)
        assert basis.is_real and basis.pairs.size
        np.testing.assert_array_equal(phi.phi[basis.pairs + 1], phi.phi[basis.pairs].conj())
        assert not np.any(phi.phi[basis.lone].imag)
        psi = np.vstack([np.ones((1, 150)), record.series.values])
        want = record.model.W @ psi * phi.scales[:, None]
        assert np.abs(phi.phi - want).max() <= 9 * 10 * np.finfo(float).eps * np.abs(want).max()

    @pytest.mark.parametrize("kind", ["complex", "real"])
    def test_file_is_one_json_dumps(self, record, tmp_path, kind):
        record = real_record(np.random.default_rng(4), 6) if kind == "real" else record
        path = tmp_path / "model.json"
        save_model(record, str(path))
        assert path.read_bytes() == model_file_text(record).encode("ascii")
        if kind == "real":
            assert json.load(open(path))["K"]["dtype"] == "<f8"

    def test_save_holds_less_than_one_encoded_payload(self, rng, tmp_path):
        # W of n = 200 is 640 kB, 853 kB encoded; save_model streams it in
        # chunks of io.PAYLOAD_CHUNK_BYTES instead of holding the document,
        # and the chunks' encodings join to the payload's.
        n = 200
        model = decompose(rng.standard_normal((n, n)), dt=0.1)
        rec = ModelRecord(model=model, series=series_for(rng, n, 5),
                          aux=AuxiliaryConfig.disabled(), one_step_residual=0.5)
        encoded_w = len(encode_array_whole(model.W)["data"])
        assert io.PAYLOAD_CHUNK_BYTES < model.W.nbytes
        tracemalloc.start()
        try:
            save_model(rec, str(tmp_path / "model.json"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < encoded_w
        assert (tmp_path / "model.json").read_bytes() == model_file_text(rec).encode("ascii")

    def test_record_must_lift_to_its_model(self, record, aux_record):
        series = PrimarySeries(("a", "b"), record.series.values[:2], 0.1)
        with pytest.raises(ValueError, match="nPsi 4 != 1 constant \\+ 2 primary"):
            dataclasses.replace(record, series=series)
        with pytest.raises(ValueError, match="theta values"):
            dataclasses.replace(aux_record, aux=AuxiliaryConfig((1.0,)))
        with pytest.raises(ValueError, match="dt"):
            dataclasses.replace(record, series=dataclasses.replace(record.series, dt=0.2))


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

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_cell_reported_with_position(self, tmp_path, cell):
        path = str(tmp_path / "bad.csv")
        open(path, "w").write(f"t,a,b\n0,1,2\n0.1,3,{cell}\n0.2,5,6\n")
        with pytest.raises(FileFormatError, match="row 3, column 'b': non-finite"):
            read_trajectory_csv(path)

    def test_non_uniform_time_column_rejected(self, tmp_path):
        path = str(tmp_path / "jitter.csv")
        write_trajectory_csv(path, ["a"], np.ones((1, 4)), t=np.array([0, 0.1, 0.5, 0.6]))
        with pytest.raises(FileFormatError, match="not uniformly sampled"):
            read_trajectory_csv(path)
        # One step off by a few ulps of max|t| is jitter too, however small.
        t = np.arange(50) * 0.002
        t[20] += 16 * np.spacing(t[-1])
        write_trajectory_csv(path, ["a"], np.ones((1, 50)), t=t)
        with pytest.raises(FileFormatError, match="not uniformly sampled"):
            read_trajectory_csv(path)

    @pytest.mark.parametrize("dt, start, n", [(0.002, 0.0, 3501), (0.1, 0.0, 10),
                                              (1e-5, 250.0, 2000), (3.7, -40.0, 25)])
    def test_uniform_time_columns_accepted(self, tmp_path, dt, start, n):
        path = str(tmp_path / "traj.csv")
        write_trajectory_csv(path, ["a"], np.ones((1, n)), t=start + np.arange(n) * dt)
        assert read_trajectory_csv(path).dt == pytest.approx(dt, rel=1e-9)

    def test_empty_file_rejected(self, tmp_path):
        path = str(tmp_path / "empty.csv")
        open(path, "w").write("")
        with pytest.raises(FileFormatError, match="empty"):
            read_trajectory_csv(path, dt=0.1)
