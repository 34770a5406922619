"""File formats: bit-exact round trips, hostile model archives, atomicity, CSV errors."""
import base64
import dataclasses
import json
import os
import tracemalloc
import zipfile
from io import BytesIO

import numpy as np
import pytest

from koopmetrics import io
from koopmetrics.cli import main
from koopmetrics.io import (
    REPORT_SCHEMA_VERSION,
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


def operator(m):
    """The K = R Lambda W a model represents, which older schemas stored."""
    return (m.R * m.lambdas) @ m.W


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
        "K": encode_complex_v1(operator(m)),
        "W": encode_complex_v1(m.W),
        "Lambda": encode_complex_v1(m.lambdas),
        "scales": [1.0] * n,
        "eigCondition": m.condition_number,
        "phi0": encode_complex_v1(m.W[:, 0]),
        "nSteps": record.series.n_steps,
    }
    io.atomic_write_text(path, json.dumps(doc))


def encode_array_whole(arr):
    """A schema v2/v3 array payload: base64 of the little-endian bytes."""
    arr = np.asarray(arr)
    if np.iscomplexobj(arr) and not (np.any(arr.imag) or np.any(np.signbit(arr.imag))):
        arr = arr.real
    data = np.ascontiguousarray(arr, dtype="<c16" if np.iscomplexobj(arr) else "<f8")
    return {"dtype": data.dtype.str, "shape": list(data.shape),
            "data": base64.b64encode(data.tobytes()).decode("ascii")}


def model_header(record):
    """The schema v5 header object of a record."""
    m, aux = record.model, record.aux
    return {
        "schemaVersion": 5,
        "nPsi": m.n_psi,
        "dt": m.dt,
        "ridge": m.ridge,
        "layout": {
            "names": list(record.series.names),
            "theta": None if aux is None else list(aux.theta),
        },
        "eigCondition": m.condition_number,
        "diagnostics": {"oneStepResidual": record.one_step_residual},
    }


def model_file_v3_text(record):
    """A schema v3 document, as the v3 writer wrote it: the v4 header and arrays as
    base64 payloads in one JSON object."""
    m = record.model
    doc = dict(model_header(record), schemaVersion=3)
    for key, arr in (("K", operator(m)), ("W", m.W), ("Lambda", m.lambdas),
                     ("primary", record.series.values)):
        doc[key] = encode_array_whole(arr)
    return json.dumps(doc)


def model_file_v2_text(record):
    """A schema v2 document: the v3 arrays without training data, plus scales and phi0."""
    doc = json.loads(model_file_v3_text(record))
    del doc["primary"]
    doc.update(schemaVersion=2, nSteps=record.series.n_steps, spectrumKind="discrete",
               scales=encode_array_whole(np.ones(record.model.n_psi)),
               phi0=encode_array_whole(record.model.W[:, 0]))
    return json.dumps(doc)


def save_model_v4(record, path):
    """A schema v4 archive, as the v4 writer wrote it: K and the complex W."""
    m = record.model
    np.savez(path, header=json.dumps(dict(model_header(record), schemaVersion=4)),
             K=operator(m), W=m.W, Lambda=m.lambdas, primary=record.series.values)


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
                       aux=None, one_step_residual=0.5)


@pytest.fixture
def record(rng):
    k = random_diagonalizable(rng, 4)
    psi = rng.standard_normal((4, 15)) + 1j * rng.standard_normal((4, 15))
    model, _ = lifted_system(k, psi)
    return ModelRecord(
        model=model,
        series=PrimarySeries(names=("a", "b", "c"), values=rng.standard_normal((3, 15)), dt=0.1),
        aux=None,
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
    w, lam = m.W_b.copy(), m.lambdas.copy()
    w[0, 0] = complex(-0.0, 0.5)
    w[1, 2] = complex(0.25, -0.0)
    w[3, 1] = complex(-0.0, -0.0)
    lam[2] = complex(lam[2].real, -0.0)
    values = record.series.values.copy()
    values[1, 4] = -0.0
    model = dataclasses.replace(m, W_b=w, R_b=None, lambdas=lam)
    series = dataclasses.replace(record.series, values=values)
    return dataclasses.replace(record, model=model, series=series)


def assert_bit_identical(loaded, saved):
    basis, want = loaded.model.basis, saved.model.basis
    assert basis.is_real == want.is_real
    if basis.is_real:
        np.testing.assert_array_equal(basis.pairs, want.pairs)
        np.testing.assert_array_equal(basis.lone, want.lone)
    pairs = [
        (loaded.model.W_b, saved.model.W_b),
        (loaded.model.lambdas, saved.model.lambdas),
        (loaded.series.values, saved.series.values),
    ]
    for got, want in pairs:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    for field in ("dt", "ridge", "condition_number"):
        assert getattr(loaded.model, field) == getattr(saved.model, field)
    assert loaded.series.names == saved.series.names
    assert loaded.series.dt == saved.series.dt
    assert loaded.aux == saved.aux
    assert loaded.one_step_residual == saved.one_step_residual


def read_members(path):
    """The archive's members by name, the header parsed."""
    with np.load(path) as archive:
        doc = {key: archive[key] for key in archive.files}
    doc["header"] = json.loads(doc["header"].item())
    return doc


def npy_bytes(value):
    """A member's content as np.savez writes it."""
    buf = BytesIO()
    np.lib.format.write_array(buf, np.asanyarray(value), allow_pickle=True)
    return buf.getvalue()


def lying_npy(dtype, shape):
    """An npy header declaring ``shape``, followed by 64 bytes of data."""
    buf = BytesIO()
    np.lib.format.write_array_header_1_0(
        buf, {"descr": dtype, "fortran_order": False, "shape": shape}
    )
    return buf.getvalue() + bytes(64)


def write_members(path, doc):
    """An archive of the members in order; a bytes value is the member's raw content."""
    with zipfile.ZipFile(path, "w") as archive:
        for key, value in doc.items():
            if isinstance(value, dict):
                value = json.dumps(value)
            archive.writestr(f"{key}.npy", value if isinstance(value, bytes) else npy_bytes(value))


def corrupt(path, edit):
    doc = read_members(path)
    edit(doc)
    write_members(path, doc)


def corrupt_json(path, edit):
    doc = json.load(open(path))
    edit(doc)
    open(path, "w").write(json.dumps(doc))


def layout(doc, **fields):
    doc["header"]["layout"].update(fields)


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

# Edits of the array members and the header. The ids of the cases that
# schema v2 introduced for its typed array payloads are kept.
V2_EDITS = {
    "no-W": lambda doc: doc.pop("W"),
    "no-header": lambda doc: doc.pop("header"),
    "no-data": lambda doc: doc.update(W=npy_bytes(doc["W"])[:128]),
    "list-payload": lambda doc: doc.update(Lambda=np.array([1.0, 0.0, "x", None], dtype=object)),
    "not-npy": lambda doc: doc.update(W=b"not an npy member"),
    "unsupported-dtype": lambda doc: doc.update(W=np.eye(4, dtype="<f4")),
    "int-dtype": lambda doc: doc.update(W=np.eye(4, dtype="<i8")),
    "big-endian": lambda doc: doc.update(W=doc["W"].astype(">c16")),
    "complex-primary": lambda doc: doc.update(primary=doc["primary"].astype("<c16")),
    "byte-count": lambda doc: doc.update(Lambda=npy_bytes(doc["Lambda"])[:-16]),
    "shape": lambda doc: doc.update(W=doc["W"][:, :3]),
    "lying-shape": lambda doc: doc.update(W=lying_npy("<c16", (10**6, 10**6))),
    "lying-primary": lambda doc: doc.update(primary=lying_npy("<f8", (10**6, 10**6))),
    "nan": lambda doc: doc.update(Lambda=np.array([1, 2, complex(0, np.nan), 4])),
    "inf-primary": lambda doc: doc.update(primary=np.full((3, 15), np.inf)),
    "zero-nPsi": lambda doc: doc["header"].update(nPsi=0),
    "singular-W": lambda doc: doc.update(W=np.zeros((4, 4), dtype=complex)),
    "subnormal-W": lambda doc: doc.update(W=1e-310 * np.eye(4, dtype=complex)),
    "header-not-json": lambda doc: doc.update(header=np.array("{schemaVersion: 4")),
    "header-list": lambda doc: doc.update(header=np.array("[4]")),
    "header-not-str": lambda doc: doc.update(header=np.array(4.0)),
}

# Schema v5 files whose training data does not lift to nPsi rows.
LAYOUT_EDITS = {
    "primary-rows": lambda doc: doc.update(primary=np.ones((2, 15))),
    "primary-1d": lambda doc: doc.update(primary=np.ones(45)),
    "one-snapshot": lambda doc: doc.update(primary=np.ones((3, 1))),
    "names": lambda doc: layout(doc, names=["a", "b"]),
    "theta-length": lambda doc: layout(doc, theta=[1.0, 1.0]),
    "theta-sign": lambda doc: layout(doc, theta=[1.0, -1.0, 1.0]),
    "no-primary": lambda doc: doc.pop("primary"),
    "no-theta": lambda doc: doc["header"]["layout"].pop("theta"),
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
        path = str(tmp_path / "model.npz")
        save_model(record, path)
        assert_bit_identical(load_model(path), record)
        with np.load(path) as archive:
            assert archive.files == ["header", "W", "Lambda", "primary"]
            assert [archive[key].dtype.str for key in archive.files[1:]] == [
                "<c16", "<c16", "<f8"
            ]
            assert archive["W"].shape == (4, 4) and archive["primary"].shape == (3, 15)
        header = read_members(path)["header"]
        assert header == model_header(record)
        assert header["layout"] == {"names": ["a", "b", "c"], "theta": None}

    def test_aux_record_round_trip(self, aux_record, tmp_path):
        path = str(tmp_path / "model.npz")
        save_model(aux_record, path)
        loaded = load_model(path)
        assert_bit_identical(loaded, aux_record)
        assert loaded.aux == AuxiliaryConfig((0.5, 2.0))
        assert read_members(path)["header"]["layout"]["theta"] == [0.5, 2.0]

    def test_real_model_stored_as_f8(self, tmp_path):
        # A real model's W_b is W_re, stored as it is held; the loaded model
        # works out the real basis from Lambda and inverts W_re for R_re.
        record = real_record(np.random.default_rng(5), 6)
        assert record.model.basis.is_real and record.model.basis.pairs.size
        path = str(tmp_path / "model.npz")
        save_model(record, path)
        # assert_bit_identical checks the dtype: a float64 W_b loads as float64.
        loaded = load_model(path)
        assert_bit_identical(loaded, record)
        np.testing.assert_array_equal(loaded.model.R_b, np.linalg.inv(record.model.W_b))
        with zipfile.ZipFile(path) as archive:
            assert archive.namelist() == ["header.npy", "W.npy", "Lambda.npy", "primary.npy"]
            assert archive.getinfo("W.npy").file_size == 128 + 36 * 8
        assert read_members(path)["W"].dtype.str == "<f8"

    def test_f8_lambda_loads_complex(self, tmp_path):
        rng = np.random.default_rng(11)
        s = rng.standard_normal((5, 5)) + 5 * np.eye(5)
        k = s @ np.diag([0.9, 0.5, 0.1, -0.3, -0.7]) @ np.linalg.inv(s)
        record = ModelRecord(model=decompose(k, dt=0.1), series=series_for(rng, 5),
                             aux=None, one_step_residual=0.5)
        path = str(tmp_path / "model.npz")
        save_model(record, path)
        corrupt(path, lambda doc: doc.update(Lambda=doc["Lambda"].real.copy()))
        assert read_members(path)["Lambda"].dtype.str == "<f8"
        loaded = load_model(path)
        assert loaded.model.lambdas.dtype == np.complex128
        assert loaded.model.lambdas.tobytes() == record.model.lambdas.tobytes()
        assert loaded.model.basis.is_real and loaded.model.basis.lone.size == 5

    def test_signed_zeros_round_trip(self, signed_zero_record, tmp_path):
        path = str(tmp_path / "model.npz")
        save_model(signed_zero_record, path)
        assert_bit_identical(load_model(path), signed_zero_record)
        assert read_members(path)["W"].dtype.str == "<c16"

    def test_double_round_trip_identical_bytes(self, record, tmp_path):
        for rec in (record, real_record(np.random.default_rng(6), 6)):
            p1, p2, p3 = (str(tmp_path / f"m{i}.npz") for i in (1, 2, 3))
            save_model(rec, p1)
            save_model(load_model(p1), p2)
            save_model(load_model(p2), p3)
            assert open(p1, "rb").read() == open(p2, "rb").read() == open(p3, "rb").read()

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_older_schema_is_rejected_with_one_line(self, record, tmp_path, capsys, version):
        path = str(tmp_path / "old.json")
        if version == 1:
            save_model_v1(record, path)
        else:
            writer = model_file_v2_text if version == 2 else model_file_v3_text
            io.atomic_write_text(path, writer(record))
        err = assert_rejected(path, tmp_path, capsys)
        assert "not a model archive" in err and "re-run identify" in err

    def test_v4_archive_is_rejected_with_one_line(self, record, tmp_path, capsys):
        path = str(tmp_path / "model.npz")
        save_model_v4(record, path)
        err = assert_rejected(path, tmp_path, capsys)
        assert "model schema 4 unsupported" in err and "re-run identify" in err

    def test_f8_w_needs_a_spectrum_closed_under_conjugation(self, tmp_path, capsys):
        record = real_record(np.random.default_rng(7), 6)
        path = str(tmp_path / "model.npz")
        save_model(record, path)
        j = record.model.basis.pairs[0]
        corrupt(path, lambda doc: doc["Lambda"].__setitem__(j + 1, doc["Lambda"][j]))
        assert "not closed under conjugation" in assert_rejected(path, tmp_path, capsys)

    @pytest.mark.parametrize("content", [b"", b"PK\x03\x04 truncated", "npy"],
                             ids=["empty", "zip-magic", "bare-npy"])
    def test_non_archive_is_rejected_with_one_line(self, record, tmp_path, capsys, content):
        path = tmp_path / "model.npz"
        path.write_bytes(npy_bytes(record.model.W) if content == "npy" else content)
        assert "not a model archive" in assert_rejected(str(path), tmp_path, capsys)

    def test_diagnostics_and_unknown_keys(self, record, tmp_path):
        path = str(tmp_path / "model.npz")
        save_model(record, path)
        doc = read_members(path)
        assert doc["header"]["diagnostics"] == {"oneStepResidual": 1.25e-7}
        doc["header"]["stageSeconds"] = {"identify": 1.0}
        doc["header"]["diagnostics"]["eigResidual"] = 3e-15
        doc["extra"] = np.ones(3)
        write_members(path, doc)
        assert load_model(path).one_step_residual == 1.25e-7

    def test_schema_version_checked(self, record, tmp_path, capsys):
        path = str(tmp_path / "model.npz")
        save_model(record, path)
        corrupt(path, lambda doc: doc["header"].update(schemaVersion=99))
        err = assert_rejected(path, tmp_path, capsys)
        assert "model schema 99 unsupported" in err and "re-run identify" in err

    def test_right_eigenvectors_from_one_inverse(self, record, tmp_path):
        path = str(tmp_path / "model.npz")
        save_model(record, path)
        assert "R" not in read_members(path)
        model = load_model(path).model
        np.testing.assert_array_equal(model.R, np.linalg.inv(model.W))

    @pytest.mark.parametrize(
        "w, message",
        [(np.zeros((4, 4)), "singular"), (1e-310 * np.eye(4), "non-finite")],
        ids=["singular", "subnormal"],
    )
    def test_uninvertible_w_is_a_format_error(self, record, tmp_path, w, message):
        path = str(tmp_path / "model.npz")
        save_model(record, path)
        corrupt(path, lambda doc: doc.update(W=w.astype(complex)))
        with pytest.raises(FileFormatError, match=f"W: .*{message}"):
            load_model(path)

    @pytest.mark.parametrize("edit", V1_EDITS.values(), ids=V1_EDITS.keys())
    def test_malformed_model_is_a_format_error(self, record, tmp_path, capsys, edit):
        # A v1 file, intact or malformed, is JSON and so not a model archive.
        path = str(tmp_path / "model.json")
        save_model_v1(record, path)
        corrupt_json(path, edit)
        assert "re-run identify" in assert_rejected(path, tmp_path, capsys)

    @pytest.mark.parametrize("edit", V2_EDITS.values(), ids=V2_EDITS.keys())
    def test_malformed_v2_model_is_a_format_error(self, record, tmp_path, capsys, edit):
        path = str(tmp_path / "model.npz")
        save_model(record, path)
        corrupt(path, edit)
        assert "malformed" in assert_rejected(path, tmp_path, capsys)

    def test_member_that_fails_its_crc_is_a_format_error(self, record, tmp_path, capsys):
        path = tmp_path / "model.npz"
        save_model(record, str(path))
        data = bytearray(path.read_bytes())
        member = npy_bytes(record.model.W)
        data[data.index(member) + len(member) - 1] ^= 1
        path.write_bytes(bytes(data))
        assert "W: Bad CRC-32" in assert_rejected(str(path), tmp_path, capsys)

    @pytest.mark.parametrize("edit", LAYOUT_EDITS.values(), ids=LAYOUT_EDITS.keys())
    def test_layout_that_does_not_lift_to_npsi_is_a_format_error(
        self, record, tmp_path, capsys, edit
    ):
        # The record lifts its 3 primary rows to nPsi = 4; with aux, 1 + 3 + 15 = 19.
        path = str(tmp_path / "model.npz")
        save_model(record, path)
        corrupt(path, edit)
        assert "malformed" in assert_rejected(path, tmp_path, capsys)

    def test_aux_layout_must_match_npsi(self, aux_record, tmp_path, capsys):
        path = str(tmp_path / "model.npz")
        save_model(aux_record, path)
        corrupt(path, lambda doc: layout(doc, theta=None))
        assert "nPsi 9 != 1 constant + 2 primary + 0 auxiliary" in assert_rejected(
            path, tmp_path, capsys
        )

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
    def test_written_files_follow_umask(self, record, tmp_path, umask, mode):
        previous = os.umask(umask)
        try:
            save_model(record, str(tmp_path / "model.json"))
        finally:
            os.umask(previous)
        assert os.stat(tmp_path / "model.json").st_mode & 0o777 == mode

    def test_no_temp_files_left(self, record, tmp_path):
        # np.savez would append ".npz" to a path; save_model writes the path given.
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
        basis = record.model.basis
        assert basis.is_real and basis.pairs.size
        assert conjugate_basis(lam, phi.phi, phi.scales).is_real
        np.testing.assert_array_equal(phi.phi[basis.pairs + 1], phi.phi[basis.pairs].conj())
        assert not np.any(phi.phi[basis.lone].imag)
        psi = np.vstack([np.ones((1, 150)), record.series.values])
        want = record.model.W @ psi * phi.scales[:, None]
        assert np.abs(phi.phi - want).max() <= 9 * 10 * np.finfo(float).eps * np.abs(want).max()

    @pytest.mark.parametrize("kind", ["complex", "real"])
    def test_file_is_one_savez(self, record, tmp_path, kind):
        record = real_record(np.random.default_rng(4), 6) if kind == "real" else record
        path = tmp_path / "model.npz"
        save_model(record, str(path))
        m = record.model
        want = BytesIO()
        np.savez(want, header=json.dumps(model_header(record)), W=m.W_b,
                 Lambda=m.lambdas, primary=record.series.values)
        assert path.read_bytes() == want.getvalue()
        assert read_members(path)["W"].dtype.str == ("<f8" if kind == "real" else "<c16")

    def test_load_holds_the_archive_once(self, rng, tmp_path):
        # Members are read into their arrays in chunks of at most 256 kB, so
        # the peak is one archive's worth of arrays plus forming R_b = W_b^-1.
        n = 200
        model = decompose(rng.standard_normal((n, n)), dt=0.1)
        rec = ModelRecord(model=model, series=series_for(rng, n, 5),
                          aux=None, one_step_residual=0.5)
        path = str(tmp_path / "model.npz")
        save_model(rec, path)

        def traced_peak(call):
            tracemalloc.start()
            try:
                result = call()
                return result, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        loaded, peak = traced_peak(lambda: load_model(path))
        m = loaded.model
        _, r_peak = traced_peak(lambda: dataclasses.replace(m, R_b=None))
        assert peak < os.path.getsize(path) + r_peak + (1 << 18)

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

    def test_rejects_d_avg_one_ulp_above_d_max(self, tmp_path):
        # pareto_deviations clamps d_avg into [d_min, d_max]: the order is exact.
        doc = {"deviations": {"dMin": 1.0, "dAvg": float(np.nextafter(1.5, np.inf)), "dMax": 1.5}}
        with pytest.raises(ValueError, match="unordered"):
            save_report(doc, str(tmp_path / "r.json"))
        assert not (tmp_path / "r.json").exists()

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "r.json")
        doc = {"deviations": {"dMin": 1.0, "dAvg": 2.0, "dMax": 3.0}, "x": [1, 2]}
        save_report(doc, path)
        with open(path, encoding="utf-8") as handle:
            assert json.load(handle) == {**doc, "schemaVersion": REPORT_SCHEMA_VERSION}


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
