"""File formats: JSON model/report files and CSV trajectories.

All writes are atomic (temp file in the target directory, then rename), so a
crashed run never leaves a truncated artifact. A model file is streamed:
the header, then one array payload at a time, base64-encoded in chunks.

Model files (schema v3) are a JSON header of scalars and layout plus four
arrays, ``K``, ``W``, ``Lambda`` and ``primary``, each stored as
``{"dtype", "shape", "data"}``: ``data`` is the base64 of the array's
little-endian C-order bytes and ``dtype`` is ``<c16`` (complex128) or
``<f8`` (float64). A real array, such as the K identified from real data,
and a complex array whose imaginary parts are all +0.0 are stored as
``<f8``. ``primary`` is the training series identify fitted, one row per
named observable (``layout.names``) and one column per snapshot, always
``<f8``; ``layout.theta`` holds the correlation widths, or null without
auxiliary observables. Loading returns complex128 (float64 for
``primary``) arrays bit for bit, and the header's floats go through JSON's
shortest round-trip repr, which is exact too. The header's
``diagnostics`` object holds identification health numbers
(``oneStepResidual``). R = W^-1 is not stored: loading inverts W once (in
real arithmetic when W is closed under conjugation, see
``KoopmanModel``), and a W whose inverse fails or is not finite makes the
file malformed, as does a layout that does not lift to ``nPsi`` rows.
Schema v1 and v2 files store no training data and are rejected; every
malformed file raises FileFormatError.

The stored series and theta rebuild the training observables Psi bit for
bit through ``build_observables``, so the eigenfunction trajectory of a
saved model is computed as the library computes it, Phi = W Psi.
"""
from __future__ import annotations

import base64
import binascii
import csv
import hashlib
import json
import math
import os
import secrets
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .koopman import (
    AuxiliaryConfig,
    EigenfunctionTrajectory,
    KoopmanModel,
    PrimarySeries,
    build_observables,
    eigenfunction_trajectories,
)

MODEL_SCHEMA_VERSION = 3
REPORT_SCHEMA_VERSION = 1

# Array payload dtypes: explicit little-endian, so files do not depend on
# the byte order of the machine that wrote them.
PAYLOAD_DTYPES = ("<f8", "<c16")

# Raw bytes base64-encoded per write by save_model: a multiple of 3, so the
# chunks' encodings concatenate to the encoding of the whole payload.
PAYLOAD_CHUNK_BYTES = 3 << 16

# Each step of a uniform time column read back from text carries the rounding
# of its two end points and of the subtraction, up to about 1.5 eps max|t|
# (the mean step adds less); 4 covers that with room and still rejects any
# jitter larger than a few ulps.
UNIFORM_STEP_ULPS = 4.0


class FileFormatError(ValueError):
    """A file exists but does not parse as the expected format."""


@dataclass(frozen=True)
class ModelRecord:
    """A saved model plus the training data it was identified from.

    ``series`` and ``aux`` are what identify lifted: ``build_observables``
    of them gives the model's observables, one constant row, the primary
    rows and, with ``aux`` enabled, one auxiliary row per snapshot. A record
    whose layout does not give ``model.n_psi`` rows, or whose series and
    model disagree on dt, is a ValueError. ``one_step_residual`` is
    identify's relative one-step fit residual ||Psi' - K Psi||_F / ||Psi'||_F.
    """

    model: KoopmanModel
    series: PrimarySeries
    aux: AuxiliaryConfig
    one_step_residual: float

    def __post_init__(self):
        n_primary, n_steps = self.series.values.shape
        if self.aux.enabled and len(self.aux.theta) != n_primary:
            raise ValueError(f"{len(self.aux.theta)} theta values for {n_primary} primary rows")
        n_aux = n_steps if self.aux.enabled else 0
        if self.model.n_psi != 1 + n_primary + n_aux:
            raise ValueError(
                f"nPsi {self.model.n_psi} != 1 constant + {n_primary} primary "
                f"+ {n_aux} auxiliary rows"
            )
        if self.model.dt != self.series.dt:
            raise ValueError(f"model dt {self.model.dt} != series dt {self.series.dt}")

    def implied_trajectory(self) -> EigenfunctionTrajectory:
        """Phi = diag(scales) W Psi of the training data, re-lifted as identify lifted it."""
        return eigenfunction_trajectories(self.model, build_observables(self.series, self.aux))


def encode_complex(arr: np.ndarray) -> list:
    """Row-major list of [re, im] pairs."""
    flat = np.asarray(arr, dtype=complex).reshape(-1)
    return np.column_stack([flat.real, flat.imag]).tolist()


def _payload(arr: np.ndarray) -> np.ndarray:
    """Payload array; real, or complex with all-+0.0 imaginary parts, goes as <f8."""
    arr = np.asarray(arr)
    if np.iscomplexobj(arr) and not (np.any(arr.imag) or np.any(np.signbit(arr.imag))):
        arr = arr.real
    return np.ascontiguousarray(arr, dtype="<c16" if np.iscomplexobj(arr) else "<f8")


def _write_payload(handle, key: str, arr: np.ndarray) -> None:
    """Write ``, "key": {"dtype", "shape", "data"}`` as json.dumps would, in chunks."""
    data = _payload(arr)
    spec = json.dumps({"dtype": data.dtype.str, "shape": list(data.shape)})
    handle.write(f', {json.dumps(key)}: {spec[:-1]}, "data": "'.encode("ascii"))
    raw = memoryview(data).cast("B")
    for start in range(0, len(raw), PAYLOAD_CHUNK_BYTES):
        handle.write(base64.b64encode(raw[start : start + PAYLOAD_CHUNK_BYTES]))
    handle.write(b'"}')


def _decode_array(spec, shape: tuple | None, dtype) -> np.ndarray:
    """Payload -> array of ``dtype`` and ``shape``, or of its declared shape for None.

    A ValueError says what is wrong.
    """
    if not isinstance(spec, dict):
        raise ValueError("expected an object with dtype, shape and data")
    stored = spec["dtype"]
    allowed = PAYLOAD_DTYPES if dtype is complex else ("<f8",)
    if stored not in allowed:
        raise ValueError(f"dtype {stored!r} unsupported (expected one of {allowed})")
    declared = tuple(spec["shape"])
    if shape is not None and declared != shape:
        raise ValueError(f"shape {list(declared)} does not match nPsi (expected {list(shape)})")
    try:
        raw = base64.b64decode(spec["data"], validate=True)
    except binascii.Error as exc:
        raise ValueError(f"data is not valid base64 ({exc})") from None
    expected = math.prod(declared) * np.dtype(stored).itemsize
    if len(raw) != expected:
        raise ValueError(f"payload has {len(raw)} bytes, shape and dtype need {expected}")
    return np.frombuffer(raw, dtype=stored).astype(dtype).reshape(declared)


def _read_array(doc: dict, key: str, shape: tuple | None, dtype) -> np.ndarray:
    """Decode one model array and check it is finite."""
    try:
        arr = _decode_array(doc[key], shape, dtype)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{key}: {exc}") from None
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{key}: non-finite entries")
    return arr


@contextmanager
def _atomic_file(path: str):
    """A binary handle on a same-directory temp file, renamed to path on success."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = os.path.join(directory, f".{os.path.basename(path)}.{secrets.token_hex(8)}.tmp")
    # Mode 0666 less the umask, as open() would give; the mode survives the rename.
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path via a same-directory temp file and rename."""
    with _atomic_file(path) as handle:
        handle.write(text.encode("utf-8"))


def file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def save_model(record: ModelRecord, path: str) -> None:
    """Write a schema v3 model file (see the module docstring).

    The bytes are those of ``json.dumps`` of the whole document, but only
    one array is encoded at a time, a chunk of PAYLOAD_CHUNK_BYTES at once.
    """
    m, aux = record.model, record.aux
    header = {
        "schemaVersion": MODEL_SCHEMA_VERSION,
        "nPsi": m.n_psi,
        "dt": m.dt,
        "ridge": m.ridge,
        "layout": {
            "names": list(record.series.names),
            "theta": list(aux.theta) if aux.enabled else None,
        },
        "eigCondition": m.eig_condition,
        "diagnostics": {"oneStepResidual": record.one_step_residual},
    }
    arrays = {"K": m.K, "W": m.W, "Lambda": m.lambdas, "primary": record.series.values}
    with _atomic_file(path) as handle:
        handle.write(json.dumps(header)[:-1].encode("ascii"))
        for key, arr in arrays.items():
            _write_payload(handle, key, arr)
        handle.write(b"}")


def load_model(path: str) -> ModelRecord:
    """Read a schema v3 model file; FileFormatError if malformed or of another schema."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: not valid JSON ({exc})") from exc
    version = doc.get("schemaVersion") if isinstance(doc, dict) else None
    if version != MODEL_SCHEMA_VERSION:
        raise FileFormatError(
            f"{path}: model schema {version} unsupported (schema {MODEL_SCHEMA_VERSION} "
            "stores the training data); re-run identify to write it"
        )
    try:
        n = int(doc["nPsi"])
        if n < 1:
            raise ValueError(f"nPsi must be positive, got {n}")
        dt = float(doc["dt"])
        # R = W^-1 is formed here, once, by the model.
        model = KoopmanModel(
            K=_read_array(doc, "K", (n, n), complex),
            lambdas=_read_array(doc, "Lambda", (n,), complex),
            W=_read_array(doc, "W", (n, n), complex),
            eig_condition=float(doc["eigCondition"]),
            ridge=float(doc["ridge"]),
            dt=dt,
        )
        layout = doc["layout"]
        theta = layout["theta"]
        record = ModelRecord(
            model=model,
            series=PrimarySeries(
                names=layout["names"], values=_read_array(doc, "primary", None, float), dt=dt
            ),
            aux=AuxiliaryConfig.disabled() if theta is None else AuxiliaryConfig(theta),
            one_step_residual=float(doc["diagnostics"]["oneStepResidual"]),
        )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise FileFormatError(f"{path}: missing or malformed field ({exc})") from None
    return record


def save_report(report_doc: dict, path: str) -> None:
    doc = dict(report_doc)
    doc["schemaVersion"] = REPORT_SCHEMA_VERSION
    devs = doc.get("deviations", {})
    if devs and not (devs["dMin"] <= devs["dAvg"] + 1e-12 <= devs["dMax"] + 2e-12):
        raise ValueError("refusing to store report with unordered deviations")
    atomic_write_text(path, json.dumps(doc, indent=1))


def load_report(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if doc.get("schemaVersion") != REPORT_SCHEMA_VERSION:
        raise FileFormatError(f"{path}: unsupported report schema")
    return doc


def write_trajectory_csv(path: str, names, columns: np.ndarray, t: np.ndarray | None = None) -> None:
    """Rows are time steps; one named column per observable, 17 digits."""
    arr = np.asarray(columns, dtype=float)
    header = list(names)
    cols = [arr[i] for i in range(arr.shape[0])]
    if t is not None:
        header = ["t"] + header
        cols = [np.asarray(t, dtype=float)] + cols
    lines = [",".join(header)]
    for row in zip(*cols):
        lines.append(",".join(format(x, ".17g") for x in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_trajectory_csv(path: str, dt: float | None = None) -> PrimarySeries:
    """Parse a row-per-step CSV into a PrimarySeries (columns become rows).

    A column named ``t`` supplies the sampling interval when ``dt`` is not
    given; it must be increasing with uniform steps, up to a rounding
    tolerance of UNIFORM_STEP_ULPS * eps * max|t| on each step. Malformed or
    non-finite cells and ragged rows are reported with their row and column
    position.
    """
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise FileFormatError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if not header or any(not h for h in header):
            raise FileFormatError(f"{path}: missing or blank column names in header")
        rows: list[list[float]] = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise FileFormatError(
                    f"{path}: row {line_no} has {len(row)} cells, expected {len(header)}"
                )
            parsed = []
            for col_no, cell in enumerate(row):
                try:
                    value = float(cell)
                except ValueError:
                    raise FileFormatError(
                        f"{path}: row {line_no}, column '{header[col_no]}': "
                        f"non-numeric cell {cell!r}"
                    ) from None
                if not math.isfinite(value):
                    raise FileFormatError(
                        f"{path}: row {line_no}, column '{header[col_no]}': "
                        f"non-finite cell {cell!r}"
                    )
                parsed.append(value)
            rows.append(parsed)
    if len(rows) < 2:
        raise FileFormatError(f"{path}: need at least 2 data rows, found {len(rows)}")
    data = np.array(rows, dtype=float).T
    if "t" in header:
        t_idx = header.index("t")
        t = data[t_idx]
        keep = [i for i in range(len(header)) if i != t_idx]
        data = data[keep]
        header = [header[i] for i in keep]
        if dt is None:
            diffs = np.diff(t)
            if diffs.size == 0 or np.min(diffs) <= 0:
                raise FileFormatError(f"{path}: time column is not increasing")
            dt = float(np.mean(diffs))
            spread = float(np.max(np.abs(diffs - dt)))
            if spread > UNIFORM_STEP_ULPS * np.finfo(float).eps * np.max(np.abs(t)):
                raise FileFormatError(
                    f"{path}: time column is not uniformly sampled "
                    f"(steps deviate from their mean {dt:.6g} by up to {spread:.3g})"
                )
    if dt is None:
        raise FileFormatError(
            f"{path}: no time column present; a sampling interval is required"
        )
    return PrimarySeries(names=tuple(header), values=data, dt=dt)


def write_sweep_csv(path: str, rows) -> None:
    """Sweep table with 9-significant-digit floats and a trailing error column."""
    from .benchmark import SWEEP_COLUMNS

    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        *nums, err = row
        lines.append(",".join(format(x, ".9g") for x in nums) + f",{err}")
    atomic_write_text(path, "\n".join(lines) + "\n")


