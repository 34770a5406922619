"""File formats: JSON model/report files and CSV trajectories.

All writes are atomic (temp file in the target directory, then rename), so a
crashed run never leaves a truncated artifact. A model file is streamed:
the header, then one array payload at a time, base64-encoded in chunks.

Model files (schema v2) are a JSON header of scalars and layout plus five
arrays, ``K``, ``W``, ``Lambda``, ``scales`` and ``phi0``, each stored as
``{"dtype", "shape", "data"}``: ``data`` is the base64 of the array's
little-endian C-order bytes and ``dtype`` is ``<c16`` (complex128) or
``<f8`` (float64). A real array, such as the K identified from real data,
and a complex array whose imaginary parts are all +0.0 are stored as
``<f8``; ``scales`` is always ``<f8``. Loading returns complex128
(float64 for ``scales``) arrays bit for bit, and the header's floats go
through JSON's shortest round-trip repr, which is exact too. The header's
``diagnostics`` object holds identification health numbers
(``oneStepResidual``). R = W^-1 is not stored: loading inverts W once (in
real arithmetic when W is closed under conjugation, see
``KoopmanModel``), and a W whose inverse fails or is not finite makes the
file malformed.
Schema v1 files, which store complex arrays as row-major lists of [re, im]
pairs, stay readable; only v2 is written. Both schemas share one
validation path, and every malformed file raises FileFormatError.

Model files carry, besides the operator and its decomposition, the scaled
eigenfunction values at the first sample (``phi0``) and the trajectory
length. That is enough to rebuild the model-implied eigenfunction
trajectory phi0_i * lambda_i^n for comparisons between saved models without
shipping the full training data; for a model closed under conjugation each
pair's second row is the exact conjugate of its first. ``spectrumKind``
distinguishes discrete one-step operators from continuous-time generators
(whose rows evolve as exp(lambda * dt * n)).
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

from .koopman import EigenfunctionTrajectory, KoopmanModel, PrimarySeries
from .linalg import conjugate_basis

MODEL_SCHEMA_VERSION = 2
READABLE_MODEL_SCHEMAS = (1, 2)
REPORT_SCHEMA_VERSION = 1

# Array payload dtypes of schema v2: explicit little-endian, so files do not
# depend on the byte order of the machine that wrote them.
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


@dataclass
class ModelRecord:
    """A saved model plus the layout metadata needed to reuse it.

    ``one_step_residual`` is identify's relative one-step fit residual
    ||Psi' - K Psi||_F / ||Psi'||_F, or None where unknown (schema v1 files).
    """

    model: KoopmanModel
    names: tuple[str, ...]
    has_constant: bool
    n_primary: int
    aux_enabled: bool
    theta: tuple[float, ...] | None
    phi0: np.ndarray
    n_steps: int
    spectrum_kind: str = "discrete"
    one_step_residual: float | None = None

    def implied_trajectory(self, n_steps: int | None = None) -> EigenfunctionTrajectory:
        """Model-implied eigenfunction rows phi0_i * growth_i^n, re-normalized.

        Generator-kind models grow as exp(lambda dt n); discrete models as
        lambda^n. Rows are rescaled so the maximum modulus over the horizon
        is one, matching the convention of trajectories computed from data.
        When lambdas, W and phi0 are closed under conjugation, only each
        pair's first row is grown; its partner is the exact conjugate, and
        the rows of real eigenvalues are real (a negative lambda^n taken in
        complex arithmetic keeps a rounding-level imaginary part).
        """
        n = self.n_steps if n_steps is None else n_steps
        steps = np.arange(n)
        lambdas = self.model.lambdas
        basis = conjugate_basis(lambdas, self.model.W, self.phi0)
        rows = basis.heads(lambdas.size)
        if self.spectrum_kind == "generator":
            growth = np.exp(np.outer(lambdas[rows] * self.model.dt, steps))
        else:
            growth = lambdas[rows, None] ** steps[None, :]
        phi = np.empty((lambdas.size, n), dtype=complex)
        phi[rows] = self.phi0[rows, None] * growth
        basis.close(phi)
        max_mod = np.max(np.abs(phi), axis=1)
        scales = np.where(max_mod > 0, 1.0 / np.where(max_mod > 0, max_mod, 1.0), 1.0)
        return EigenfunctionTrajectory(phi=phi * scales[:, None], scales=scales)


def encode_complex(arr: np.ndarray) -> list:
    """Row-major list of [re, im] pairs."""
    flat = np.asarray(arr, dtype=complex).reshape(-1)
    return np.column_stack([flat.real, flat.imag]).tolist()


def _payload(arr: np.ndarray) -> np.ndarray:
    """Schema v2 payload array; real, or complex with all-+0.0 imaginary parts, goes as <f8."""
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


def _decode_array(spec, shape: tuple, dtype) -> np.ndarray:
    """Schema v2 payload -> array of ``dtype``; ValueError says what is wrong."""
    if not isinstance(spec, dict):
        raise ValueError("expected an object with dtype, shape and data")
    stored = spec["dtype"]
    allowed = PAYLOAD_DTYPES if dtype is complex else ("<f8",)
    if stored not in allowed:
        raise ValueError(f"dtype {stored!r} unsupported (expected one of {allowed})")
    if tuple(spec["shape"]) != shape:
        raise ValueError(f"shape {spec['shape']} does not match nPsi (expected {list(shape)})")
    try:
        raw = base64.b64decode(spec["data"], validate=True)
    except binascii.Error as exc:
        raise ValueError(f"data is not valid base64 ({exc})") from None
    expected = math.prod(shape) * np.dtype(stored).itemsize
    if len(raw) != expected:
        raise ValueError(f"payload has {len(raw)} bytes, shape and dtype need {expected}")
    return np.frombuffer(raw, dtype=stored).astype(dtype).reshape(shape)


def _decode_v1(value, shape: tuple, dtype) -> np.ndarray:
    """Schema v1 value (a float list, or a list of [re, im] pairs) -> array."""
    size = math.prod(shape)
    if dtype is not complex:
        flat = np.asarray(value, dtype=float)
        if flat.shape != (size,):
            raise ValueError(f"expected {size} numbers, got shape {flat.shape}")
        return flat.reshape(shape)
    pairs = np.asarray(value, dtype=float)
    if pairs.shape != (size, 2):
        raise ValueError(f"expected {size} [re, im] pairs, got shape {pairs.shape}")
    # A view keeps every bit, including the sign of -0.0 (re + 1j*im would not).
    return pairs.view(complex).reshape(shape)


def _read_array(doc: dict, key: str, shape: tuple, dtype, version: int) -> np.ndarray:
    """Decode one model array of either schema and check it is finite."""
    decode = _decode_array if version == 2 else _decode_v1
    value = doc[key]
    try:
        arr = decode(value, shape, dtype)
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
    """Write a schema v2 model file (see the module docstring).

    The bytes are those of ``json.dumps`` of the whole document, but only
    one array is encoded at a time, a chunk of PAYLOAD_CHUNK_BYTES at once.
    """
    m = record.model
    header = {
        "schemaVersion": MODEL_SCHEMA_VERSION,
        "nPsi": m.n_psi,
        "dt": m.dt,
        "ridge": m.ridge,
        "spectrumKind": record.spectrum_kind,
        "layout": {
            "names": list(record.names),
            "hasConstant": record.has_constant,
            "nPrimary": record.n_primary,
            "aux": record.aux_enabled,
            "theta": list(record.theta) if record.theta is not None else None,
        },
        "eigCondition": m.eig_condition,
        "nSteps": record.n_steps,
        "diagnostics": {"oneStepResidual": record.one_step_residual},
    }
    arrays = {"K": m.K, "W": m.W, "Lambda": m.lambdas, "scales": m.scales, "phi0": record.phi0}
    with _atomic_file(path) as handle:
        handle.write(json.dumps(header)[:-1].encode("ascii"))
        for key, arr in arrays.items():
            _write_payload(handle, key, arr)
        handle.write(b"}")


def load_model(path: str) -> ModelRecord:
    """Read a schema v1 or v2 model file; FileFormatError if malformed."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: not valid JSON ({exc})") from exc
    version = doc.get("schemaVersion") if isinstance(doc, dict) else None
    if version not in READABLE_MODEL_SCHEMAS:
        raise FileFormatError(
            f"{path}: schema version {version} unsupported "
            f"(expected one of {READABLE_MODEL_SCHEMAS})"
        )
    try:
        n = int(doc["nPsi"])
        if n < 1:
            raise ValueError(f"nPsi must be positive, got {n}")
        # R = W^-1 is formed here, once, by the model.
        model = KoopmanModel(
            K=_read_array(doc, "K", (n, n), complex, version),
            lambdas=_read_array(doc, "Lambda", (n,), complex, version),
            W=_read_array(doc, "W", (n, n), complex, version),
            scales=_read_array(doc, "scales", (n,), float, version),
            eig_condition=float(doc["eigCondition"]),
            ridge=float(doc["ridge"]),
            dt=float(doc["dt"]),
        )
        layout = doc["layout"]
        theta = layout.get("theta")
        residual = doc.get("diagnostics", {}).get("oneStepResidual")
        record = ModelRecord(
            model=model,
            names=tuple(layout["names"]),
            has_constant=bool(layout["hasConstant"]),
            n_primary=int(layout["nPrimary"]),
            aux_enabled=bool(layout["aux"]),
            theta=tuple(theta) if theta is not None else None,
            phi0=_read_array(doc, "phi0", (n,), complex, version),
            n_steps=int(doc["nSteps"]),
            spectrum_kind=doc.get("spectrumKind", "discrete"),
            one_step_residual=float(residual) if residual is not None else None,
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


