"""File formats: ``.npz`` archives, JSON reports and CSV trajectories.

All writes are atomic (temp file in the target directory, then rename), so a
crashed run never leaves a truncated artifact. Every archive, a model file or
``save_matrices``' named matrices, is an uncompressed ``np.savez`` archive at
exactly the path given, each array member ``<c16`` if complex, else ``<f8``.

In a model file (schema v5), member ``header`` is a 0-d str array holding a
JSON object: ``nPsi``, ``dt``, ``ridge``, ``eigCondition``, ``layout`` (the
observable ``names`` and the correlation widths ``theta``, or null without
auxiliary rows) and ``diagnostics`` (``oneStepResidual``). ``W`` is the
model's W_b, and its dtype tells the model which basis it is in: ``<f8`` for
the real canonical basis of ``Lambda``, ``<c16`` for the complex one
(``linalg.EigResult``). ``Lambda``, ``<f8`` or ``<c16``, loads as a complex
vector of the same values, and ``primary`` (``<f8``, the training series,
one row per name and one column per snapshot) as it is: all bit for bit.
Each member's npy header is checked (dtype, shape against ``nPsi``, data
bytes against the member's size) before its data is read.
Neither K nor R is stored: loading inverts W_b once. A W without a finite
inverse, a ``<f8`` W whose ``Lambda`` is not closed under conjugation, a
non-finite entry, a layout that does not lift to ``nPsi`` rows, and files
of schemas v1 to v4 raise FileFormatError.

The stored series and theta rebuild the training observables Psi bit for
bit through ``build_observables``, so the eigenfunction trajectory of a
saved model is computed as the library computes it, Phi = W Psi.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import re
import secrets
import zipfile
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

MODEL_SCHEMA_VERSION = 5
REPORT_SCHEMA_VERSION = 1

# Array member dtypes, a regular expression over numpy's dtype strings:
# explicit little-endian, so files do not depend on the writer's byte order.
ARRAY_DTYPES = "<f8|<c16"

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
    rows and, unless ``aux`` is None, one auxiliary row per snapshot. A record
    whose layout does not give ``model.n_psi`` rows, or whose series and
    model disagree on dt, is a ValueError. ``one_step_residual`` is
    identify's relative one-step fit residual ||Psi' - K Psi||_F / ||Psi'||_F.
    """

    model: KoopmanModel
    series: PrimarySeries
    aux: AuxiliaryConfig | None
    one_step_residual: float

    def __post_init__(self):
        n_primary, n_steps = self.series.values.shape
        if self.aux is not None and len(self.aux.theta) != n_primary:
            raise ValueError(f"{len(self.aux.theta)} theta values for {n_primary} primary rows")
        n_aux = 0 if self.aux is None else n_steps
        if self.model.n_psi != 1 + n_primary + n_aux:
            raise ValueError(
                f"nPsi {self.model.n_psi} != 1 constant + {n_primary} primary "
                f"+ {n_aux} auxiliary rows"
            )
        if self.model.dt != self.series.dt:
            raise ValueError(f"model dt {self.model.dt} != series dt {self.series.dt}")

    def implied_trajectory(self) -> EigenfunctionTrajectory:
        """Phi = diag(scales) W Psi, carrying Psi: the training data re-lifted as identify did."""
        return eigenfunction_trajectories(self.model, build_observables(self.series, self.aux))


def _read_member(archive: zipfile.ZipFile, key: str, shape: tuple | None, dtypes: str):
    """Member ``key``; its npy header must declare a dtype matching ``dtypes``,
    ``shape`` unless that is None, and the data bytes the member holds.

    A KeyError names a missing member, a ValueError says what else is wrong.
    """
    info = archive.getinfo(f"{key}.npy")
    try:
        with archive.open(info) as member:
            if np.lib.format.read_magic(member) != (1, 0):
                raise ValueError("npy format version unsupported")
            declared, _, dtype = np.lib.format.read_array_header_1_0(member)
            if not re.fullmatch(dtypes, dtype.str):
                raise ValueError(f"dtype {dtype.str!r} unsupported (expected {dtypes})")
            if shape is not None and declared != shape:
                raise ValueError(f"shape {list(declared)} does not match nPsi ({list(shape)})")
            # The zip directory's sizes can lie too; no member holds more than the archive.
            held = min(info.file_size, os.fstat(archive.fp.fileno()).st_size) - member.tell()
            nbytes = math.prod(declared) * dtype.itemsize
            if nbytes != held:
                raise ValueError(f"header declares {nbytes} data bytes, member holds {held}")
            member.seek(0)
            arr = np.lib.format.read_array(member, allow_pickle=False)
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ValueError(f"{key}: {exc}") from None
    if arr.dtype.kind in "fc" and not np.all(np.isfinite(arr)):
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
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:  # name the file asked for
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path via a same-directory temp file and rename."""
    with _atomic_file(path) as handle:
        handle.write(text.encode("utf-8"))


def _save_npz(path: str, **members) -> None:
    """Write ``members`` as one archive at ``path`` (module docstring); a str as its 0-d array."""
    # np.savez appends ".npz" to a path, so it gets the handle.
    with _atomic_file(path) as handle:
        np.savez(handle, **{
            key: value if isinstance(value, str)
            else np.asarray(value, dtype="<c16" if np.iscomplexobj(value) else "<f8")
            for key, value in members.items()
        })


def file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def save_model(record: ModelRecord, path: str) -> None:
    """Write a schema v5 model archive to exactly ``path`` by ``_save_npz`` (module docstring)."""
    m, aux = record.model, record.aux
    header = {
        "schemaVersion": MODEL_SCHEMA_VERSION,
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
    _save_npz(path, header=json.dumps(header), W=m.W_b, Lambda=m.lambdas,
              primary=record.series.values)


def save_matrices(matrices: dict, path: str) -> None:
    """Write each named array as one member of an archive at exactly ``path``, bit for bit."""
    _save_npz(path, **matrices)


def load_model(path: str) -> ModelRecord:
    """Read a schema v5 model archive; FileFormatError if malformed or of another schema."""
    try:
        archive = zipfile.ZipFile(path)
    except zipfile.BadZipFile:
        raise FileFormatError(
            f"{path}: not a model archive (schema {MODEL_SCHEMA_VERSION}); JSON model "
            "files of schemas 1 to 3 are no longer read, re-run identify to write one"
        ) from None
    with archive:
        try:
            doc = json.loads(_read_member(archive, "header", (), r"<U\d+").item())
            version = doc.get("schemaVersion")
            if version != MODEL_SCHEMA_VERSION:
                raise FileFormatError(
                    f"{path}: model schema {version} unsupported (expected "
                    f"{MODEL_SCHEMA_VERSION}); re-run identify to write it"
                )
            n = int(doc["nPsi"])
            if n < 1:
                raise ValueError(f"nPsi must be positive, got {n}")
            dt = float(doc["dt"])
            # The model works out its basis and forms R_b = W_b^-1 here, once.
            model = KoopmanModel(
                lambdas=_read_member(archive, "Lambda", (n,), ARRAY_DTYPES),
                W_b=_read_member(archive, "W", (n, n), ARRAY_DTYPES),
                condition_number=float(doc["eigCondition"]),
                ridge=float(doc["ridge"]),
                dt=dt,
            )
            layout = doc["layout"]
            theta = layout["theta"]
            return ModelRecord(
                model=model,
                series=PrimarySeries(
                    names=layout["names"],
                    values=_read_member(archive, "primary", None, "<f8"),
                    dt=dt,
                ),
                aux=None if theta is None else AuxiliaryConfig(theta),
                one_step_residual=float(doc["diagnostics"]["oneStepResidual"]),
            )
        except FileFormatError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise FileFormatError(f"{path}: missing or malformed field ({exc})") from None


def save_report(report_doc: dict, path: str) -> None:
    doc = dict(report_doc)
    doc["schemaVersion"] = REPORT_SCHEMA_VERSION
    devs = doc.get("deviations", {})
    if devs and not devs["dMin"] <= devs["dAvg"] <= devs["dMax"]:
        raise ValueError("refusing to store report with unordered deviations")
    atomic_write_text(path, json.dumps(doc, indent=1))


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


