"""File formats: JSON model/report files and CSV trajectories.

All writes are atomic (temp file in the target directory, then rename), so a
crashed run never leaves a truncated artifact. Complex matrices are stored
as row-major lists of [re, im] pairs; floats go through JSON's shortest
round-trip repr, which reproduces them bit-exactly on load.

Model files carry, besides the operator and its decomposition, the scaled
eigenfunction values at the first sample (``phi0``) and the trajectory
length. That is enough to rebuild the model-implied eigenfunction
trajectory phi0_i * lambda_i^n for comparisons between saved models without
shipping the full training data. ``spectrumKind`` distinguishes discrete
one-step operators from continuous-time generators (whose rows evolve as
exp(lambda * dt * n)).
"""
from __future__ import annotations

import csv
import hashlib
import json
import os
import secrets
from dataclasses import dataclass

import numpy as np

from .koopman import EigenfunctionTrajectory, KoopmanModel, PrimarySeries

MODEL_SCHEMA_VERSION = 1
REPORT_SCHEMA_VERSION = 1


class FileFormatError(ValueError):
    """A file exists but does not parse as the expected format."""


@dataclass
class ModelRecord:
    """A saved model plus the layout metadata needed to reuse it."""

    model: KoopmanModel
    names: tuple[str, ...]
    has_constant: bool
    n_primary: int
    aux_enabled: bool
    theta: tuple[float, ...] | None
    phi0: np.ndarray
    n_steps: int
    spectrum_kind: str = "discrete"

    def implied_trajectory(self, n_steps: int | None = None) -> EigenfunctionTrajectory:
        """Model-implied eigenfunction rows phi0_i * growth_i^n, re-normalized.

        Generator-kind models grow as exp(lambda dt n); discrete models as
        lambda^n. Rows are rescaled so the maximum modulus over the horizon
        is one, matching the convention of trajectories computed from data.
        """
        n = self.n_steps if n_steps is None else n_steps
        steps = np.arange(n)
        if self.spectrum_kind == "generator":
            growth = np.exp(np.outer(self.model.lambdas * self.model.dt, steps))
        else:
            lam = self.model.lambdas[:, None]
            growth = lam ** steps[None, :]
        phi = self.phi0[:, None] * growth
        max_mod = np.max(np.abs(phi), axis=1)
        scales = np.where(max_mod > 0, 1.0 / np.where(max_mod > 0, max_mod, 1.0), 1.0)
        return EigenfunctionTrajectory(phi=phi * scales[:, None], scales=scales)


def encode_complex(arr: np.ndarray) -> list:
    """Row-major list of [re, im] pairs."""
    flat = np.asarray(arr, dtype=complex).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in flat]


def decode_complex(pairs, shape) -> np.ndarray:
    flat = np.array([complex(re, im) for re, im in pairs], dtype=complex)
    return flat.reshape(shape)


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path via a same-directory temp file and rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = os.path.join(directory, f".{os.path.basename(path)}.{secrets.token_hex(8)}.tmp")
    # Mode 0666 less the umask, as open() would give; the mode survives the rename.
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def save_model(record: ModelRecord, path: str) -> None:
    m = record.model
    n = m.n_psi
    doc = {
        "schemaVersion": MODEL_SCHEMA_VERSION,
        "nPsi": n,
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
        "K": encode_complex(m.K),
        "W": encode_complex(m.W),
        "Lambda": encode_complex(m.lambdas),
        "scales": [float(s) for s in m.scales],
        "eigCondition": m.eig_condition,
        "phi0": encode_complex(record.phi0),
        "nSteps": record.n_steps,
    }
    atomic_write_text(path, json.dumps(doc))


def load_model(path: str) -> ModelRecord:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: not valid JSON ({exc})") from exc
    version = doc.get("schemaVersion") if isinstance(doc, dict) else None
    if version != MODEL_SCHEMA_VERSION:
        raise FileFormatError(
            f"{path}: schema version {version} unsupported (expected {MODEL_SCHEMA_VERSION})"
        )
    try:
        n = int(doc["nPsi"])
        model = KoopmanModel(
            K=decode_complex(doc["K"], (n, n)),
            lambdas=decode_complex(doc["Lambda"], (n,)),
            W=decode_complex(doc["W"], (n, n)),
            scales=np.array(doc["scales"], dtype=float).reshape(n),
            eig_condition=float(doc["eigCondition"]),
            ridge=float(doc["ridge"]),
            dt=float(doc["dt"]),
        )
        layout = doc["layout"]
        theta = layout.get("theta")
        record = ModelRecord(
            model=model,
            names=tuple(layout["names"]),
            has_constant=bool(layout["hasConstant"]),
            n_primary=int(layout["nPrimary"]),
            aux_enabled=bool(layout["aux"]),
            theta=tuple(theta) if theta is not None else None,
            phi0=decode_complex(doc["phi0"], (n,)),
            n_steps=int(doc["nSteps"]),
            spectrum_kind=doc.get("spectrumKind", "discrete"),
        )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise FileFormatError(f"{path}: missing or malformed field ({exc!r})") from None
    arrays = (model.K, model.lambdas, model.W, model.scales, record.phi0)
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise FileFormatError(f"{path}: non-finite entries in model arrays")
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
    given. Malformed cells and ragged rows are reported with their row and
    column position.
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
                    parsed.append(float(cell))
                except ValueError:
                    raise FileFormatError(
                        f"{path}: row {line_no}, column '{header[col_no]}': "
                        f"non-numeric cell {cell!r}"
                    ) from None
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


