"""File formats: JSON model/report documents and CSV trace files.

Every float is serialized with 17 significant digits so values round
trip exactly, and documents are emitted with a fixed key order so
identical inputs produce byte-identical files.

Model document:  {"name": ..., "a": [[...]], "b": [[...]], "c": [[...]]}
Trace file:      header "t,v1,...,vw", one comma-separated row per sample,
                 t column strictly increasing and uniformly spaced
                 (relative tolerance 1e-9).
"""

from __future__ import annotations

import json
import math

import numpy as np

from observkit.lti import StateSpaceModel, Trace, make_model
from observkit.observability import GramianResult, ObservabilityReport

__all__ = [
    "ParseError",
    "dump_model",
    "dump_report",
    "dump_vector_doc",
    "load_model",
    "load_trace",
    "save_model",
    "save_trace",
]


class ParseError(ValueError):
    """A model or trace file failed validation; message carries the
    file name and the offending line or field."""


def _fmt(x: float) -> str:
    """17-significant-digit decimal form, exact on round trip."""
    return format(float(x), ".17g")


def _emit(value, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = [f'{pad}  "{k}": {_emit(v, indent + 1)}' for k, v in value.items()]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        parts = [_emit(v, indent + 1) for v in value]
        if all(not isinstance(v, (dict, list, tuple)) for v in value):
            return "[" + ", ".join(parts) + "]"
        rows = [f"{pad}  {part}" for part in parts]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt(value)
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _matrix_rows(m: np.ndarray) -> list[list[float]]:
    return [[float(x) for x in row] for row in np.asarray(m)]


def dump_model(m: StateSpaceModel) -> str:
    doc = {"name": m.name, "a": _matrix_rows(m.a), "b": _matrix_rows(m.b),
           "c": _matrix_rows(m.c)}
    return _emit(doc) + "\n"


def save_model(m: StateSpaceModel, path: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(dump_model(m))


def _require_matrix(doc: dict, key: str, path: str) -> list:
    if key not in doc:
        raise ParseError(f"{path}: missing required key '{key}'")
    value = doc[key]
    if not isinstance(value, list) or not value or not all(
            isinstance(row, list) for row in value):
        raise ParseError(f"{path}: '{key}' must be a non-empty array of arrays")
    width = len(value[0])
    for i, row in enumerate(value):
        if len(row) != width:
            raise ParseError(
                f"{path}: '{key}' row {i} has {len(row)} fields, expected {width}")
        for j, x in enumerate(row):
            if isinstance(x, bool) or not isinstance(x, (int, float)):
                raise ParseError(f"{path}: '{key}'[{i}][{j}] is not a number")
            if not math.isfinite(x):
                raise ParseError(f"{path}: '{key}'[{i}][{j}] is not finite")
    return value


def load_model(path: str) -> StateSpaceModel:
    """Parse and validate a model document.

    Raises:
        ParseError: unreadable, malformed, or shape-invalid content, with
            the offending key/row named.
    """
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"{path}: cannot read model file: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: model document must be a JSON object")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise ParseError(f"{path}: 'name' must be a string")
    a = _require_matrix(doc, "a", path)
    b = _require_matrix(doc, "b", path)
    c = _require_matrix(doc, "c", path)
    try:
        return make_model(a, b, c, name=name)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def save_trace(trace: Trace, path: str) -> None:
    """Write a trace as CSV with header t,v1,...,vw."""
    width = trace.width
    header = "t," + ",".join(f"v{i + 1}" for i in range(width))
    table = np.column_stack([trace.times, trace.samples])
    # one %-format over the whole table; "%.17g" prints what _fmt prints
    row = ",".join(["%.17g"] * (width + 1)) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n" + (row * table.shape[0]) % tuple(table.ravel().tolist()))


def load_trace(path: str) -> Trace:
    """Parse and validate a CSV trace file.

    The time column must be strictly increasing and uniformly spaced to
    a relative tolerance of 1e-9; at least two rows are required, since
    a single row cannot determine the time step.  Blank lines are
    skipped, and fields may carry surrounding spaces.

    Raises:
        ParseError: with the offending line number.
    """
    try:
        with open(path) as fh:
            raw_lines = fh.read().splitlines()
    except OSError as exc:
        raise ParseError(f"{path}: cannot read trace file: {exc}") from None
    rows = [line for line in raw_lines if line.strip()]
    if not rows:
        raise ParseError(f"{path}: empty trace file")

    def fail(row: int, message: str) -> ParseError:  # rows[row], by file line
        line_no = [i + 1 for i, line in enumerate(raw_lines) if line.strip()][row]
        return ParseError(f"{path}: line {line_no}: {message}")

    def check_fields() -> None:  # raises at the first bad data row
        for k, line in enumerate(rows[1:], 1):
            parts = line.split(",")
            if len(parts) != width + 1:
                raise fail(k, f"expected {width + 1} fields, got {len(parts)}")
            try:
                row = [float(part) for part in parts]
            except ValueError:
                raise fail(k, "non-numeric field") from None
            if not all(math.isfinite(x) for x in row):
                raise fail(k, "non-finite value")

    fields = [f.strip() for f in rows[0].split(",")]
    if len(fields) < 2 or fields[0] != "t":
        raise fail(0, f"header must be 't,v1,...,vw', got {rows[0]!r}")
    width = len(fields) - 1
    if len(rows) < 3:
        check_fields()
        raise ParseError(f"{path}: need at least two samples to infer the "
                         f"time step, got {len(rows) - 1}")
    try:
        table = np.loadtxt(rows[1:], delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        check_fields()
        raise ParseError(f"{path}: {exc}") from None
    if table.shape[1] != width + 1:
        check_fields()  # raises: every row has the wrong field count
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        raise fail(int(np.argmin(finite)) + 1, "non-finite value")
    times = table[:, 0]
    dt = float(times[1] - times[0])
    if dt <= 0:
        raise fail(2, "time column must be strictly increasing")
    steps = np.diff(times)
    bad = np.flatnonzero(np.abs(steps - dt) > 1e-9 * abs(dt))
    if bad.size:
        raise fail(int(bad[0]) + 2, f"non-uniform time step "
                   f"{float(steps[bad[0]])!r}, expected {dt!r}")
    return Trace(t0=times[0], dt=dt, samples=table[:, 1:])


def _gramian_doc(g: GramianResult) -> dict:
    return {
        "method": g.method,
        "horizon": g.horizon,
        "positive_definite": g.positive_definite,
        "min_eigenvalue": g.min_pivot_or_eig,
        "matrix": _matrix_rows(g.gramian),
    }


def dump_report(report: ObservabilityReport, model_name: str = "") -> str:
    """Serialize an observability certificate, fixed key order."""
    quad = report.gramian.gramian
    ode = report.gramian_ode.gramian
    denom = float(np.linalg.norm(quad, "fro"))
    diff = float(np.linalg.norm(quad - ode, "fro"))
    discrepancy = diff / denom if denom else diff
    doc = {
        "model": model_name,
        "horizon": report.gramian.horizon,
        "observable": report.kalman_observable and report.gramian_observable,
        "kalman_rank": report.kalman_rank,
        "rank_required": report.rank_required,
        "kalman_observable": report.kalman_observable,
        "gramian_observable": report.gramian_observable,
        "consistent": report.consistent,
        "observability_matrix": _matrix_rows(report.observability_matrix),
        "gramian": _gramian_doc(report.gramian),
        "gramian_ode": _gramian_doc(report.gramian_ode),
        "gramian_route_discrepancy": discrepancy,
    }
    return _emit(doc) + "\n"


def dump_vector_doc(key: str, vector: np.ndarray, extra: dict | None = None) -> str:
    """Small document holding one named vector plus scalar annotations."""
    doc: dict = {key: [float(x) for x in np.asarray(vector).ravel()]}
    if extra:
        doc.update(extra)
    return _emit(doc) + "\n"
