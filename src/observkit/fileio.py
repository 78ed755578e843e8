"""File formats: JSON model/report documents and CSV trace files.

Every float is serialized with 17 significant digits so values round
trip exactly, and documents are emitted with a fixed key order so
identical inputs produce byte-identical files.

Model document:  {"name": ..., "a": [[...]], "b": [[...]], "c": [[...]]}
Trace file:      header "t,v1,...,vw", one comma-separated row per sample,
                 t column strictly increasing and uniformly spaced
                 (relative tolerance ``lti.GRID_RTOL``, plus the rounding
                 of the written times).
"""

from __future__ import annotations

import json
import math

import numpy as np

from observkit.lti import GRID_RTOL, StateSpaceModel, Trace, make_model
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
        if not math.isfinite(value):
            raise ValueError(f"cannot serialize the non-finite number {value}")
        return format(float(value), ".17g")  # 17 digits: exact on round trip
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def dump_model(m: StateSpaceModel) -> str:
    doc = {"name": m.name, "a": m.a.tolist(), "b": m.b.tolist(), "c": m.c.tolist()}
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
    """Write a trace as CSV with header t,v1,...,vw.

    Every :class:`~observkit.lti.Trace` of two or more samples loads
    again, since ``Trace`` itself rejects a grid whose times would repeat.

    Raises:
        ValueError: the trace has fewer than two samples, which
            :func:`load_trace` could not read back; nothing is written.
    """
    if trace.samples.shape[0] < 2:
        raise ValueError(f"{path}: a trace needs at least two samples for load_trace to "
                         f"infer its time step, got {trace.samples.shape[0]}; nothing written")
    header = "t," + ",".join(f"v{i + 1}" for i in range(trace.width))
    table = np.column_stack([trace.times, trace.samples])
    # one %-format over the whole table; "%.17g" prints what _emit prints
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n" + (row * table.shape[0]) % tuple(table.ravel().tolist()))


def load_trace(path: str) -> Trace:
    """Parse and validate a CSV trace file.

    The time column must be strictly increasing, every step counted, and
    uniformly spaced: each step may differ from the first by
    ``lti.GRID_RTOL`` of it plus eight units in the last place of the
    largest |t|.  The time step is the mean step,
    (t_last - t_first) / (rows - 1), and the grid it gives must pass
    :class:`~observkit.lti.Trace`'s own rule.  At least two rows are
    required, since a single row cannot determine the time step.  Blank
    lines are skipped, and fields may carry surrounding spaces.

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
    # each step may differ from the first by GRID_RTOL of it plus eight
    # units in the last place of the largest |t|: the rounding that
    # computing t0 + k dt leaves in two steps
    steps = np.diff(table[:, 0])
    off = np.abs(steps - steps[0]) > GRID_RTOL * steps[0] + 8 * np.spacing(
        max(abs(table[0, 0]), abs(table[-1, 0])))
    bad = np.flatnonzero(off | (steps <= 0))
    if bad.size:  # step k ends at sample k + 1, which is rows[k + 2]
        k = int(bad[0])
        # past the first step, a step off the grid keeps the non-uniform
        # message even when it is not positive
        raise fail(k + 2, "time column must be strictly increasing" if not (k and off[k]) else
                   f"non-uniform time step {float(steps[k])!r}, expected {float(steps[0])!r}")
    try:  # the mean step, since one step carries the rounding of two times
        return Trace(table[0, 0], (table[-1, 0] - table[0, 0]) / steps.size, table[:, 1:])
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _gramian_doc(g: GramianResult) -> dict:
    return {
        "method": g.method,
        "horizon": g.horizon,
        "positive_definite": g.positive_definite,
        "min_eigenvalue": g.min_pivot_or_eig,
        "matrix": g.gramian.tolist(),
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
        "gramian": _gramian_doc(report.gramian),
        "gramian_ode": _gramian_doc(report.gramian_ode),
        "gramian_route_discrepancy": discrepancy,
    }
    return _emit(doc) + "\n"


def dump_vector_doc(key: str, vector: np.ndarray, extra: dict | None = None) -> str:
    """Small document holding one named vector plus scalar annotations."""
    doc: dict = {key: np.asarray(vector, dtype=float).ravel().tolist()}
    if extra:
        doc.update(extra)
    return _emit(doc) + "\n"
