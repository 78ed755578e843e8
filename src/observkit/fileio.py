"""File formats: JSON model/report documents and CSV trace files.

Every float is serialized with 17 significant digits so values round
trip exactly, and documents are emitted with a fixed key order so
identical inputs produce byte-identical files.

Model document:  {"name": ..., "a": [[...]], "b": [[...]], "c": [[...]]}
Trace file:      header "t,v1,...,vw", one comma-separated row per sample,
                 t column strictly increasing and uniformly spaced
                 (every step agreeing with the first by ``lti.times_agree``).
"""

from __future__ import annotations

import json
import math

import numpy as np

from observkit.lti import StateSpaceModel, Trace, make_model, times_agree
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
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n")
        _write_rows(fh, np.column_stack([trace.times, trace.samples]))


_CHUNK_VALUES = 1 << 13  # fields rendered at a time: bounds the work arrays
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into two 26-bit halves


def _split(a):
    """``a`` as hi + lo, exactly, each half with at most 26 significant bits."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _write_rows(fh, table: np.ndarray) -> None:
    """Write each row of a float64 table as its fields in ``"%.17g"``,
    joined by "," and ended by "\\n": the bytes the ``%`` operator gives.

    A field x with 1e-6 < |x| < 1e17 is rendered here.  With E the decimal
    exponent of x, 10**(16 - E) is an exact double (16 - E <= 22), so
    Dekker's product (Numer. Math. 18, 1971) gives x * 10**(16 - E)
    exactly as p + err.  p >= 1e16 is an even integer, so p + rint(err) is
    the half-even rounding of that product: the 17 significant digits
    "%.17g" prints.  They are then laid out as "%g" does for exponent E:
    trailing zeros dropped, fixed notation for -4 <= E < 17, "d.ddde-05"
    below.  0 and -0 print as "0" and "-0"; any other field, subnormal,
    tiny or huge, goes through ``"%.17g" % x`` itself.

    Each field is built in a 56-byte cell of NUL-padded pieces, and a chunk
    of cells is written with its NULs dropped.  Cell words (uint32):
    0-1 the sign and "0.000"; 2-6 "000" and the 17 digits, keeping the
    digits before the point; 7-11 the same, keeping those after it, with
    the point in the first byte; 12 the exponent; 13 the separator.
    """
    rows, cols = table.shape
    pow10 = np.array([float(10 ** k) for k in range(23)])  # exact
    pow_hi, pow_lo = _split(pow10)

    def digits(a, e):
        """round-half-even(a * 10**(16 - e)), and whether a * 10**(16 - e) < 1e16."""
        k = 16 - e
        p = a * pow10[k]
        a_hi, a_lo = _split(a)
        err = ((a_hi * pow_hi[k] - p) + a_hi * pow_lo[k] + a_lo * pow_hi[k]) + a_lo * pow_lo[k]
        return (p.astype(np.int64) + np.rint(err).astype(np.int64),
                (p < 1e16) | ((p == 1e16) & (err < 0)))

    r = np.arange(10000)
    quad = np.stack([r // 1000, r // 100 % 10, r // 10 % 10, r % 10], axis=1)
    quads = (quad + 48).astype(np.uint8).view(np.uint32).ravel()  # "0000" .. "9999"
    # digits of r up to its last nonzero one; never the largest for r = 0
    last = np.where(r == 0, -99, 4 - np.argmax(quad[:, ::-1] != 0, axis=1))
    # keep[w, i, j]: the mask of word w of "000" + 17 digits that keeps digits i..j-1
    at = np.arange(20) - 3
    bounds = np.arange(18)
    keep = ((at >= bounds[:, None, None]) & (at < bounds[None, :, None])).astype(np.uint8) * 255
    keep = np.ascontiguousarray(keep.view(np.uint32).transpose(2, 0, 1))
    exps = range(-6, 17)  # the tables below are indexed by exponent + 6
    lead = np.frombuffer(b"".join((sign + (b"0." + b"0" * (-x - 1) if -4 <= x < 0 else b""))
                                  .ljust(8, b"\0") for sign in (b"", b"-") for x in exps), np.uint64)
    before = np.array([x + 1 if x >= 0 else 0 if x >= -4 else 1 for x in exps])
    pointed = np.array([not -4 <= x < 0 for x in exps])
    tail = np.frombuffer(b"".join((b"e%+03d" % x if x < -4 else b"").ljust(4, b"\0")
                                  for x in exps), np.uint32)
    sep = np.array([ord(",")] * (cols - 1) + [ord("\n")], np.uint8)

    def render(v):
        """The cells of fields v, each 0 or of 1e-6 < |v| < 1e17."""
        a = np.abs(v)
        zero = a == 0
        a[zero] = 1.0
        with np.errstate(all="raise"):  # no lane can over- or underflow
            # log10 may land one off next to a power of ten: the exact
            # product says which way, and one step mends it.  No double of
            # the range lies within 5e-18 below a power of ten, so no
            # product rounds up to 1e17 once E is right.
            e = np.clip(np.floor(np.log10(a)), -6, 16).astype(np.intp)
            d, low = digits(a, e)
            off = np.flatnonzero(low | (d >= 10 ** 17))
            if off.size:
                e[off] += np.where(low[off], -1, 1)
                d[off] = digits(a[off], e[off])[0]
        d[zero] = 0
        e[zero] = 0
        ix = e + 6
        cells = np.zeros((v.size, 14), np.uint32)
        cells.view(np.uint64)[:, 0] = lead[np.signbit(v) * len(exps) + ix]
        # d in 4-digit groups, last first; nd: digits up to the last nonzero one
        groups = []
        nd = np.ones(v.size, np.intp)
        for w in (4, 3, 2, 1):
            q = d // 10000
            groups.append(d - q * 10000)
            nd = np.maximum(nd, last[groups[-1]] + 4 * w - 3)
            d = q
        groups.append(d)
        b = before[ix]
        end = np.maximum(nd, b)
        pair = b * len(bounds) + end
        for w, g in zip((4, 3, 2, 1, 0), groups):
            word = quads[g]
            np.bitwise_and(word, keep[w, 0][b], out=cells[:, 2 + w])
            np.bitwise_and(word, keep[w].ravel()[pair], out=cells[:, 7 + w])
        cells[:, 12] = tail[ix]
        cells.view(np.uint8)[:, 28] = np.where(pointed[ix] & (end > b), ord("."), 0)  # word 7
        return cells

    step = max(1, _CHUNK_VALUES // cols)
    for r0 in range(0, rows, step):
        v = table[r0:r0 + step].ravel()
        a = np.abs(v)
        here = ((a > 1e-6) & (a < 1e17)) | (a == 0)  # > 1e-6: the double 1e-6 is below 10**-6
        if here.all():
            cells = render(v)
        else:
            cells = np.zeros((v.size, 14), np.uint32)
            cells[here] = render(v[here])
            rest = v[~here].tolist()
            fields = (("%-24.17g" * len(rest)) % tuple(rest)).encode("ascii")  # 24: the widest
            fields = np.frombuffer(fields, np.uint8).reshape(-1, 24)
            cells.view(np.uint8)[~here, :24] = np.where(fields == ord(" "), 0, fields)
        text = cells.view(np.uint8)
        text.reshape(-1, cols, 56)[:, :, 52] = sep  # word 13
        text = text.ravel()
        fh.write(text[text != 0])


def load_trace(path: str) -> Trace:
    """Parse and validate a CSV trace file.

    The time column must be strictly increasing, every step counted, and
    uniformly spaced: each step must agree with the first by
    :func:`~observkit.lti.times_agree`.  The time step is the mean step,
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
    steps = np.diff(table[:, 0])
    off = ~times_agree(steps, steps[0], steps[0], table[0, 0], table[-1, 0])
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
    """Serialize an observability certificate, fixed key order.  A skipped
    RK4 cross-check writes null for it and for the route discrepancy."""
    ode, discrepancy = report.gramian_ode, None
    if ode is not None:
        quad = report.gramian.gramian
        denom = float(np.linalg.norm(quad, "fro"))
        diff = float(np.linalg.norm(quad - ode.gramian, "fro"))
        discrepancy = diff / denom if denom else diff
    doc = {
        "model": model_name,
        "horizon": report.gramian.horizon,
        "observable": report.observable,
        "kalman_rank": report.kalman_rank,
        "rank_required": report.rank_required,
        "kalman_observable": report.kalman_observable,
        "gramian_observable": report.gramian_observable,
        "consistent": report.consistent,
        "gramian": _gramian_doc(report.gramian),
        "gramian_ode": None if ode is None else _gramian_doc(ode),
        "gramian_route_discrepancy": discrepancy,
    }
    return _emit(doc) + "\n"


def dump_vector_doc(key: str, vector: np.ndarray, extra: dict | None = None) -> str:
    """Small document holding one named vector plus scalar annotations."""
    doc: dict = {key: np.asarray(vector, dtype=float).ravel().tolist()}
    if extra:
        doc.update(extra)
    return _emit(doc) + "\n"
