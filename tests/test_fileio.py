import bz2
import gzip
import json
import lzma
import math
import os
import re
import urllib.request
import warnings
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from observkit.fileio import (
    _CHUNK_VALUES,
    ParseError,
    _read_trace,
    dump_model,
    dump_report,
    dump_vector_doc,
    load_model,
    load_trace,
    save_model,
    save_trace,
)
from observkit.linalg import NonFiniteError, ShapeMismatchError
from observkit.lti import GRID_RTOL, Trace, make_model
from observkit.observability import analyze, reconstruct_with_condition


def table_model():
    return make_model([[0.0, 1.0], [-2.0, -0.5]], [[0.0], [1.0]], [[0.0, 1.0]],
                      name="cardio-table")


def test_model_round_trip(tmp_path):
    m = make_model([[1 / 3, math.pi], [-2.0, 1e-17]], [[0.1], [0.2]],
                   [[-1.5, 2.5]], name="awkward floats")
    path = tmp_path / "model.json"
    save_model(m, str(path))
    back = load_model(str(path))
    np.testing.assert_array_equal(back.a, m.a)
    np.testing.assert_array_equal(back.b, m.b)
    np.testing.assert_array_equal(back.c, m.c)
    assert back.name == "awkward floats"


def test_dump_model_is_deterministic_and_valid_json():
    m = table_model()
    text = dump_model(m)
    assert text == dump_model(m)
    doc = json.loads(text)
    assert doc["a"] == [[0.0, 1.0], [-2.0, -0.5]]
    assert doc["name"] == "cardio-table"


def test_load_model_missing_file(tmp_path):
    with pytest.raises(ParseError, match="cannot read"):
        load_model(str(tmp_path / "nope.json"))


def test_load_model_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"a": [[1, 2],\n')
    with pytest.raises(ParseError, match="line"):
        load_model(str(path))


def test_load_model_validation_errors(tmp_path):
    cases = {
        "missing required key 'b'": '{"a": [[1.0]], "c": [[1.0]]}',
        "non-empty array of arrays": '{"a": 5, "b": [[1.0]], "c": [[1.0]]}',
        "row 1 has 1 fields": '{"a": [[1.0, 0.0], [1.0]], "b": [[1.0], [1.0]], "c": [[1.0, 0.0]]}',
        "is not a number": '{"a": [[1.0, "x"], [0.0, 1.0]], "b": [[1.0], [1.0]], "c": [[1.0, 0.0]]}',
        "is not finite": '{"a": [[NaN]], "b": [[1.0]], "c": [[1.0]]}',
        # json reads this exactly, as a Python int that no float can hold
        r"'a'\[0\]\[0\] is not finite": '{"a": [[1' + "0" * 400 + ']], "b": [[1]], "c": [[1]]}',
        "must be a JSON object": "[1, 2, 3]",
        "must be a string": '{"name": 7, "a": [[1.0]], "b": [[1.0]], "c": [[1.0]]}',
        "b must be 1xp": '{"a": [[1.0]], "b": [[1.0], [2.0]], "c": [[1.0]]}',
    }
    for expected, text in cases.items():
        path = tmp_path / "case.json"
        path.write_text(text)
        with pytest.raises(ParseError, match=expected):
            load_model(str(path))


def test_trace_round_trip(tmp_path):
    rng = np.random.default_rng(61)
    trace = Trace(0.25, 1e-3, rng.standard_normal((50, 3)))
    path = tmp_path / "trace.csv"
    save_trace(trace, str(path))
    back = load_trace(str(path))
    assert back.t0 == trace.t0
    assert back.dt == pytest.approx(trace.dt, rel=1e-12)
    np.testing.assert_array_equal(back.samples, trace.samples)


def test_trace_header_layout(tmp_path):
    trace = Trace(0.0, 0.5, [[1.0, 2.0], [3.0, 4.0]])
    path = tmp_path / "trace.csv"
    save_trace(trace, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "t,v1,v2"
    assert lines[1] == "0,1,2"
    assert lines[2] == "0.5,3,4"


def test_trace_serialization_is_byte_deterministic(tmp_path):
    rng = np.random.default_rng(62)
    trace = Trace(0.0, 0.125, rng.standard_normal((20, 2)))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    save_trace(trace, str(p1))
    save_trace(trace, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_seventeen_digit_floats_round_trip(tmp_path):
    awkward = [0.1 + 0.2, math.pi, 1.0 / 3.0, 2.2250738585072014e-308, -1e300]
    trace = Trace(0.0, 1.0, [[x] for x in awkward])
    path = tmp_path / "trace.csv"
    save_trace(trace, str(path))
    back = load_trace(str(path))
    np.testing.assert_array_equal(back.samples[:, 0], awkward)


def test_load_trace_accepts_spaced_fields(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("t, v1, v2\n0.0, 1.0, 2.0\n0.5, 3.0, 4.0\n")
    back = load_trace(str(path))
    assert back.width == 2
    np.testing.assert_array_equal(back.samples, [[1.0, 2.0], [3.0, 4.0]])


def _assert_written_per_field(trace, path):
    """save_trace writes exactly what format(x, ".17g") prints field by field."""
    save_trace(trace, str(path))
    header = ",".join(["t"] + [f"v{i + 1}" for i in range(trace.width)])
    want = [header] + [",".join(format(float(x), ".17g") for x in (t, *row))
                       for t, row in zip(trace.times, trace.samples)]
    assert path.read_bytes() == ("\n".join(want) + "\n").encode()


def _power_of_ten_neighbours():
    """The 9 doubles around each 10**k, k = -8..18, and their negatives."""
    out = []
    for k in range(-8, 19):
        x = float(f"1e{k}")
        for _ in range(4):
            x = np.nextafter(x, 0.0)
        for _ in range(9):
            out += [x, -x]
            x = np.nextafter(x, np.inf)
    return out


def _seventeen_digit_ties():
    """Doubles k / 2**j whose exact decimal has 18 significant digits, the
    last a 5: half-way between two 17-digit numbers."""
    rng = np.random.default_rng(17)
    out = []
    for e in range(-7, 15):  # x in [10**e, 10**(e + 1)) takes j = 17 - e fraction digits
        j = 17 - e
        lo, hi = math.ceil(Fraction(10) ** e * 2 ** j), int(Fraction(10) ** (e + 1) * 2 ** j)
        for _ in range(6):
            k = int(rng.integers(lo, hi)) | 1
            x = math.ldexp(k, -j)
            assert Fraction(x) == Fraction(k, 2 ** j)
            scaled = Fraction(x) * Fraction(10) ** (17 - e)  # 18 digits before the point
            assert scaled.denominator == 1 and 10 ** 17 <= scaled < 10 ** 18
            assert scaled.numerator % 10 == 5
            out += [x, -x]
    return out


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_trace_writer_matches_per_field_formatting(tmp_path):
    # the writer renders the table with numpy; it must print exactly
    # what format(x, ".17g") prints field by field
    rng = np.random.default_rng(63)
    awkward = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1e300, -1e300, 0.1, 1.0 / 3.0, 123456789.0]
    values = np.concatenate([awkward, rng.standard_normal(500),
                             rng.standard_normal(500) * 10.0 ** rng.integers(-300, 300, 500),
                             _power_of_ten_neighbours(), _seventeen_digit_ties()])
    _assert_written_per_field(Trace(-0.25, 0.1, values.reshape(-1, 2)), tmp_path / "trace.csv")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_trace_writer_matches_across_chunks(tmp_path):
    # fields left to the % operator, and -0.0, mid-chunk and on both sides
    # of each chunk boundary
    width = 2
    step = _CHUNK_VALUES // (width + 1)  # rows per chunk
    samples = np.random.default_rng(5).standard_normal((3 * step + 7, width))
    special = [1e-7, 1e17, 5e-324, -0.0]
    for row in (step // 2, step - 1, step, 2 * step - 1, 2 * step):
        samples[row] = special[row % 4], special[(row + 1) % 4]
    _assert_written_per_field(Trace(0.0, 1e-3, samples), tmp_path / "long.csv")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(count=st.integers(2, 12), width=st.integers(1, 4), data=st.data())
def test_trace_writer_matches_any_finite_floats(tmp_path_factory, count, width, data):
    values = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False)
                                | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308]),
                                min_size=count * width, max_size=count * width))
    t0 = data.draw(st.floats(-1e6, 1e6))
    _assert_written_per_field(Trace(t0, 0.125, np.reshape(values, (count, width))),
                              tmp_path_factory.mktemp("writer") / "trace.csv")


def test_save_trace_refuses_a_grid_load_trace_would_reject(tmp_path):
    path = tmp_path / "big.csv"
    with pytest.raises(ValueError, match=r"t0 = 1e\+17 and dt = 1.0 give sample 1 at "
                                         r"t = 1e\+17: time column must be strictly"):
        save_trace(Trace(1e17, 1.0, np.zeros((11, 1))), str(path))
    assert not path.exists()


@st.composite
def _grids(draw):
    """(t0, dt) over |t0| <= 1e18, with dt either anywhere in 1e-9..1e4 or
    within a small factor of the spacing of floats at t0."""
    t0 = draw(st.floats(-1e18, 1e18))
    if draw(st.booleans()):
        return t0, max(float(np.spacing(abs(t0))) * draw(st.floats(0.25, 40.0)), 5e-324)
    return t0, 10.0 ** draw(st.floats(-9.0, 4.0))


@settings(max_examples=300, deadline=None)
@given(grid=_grids(), count=st.integers(0, 40), width=st.integers(0, 3),
       data=st.data())
def test_every_trace_that_constructs_loads_again(tmp_path_factory, grid, count, width, data):
    values = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                min_size=count * width, max_size=count * width))
    try:
        trace = Trace(*grid, np.reshape(values, (count, width)))
    except ShapeMismatchError:
        assert count < 2 or width < 1
        assume(False)
    except ValueError as exc:
        assert "time column must be" in str(exc)
        assume(False)
    path = str(tmp_path_factory.mktemp("grid") / "trace.csv")
    save_trace(trace, path)
    back = load_trace(path)
    assert back.t0 == trace.t0
    assert back.samples.tobytes() == trace.samples.tobytes()
    # the file holds the rounded times t0 + k dt, so the mean step can
    # also be off by the spacing of floats at the largest |t| per step
    # (t0 = 1, dt = 1.5 spacings gives the times 1 and 1 + 2 spacings)
    ulp = np.spacing(np.abs(trace.times[[0, -1]]).max())
    assert abs(back.dt - trace.dt) <= GRID_RTOL * trace.dt + 4 * ulp / (count - 1)
    # and its span still matches the horizon the trace was made with
    model = make_model(np.zeros((width, width)), np.zeros((width, 1)), np.eye(width))
    try:
        reconstruct_with_condition(model, back, horizon=(count - 1) * trace.dt)
    except ValueError as exc:  # the sums of arbitrary samples may overflow
        assert "trace spans" not in str(exc)


def test_load_trace_names_the_line_of_a_repeated_time(tmp_path):
    # floats are 16 apart at 1e17, so the zero step lies within the 8-ulp
    # allowance of the first; still, no time may repeat
    path = tmp_path / "repeat.csv"
    path.write_text("t,v1\n1e+17,0\n1.0000000000000002e+17,1\n"
                    "1.0000000000000002e+17,2\n1.0000000000000005e+17,3\n")
    with pytest.raises(ParseError, match="line 4: time column must be strictly increasing"):
        load_trace(str(path))


def test_load_trace_rejects_a_mean_step_whose_grid_repeats_a_time(tmp_path):
    # the steps are 16 below 2**57 and 32 above it, within the allowance;
    # their mean, 24, is below the spacing of floats past 2**57
    times = [2.0**57 + 16 * k for k in range(-10, 1)] + [2.0**57 + 32 * k for k in range(1, 11)]
    path = tmp_path / "binade.csv"
    path.write_text("t,v1\n" + "".join(f"{t!r},0\n" for t in times))
    with pytest.raises(ParseError, match=r"binade.csv: t0 = .* and dt = 24.0 give sample \d+ "
                                         r"at t = .*: time column must be strictly increasing"):
        load_trace(str(path))


def test_load_trace_skips_blank_and_whitespace_lines(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("\n t , v1 \n\n0, 1\n   \n\t\n0.5 ,2 \n\n")
    back = load_trace(str(path))
    assert (back.t0, back.dt) == (0.0, 0.5)
    np.testing.assert_array_equal(back.samples, [[1.0], [2.0]])


def test_load_trace_errors_name_file_lines_past_blank_lines(tmp_path):
    # each error must name the line in the file, counting the blank and
    # whitespace-only lines the parser skips
    head = "\n t, v1 \n\n0, 1\n  \n0.5, 2\n\n"
    cases = {
        "line 2: header must be": "\n x, y \n0,1\n1,2\n",
        "line 9: expected 2 fields, got 3": head + "1, 3\n1.5, 4, 5\n",
        "line 9: non-numeric field": head + "1, 3\n1.5, four\n",
        "line 9: non-finite value": head + "1, 3\n1.5, nan\n",
        "line 6: time column must be strictly increasing": head.replace("0.5", "-0.5"),
        "line 9: non-uniform time step 0.75, expected 0.5": head + "1, 3\n1.75, 4\n",
        "line 8: non-finite value": head + " 1 ,-inf\n1.5, four\n",
    }
    for expected, text in cases.items():
        path = tmp_path / "case.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match=expected):
            load_trace(str(path))


def test_load_trace_errors(tmp_path):
    cases = [
        ("empty trace file", ""),
        ("header must be", "x,y\n0,1\n1,2\n"),
        ("expected 3 fields", "t,v1,v2\n0,1,2\n1,2\n"),
        ("non-numeric field", "t,v1\n0,one\n1,2\n"),
        ("non-finite value", "t,v1\n0,inf\n1,2\n"),
        ("at least two samples", "t,v1\n0,1\n"),
        ("strictly increasing", "t,v1\n1,1\n0,2\n"),
        ("non-uniform time step", "t,v1\n0,1\n1,2\n2.5,3\n"),
        # a one-sample file names its bad field before its missing time step
        ("line 2: non-finite value$", "t,v1\n0,inf\n"),
        ("line 2: non-finite value$", "t,v1\r\n0,inf\r\n"),
        ("line 2: non-numeric field$", "t,v1\n0,x\n"),
        # every row one field wider than the header, as each route reads it
        ("line 2: expected 2 fields, got 3$", "t,v1\n0,1,2\n1,2,3\n"),
        ("line 3: expected 2 fields, got 3$", "t,v1\n \n0,1,2\n1,2,3\n"),
    ]
    for expected, text in cases:
        path = tmp_path / "case.csv"
        path.write_bytes(text.encode())
        with pytest.raises(ParseError, match=expected):
            load_trace(str(path))


def test_load_trace_reports_offending_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,v1\n0,1\n0.1,2\n0.2,x\n")
    with pytest.raises(ParseError, match="line 4"):
        load_trace(str(path))


def test_load_trace_names_a_missing_file(tmp_path):
    path = str(tmp_path / "nope.csv")
    message = f"{path}: cannot read trace file: [Errno 2]"
    with pytest.raises(ParseError, match=f"^{re.escape(message)}"):
        load_trace(path)


def test_load_trace_names_a_field_its_reader_refuses(tmp_path):
    # float() reads "1_0" as 10; numpy's reader does not, and the line
    # route's field check refuses it as numpy does, naming its line
    path = tmp_path / "under.csv"
    path.write_text("t,v1\n0,1_0\n1,2\n2,3\n")
    for given in (str(path), path):
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 2: non-numeric field$"):
            load_trace(given)


# the characters of the field-rule differential: a field is one to six of
# them, so about a quarter of the fields are numbers numpy's reader takes
_FIELD_PIECES = (list("0123456789") * 2 + list(".eE+-_")
                 + ["inf", "nan", "i", "n", "f", "a", "y", "t",
                    "\uff11", "\u0663", "\u00b2", "\u00a0", "\u3000", "\t", " "])


def test_line_route_field_rule_is_numpys(tmp_path):
    # the line route refuses a field exactly when numpy's reader does:
    # float()'s rule, less "_" and non-ASCII text left after stripping.
    # A one-row file goes through that check whatever its field, and says
    # "non-numeric field" only for a field the check refuses
    rng = np.random.default_rng(69)
    path = tmp_path / "field.csv"
    refused = 0
    for _ in range(1000):
        field = "".join(rng.choice(_FIELD_PIECES, int(rng.integers(1, 7))))
        try:
            np.loadtxt([f"0,{field}"], delimiter=",", comments=None, ndmin=2)
            numpy_refuses = False
        except ValueError:
            numpy_refuses = True
        path.write_text(f"t,v1\n0,{field}\n", encoding="utf-8")
        with pytest.raises(ParseError) as info:
            load_trace(str(path))
        assert str(info.value).endswith("line 2: non-numeric field") == numpy_refuses, field
        refused += numpy_refuses
    assert 500 < refused < 900  # the sample holds both kinds


def _reference_load(path):
    """t0, dt and samples as the line route reads a file it accepts: numpy
    parses the non-blank "\\n"-ended lines after the header, and dt is the
    mean step."""
    with open(path) as fh:
        rows = [line for line in fh.read().split("\n") if line.strip()]
    table = np.loadtxt(rows[1:], delimiter=",", comments=None, ndmin=2)
    return table[0, 0], (table[-1, 0] - table[0, 0]) / (len(table) - 1), table[:, 1:]


# str.splitlines ends a line at each of these; numpy's reader and the line
# route take them for whitespace inside a field
_CONTROLS = ("\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
_magnitudes = st.floats(1e-300, 1e300)
_values = (st.builds(lambda x, sign: sign * x, _magnitudes, st.sampled_from([1.0, -1.0]))
           | st.sampled_from([0.0, -0.0]))


@settings(max_examples=150, deadline=None)
@given(grid=_grids(), count=st.integers(2, 20), width=st.integers(1, 3), spaced=st.booleans(),
       crlf=st.booleans(), blank_after=st.sets(st.integers(0, 20)),
       whitespace_after=st.none() | st.integers(0, 20),
       control=st.none() | st.sampled_from(_CONTROLS), data=st.data())
def test_both_trace_routes_read_what_the_line_route_reads(tmp_path_factory, grid, count, width,
                                                          spaced, crlf, blank_after,
                                                          whitespace_after, control, data):
    values = data.draw(st.lists(_values, min_size=count * width, max_size=count * width))
    try:
        trace = Trace(*grid, np.reshape(values, (count, width)))
    except ValueError:
        assume(False)
    path = tmp_path_factory.mktemp("routes") / "trace.csv"
    save_trace(trace, str(path))
    lines = path.read_text().splitlines()
    if spaced:
        lines = [" " + line.replace(",", " ,  ") + "\t" for line in lines]
    if control:  # padded into the whitespace after one row's time field
        row = data.draw(st.integers(1, count))
        lines[row] = lines[row].replace(",", f" {control} ,", 1)
    # empty lines, and maybe one whitespace-only line, after line k
    out = []
    for k, line in enumerate(lines):
        out += [line] + [""] * (k in blank_after) + [" \t "] * (k == whitespace_after)
    path.write_bytes(("\r\n" if crlf else "\n").join(out).encode() + b"\n")

    back = load_trace(str(path))
    t0, dt, samples = _reference_load(str(path))
    assert (back.t0, back.dt) == (t0, dt)
    assert back.samples.tobytes() == samples.tobytes() == trace.samples.tobytes()
    # a whitespace-only line is the line route's to skip; numpy's read takes the rest
    line_route = whitespace_after is not None and whitespace_after < len(lines)
    assert (_read_trace(str(path), path.read_bytes()) is None) == line_route


def _spy_on_loadtxt(monkeypatch) -> list:
    """The first argument of every later ``np.loadtxt`` call, in order."""
    calls = []
    loadtxt = np.loadtxt

    def spy(fname, *args, **kwargs):
        calls.append(fname)
        return loadtxt(fname, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    return calls


def test_load_trace_loads_a_crlf_trace(tmp_path, monkeypatch):
    trace = Trace(-2.5, 0.125, np.random.default_rng(8).standard_normal((50, 2)))
    path = tmp_path / "crlf.csv"
    save_trace(trace, str(path))
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    calls = _spy_on_loadtxt(monkeypatch)
    for name in (str(path), path):  # a path object, as open() takes it
        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = load_trace(name)
        assert calls == [str(path)]  # numpy's reader parses either from the path
        assert (back.t0, back.dt) == (trace.t0, trace.dt)
        assert back.samples.tobytes() == trace.samples.tobytes()


def test_load_trace_parses_a_numpy_route_file_once(tmp_path, monkeypatch):
    # numpy's reader parses each of these files from its path; the check
    # that fails names the line from that table, with no second parse
    times = [2.0**57 + 16 * k for k in range(-10, 1)] + [2.0**57 + 32 * k for k in range(1, 11)]
    cases = {
        "finite.csv": ("t,v1\n0,1\n0.5,2\n1,inf\n", "line 4: non-finite value"),
        "uniform.csv": ("t,v1\n0,1\n0.5,2\n1.75,3\n",
                        "line 4: non-uniform time step 1.25, expected 0.5"),
        "decreasing.csv": ("t,v1\n0,1\n0.5,2\n0.25,3\n",
                           "line 4: non-uniform time step -0.25, expected 0.5"),
        "binade.csv": ("t,v1\n" + "".join(f"{t!r},0\n" for t in times),
                       "t0 = 1.4411518807585571e+17 and dt = 24.0 give sample 10 at "
                       "t = 1.4411518807585594e+17: time column must be strictly increasing"),
        "one.csv": ("t,v1\n0,1\n", "need at least two samples to infer the time step, got 1"),
        "one_inf.csv": ("t,v1\n0,inf\n", "line 2: non-finite value"),
        "wide.csv": ("t,v1\n0,1,2\n1,2,3\n", "line 2: expected 2 fields, got 3"),
        # "\f" is whitespace in a field, not a line end: the editor's line 4
        "formfeed.csv": ("t,v1\n0 \f,1\n0.5,2\n1,inf\n", "line 4: non-finite value"),
    }
    calls = _spy_on_loadtxt(monkeypatch)
    for name, (text, message) in cases.items():
        path = tmp_path / name
        path.write_bytes(text.encode())
        calls.clear()
        with pytest.raises(ParseError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_trace(str(path))
        assert calls == [str(path)]


def test_load_trace_keeps_the_bytes_of_a_file_removed_after_its_first_read(tmp_path,
                                                                          monkeypatch):
    # numpy's reader opens the path again; when the file is gone by then,
    # the trace comes from the bytes already read
    trace = Trace(0.0, 0.5, [[1.0], [2.0], [3.0]])
    path = tmp_path / "trace.csv"
    save_trace(trace, str(path))
    loadtxt = np.loadtxt

    def remove_then_load(fname, *args, **kwargs):
        if isinstance(fname, str):  # the line route passes its lines
            os.remove(fname)
        return loadtxt(fname, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", remove_then_load)
    assert load_trace(str(path)).samples.tobytes() == trace.samples.tobytes()
    assert not path.exists()


def test_load_trace_short_files_keep_their_messages_and_warn_nothing(tmp_path):
    cases = {"t,v1\n": 0, "t,v1\n\n\n": 0, "t,v1\r\n\r\n": 0, " t , v1 ": 0,
             "t,v1\n0,1\n": 1, "t,v1\n\n0,1\n\n": 1, "t,v1\r\n0,1": 1}
    for text, rows in cases.items():
        path = tmp_path / "short.csv"
        path.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: need at least two "
                                                 f"samples to infer the time step, got {rows}$"):
                load_trace(str(path))


@pytest.mark.parametrize("suffix, compress", [(".gz", gzip.compress), (".bz2", bz2.compress),
                                              (".xz", lzma.compress),
                                              (".lzma", partial(lzma.compress,
                                                                format=lzma.FORMAT_ALONE))])
def test_load_trace_reads_a_compressed_file_as_text(tmp_path, suffix, compress):
    # numpy's reader would decompress a path with this suffix; load_trace
    # reads the bytes as open() does: a plain trace so named loads, and a
    # compressed one is a ParseError naming the file and open()'s error
    trace = Trace(0.0, 0.5, [[1.0], [2.0], [3.0]])
    path = tmp_path / ("trace.csv" + suffix)
    save_trace(trace, str(path))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert load_trace(str(path)).samples.tobytes() == trace.samples.tobytes()
    path.write_bytes(compress(path.read_bytes()))
    with pytest.raises(ValueError) as as_text:
        with open(path) as fh:
            fh.read()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError, match=re.escape(
                f"{path}: cannot read trace file: {as_text.value}")):
            load_trace(str(path))


def test_load_trace_reads_a_url_like_path_as_a_local_file(tmp_path, monkeypatch):
    # numpy's reader would fetch a path with a scheme and a host as a URL
    def no_url(*args, **kwargs):
        raise AssertionError("load_trace opened a URL")

    monkeypatch.setattr(urllib.request, "urlopen", no_url)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "http:" / "example.org").mkdir(parents=True)
    trace = Trace(0.0, 0.5, [[1.0], [2.0], [3.0]])
    save_trace(trace, str(tmp_path / "http:" / "example.org" / "trace.csv"))
    back = load_trace("http://example.org/trace.csv")
    assert back.samples.tobytes() == trace.samples.tobytes()



@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_load_trace_reads_a_pipe_once(tmp_path):
    # the first read empties the pipe, so opening its path again would read
    # no data: numpy's reader would warn, and the trace must not depend on it
    trace = Trace(0.0, 0.5, [[1.0], [2.0], [3.0]])
    save_trace(trace, str(tmp_path / "trace.csv"))
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, (tmp_path / "trace.csv").read_bytes())
        os.close(write_end)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = load_trace(f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)
    assert back.samples.tobytes() == trace.samples.tobytes()


def test_load_trace_breaks_lines_where_numpy_does(tmp_path):
    # a line ends at "\n", "\r\n" or "\r" on both routes, and numpy's reader
    # takes these characters for spaces inside a field, as in "0 \f,1"; a
    # whitespace-only line, or a plain file named *.gz, takes the line route
    path = tmp_path / "breaks.csv"
    for char in _CONTROLS:
        text = f"t,v1\n0 {char},1\n0.5,2\n1,3\n"
        path.write_text(text, encoding="utf-8")
        (tmp_path / "blank.csv").write_text(text + " \n", encoding="utf-8")
        (tmp_path / "plain.csv.gz").write_text(text, encoding="utf-8")
        table = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(table, [[0.0, 1.0], [0.5, 2.0], [1.0, 3.0]])
        for name in ("breaks.csv", "blank.csv", "plain.csv.gz"):
            routed = tmp_path / name
            assert (_read_trace(str(routed), routed.read_bytes()) is None) == (routed != path)
            back = load_trace(str(routed))
            assert (back.t0, back.dt) == (0.0, 0.5)
            assert back.samples.tobytes() == table[:, 1:].tobytes()
    # and bytes that are not text are a ParseError naming the file and
    # the error open() gives on them
    path.write_bytes(b"t,v1\n0,1\xa0\n0.5,2\n1,3\n")
    with pytest.raises(ValueError) as as_text:
        with open(path) as fh:
            fh.read()
    with pytest.raises(ParseError, match=re.escape(
            f"{path}: cannot read trace file: {as_text.value}")):
        load_trace(str(path))


def test_report_document_shape():
    report = analyze(table_model(), 1.0)
    text = dump_report(report)
    assert text == dump_report(report)
    doc = json.loads(text)
    assert list(doc) == ["model", "horizon", "observable", "kalman_rank", "rank_required",
                         "kalman_observable", "gramian_observable", "consistent",
                         "gramian"]
    assert list(doc["gramian"]) == ["method", "horizon", "positive_definite",
                                    "min_eigenvalue", "matrix"]
    assert doc["model"] == "cardio-table"
    assert doc["observable"] is True
    assert doc["kalman_rank"] == 2
    assert doc["rank_required"] == 2
    assert doc["consistent"] is True
    assert doc["gramian"]["method"] == "doubling"
    assert len(doc["gramian"]["matrix"]) == 2


def report_doc(m, horizon):
    """analyze, dump_report and json.loads, with warnings as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = analyze(m, horizon)
        doc = json.loads(dump_report(report))
    return report, doc


@pytest.mark.parametrize("m, horizon", [
    *[(make_model([[0.5]], [[1.0]], [[1.0]]), t) for t in (356.0, 380.0, 600.0, 709.0)],
    *[(make_model([[0.0, 1.0], [-200.0, -1.0]], [[0.0], [1.0]], [[0.0, 1.0]]), t)
      for t in (107.0, 110.0, 112.0)],
], ids=["grow-356", "grow-380", "grow-600", "grow-709",
        "stiff-107", "stiff-110", "stiff-112"])
def test_certificates_of_gramians_past_1e154_serialize(m, horizon):
    # the squares of these Gramians' entries overflow; each certificate
    # serializes with no RuntimeWarning, its Gramian exactly as analyze gave it
    report, doc = report_doc(m, horizon)
    assert doc["observable"] is True
    assert doc["gramian"]["matrix"] == report.gramian.gramian.tolist()


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 4), k=st.integers(-3, 2), kc=st.integers(-90, 90),
       horizon=st.floats(0.01, 50.0))
def test_every_report_analyze_returns_serializes(data, n, k, kc, horizon):
    # A scaled by 10^k and C by 10^kc: Gramians from about 1e-180 to past
    # the float range, where analyze itself raises
    entries = st.lists(st.floats(-1.0, 1.0), min_size=n * n + n, max_size=n * n + n)
    values = np.array(data.draw(entries))
    m = make_model(10.0 ** k * values[:n * n].reshape(n, n), np.ones((n, 1)),
                   10.0 ** kc * values[n * n:].reshape(1, n))
    try:
        report, doc = report_doc(m, horizon)
    except NonFiniteError:  # the doubling Gramian or a rank block overflows
        return
    except ValueError as exc:  # a nonzero C so small that C^T C underflows
        assert str(exc).startswith("doubling: C^T C underflows to 0"), exc
        return
    assert doc["observable"] is report.observable
    assert doc["gramian"]["matrix"] == report.gramian.gramian.tolist()


def test_vector_document():
    text = dump_vector_doc("x0", np.array([1.0, -0.5]),
                           {"gramian_condition": 4.5})
    doc = json.loads(text)
    assert doc["x0"] == [1.0, -0.5]
    assert doc["gramian_condition"] == 4.5


def test_vector_document_literal_bytes():
    # floats take 17 significant digits; every other scalar is json's own
    text = dump_vector_doc("x0", np.array([1.0, 0.1]), {
        "yes": True, "no": False, "count": 3, "note": 'say "hi"', "none": None,
        "grid": [[1, 2.5], [], [None, "a"]]})
    assert text == (
        '{\n'
        '  "x0": [1, 0.10000000000000001],\n'
        '  "yes": true,\n'
        '  "no": false,\n'
        '  "count": 3,\n'
        '  "note": "say \\"hi\\"",\n'
        '  "none": null,\n'
        '  "grid": [\n'
        '    [1, 2.5],\n'
        '    [],\n'
        '    [null, "a"]\n'
        '  ]\n'
        '}\n')


@pytest.mark.parametrize("t0, dt", [(100.0, 1e-5), (1e6, 1e-3)])
def test_trace_round_trip_on_offset_grid(tmp_path, t0, dt):
    # |t| >> dt: the written times carry rounding larger than 1e-9 * dt
    trace = Trace(t0, dt, np.arange(1001.0)[:, None])
    path = str(tmp_path / "offset.csv")
    save_trace(trace, path)
    back = load_trace(path)
    assert back.t0 == t0
    np.testing.assert_allclose(back.dt, dt, rtol=1e-6)
    np.testing.assert_array_equal(back.samples, trace.samples)


def test_documents_reject_non_finite_numbers():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            dump_vector_doc("x0", np.array([1.0, bad]))
        with pytest.raises(ValueError, match="non-finite"):
            dump_vector_doc("x0", np.zeros(2), {"gramian_condition": bad})


def test_load_model_names_a_file_that_is_not_text(tmp_path):
    # 0xff starts no UTF-8 sequence
    path = tmp_path / "model.json"
    path.write_bytes(b"\xff{}")
    with pytest.raises(ValueError) as as_text:
        with open(path) as fh:
            fh.read()
    with pytest.raises(ParseError, match=re.escape(
            f"{path}: cannot read model file: {as_text.value}")):
        load_model(str(path))
