import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from observkit.fileio import (
    _CHUNK_VALUES,
    ParseError,
    dump_model,
    dump_report,
    dump_vector_doc,
    load_model,
    load_trace,
    save_model,
    save_trace,
)
from observkit.lti import GRID_RTOL, Trace, make_model
from observkit.observability import analyze, reconstruct_with_gramian


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
@given(grid=_grids(), count=st.integers(2, 40), width=st.integers(1, 3),
       data=st.data())
def test_every_trace_that_constructs_loads_again(tmp_path_factory, grid, count, width, data):
    values = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                min_size=count * width, max_size=count * width))
    try:
        trace = Trace(*grid, np.reshape(values, (count, width)))
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
        reconstruct_with_gramian(model, back, horizon=(count - 1) * trace.dt)
    except ValueError as exc:  # the sums of arbitrary samples may overflow
        assert "trace spans" not in str(exc)


def test_save_trace_refuses_a_single_sample(tmp_path):
    path = tmp_path / "one.csv"
    with pytest.raises(ValueError, match="at least two samples for load_trace to infer its "
                                         "time step, got 1"):
        save_trace(Trace(0.0, 0.1, [[1.0, 0.0]]), str(path))
    assert not path.exists()


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
    cases = {
        "empty trace file": "",
        "header must be": "x,y\n0,1\n1,2\n",
        "expected 3 fields": "t,v1,v2\n0,1,2\n1,2\n",
        "non-numeric field": "t,v1\n0,one\n1,2\n",
        "non-finite value": "t,v1\n0,inf\n1,2\n",
        "at least two samples": "t,v1\n0,1\n",
        "strictly increasing": "t,v1\n1,1\n0,2\n",
        "non-uniform time step": "t,v1\n0,1\n1,2\n2.5,3\n",
    }
    for expected, text in cases.items():
        path = tmp_path / "case.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match=expected):
            load_trace(str(path))


def test_load_trace_reports_offending_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,v1\n0,1\n0.1,2\n0.2,x\n")
    with pytest.raises(ParseError, match="line 4"):
        load_trace(str(path))


def test_report_document_shape():
    report = analyze(table_model(), 1.0)
    text = dump_report(report, "cardio-table")
    assert text == dump_report(report, "cardio-table")
    doc = json.loads(text)
    assert list(doc) == ["model", "horizon", "observable", "kalman_rank", "rank_required",
                         "kalman_observable", "gramian_observable", "consistent",
                         "gramian", "gramian_ode", "gramian_route_discrepancy"]
    assert list(doc["gramian"]) == ["method", "horizon", "positive_definite",
                                    "min_eigenvalue", "matrix"]
    assert doc["model"] == "cardio-table"
    assert doc["observable"] is True
    assert doc["kalman_rank"] == 2
    assert doc["rank_required"] == 2
    assert doc["consistent"] is True
    assert doc["gramian"]["method"] == "doubling"
    assert doc["gramian_ode"]["method"] == "lyapunov-ode"
    assert len(doc["gramian"]["matrix"]) == 2
    assert doc["gramian_route_discrepancy"] <= 1e-6


def test_vector_document():
    text = dump_vector_doc("x0", np.array([1.0, -0.5]),
                           {"gramian_condition": 4.5})
    doc = json.loads(text)
    assert doc["x0"] == [1.0, -0.5]
    assert doc["gramian_condition"] == 4.5


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
