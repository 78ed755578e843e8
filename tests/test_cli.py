import gc
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import observkit
from helpers import ode_calls  # noqa: F401  (a fixture)
from observkit.cardio import CardioParams, build_cardio_model
from observkit.cli import _style, build_parser, main
from observkit.fileio import dump_report, load_model, load_trace, save_model, save_trace
from observkit.lti import Trace, make_model
from observkit.observability import analyze


@pytest.fixture(autouse=True)
def no_color(monkeypatch):
    monkeypatch.setenv("OBSERVKIT_NO_COLOR", "1")


def cardio_model_file(tmp_path, stiffness=1.0):
    path = tmp_path / "model.json"
    m = make_model([[0.0, 1.0], [-stiffness, 0.0]], [[0.0], [1.0]],
                   [[0.0, 1.0]], name="table")
    save_model(m, str(path))
    return str(path)


def hidden_model_file(tmp_path):
    path = tmp_path / "hidden.json"
    m = make_model([[1.0, 0.0], [0.0, 2.0]], [[0.0], [1.0]], [[1.0, 0.0]],
                   name="hidden-mode")
    save_model(m, str(path))
    return str(path)


def test_cardio_observable(tmp_path, capsys):
    model_path = tmp_path / "table.json"
    rc = main(["cardio", "--mass", "1", "--damping", "0.5", "--stiffness", "2",
               "--horizon", "1", "--out", str(model_path)])
    out, err = capsys.readouterr()
    assert rc == 0
    doc = json.loads(out)
    assert doc["observable"] is True
    assert doc["kalman_rank"] == 2
    assert "completely observable" in err
    saved = load_model(str(model_path))
    np.testing.assert_array_equal(saved.a, [[0.0, 1.0], [-2.0, -0.5]])


def test_cardio_zero_stiffness_is_domain_negative(tmp_path, capsys):
    rc = main(["cardio", "--mass", "1", "--damping", "1", "--stiffness", "0"])
    out, err = capsys.readouterr()
    assert rc == 2
    doc = json.loads(out)
    assert doc["observable"] is False
    assert doc["kalman_rank"] == 1
    assert "NOT completely observable" in err


def test_cardio_rejects_bad_mass(capsys):
    rc = main(["cardio", "--mass", "0", "--stiffness", "1"])
    _, err = capsys.readouterr()
    assert rc == 1
    assert "mass" in err


def test_analyze_observable_model(tmp_path, capsys):
    model_path = cardio_model_file(tmp_path)
    rc = main(["analyze", "--model", model_path, "--horizon", "2"])
    out, _ = capsys.readouterr()
    assert rc == 0
    doc = json.loads(out)
    assert doc["kalman_rank"] == 2
    assert doc["consistent"] is True


def test_default_flags_match_library_defaults(tmp_path, capsys):
    # no tolerance flags: the report must be the library's default analysis
    model_path = cardio_model_file(tmp_path, stiffness=3.0)
    assert main(["analyze", "--model", model_path, "--horizon", "2"]) == 0
    out, _ = capsys.readouterr()
    model = load_model(model_path)
    assert out == dump_report(analyze(model, 2.0), model.name)
    assert main(["cardio", "--mass", "2", "--damping", "0.5", "--stiffness", "3"]) == 0
    out, _ = capsys.readouterr()
    model = build_cardio_model(CardioParams(mass=2.0, damping=0.5, stiffness=3.0))
    assert out == dump_report(analyze(model, 1.0), model.name)
    # the report shows pd_tol only through verdicts, so compare it directly
    library = inspect.signature(analyze).parameters
    assert list(library) == ["m", "horizon", "rank_tol", "pd_tol"]
    for argv in (["analyze", "--model", model_path],
                 ["cardio", "--mass", "1", "--stiffness", "1"]):
        args = build_parser().parse_args(argv)
        for flag in ("rank_tol", "pd_tol"):
            assert getattr(args, flag) == library[flag].default
        assert args.horizon == 1.0


def test_analyze_writes_report_file(tmp_path, capsys):
    model_path = cardio_model_file(tmp_path)
    report_path = tmp_path / "report.json"
    rc = main(["analyze", "--model", model_path, "--out", str(report_path)])
    out, _ = capsys.readouterr()
    assert rc == 0
    assert out == ""
    doc = json.loads(report_path.read_text())
    assert doc["observable"] is True


def test_analyze_unobservable_model(tmp_path, capsys):
    rc = main(["analyze", "--model", hidden_model_file(tmp_path)])
    out, _ = capsys.readouterr()
    assert rc == 2
    assert json.loads(out)["observable"] is False


def test_analyze_warns_when_the_verdicts_disagree(tmp_path, capsys):
    # the table in millimetres: rank 2, but the Gramian's smallest eigenvalue
    # falls below pd_tol times its largest diagonal entry
    path = tmp_path / "mm.json"
    save_model(make_model([[0.0, 1000.0], [-1e-05, -0.5]], [[0.0], [1.0]], [[0.0, 1.0]]),
               str(path))
    rc = main(["analyze", "--model", str(path), "--horizon", "1"])
    _, err = capsys.readouterr()
    assert rc == 2
    assert err.splitlines() == [
        "warning: Kalman rank and Gramian verdicts disagree; "
        "re-run with tighter tolerances or a longer horizon",
        "model: NOT completely observable over [0, 1] (rank 2/2)"]


def test_analyze_rank_tolerance_past_the_float_range_is_a_verdict(tmp_path, capsys):
    rc = main(["analyze", "--model", cardio_model_file(tmp_path, stiffness=2.0),
               "--rank-tol", "1e308"])
    _, err = capsys.readouterr()
    assert rc == 2
    assert err.endswith("(rank 0/2)\n")


def test_analyze_malformed_model(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    rc = main(["analyze", "--model", str(path)])
    _, err = capsys.readouterr()
    assert rc == 1
    assert "error:" in err and "line" in err


def test_analyze_integer_past_the_float_range(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text('{"a": [[1' + "0" * 400 + ']], "b": [[1]], "c": [[1]]}')
    err = _numeric_failure(["analyze", "--model", str(path)], capsys)
    assert err == f"error: {path}: 'a'[0][0] is not finite\n"


def test_files_that_are_not_text_are_errors_naming_the_file(tmp_path, capsys):
    model = tmp_path / "bad.json"
    model.write_bytes(b"\xff{}")
    err = _numeric_failure(["analyze", "--model", str(model)], capsys)
    assert err.startswith(f"error: {model}: cannot read model file: ")
    trace = tmp_path / "packed_y.csv.gz"
    trace.write_bytes(b"\x1f\x8b\x08\x00")
    err = _numeric_failure(["reconstruct", "--model", cardio_model_file(tmp_path),
                            str(trace)], capsys)
    assert err.startswith(f"error: {trace}: cannot read trace file: ")


def test_simulate_free_velocity_output(tmp_path, capsys):
    model_path = cardio_model_file(tmp_path, stiffness=1.0)
    prefix = str(tmp_path / "sim")
    rc = main(["simulate", "--model", model_path, "--x0", "1,0",
               "--dt", "0.01", "--steps", "1000", "--out", prefix])
    capsys.readouterr()
    assert rc == 0
    ys = load_trace(prefix + "_y.csv")
    np.testing.assert_allclose(ys.samples[:, 0], -np.sin(ys.times),
                               rtol=0, atol=1e-10)
    xs = load_trace(prefix + "_x.csv")
    assert xs.width == 2


def test_simulate_zero_steps_single_row(tmp_path, capsys):
    # one row cannot give load_trace a time step, so simulate refuses to
    # write it: exit 1, one error line, and neither CSV
    model_path = cardio_model_file(tmp_path)
    rc = main(["simulate", "--model", model_path, "--x0", "1,0",
               "--dt", "0.1", "--steps", "0", "--out", str(tmp_path / "still")])
    out, err = capsys.readouterr()
    assert (rc, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "at least two samples" in err and "got 1" in err
    assert not list(tmp_path.glob("still*"))


def test_simulate_is_byte_deterministic(tmp_path, capsys):
    model_path = cardio_model_file(tmp_path, stiffness=2.5)
    for prefix in ("one", "two"):
        rc = main(["simulate", "--model", model_path, "--x0", "0.3,-0.7",
                   "--dt", "0.01", "--steps", "200",
                   "--out", str(tmp_path / prefix)])
        assert rc == 0
    capsys.readouterr()
    assert (tmp_path / "one_x.csv").read_bytes() == (tmp_path / "two_x.csv").read_bytes()
    assert (tmp_path / "one_y.csv").read_bytes() == (tmp_path / "two_y.csv").read_bytes()


def test_analyze_overflowing_c_transpose_c_is_an_error(tmp_path, capsys):
    path = str(tmp_path / "bigc.json")
    save_model(make_model([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [1.0]], [[1e200, 0.0]]), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["analyze", "--model", path, "--horizon", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: doubling: C^T C overflows; "
                   "C has an entry of magnitude 1e+200\n")


def test_analyze_gramian_near_the_float_limit(tmp_path, capsys):
    # C^T C = 1.69e308 is finite and the Gramian reaches 1.2e308: the
    # doubling route certifies, with no RuntimeWarning and no warning line
    path = str(tmp_path / "bigc.json")
    save_model(make_model([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [1.0]], [[1.3e154, 0.0]]), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["analyze", "--model", path, "--horizon", "1"]) == 0
    out, err = capsys.readouterr()
    assert err == "model: completely observable over [0, 1] (rank 2/2, " \
                  "min Gramian eigenvalue 1.340e+307)\n"
    doc = json.loads(out)
    assert doc["observable"] and doc["consistent"]
    assert doc["gramian"]["matrix"][0][0] > 1e308


def test_reconstruct_gramian_near_the_float_limit(tmp_path, capsys):
    # the sampled Gramian reaches 1.1e308 and is symmetrized without
    # overflow, so x0 is recovered with no RuntimeWarning
    path = str(tmp_path / "bigc.json")
    prefix = str(tmp_path / "nm")
    save_model(make_model([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [1.0]], [[1.3e154, 0.0]]), path)
    assert main(["simulate", "--model", path, "--x0", "1,0.5", "--dt", "1", "--steps", "1",
                 "--out", prefix]) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["reconstruct", "--model", path, prefix + "_y.csv"]) == 0
    out, err = capsys.readouterr()
    assert err == "reconstructed x0 over [0, 1] (Gramian condition 3.351e+00)\n"
    assert json.loads(out)["x0"] == [1.0, 0.49999999999999978]


def test_simulate_usage_errors(tmp_path, capsys):
    model_path = cardio_model_file(tmp_path)
    rc = main(["simulate", "--model", model_path, "--x0", "1,2,3",
               "--dt", "0.1", "--steps", "5", "--out", str(tmp_path / "bad")])
    assert rc == 1
    rc = main(["simulate", "--model", model_path, "--x0", "1,0",
               "--out", str(tmp_path / "bad")])
    assert rc == 1  # --dt/--steps missing
    u_path = tmp_path / "u.csv"
    save_trace(Trace(0.0, 0.1, np.ones((5, 1))), str(u_path))
    rc = main(["simulate", "--model", model_path, "--x0", "1,0",
               "--input", str(u_path), "--dt", "0.1",
               "--out", str(tmp_path / "bad")])
    assert rc == 1  # grid flags conflict with --input
    _, err = capsys.readouterr()
    assert "error:" in err


def test_x0_is_converted_and_checked_by_the_library(tmp_path, capsys):
    model_path = cardio_model_file(tmp_path)
    prefix = str(tmp_path / "x0")
    for x0, message in (("a,b", "could not convert string to float: 'a'"),
                        ("1,", "could not convert string to float: ''")):
        rc = main(["simulate", "--model", model_path, f"--x0={x0}",
                   "--dt", "0.1", "--steps", "3", "--out", prefix])
        out, err = capsys.readouterr()
        assert rc == 1 and out == ""
        assert err == f"error: x0 is ragged or non-numeric: {message}\n"
    assert not list(tmp_path.glob("x0*"))
    # numpy strips the spaces around a field, as float() does
    assert main(["simulate", "--model", model_path, "--x0", "1, -0.5",
                 "--dt", "0.1", "--steps", "3", "--out", prefix]) == 0
    capsys.readouterr()
    np.testing.assert_array_equal(load_trace(prefix + "_x.csv").samples[0], [1.0, -0.5])


def test_simulate_steps_below_zero_is_the_count_rule(tmp_path, capsys):
    rc = main(["simulate", "--model", cardio_model_file(tmp_path), "--x0", "1,0",
               "--dt", "0.1", "--steps", "-1", "--out", str(tmp_path / "neg")])
    _, err = capsys.readouterr()
    assert rc == 1
    assert err == "error: steps must be a whole number >= 0, got -1\n"


def test_simulate_with_input_trace(tmp_path, capsys):
    model_path = cardio_model_file(tmp_path)
    u_path = tmp_path / "u.csv"
    rng = np.random.default_rng(71)
    save_trace(Trace(0.0, 0.01, rng.standard_normal((101, 1))), str(u_path))
    prefix = str(tmp_path / "forced")
    rc = main(["simulate", "--model", model_path, "--x0", "0,0",
               "--input", str(u_path), "--out", prefix])
    capsys.readouterr()
    assert rc == 0
    ys = load_trace(prefix + "_y.csv")
    assert ys.samples.shape == (101, 1)
    assert ys.dt == pytest.approx(0.01)


def test_input_of_the_wrong_width_is_refused_by_the_library(tmp_path, capsys):
    model_path = cardio_model_file(tmp_path)
    prefix = str(tmp_path / "free")
    assert main(["simulate", "--model", model_path, "--x0", "1,0",
                 "--dt", "0.01", "--steps", "100", "--out", prefix]) == 0
    u_path = str(tmp_path / "u2.csv")
    save_trace(Trace(0.0, 0.01, np.ones((101, 2))), u_path)
    capsys.readouterr()
    wide = str(tmp_path / "wide")
    for argv in (["simulate", "--model", model_path, "--x0", "1,0", "--input", u_path,
                  "--out", wide],
                 ["reconstruct", "--model", model_path, prefix + "_y.csv", "--input", u_path]):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: input trace must have width 1, got 2\n"
    assert not list(tmp_path.glob("wide*"))


def test_reconstruct_round_trip(tmp_path, capsys):
    model_path = cardio_model_file(tmp_path, stiffness=2.0)
    prefix = str(tmp_path / "sim")
    main(["simulate", "--model", model_path, "--x0", "1,-0.5",
          "--dt", "0.001", "--steps", "1000", "--out", prefix])
    capsys.readouterr()
    rc = main(["reconstruct", "--model", model_path, prefix + "_y.csv"])
    out, err = capsys.readouterr()
    assert rc == 0
    doc = json.loads(out)
    got = np.array(doc["x0"])
    assert np.linalg.norm(got - [1.0, -0.5]) <= 1e-6
    assert doc["gramian_condition"] > 1.0
    assert "reconstructed x0" in err


def test_reconstruct_forced_round_trip(tmp_path, capsys):
    model_path = cardio_model_file(tmp_path, stiffness=2.0)
    u_path = tmp_path / "u.csv"
    rng = np.random.default_rng(72)
    save_trace(Trace(0.0, 0.001, rng.standard_normal((1001, 1))), str(u_path))
    prefix = str(tmp_path / "forced")
    main(["simulate", "--model", model_path, "--x0", "0.8,0.6",
          "--input", str(u_path), "--out", prefix])
    capsys.readouterr()
    rc = main(["reconstruct", "--model", model_path, prefix + "_y.csv",
               "--input", str(u_path)])
    out, _ = capsys.readouterr()
    assert rc == 0
    got = np.array(json.loads(out)["x0"])
    assert np.linalg.norm(got - [0.8, 0.6]) <= 1e-5


def test_reconstruct_refuses_an_input_on_another_grid(tmp_path, capsys):
    model_path = cardio_model_file(tmp_path, stiffness=2.0)
    y_path, u_path = str(tmp_path / "y.csv"), str(tmp_path / "u.csv")
    save_trace(Trace(0.0, 0.1, np.ones((11, 1))), y_path)
    save_trace(Trace(0.0, 0.1, np.ones((5, 1))), u_path)
    rc = main(["reconstruct", "--model", model_path, y_path, "--input", u_path])
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert err == "error: input and output traces must share a grid: 5 vs 11 samples\n"


def test_reconstruct_names_a_missing_trace(tmp_path, capsys):
    path = str(tmp_path / "nope.csv")
    rc = main(["reconstruct", "--model", cardio_model_file(tmp_path), path])
    _, err = capsys.readouterr()
    assert rc == 1
    assert err.startswith(f"error: {path}: cannot read trace file: [Errno 2]")


def test_reconstruct_unobservable_exit_code(tmp_path, capsys):
    model_path = hidden_model_file(tmp_path)
    prefix = str(tmp_path / "hid")
    main(["simulate", "--model", model_path, "--x0", "0.3,0.7",
          "--dt", "0.01", "--steps", "100", "--out", prefix])
    capsys.readouterr()
    rc = main(["reconstruct", "--model", model_path, prefix + "_y.csv"])
    _, err = capsys.readouterr()
    assert rc == 2
    assert "unobservable" in err


def test_reconstruct_pathological_sampling_period(tmp_path, capsys):
    # dt = pi is half the period of the undamped table: Phi(dt) = -I, so the
    # samples cannot separate the states, though the model is observable
    model_path = str(tmp_path / "undamped.json")
    prefix = str(tmp_path / "pi")
    assert main(["cardio", "--mass", "1", "--stiffness", "1", "--out", model_path]) == 0
    assert main(["simulate", "--model", model_path, "--x0", "1,-0.5",
                 "--dt", "3.141592653589793", "--steps", "10", "--out", prefix]) == 0
    capsys.readouterr()
    rc = main(["reconstruct", "--model", model_path, prefix + "_y.csv"])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    red, error = err.splitlines()
    assert red == "system unobservable from these samples"
    assert error.startswith("error: the sampled Gramian on this trace's grid "
                            "(dt = 3.14159 over [0, 31.4159]) is singular: x0 is not "
                            "recoverable from these samples (condition estimate ")
    assert analyze(load_model(model_path), 10 * np.pi).observable


def test_reconstruct_zero_trace(tmp_path, capsys):
    model_path = cardio_model_file(tmp_path)
    y_path = tmp_path / "zero_y.csv"
    save_trace(Trace(0.0, 0.01, np.zeros((101, 1))), str(y_path))
    rc = main(["reconstruct", "--model", model_path, str(y_path)])
    out, _ = capsys.readouterr()
    assert rc == 0
    assert json.loads(out)["x0"] == [0.0, 0.0]


def test_reconstruct_horizon_mismatch(tmp_path, capsys):
    model_path = cardio_model_file(tmp_path)
    prefix = str(tmp_path / "sim")
    # the epoch trace spans 1.234 up to the rounding of its written times,
    # which the grid tolerance allows for; 1.235 is a whole step more
    for t0, dt, steps, horizon in [("0", "0.01", "100", "2"),
                                   ("1700000000.123", "1e-3", "1234", "1.235")]:
        main(["simulate", "--model", model_path, "--x0", "1,0", "--t0", t0,
              "--dt", dt, "--steps", steps, "--out", prefix])
        capsys.readouterr()
        rc = main(["reconstruct", "--model", model_path, prefix + "_y.csv",
                   "--horizon", horizon])
        out, err = capsys.readouterr()
        assert (rc, out) == (1, "")
        assert re.fullmatch(rf"error: trace spans \S+ but horizon {re.escape(horizon)} was "
                            r"requested\n", err), err


# x0 is only as good as the file's time resolution: the written times are
# t0 + k dt rounded to the spacing of floats at t0, so the mean step the
# trace loads with is off by up to that spacing over the span; x0 comes back
# 2e-8 off at t0 = 1.7e9 over 1.234 s and 9.4e-9 off at t0 = 1e6 over 2 steps
@pytest.mark.parametrize("t0, dt, steps, x0_tol", [
    pytest.param("100", "1e-5", 1000, 1e-12, id="100-1e-5"),
    pytest.param("1e6", "1e-3", 1000, 1e-12, id="1e6-1e-3"),
    pytest.param("1700000000.123", "1e-3", 1234, 1e-6, id="1700000000.123-1e-3-1234"),
    pytest.param("1e6", "1e-3", 2, 1e-6, id="1e6-1e-3-2"),
])
def test_reconstruct_on_offset_grid(tmp_path, capsys, t0, dt, steps, x0_tol):
    model_path = cardio_model_file(tmp_path, stiffness=2.0)
    prefix = str(tmp_path / "sim")
    assert main(["simulate", "--model", model_path, "--x0", "1,-0.5", "--t0", t0,
                 "--dt", dt, "--steps", str(steps), "--out", prefix]) == 0
    capsys.readouterr()
    rc = main(["reconstruct", "--model", model_path, prefix + "_y.csv",
               "--horizon", f"{steps * float(dt):g}"])
    out, err = capsys.readouterr()
    assert rc == 0, err
    assert np.linalg.norm(np.array(json.loads(out)["x0"]) - [1.0, -0.5]) <= x0_tol


def _numeric_failure(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(argv)
    out, err = capsys.readouterr()
    assert (rc, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    return err


@pytest.mark.parametrize("flag, value, message", [
    ("--mass", "inf", "mass must be positive and finite, got inf"),
    ("--mass", "nan", "mass must be positive and finite, got nan"),
    ("--damping", "nan", "damping must be nonnegative and finite, got nan"),
    ("--damping", "inf", "damping must be nonnegative and finite, got inf"),
    ("--stiffness", "inf", "stiffness must be finite, got inf"),
    ("--stiffness", "nan", "stiffness must be finite, got nan"),
    # each parameter is finite, but an entry of A, a ratio of two, is not
    ("--mass", "1e-320", "stiffness / mass must be finite, got 1.0 / 1e-320"),
    ("--mass --damping", "1e-300 1e10",
     "damping / mass must be finite, got 10000000000.0 / 1e-300"),
])
def test_cardio_non_finite_parameter_is_an_error(capsys, flag, value, message):
    argv = ["cardio", "--mass", "1", "--damping", "0.5", "--stiffness", "1"]
    for f, v in zip(flag.split(), value.split()):
        argv[argv.index(f) + 1] = v
    err = _numeric_failure(argv, capsys)
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("params, horizon", [
    *[(("0.5", "0.5", "100"), t) for t in ("103", "110", "112", "113", "200")],
    (("1", "0", "1"), "1e6"),  # the paper's table
], ids=["stiff-T103", "stiff-T110", "stiff-T112", "stiff-T113", "stiff-T200", "paper-T1e6"])
def test_cardio_certificate_is_the_rank_test_and_doubling_gramian(capsys, params, horizon):
    # 1000 RK4 steps are unstable at these horizons (indefinite up to 112,
    # overflowing from 113); the certificate does not run them, so stderr
    # is the verdict alone and the document has no RK4 keys
    mass, damping, stiffness = params
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["cardio", "--mass", mass, "--damping", damping, "--stiffness", stiffness,
                   "--horizon", horizon])
    out, err = capsys.readouterr()
    assert rc == 0
    doc = json.loads(out)
    assert list(doc)[-2:] == ["consistent", "gramian"]  # no RK4 keys after the Gramian
    assert doc["observable"] is True and doc["consistent"] is True
    label = doc["model"] or "model"
    assert err == (f"{label}: completely observable over [0, {float(horizon):g}] (rank 2/2, "
                   f"min Gramian eigenvalue {doc['gramian']['min_eigenvalue']:.3e})\n")


def test_cli_certificates_run_no_rk4(tmp_path, capsys, ode_calls):
    path = str(tmp_path / "table.json")
    table = ["--mass", "1", "--damping", "0.5"]
    assert main(["cardio", *table, "--stiffness", "2", "--out", path]) == 0
    assert main(["analyze", "--model", path]) == 0
    assert main(["cardio", *table, "--stiffness", "0"]) == 2
    capsys.readouterr()
    assert ode_calls == []


@pytest.mark.parametrize("stiffness,flag", [
    ("0", "--pd-tol=-1"),  # would pass the singular Gramian
    ("2", "--pd-tol=nan"), ("2", "--pd-tol=inf"),  # would fail the definite one
    ("2", "--rank-tol=nan"), ("2", "--rank-tol=inf"),  # would report rank 0/2
])
def test_bad_tolerance_flag_is_an_error(capsys, stiffness, flag):
    err = _numeric_failure(["cardio", "--mass", "1", "--damping", "0.5",
                            "--stiffness", stiffness, flag], capsys)
    assert "must be" in err and "finite" in err


def test_simulate_expm_overflow_is_an_error(tmp_path, capsys):
    model_path = cardio_model_file(tmp_path, stiffness=2.0)
    err = _numeric_failure(["simulate", "--model", model_path, "--x0", "1,0",
                            "--dt", "1e308", "--steps", "1",
                            "--out", str(tmp_path / "r")], capsys)
    assert err.startswith("error: expm: A t is too large to scale")


def test_simulate_checks_the_grid_before_any_work(tmp_path, capsys):
    # the third sample time overflows: Trace refuses the grid before the
    # exponential of A dt is attempted, and nothing is written
    model_path = cardio_model_file(tmp_path, stiffness=2.0)
    err = _numeric_failure(["simulate", "--model", model_path, "--x0", "1,0",
                            "--dt", "1e308", "--steps", "2",
                            "--out", str(tmp_path / "r")], capsys)
    assert err == ("error: t0 = 0.0 and dt = 1e+308 give sample 2 at t = inf: "
                   "time column must be finite\n")
    assert not list(tmp_path.glob("r_*"))


def test_simulate_refuses_a_trace_it_could_not_load_again(tmp_path, capsys):
    # 1e17 + 1 rounds to 1e17, so the time column would repeat
    model_path = cardio_model_file(tmp_path, stiffness=2.0)
    err = _numeric_failure(["simulate", "--model", model_path, "--x0", "1,-0.5",
                            "--t0", "1e17", "--dt", "1", "--steps", "10",
                            "--out", str(tmp_path / "big")], capsys)
    assert "t0 = 1e+17 and dt = 1.0" in err and "strictly increasing" in err
    assert not list(tmp_path.glob("big*"))


def test_simulate_refuses_repeated_times(tmp_path, capsys):
    # the spacing of floats at 1e17 is 16, so t0 + k * 10 repeats a time
    model_path = cardio_model_file(tmp_path, stiffness=2.0)
    err = _numeric_failure(["simulate", "--model", model_path, "--x0", "1,-0.5",
                            "--t0", "1e17", "--dt", "10", "--steps", "10",
                            "--out", str(tmp_path / "big")], capsys)
    assert "t0 = 1e+17 and dt = 10.0 give sample 2 at t = 1.0000000000000002e+17" in err
    assert not list(tmp_path.glob("big*"))


def test_reconstruct_names_the_line_of_a_repeated_time(tmp_path, capsys):
    model_path = cardio_model_file(tmp_path, stiffness=2.0)
    y_path = tmp_path / "repeat_y.csv"
    y_path.write_text("t,v1\n1e+17,0\n1.0000000000000002e+17,1\n"
                      "1.0000000000000002e+17,2\n1.0000000000000005e+17,3\n")
    err = _numeric_failure(["reconstruct", "--model", model_path, str(y_path)], capsys)
    assert err == f"error: {y_path}: line 4: time column must be strictly increasing\n"


def test_reconstruct_writes_out_file(tmp_path, capsys):
    model_path = cardio_model_file(tmp_path)
    prefix = str(tmp_path / "sim")
    main(["simulate", "--model", model_path, "--x0", "0.5,0.5",
          "--dt", "0.01", "--steps", "100", "--out", prefix])
    out_path = tmp_path / "x0.json"
    rc = main(["reconstruct", "--model", model_path, prefix + "_y.csv",
               "--out", str(out_path)])
    out, _ = capsys.readouterr()
    assert rc == 0
    assert json.loads(out_path.read_text())["x0"]


def test_usage_errors_return_one(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["analyze", "--no-such-flag"]) == 1
    assert main(["simulate"]) == 1
    capsys.readouterr()


def test_intervals_flag_is_a_usage_error(tmp_path, capsys):
    # the Gramian that decides the verdict has no interval count to set
    model_path = cardio_model_file(tmp_path)
    for argv in (["analyze", "--model", model_path],
                 ["cardio", "--mass", "1", "--stiffness", "1"]):
        assert main(argv + ["--intervals", "200"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments: --intervals 200" in err


def test_help_exits_zero():
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0


def test_style_honors_no_color(monkeypatch):
    class FakeTty:
        def isatty(self):
            return True

        def write(self, _):
            pass

    monkeypatch.setattr(sys, "stderr", FakeTty())
    monkeypatch.delenv("OBSERVKIT_NO_COLOR", raising=False)
    assert _style("hi", "green") == "\x1b[32mhi\x1b[0m"
    monkeypatch.setenv("OBSERVKIT_NO_COLOR", "1")
    assert _style("hi", "green") == "hi"


@pytest.mark.parametrize("flags, code", [
    (["--stiffness", "1"], 0),
    (["--stiffness", "1", "--no-such-flag"], 1),
    (["--stiffness", "0"], 2),
], ids=["observable", "usage-error", "unobservable"])
def test_module_entry_point(tmp_path, monkeypatch, capsys, flags, code):
    # python -m observkit prints, writes and exits exactly as main() does
    argv = ["cardio", "--mass", "1", *flags, "--out", "m.json"]
    child, in_process = tmp_path / "child", tmp_path / "in_process"
    child.mkdir()
    in_process.mkdir()
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(
        os.path.abspath(observkit.__file__))))
    env.pop("PYTHONUNBUFFERED", None)  # the exit's flush delivers stdout
    proc = subprocess.run([sys.executable, "-m", "observkit", *argv], cwd=child,
                          env=env, capture_output=True, text=True)
    monkeypatch.chdir(in_process)
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
    written = {p.name: p.read_bytes() for p in child.iterdir()}
    assert written == {p.name: p.read_bytes() for p in in_process.iterdir()}
    assert bool(written) == (code != 1)


def test_package_import_leaves_dataclasses_unimported():
    # pytest imports dataclasses itself, so a child checks; comparing with
    # the state after numpy keeps the test valid if numpy ever imports it
    code = ("import numpy, sys; before = 'dataclasses' in sys.modules; "
            "import observkit, observkit.cli; print(before, 'dataclasses' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(
        os.path.abspath(observkit.__file__))))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    before, after = proc.stdout.split()
    assert after == before


def test_in_process_calls_leave_the_collector_unfrozen(capsys):
    # only the process entry freezes the heap; a library caller keeps its own
    frozen = gc.get_freeze_count()
    assert main(["cardio", "--mass", "1", "--stiffness", "1"]) == 0
    importlib.import_module("observkit.__main__")
    assert gc.get_freeze_count() == frozen
    capsys.readouterr()
