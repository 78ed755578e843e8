import json

import numpy as np
import pytest

from helpers import check_record, oracle_gramian
from observkit.cardio import CardioParams, build_cardio_model, certify_cardio
from observkit.fileio import dump_report
from observkit.lti import simulate_free


def test_params_validation():
    CardioParams(mass=1.0, damping=0.0, stiffness=-3.0)  # negative spring allowed
    with pytest.raises(ValueError, match="mass"):
        CardioParams(mass=0.0, damping=0.0, stiffness=1.0)
    with pytest.raises(ValueError, match="mass"):
        CardioParams(mass=-2.0, damping=0.0, stiffness=1.0)
    with pytest.raises(ValueError, match="damping"):
        CardioParams(mass=1.0, damping=-0.1, stiffness=1.0)


@pytest.mark.parametrize("args", [(1.0, 0.5, 2.0), (1, 0, -3)], ids=["floats", "ints"])
def test_params_record_contract(args):
    params = check_record(CardioParams, args, ("mass", "damping", "stiffness"))
    assert all(type(getattr(params, name)) is float for name in ("mass", "damping", "stiffness"))


def test_params_are_a_hashable_value():
    params = CardioParams(1, 0.5, 2)
    assert params == CardioParams(1.0, 0.5, 2.0)
    assert hash(params) == hash(CardioParams(1.0, 0.5, 2.0))
    assert params != CardioParams(1.0, 0.5, 3.0)
    assert params != (1.0, 0.5, 2.0)
    assert params != type("Sub", (CardioParams,), {})(1.0, 0.5, 2.0)  # only the same class
    assert len({params, CardioParams(mass=1.0, damping=0.5, stiffness=2.0)}) == 1


@pytest.mark.parametrize("field, value, message", [
    # an infinite mass would zero -gamma/M: the zero-stiffness table
    ("mass", np.inf, "mass must be positive and finite, got inf"),
    ("mass", np.nan, "mass must be positive and finite, got nan"),
    ("damping", np.inf, "damping must be nonnegative and finite, got inf"),
    ("damping", np.nan, "damping must be nonnegative and finite, got nan"),
    ("stiffness", np.inf, "stiffness must be finite, got inf"),
    ("stiffness", -np.inf, "stiffness must be finite, got -inf"),
    ("stiffness", np.nan, "stiffness must be finite, got nan"),
    # each parameter is finite, but an entry of A, a ratio of two, is not
    ("mass", 1e-320, "stiffness / mass must be finite, got 1.0 / 1e-320"),
    pytest.param("mass damping", (1e-300, 1e10),
                 "damping / mass must be finite, got 10000000000.0 / 1e-300",
                 id="mass damping-1e-300 1e10"),
])
def test_params_reject_non_finite(field, value, message):
    params = {"mass": 1.0, "damping": 0.5, "stiffness": 1.0}
    params.update(zip(field.split(), np.atleast_1d(value)))
    with pytest.raises(ValueError, match=f"^{message}$"):
        CardioParams(**params)


def test_build_undamped_unit_table():
    m = build_cardio_model(CardioParams(mass=1.0, damping=0.0, stiffness=1.0))
    np.testing.assert_array_equal(m.a, [[0.0, 1.0], [-1.0, 0.0]])
    np.testing.assert_array_equal(m.b, [[0.0], [1.0]])
    np.testing.assert_array_equal(m.c, [[0.0, 1.0]])
    assert (m.n, m.p, m.q) == (2, 1, 1)


def test_build_scales_by_mass():
    m = build_cardio_model(CardioParams(mass=2.0, damping=1.0, stiffness=4.0))
    np.testing.assert_array_equal(m.a, [[0.0, 1.0], [-2.0, -0.5]])


def test_certificate_observable():
    report = certify_cardio(CardioParams(mass=1.0, damping=0.5, stiffness=2.0), 5.0)
    assert report.kalman_rank == 2
    assert report.kalman_observable and report.gramian_observable
    assert report.consistent


def test_certificate_zero_stiffness_degenerate():
    # a velocity sensor cannot see a constant position offset once the
    # spring is gone, so one state direction becomes invisible
    report = certify_cardio(CardioParams(mass=1.0, damping=1.0, stiffness=0.0), 5.0)
    assert report.kalman_rank == 1
    assert not report.kalman_observable
    assert not report.gramian_observable
    assert report.consistent


def test_certificate_light_spring_short_window():
    report = certify_cardio(CardioParams(mass=3.0, damping=0.0, stiffness=3.0), 1.0)
    assert report.kalman_observable and report.gramian_observable


def test_certificate_grid_nonzero_stiffness():
    for mass in (0.5, 1.0, 10.0):
        for damping in (0.0, 0.5, 5.0):
            for stiffness in (0.1, 1.0, 100.0):
                report = certify_cardio(
                    CardioParams(mass=mass, damping=damping, stiffness=stiffness), 1.0)
                assert report.kalman_rank == 2
                assert report.gramian.positive_definite
                assert report.consistent


def test_stiff_table_long_window_certificate_is_exact():
    # h |lambda| of a 200-interval grid would be about 3.5 here
    params = CardioParams(mass=0.5, damping=0.5, stiffness=100.0)
    report = certify_cardio(params, 50.0)
    want = oracle_gramian(build_cardio_model(params), 50.0)
    got = report.gramian.gramian
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert np.linalg.norm(report.gramian_ode.gramian - got) <= 1e-6 * np.linalg.norm(got)
    assert json.loads(dump_report(report))["consistent"] is True


def test_damped_response_decays_over_a_period():
    params = CardioParams(mass=1.0, damping=0.5, stiffness=4.0)
    m = build_cardio_model(params)
    # damped natural frequency and period for the underdamped table
    omega = np.sqrt(params.stiffness - (params.damping / 2.0) ** 2)
    period = 2.0 * np.pi / omega
    dt = period / 200.0
    xs, _ = simulate_free(m, [1.0, 0.0], 0.0, dt, 400)
    norms = np.linalg.norm(xs.samples, axis=1)
    for k in (0, 50, 100, 150, 200):
        assert norms[k + 200] < norms[k]
