import re
import warnings

import numpy as np
import pytest

from helpers import check_record, unstable_saddle_model
from observkit.linalg import NonFiniteError, ShapeMismatchError, expm
from observkit.lti import (
    StateSpaceModel,
    Trace,
    make_model,
    propagate,
    simulate_forced,
    simulate_free,
    transition_matrix,
    zoh_discretize,
)


def oscillator(mass=1.0, damping=0.0, stiffness=1.0):
    """Mass-spring-damper in state-space form with a velocity sensor."""
    return make_model(
        [[0.0, 1.0], [-stiffness / mass, -damping / mass]],
        [[0.0], [1.0]],
        [[0.0, 1.0]],
    )


def test_make_model_dimensions():
    m = oscillator()
    assert (m.n, m.p, m.q) == (2, 1, 1)
    assert m.a.shape == (2, 2) and m.b.shape == (2, 1) and m.c.shape == (1, 2)


def test_make_model_rejects_bad_shapes():
    with pytest.raises(ShapeMismatchError, match="b must be 2xp"):
        make_model(np.eye(2), np.ones((3, 1)), np.ones((1, 2)))
    with pytest.raises(ShapeMismatchError, match="a must be square"):
        make_model(np.ones((2, 3)), np.ones((2, 1)), np.ones((1, 2)))
    with pytest.raises(ShapeMismatchError, match="c must be qx2"):
        make_model(np.eye(2), np.ones((2, 1)), np.ones((1, 3)))
    with pytest.raises(ShapeMismatchError, match=r"^a must be at least 1x1$"):
        make_model(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)))
    with pytest.raises(ShapeMismatchError, match=r"^b must be 2xp with p >= 1 to match a, got 2x0$"):
        make_model(np.eye(2), np.ones((2, 0)), np.ones((1, 2)))



def test_make_model_and_simulate_free_reject_an_int_past_the_float_range():
    for a, b, c in (([[10**400]], [[1]], [[1]]), ([[1]], [[1]], [[-(10**400)]])):
        with pytest.raises(NonFiniteError, match="past the float range"):
            make_model(a, b, c)
    with pytest.raises(NonFiniteError, match="^x0 contains an entry past the float range"):
        simulate_free(oscillator(), [10**400, 0], dt=0.1, steps=3)


@pytest.mark.parametrize("cls, args, shown", [
    (StateSpaceModel, (np.eye(2), np.ones((2, 1)), np.ones((1, 2))), ("a", "b", "c", "name")),
    (Trace, (0.5, 0.25, [[1.0], [2.0]]), ("t0", "dt", "samples")),
], ids=["StateSpaceModel", "Trace"])
def test_record_contract(cls, args, shown):
    check_record(cls, args, shown)


def test_model_name_defaults_empty_and_model_is_unhashable():
    m = make_model(np.eye(2), np.ones((2, 1)), np.ones((1, 2)))
    assert m.name == ""
    assert StateSpaceModel(m.a, m.b, m.c).name == ""
    with pytest.raises(TypeError):
        hash(m)


def test_model_arrays_are_read_only():
    m = oscillator()
    with pytest.raises(ValueError):
        m.a[0, 0] = 99.0


def test_trace_validation_and_metadata():
    tr = Trace(0.5, 0.25, [[1.0], [2.0], [3.0]])
    assert tr.width == 1
    assert tr.duration == 0.5
    np.testing.assert_allclose(tr.times, [0.5, 0.75, 1.0])
    with pytest.raises(ValueError):
        Trace(0.0, 0.0, [[1.0]])
    with pytest.raises(ValueError):
        Trace(0.0, -1.0, [[1.0]])


def test_trace_rejects_non_finite_grid():
    for t0, dt in ((float("nan"), 0.1), (float("inf"), 0.1), (0.0, float("inf")),
                   (0.0, float("nan")), (float("nan"), float("inf"))):
        with pytest.raises(ValueError, match="finite"):
            Trace(t0, dt, [[1.0]])


@pytest.mark.filterwarnings("error")  # an overflowing time is an error, not a warning
def test_trace_rejects_times_that_repeat_or_overflow():
    # the spacing of floats at 1e17 is 16: 1e17 + 10 and 1e17 + 20 both
    # round to 1e17 + 16
    with pytest.raises(ValueError, match=r"t0 = 1e\+17 and dt = 10.0 give sample 2 at "
                                         r"t = 1.0000000000000002e\+17: time column must be "
                                         r"strictly increasing"):
        Trace(1e17, 10.0, np.zeros((11, 1)))
    with pytest.raises(ValueError, match=r"give sample 2 at t = inf: time column must be finite"):
        Trace(0.0, 1e308, np.zeros((3, 1)))
    # a step of one spacing passes
    assert Trace(1e17, 16.0, np.zeros((11, 1))).times[-1] == 1e17 + 160


@pytest.mark.parametrize("rows, cols", [(0, 1), (1, 1), (1, 2), (3, 0)],
                         ids=["0x1", "1x1", "1x2", "3x0"])
def test_trace_refuses_fewer_than_two_samples_or_no_value_column(rows, cols):
    # the one shape rule: what constructs can be saved, loaded and reconstructed from
    message = f"a trace needs at least two samples and one value column, got {rows}x{cols}"
    with pytest.raises(ShapeMismatchError, match=f"^{re.escape(message)}$"):
        Trace(0.0, 0.1, np.zeros((rows, cols)))


@pytest.mark.filterwarnings("error")
def test_two_infinite_times_are_compared_not_subtracted():
    # samples 2 and 3 both overflow to inf; inf - inf would warn before the error
    message = "t0 = 0.0 and dt = 1e+308 give sample 2 at t = inf: time column must be finite"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Trace(0.0, 1e308, [[1.0]] * 4)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        simulate_free(oscillator(damping=0.5, stiffness=2.0), [1, -0.5], dt=1e308, steps=3)


def test_transition_matrix_at_zero_is_identity():
    m = oscillator(damping=0.7, stiffness=3.0)
    np.testing.assert_array_equal(transition_matrix(m, 0.0), np.eye(2))


def test_transition_matrix_rotation():
    m = oscillator()  # undamped unit oscillator: A = [[0,1],[-1,0]]
    for t in (0.3, 1.0, 2.5):
        want = [[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]]
        np.testing.assert_allclose(transition_matrix(m, t), want,
                                   rtol=0, atol=1e-13)


def test_transition_matrix_scalar_decay():
    m = make_model([[-1.0]], [[1.0]], [[1.0]])
    np.testing.assert_allclose(transition_matrix(m, 1.0), [[np.exp(-1.0)]],
                               rtol=1e-14)


def test_transition_semigroup_through_api():
    m = oscillator(damping=0.4, stiffness=2.0)
    left = transition_matrix(m, 0.7 + 1.1)
    right = transition_matrix(m, 0.7) @ transition_matrix(m, 1.1)
    np.testing.assert_allclose(left, right, rtol=0, atol=1e-10)


def test_simulate_free_zero_state_stays_zero():
    xs, ys = simulate_free(oscillator(), [0.0, 0.0], 0.0, 0.01, 50)
    assert not xs.samples.any()
    assert not ys.samples.any()


def test_simulate_free_constant_for_zero_dynamics():
    m = make_model([[0.0]], [[1.0]], [[1.0]])
    xs, ys = simulate_free(m, [3.0], 0.0, 0.1, 20)
    np.testing.assert_array_equal(xs.samples, np.full((21, 1), 3.0))
    np.testing.assert_array_equal(ys.samples, np.full((21, 1), 3.0))


def test_simulate_free_never_exponentiates_b():
    # ||B||_1 dt = 1e310 is past what expm can scale, but a free response
    # has no input for B_d to act on; bytes, so that a -0 would show
    m = make_model([[0.0]], [[1e300]], [[1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        xs, ys = simulate_free(m, [2.0], 0.0, 1e10, 3)
        zs, ws = simulate_free(make_model([[0.5]], [[-1.0]], [[-1.0]]), [0.0], 0.0, 0.1, 3)
    assert xs.samples.tobytes() == ys.samples.tobytes() == np.full((4, 1), 2.0).tobytes()
    assert zs.samples.tobytes() == ws.samples.tobytes() == np.zeros((4, 1)).tobytes()


def test_simulate_free_oscillator_closed_form():
    # x(t) = [cos t, -sin t] for x0 = [1, 0]; the sensor sees -sin t
    xs, ys = simulate_free(oscillator(), [1.0, 0.0], 0.0, 0.01, 600)
    t = xs.times
    np.testing.assert_allclose(xs.samples[:, 0], np.cos(t), rtol=0, atol=1e-11)
    np.testing.assert_allclose(xs.samples[:, 1], -np.sin(t), rtol=0, atol=1e-11)
    np.testing.assert_allclose(ys.samples[:, 0], -np.sin(t), rtol=0, atol=1e-11)


def test_simulate_free_output_is_exactly_c_times_state():
    m = oscillator(damping=0.3, stiffness=2.5)
    xs, ys = simulate_free(m, [0.4, -1.2], 0.0, 0.02, 100)
    for k in range(xs.samples.shape[0]):
        np.testing.assert_array_equal(ys.samples[k], m.c @ xs.samples[k])


def test_simulate_free_rejects_bad_arguments():
    with pytest.raises(ShapeMismatchError, match="width 2"):
        simulate_free(oscillator(), [1.0, 2.0, 3.0])
    for dt in (0.0, -0.1, float("inf"), float("nan")):
        message = f"dt must be positive and finite, got {dt}"
        with pytest.raises(ValueError, match=re.escape(message)):
            simulate_free(oscillator(), [1.0, 2.0], dt=dt)
    with pytest.raises(ValueError):
        simulate_free(oscillator(), [1.0, 2.0], steps=-1)
    for steps in (2.9, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="steps must be a whole number"):
            simulate_free(oscillator(), [1.0, 2.0], steps=steps)
    xs, _ = simulate_free(oscillator(), [1.0, 2.0], steps=np.float64(3.0))
    assert xs.samples.shape == (4, 2)


def test_zoh_discretize_zero_dynamics():
    ad, bd = zoh_discretize(make_model(np.zeros((2, 2)), [[1.0], [2.0]], [[1.0, 0.0]]), 0.25)
    np.testing.assert_allclose(ad, np.eye(2), rtol=0, atol=1e-15)
    np.testing.assert_allclose(bd, [[0.25], [0.5]], rtol=0, atol=1e-15)


def test_zoh_discretize_scalar_closed_form():
    ad, bd = zoh_discretize(make_model([[-1.0]], [[1.0]], [[1.0]]), 0.1)
    np.testing.assert_allclose(ad, [[np.exp(-0.1)]], rtol=1e-14)
    np.testing.assert_allclose(bd, [[1.0 - np.exp(-0.1)]], rtol=1e-13)


def test_simulate_forced_zero_input_reduces_to_free():
    m = oscillator(damping=0.2, stiffness=1.5)
    u = Trace(0.0, 0.01, np.zeros((201, 1)))
    xs_forced, ys_forced = simulate_forced(m, [1.0, -0.5], u)
    xs_free, ys_free = simulate_free(m, [1.0, -0.5], 0.0, 0.01, 200)
    np.testing.assert_array_equal(xs_forced.samples, xs_free.samples)
    np.testing.assert_array_equal(ys_forced.samples, ys_free.samples)


def test_simulate_forced_pure_integrator():
    m = make_model([[0.0]], [[1.0]], [[1.0]])
    u = Trace(0.0, 0.01, np.ones((101, 1)))
    xs, _ = simulate_forced(m, [0.0], u)
    np.testing.assert_allclose(xs.samples[:, 0], xs.times, rtol=0, atol=1e-12)


def test_simulate_forced_scalar_step_response():
    m = make_model([[-1.0]], [[1.0]], [[1.0]])
    u = Trace(0.0, 0.01, np.ones((201, 1)))
    xs, _ = simulate_forced(m, [0.0], u)
    np.testing.assert_allclose(xs.samples[:, 0], 1.0 - np.exp(-xs.times),
                               rtol=0, atol=1e-12)


def test_simulate_forced_rejects_width_mismatch():
    u = Trace(0.0, 0.01, np.ones((10, 2)))
    with pytest.raises(ShapeMismatchError, match="width 1"):
        simulate_forced(oscillator(), [1.0, 0.0], u)


def test_superposition():
    rng = np.random.default_rng(41)
    for _ in range(5):
        a = rng.standard_normal((3, 3)) - 2.0 * np.eye(3)
        m = make_model(a, rng.standard_normal((3, 2)), rng.standard_normal((2, 3)))
        x0 = rng.standard_normal(3)
        u = Trace(0.0, 0.01, rng.standard_normal((101, 2)))
        x_full, y_full = simulate_forced(m, x0, u)
        x_free, y_free = simulate_free(m, x0, 0.0, 0.01, 100)
        x_zero, y_zero = simulate_forced(m, np.zeros(3), u)
        np.testing.assert_allclose(x_full.samples,
                                   x_free.samples + x_zero.samples,
                                   rtol=0, atol=1e-10)
        np.testing.assert_allclose(y_full.samples,
                                   y_free.samples + y_zero.samples,
                                   rtol=0, atol=1e-10)


def _rk4_forced(a, b, x0, u_samples, dt, substeps=20):
    """Reference integration of dx/dt = A x + B u with u held constant on
    each sample interval; classic fixed-step RK4 within the interval."""
    x = np.array(x0, dtype=float)
    out = [x.copy()]
    h = dt / substeps
    for k in range(len(u_samples) - 1):
        drive = b @ u_samples[k]
        for _ in range(substeps):
            k1 = a @ x + drive
            k2 = a @ (x + 0.5 * h * k1) + drive
            k3 = a @ (x + 0.5 * h * k2) + drive
            k4 = a @ (x + h * k3) + drive
            x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(x.copy())
    return np.array(out)


def test_simulate_forced_matches_rk4_oracle():
    rng = np.random.default_rng(42)
    for _ in range(5):
        a = rng.standard_normal((3, 3)) - 2.5 * np.eye(3)  # shift to stability
        b = rng.standard_normal((3, 1))
        m = make_model(a, b, np.eye(3))
        x0 = rng.standard_normal(3)
        u = Trace(0.0, 0.01, rng.standard_normal((101, 1)))
        xs, _ = simulate_forced(m, x0, u)
        ref = _rk4_forced(a, b, x0, u.samples, u.dt)
        err = np.linalg.norm(xs.samples - ref) / np.linalg.norm(ref)
        assert err <= 1e-6


def _loop_states(phi, v):
    x = [v[0]]
    for term in v[1:]:
        x.append(x[-1] @ phi.T + term)
    return np.array(x)


@pytest.mark.parametrize("length", [1, 2, 3, 255, 256, 257, 1025])
@pytest.mark.parametrize("block", [(), (2,)])
def test_propagate_matches_plain_loop(length, block):
    rng = np.random.default_rng(length)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    phi = 0.999 * q + 1e-3 * rng.standard_normal((3, 3))
    v = rng.standard_normal((length, *block, 3))
    got = propagate(phi, v, "test")
    assert got.shape == v.shape
    np.testing.assert_allclose(got, _loop_states(phi, v), rtol=0, atol=1e-11)


def test_simulate_overflow_names_stage_and_step():
    m, q = unstable_saddle_model()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match=r"simulate: .* step 14\d\d of 2000"):
            simulate_free(m, q[:, 0], 0.0, 0.01, 2000)
        u = Trace(0.0, 0.01, np.ones((2001, 1)))
        with pytest.raises(NonFiniteError, match="simulate: .* of 2000"):
            simulate_forced(m, q[:, 1], u)


def test_zero_start_stays_zero_where_powers_overflow():
    # Phi^2048 overflows on this grid; a zero state must not become inf * 0
    m, _ = unstable_saddle_model()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        xs, ys = simulate_free(m, [0.0, 0.0], 0.0, 0.01, 3000)
        with pytest.raises(NonFiniteError, match=r"simulate: .* step 1420 of 3000"):
            simulate_free(m, [1.0, 0.0], 0.0, 0.01, 3000)
        # the same start 100 terms later: the scan skips the zero prefix,
        # but the error still counts steps from the first term
        v = np.zeros((3101, 2))
        v[100] = (1.0, 0.0)
        with pytest.raises(NonFiniteError, match=r"simulate: .* step 1520 of 3100"):
            propagate(expm(m.a, 0.01), v, "simulate")
    assert not xs.samples.any() and not ys.samples.any()


def test_stable_start_stays_finite_without_warnings():
    # the scan's last stride on 1100 samples is 1024; Phi^2048 would
    # overflow, though every state stays finite
    m, q = unstable_saddle_model()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        xs, _ = simulate_free(m, q[:, 1], 0.0, 0.01, 1099)
    assert np.isfinite(xs.samples).all()
    # rounding seeds the growing mode, so only the start tracks e^{-t}
    np.testing.assert_allclose(xs.samples[:20] @ q[:, 1], np.exp(-xs.times[:20]),
                               rtol=1e-9)


def test_simulate_forced_matches_expm_oracle_across_holds():
    # the drive is held for 1-5 samples at a time; at each hold boundary
    # the exact state is one exponential of the augmented matrix over the
    # whole hold, which shares no stepping with the simulation
    sla = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(43)
    n, p, dt = 3, 2, 0.05
    m = make_model(rng.standard_normal((n, n)) - np.eye(n),
                   rng.standard_normal((n, p)), rng.standard_normal((1, n)))
    holds = rng.integers(1, 6, 40)
    levels = rng.standard_normal((40, p))
    u = Trace(0.0, dt, np.vstack([np.repeat(levels, holds, axis=0), levels[-1:]]))
    aug = np.zeros((n + p, n + p))
    aug[:n, :n] = m.a
    aug[:n, n:] = m.b
    x0 = rng.standard_normal(n)
    want = [x0]
    for length, level in zip(holds, levels):
        want.append(sla.expm(aug * (length * dt))[:n] @ np.concatenate([want[-1], level]))
    xs, ys = simulate_forced(m, x0, u)
    boundaries = np.concatenate([[0], np.cumsum(holds)])
    np.testing.assert_allclose(xs.samples[boundaries], want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(ys.samples[boundaries], np.array(want) @ m.c.T,
                               rtol=0, atol=1e-12)
