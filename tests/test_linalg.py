import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from observkit.linalg import (
    NonFiniteError,
    ShapeMismatchError,
    SingularMatrixError,
    as_count,
    as_matrix,
    as_vector,
    definiteness,
    expm,
    expm_kernel,
    expm_squarings,
    is_positive_definite,
    rank,
    solve,
    symmetrize,
)
from observkit.cardio import CardioParams, build_cardio_model
from observkit.lti import Trace, make_model, simulate_free, zoh_discretize
from observkit.observability import (analyze, gramian_doubling, gramian_ode, gramian_quadrature,
                                     reconstruct_initial_state)

TABLE = make_model([[0.0, 1.0], [-2.0, -0.5]], [[0.0], [1.0]], [[0.0, 1.0]])


def test_as_matrix_rejects_ragged_and_nonfinite():
    with pytest.raises(ShapeMismatchError):
        as_matrix([[1.0, 2.0], [3.0]])
    with pytest.raises(ShapeMismatchError):
        as_matrix([1.0, 2.0, 3.0])
    with pytest.raises(NonFiniteError):
        as_matrix([[1.0, np.nan]])
    with pytest.raises(NonFiniteError):
        as_vector([np.inf, 0.0])



def test_as_matrix_and_as_vector_reject_an_int_past_the_float_range():
    # numpy's conversion raises OverflowError; the package's own error
    # names the argument, as it does for NaN
    for big in (10**400, -(10**400)):
        with pytest.raises(NonFiniteError, match="^m contains an entry past the float range"):
            as_matrix([[1.0, big]], "m")
        with pytest.raises(NonFiniteError, match="^v contains an entry past the float range"):
            as_vector([big, 0.0], "v")


# Every float parameter a caller passes, each checked by linalg.as_float:
# its id, the call, the name it gives the parameter and its sign word.
# Each expected message follows from the name and the sign word alone.
SCALAR_SITES = [
    ("expm-t", lambda x: expm(np.eye(2), x), "time", ""),
    ("zoh_discretize-dt", lambda x: zoh_discretize(TABLE.a, TABLE.b, x), "time", ""),
    ("Trace-t0", lambda x: Trace(x, 1.0, [[1.0], [2.0]]), "t0", ""),
    ("Trace-dt", lambda x: Trace(0.0, x, [[1.0], [2.0]]), "dt", "positive"),
    ("simulate_free-dt", lambda x: simulate_free(TABLE, [1.0, 0.0], dt=x, steps=3),
     "dt", "positive"),
    ("analyze-horizon", lambda x: analyze(TABLE, x), "horizon", "positive"),
    ("gramian_ode-horizon", lambda x: gramian_ode(TABLE, x), "horizon", "positive"),
    ("gramian_doubling-horizon", lambda x: gramian_doubling(TABLE, x), "horizon", "positive"),
    ("gramian_quadrature-horizon", lambda x: gramian_quadrature(TABLE, x),
     "horizon", "positive"),
    ("reconstruct-horizon", lambda x: reconstruct_initial_state(TABLE, TABLE_Y, horizon=x),
     "horizon", "positive"),
    ("CardioParams-mass", lambda x: CardioParams(x, 0.5, 2.0), "mass", "positive"),
    ("CardioParams-damping", lambda x: CardioParams(1.0, x, 2.0), "damping", "nonnegative"),
    ("CardioParams-stiffness", lambda x: CardioParams(1.0, 0.5, x), "stiffness", ""),
    ("rank-rel_tol", lambda x: rank(np.eye(2), x), "rel_tol", "positive"),
    ("analyze-pd_tol", lambda x: analyze(TABLE, 1.0, pd_tol=x),
     "definiteness tolerance", "nonnegative"),
    ("is_positive_definite-tol", lambda x: is_positive_definite(np.eye(2), x),
     "definiteness tolerance", "nonnegative"),
]
TABLE_Y = simulate_free(TABLE, [1.0, -0.5], dt=0.1, steps=10)[1]


def scalar_message(name, sign, shown):
    rule = f"{sign} and finite" if sign else "finite"
    return "^" + re.escape(f"{name} must be {rule}, got {shown}") + "$"


def scalar_params(*signs):
    return [pytest.param(call, name, sign, id=site)
            for site, call, name, sign in SCALAR_SITES if sign in signs]


# each site reads an int past the float range as the infinity of its sign
# and refuses it as it refuses that infinity, not with a bare OverflowError
@pytest.mark.parametrize("call, message", [
    *(pytest.param(call, (name, sign), id=site) for site, call, name, sign in SCALAR_SITES),
    pytest.param(lambda x: solve(np.eye(1), [x]),
                 "right-hand side contains an entry past the float range", id="solve-rhs"),
])
@pytest.mark.parametrize("sign", [1, -1], ids=["pos", "neg"])
def test_scalars_past_the_float_range_raise_the_sites_message(call, message, sign):
    pattern = ("^" + re.escape(message) + "$" if isinstance(message, str)
               else scalar_message(*message, "inf" if sign > 0 else "-inf"))
    with pytest.raises(NonFiniteError, match=pattern):
        call(sign * 10**400)


@pytest.mark.parametrize("call, name, sign", scalar_params("", "positive", "nonnegative"))
def test_nan_scalars_raise_a_non_finite_error(call, name, sign):
    with pytest.raises(NonFiniteError, match=scalar_message(name, sign, "nan")):
        call(np.nan)


def refuse_by_sign(call, name, sign, value):
    """A finite value of the wrong sign: a ValueError, not a NonFiniteError."""
    with pytest.raises(ValueError, match=scalar_message(name, sign, value)) as info:
        call(value)
    assert not isinstance(info.value, NonFiniteError)


@pytest.mark.parametrize("call, name, sign", scalar_params("positive"))
def test_positive_scalars_refuse_zero_and_negatives(call, name, sign):
    for value in (0.0, -0.0, -1.0):
        refuse_by_sign(call, name, sign, value)


@pytest.mark.parametrize("call, name, sign", scalar_params("nonnegative"))
def test_nonnegative_scalars_refuse_negatives_and_take_zero(call, name, sign):
    refuse_by_sign(call, name, sign, -1e-300)
    call(0.0)
    call(-0.0)


@pytest.mark.parametrize("call, name, sign", scalar_params(""))
def test_sign_free_scalars_take_negatives(call, name, sign):
    call(-1.0)


# a value float() cannot take is a ValueError naming the parameter, not a
# bare TypeError or float()'s own message
@pytest.mark.parametrize("call, name, value, shown", [
    pytest.param(call, name, value, shown, id=f"{value_id}-{site}")
    for value, shown, value_id in ((None, "None", "None"), ("x", "'x'", "str"),
                                   ([1.0], "[1.0]", "list"))
    for site, call, name, _ in SCALAR_SITES
    if not (value is None and site in ("rank-rel_tol", "reconstruct-horizon"))  # None: default
])
def test_non_numeric_scalars_raise_a_named_error(call, name, value, shown):
    with pytest.raises(ValueError, match="^" + re.escape(f"{name} must be a number, got {shown}")
                       + "$"):
        call(value)


def test_square_rule_names_the_shape():
    for call in (expm, lambda m: solve(m, [1.0, 2.0]), is_positive_definite):
        with pytest.raises(ShapeMismatchError, match="^matrix must be square, got 2x3$"):
            call(np.ones((2, 3)))


def test_solve_rejects_a_ragged_right_hand_side():
    with pytest.raises(ShapeMismatchError, match="^right-hand side is ragged or non-numeric"):
        solve(np.eye(2), [[1.0, 2.0], [3.0]])


def test_solve_rejects_a_right_hand_side_of_three_dimensions():
    message = "right-hand side must be 1-D or 2-D, got shape (2, 1, 1)"
    with pytest.raises(ShapeMismatchError, match=f"^{re.escape(message)}$"):
        solve(np.eye(2), np.ones((2, 1, 1)))


def test_as_count_accepts_whole_numbers_only():
    for value in (3, np.int64(3), 3.0, np.float32(3.0), -2, 0.0):
        got = as_count(value, "steps", -2)
        assert type(got) is int and got == value
    for value in (2.9, -0.5, float("inf"), float("-inf"), float("nan"), True,
                  "3", None, np.array([3])):
        with pytest.raises(ValueError, match=r"^steps must be a whole number, got "):
            as_count(value, "steps", -2)
    for value, least in ((-3, -2), (np.int64(0), 1), (1.0, 2)):
        message = f"steps must be a whole number >= {least}, got {int(value)}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            as_count(value, "steps", least)


# (site, call, name, least): every count parameter, with the bound as_count holds it to
COUNT_SITES = [
    ("simulate_free", lambda v: simulate_free(TABLE, [1.0, -0.5], dt=0.01, steps=v), "steps", 0),
    ("gramian_ode", lambda v: gramian_ode(TABLE, 1.0, steps=v), "steps", 1),
    ("gramian_quadrature", lambda v: gramian_quadrature(TABLE, 1.0, intervals=v), "intervals", 2),
]


@pytest.mark.parametrize("site, call, name, least", COUNT_SITES,
                         ids=[row[0] for row in COUNT_SITES])
def test_count_sites_share_one_rule(site, call, name, least):
    message = f"{name} must be a whole number >= {least}, got {least - 1}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(least - 1)
    call(least)
    call(float(least))
    for value in (2.5, float("nan"), True, "3"):
        message = f"{name} must be a whole number, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(value)


def test_quadrature_keeps_only_its_evenness_test():
    for intervals in (3, 3.0, np.int32(3)):
        with pytest.raises(ValueError, match="^intervals must be even, got 3$"):
            gramian_quadrature(TABLE, 1.0, intervals=intervals)


def test_expm_zero_matrix_is_identity():
    for n in (1, 2, 5):
        for t in (0.0, 1.0, -3.5, 5.0):
            np.testing.assert_array_equal(expm(np.zeros((n, n)), t), np.eye(n))


def test_expm_at_time_zero_is_identity():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((4, 4))
    np.testing.assert_array_equal(expm(a, 0.0), np.eye(4))


def test_expm_nilpotent_closed_form():
    a = [[0.0, 1.0], [0.0, 0.0]]
    for t in (-5.0, -0.3, 0.7, 5.0):
        np.testing.assert_allclose(expm(a, t), [[1.0, t], [0.0, 1.0]],
                                   rtol=0, atol=1e-13)


def test_expm_rotation_closed_form():
    a = [[0.0, 1.0], [-1.0, 0.0]]
    for t in (-5.0, -1.0, 0.25, 2.0, 5.0):
        want = [[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]]
        np.testing.assert_allclose(expm(a, t), want, rtol=0, atol=1e-13)


def test_expm_diagonal_closed_form():
    d = np.array([-0.5, 0.25, 0.1])
    for t in (-5.0, -1.0, 0.5, 5.0):
        want = np.diag(np.exp(d * t))
        np.testing.assert_allclose(expm(np.diag(d), t), want, rtol=0, atol=1e-13)


def test_expm_semigroup_property():
    rng = np.random.default_rng(21)
    for _ in range(10):
        a = rng.standard_normal((4, 4))
        t1, t2 = rng.uniform(-2, 2, size=2)
        left = expm(a, t1 + t2)
        right = expm(a, t1) @ expm(a, t2)
        np.testing.assert_allclose(left, right, rtol=0, atol=1e-10)


def test_expm_inverse_property():
    rng = np.random.default_rng(22)
    for _ in range(10):
        a = rng.standard_normal((4, 4))
        t = rng.uniform(-2, 2)
        np.testing.assert_allclose(expm(a, t) @ expm(a, -t), np.eye(4),
                                   rtol=0, atol=1e-10)


def test_expm_derivative_matches_central_difference():
    # d/dt exp(At) = A exp(At), checked with a central difference
    rng = np.random.default_rng(23)
    h = 1e-5
    for _ in range(5):
        a = rng.standard_normal((4, 4))
        t = rng.uniform(-1.5, 1.5)
        numeric = (expm(a, t + h) - expm(a, t - h)) / (2 * h)
        analytic = a @ expm(a, t)
        err = np.linalg.norm(numeric - analytic) / np.linalg.norm(analytic)
        assert err <= 1e-6


def test_expm_rejects_bad_input():
    with pytest.raises(ShapeMismatchError):
        expm(np.ones((2, 3)))
    with pytest.raises(NonFiniteError):
        expm(np.eye(2), np.inf)


def test_expm_overflow_raises_non_finite_error():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # A t overflows before scaling; A t is finite but exp(A t) is not
        with pytest.raises(NonFiniteError, match="expm: A t is too large"):
            expm([[0.0, 1.0], [-2.0, -0.5]], 1e308)
        with pytest.raises(NonFiniteError, match="expm: exp.* is not finite"):
            expm([[1e-300]], 1e308)


FLOATS = st.one_of(st.floats(-1e3, 1e3), st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: arrays(np.float64, (n, n), elements=FLOATS)), FLOATS)
def test_expm_squarings_takes_numpys_one_norm(a, t):
    # the scaling count is the one np.linalg.norm(a * t, 1) gives, and an
    # overflowing norm is the same NonFiniteError, also past the float range
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.linalg.norm(a * t, 1) / 0.5 if a.size else 0.0
        if not np.isfinite(scale):
            with pytest.raises(NonFiniteError, match="^" + re.escape(
                    f"stage: A t is too large to scale at t = {t:.6g}") + "$"):
                expm_squarings(a, t, "stage")
            return
        assert expm_squarings(a, t, "stage") == (int(np.ceil(np.log2(scale))) if scale > 1 else 0)


def textbook_pade(a, t, squarings):
    """The textbook body of expm_kernel: a fresh identity scaled by c0 and
    c1, and np.ldexp even at zero squarings; no finiteness check."""
    c = (479001600.0, 239500800.0, 54432000.0, 7257600.0, 604800.0, 30240.0, 720.0)
    x = np.ldexp(a * t, -squarings)
    eye = np.eye(x.shape[0])
    x2 = x @ x
    x4 = x2 @ x2
    even = c[0] * eye + c[2] * x2 + c[4] * x4 + c[6] * (x2 @ x4)
    odd = x @ (c[1] * eye + c[3] * x2 + c[5] * x4)
    f = np.linalg.solve(even - odd, even + odd)
    for _ in range(squarings):
        f = f @ f
    return f


def zero_stiffness_block(mass, damping):
    """The Van Loan block [[-A^T, C^T C], [0, A]] of the table with no
    spring: exact zeros whose products carry signed zeros."""
    m = build_cardio_model(CardioParams(mass, damping, 0.0))
    block = np.zeros((4, 4))
    block[:2, :2], block[:2, 2:], block[2:, 2:] = -m.a.T, m.c.T @ m.c, m.a
    return block


KERNEL_ARGS = st.one_of(
    st.integers(1, 8).flatmap(lambda n: arrays(np.float64, (n, n), elements=st.one_of(
        st.sampled_from([0.0, -0.0]), st.floats(-4.0, 4.0)))),
    st.builds(zero_stiffness_block, st.floats(0.1, 10.0), st.floats(0.0, 5.0)),
)


@settings(max_examples=300, deadline=None)
@given(KERNEL_ARGS, st.integers(0, 10), st.floats(0.5, 1.0))
def test_expm_kernel_is_the_textbook_pade(a, target, u):
    # t puts ||a t||_1 / 0.5 in [2^(target - 1), 2^target], so draws scale
    # by 0 up to 10 squarings; the kernel keeps every bit, signed zeros too
    norm = float(np.abs(a).sum(axis=0).max())
    t = u * 2.0 ** (target - 1) / norm if norm else u
    assume(np.isfinite(t))  # a subnormal norm leaves no finite t that scales it
    with np.errstate(over="ignore", invalid="ignore"):
        squarings = expm_squarings(a, t, "expm")
        assert squarings <= 10
        want = textbook_pade(a, t, squarings)
        if not np.isfinite(want).all():
            with pytest.raises(NonFiniteError, match="^expm: exp"):
                expm_kernel(a, t, squarings)
            return
        got = expm_kernel(a, t, squarings)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


EXTREME_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310]),
    st.floats(1.7e308, 1.7976931348623157e308).flatmap(lambda v: st.sampled_from([v, -v])),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: arrays(np.float64, (n, n), elements=EXTREME_FLOATS)))
def test_symmetrize_is_the_halves_of_m_and_its_transpose(m):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert symmetrize(m).tobytes() == (0.5 * m + 0.5 * m.T).tobytes()
        assert symmetrize(m.T).tobytes() == (0.5 * m.T + 0.5 * m).tobytes()


def test_rank_examples():
    # observability matrix of the table model, gamma=2, M=1, beta=0.5
    assert rank([[0.0, -2.0], [1.0, -0.5]]) == 2
    assert rank(np.zeros((3, 3))) == 0
    assert rank([[1.0, 1.0], [0.0, 0.0]]) == 1


def test_rank_matches_transpose_rank():
    rng = np.random.default_rng(31)
    for _ in range(20):
        m = rng.standard_normal((4, 6))
        if rng.random() < 0.5:
            # force a rank-deficient product
            m = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 6))
        assert rank(m) == rank(m.T)


def test_rank_rejects_nonpositive_tolerance():
    with pytest.raises(ValueError):
        rank(np.eye(2), rel_tol=0.0)


def test_rank_rejects_nonfinite_tolerance():
    # NaN compares false against every singular value and inf puts them
    # all below the threshold, so either would report rank 0
    for tol in (np.nan, np.inf):
        with pytest.raises(ValueError, match="rel_tol must be positive"):
            rank(np.eye(2), rel_tol=tol)


def test_definiteness_rejects_bad_tolerance():
    # a negative tol passes a singular matrix, NaN or inf fails every one
    singular = np.array([[0.0, 0.0], [0.0, 1.0]])
    for tol in (-1.0, -1e-12, np.nan, np.inf, -np.inf):
        message = f"^definiteness tolerance must be nonnegative and finite, got {tol}$"
        with pytest.raises(ValueError, match=message):
            definiteness(singular, tol)
        with pytest.raises(ValueError, match=message):
            is_positive_definite(np.eye(2), tol)
    assert is_positive_definite(np.eye(2), 0.0)
    assert not is_positive_definite(singular, 0.0)


def test_definiteness_of_a_matrix_near_the_float_limit():
    # m + m.T overflows here; m/2 + m.T/2 does not, and where the sum is
    # finite the halves give its bits
    big = np.array([[1.2e308, 6e307], [5e307, 4.6e307]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sym, positive_definite, smallest = definiteness(big, 1e-10)
    np.testing.assert_array_equal(sym, [[1.2e308, 5.5e307], [5.5e307, 4.6e307]])
    assert positive_definite and np.isfinite(smallest) and smallest > 0
    rng = np.random.default_rng(34)
    for _ in range(20):
        m = rng.standard_normal((5, 5)) * 10.0 ** rng.integers(-300, 300)
        np.testing.assert_array_equal(definiteness(m, 0.0)[0], 0.5 * (m + m.T))


def test_empty_matrix_default_tolerance_is_positive():
    empty = np.zeros((0, 0))
    assert rank(empty) == 0
    with pytest.raises(SingularMatrixError):
        solve(empty, np.zeros(0))
    for tol in (0.0, -1e-3):
        with pytest.raises(ValueError, match="rel_tol must be positive"):
            rank(empty, rel_tol=tol)


def test_positive_definite_examples():
    t = 3.0
    assert is_positive_definite(t * np.eye(2))
    # Gramian of a velocity-only sensor on an integrator-free system:
    # semi-definite, not definite
    assert not is_positive_definite(t * np.array([[0.0, 0.0], [0.0, 1.0]]))
    assert not is_positive_definite(-np.eye(2))
    # the threshold scales with the largest diagonal magnitude, so a
    # negative definite matrix fails at any tolerance
    assert not is_positive_definite(-np.eye(2), 2.0)


def test_positive_definite_symmetrizes_input():
    # asymmetric to rounding is the common case; grossly asymmetric but
    # PD after symmetrization also counts
    assert is_positive_definite([[2.0, 1.0], [0.0, 2.0]])


def test_positive_definite_implies_full_rank():
    rng = np.random.default_rng(32)
    for _ in range(20):
        b = rng.standard_normal((4, 4))
        m = b @ b.T + 0.1 * np.eye(4)
        assert is_positive_definite(m)
        assert rank(m) == 4


def test_positive_definite_rejects_nonsquare():
    with pytest.raises(ShapeMismatchError):
        is_positive_definite(np.ones((2, 3)))


def test_solve_identity_and_diagonal():
    rhs = np.array([5.0, -1.0, 2.0])
    x, condition = solve(np.eye(3), rhs)
    np.testing.assert_array_equal(x, rhs)
    assert condition == 1.0
    x, condition = solve(np.diag([2.0, 4.0]), [2.0, 8.0])
    np.testing.assert_allclose(x, [1.0, 2.0], rtol=0, atol=1e-15)
    assert condition == 2.0


def test_solve_recovers_known_solution():
    rng = np.random.default_rng(33)
    m = rng.standard_normal((4, 4)) + 4 * np.eye(4)
    x_known = rng.standard_normal(4)
    x, _ = solve(m, m @ x_known)
    assert np.linalg.norm(x - x_known) <= 1e-10 * np.linalg.norm(x_known)


def test_solve_multiply_round_trip():
    rng = np.random.default_rng(34)
    for _ in range(10):
        m = rng.standard_normal((5, 5)) + 5 * np.eye(5)
        b = rng.standard_normal((5, 2))
        np.testing.assert_allclose(m @ solve(m, b)[0], b, rtol=0, atol=1e-10)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
def test_solve_condition_is_numpys(n, seed):
    # the condition comes from the singular values of the singularity
    # check, and has the bits of np.linalg.cond
    m = np.random.default_rng(seed).standard_normal((n, n))
    assume(np.linalg.matrix_rank(m) == n)
    _, condition = solve(m, np.ones(n))
    assert type(condition) is float
    assert condition == np.linalg.cond(m)


def test_solve_singular_error_carries_diagnostics():
    singular = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrixError) as info:
        solve(singular, [1.0, 1.0])
    assert info.value.min_singular_value < 1e-12
    assert info.value.condition > 1e12


def test_solve_shape_errors():
    with pytest.raises(ShapeMismatchError):
        solve(np.ones((2, 3)), [1.0, 2.0])
    with pytest.raises(ShapeMismatchError):
        solve(np.eye(2), [1.0, 2.0, 3.0])
