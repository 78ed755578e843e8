import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from observkit.linalg import (
    NonFiniteError,
    ShapeMismatchError,
    SingularMatrixError,
    as_count,
    as_matrix,
    as_vector,
    definiteness,
    expm,
    is_positive_definite,
    rank,
    solve,
)
from observkit.cardio import CardioParams
from observkit.lti import Trace, make_model, simulate_free, zoh_discretize
from observkit.observability import analyze, gramian_ode

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


# each site reads an int past the float range as the infinity of its sign
# and refuses it with the message it gives that infinity ({} is "inf" or
# "-inf"), not a bare OverflowError
@pytest.mark.parametrize("call, message", [
    (lambda x: expm(np.eye(2), x), "time must be finite"),
    (lambda x: zoh_discretize(TABLE.a, TABLE.b, x), "time must be finite"),
    (lambda x: Trace(x, 1.0, [[1.0], [2.0]]),
     "t0 must be finite and dt finite and positive, got {}, 1.0"),
    (lambda x: Trace(0.0, x, [[1.0], [2.0]]),
     "t0 must be finite and dt finite and positive, got 0.0, {}"),
    (lambda x: simulate_free(TABLE, [1.0, 0.0], dt=x, steps=3),
     "t0 must be finite and dt finite and positive, got 0.0, {}"),
    (lambda x: analyze(TABLE, x), "horizon must be a positive time, got {}"),
    (lambda x: gramian_ode(TABLE, x), "horizon must be a positive time, got {}"),
    (lambda x: CardioParams(x, 0.5, 2.0), "mass must be positive and finite, got {}"),
    (lambda x: CardioParams(1.0, x, 2.0), "damping must be nonnegative and finite, got {}"),
    (lambda x: CardioParams(1.0, 0.5, x), "stiffness must be finite, got {}"),
    (lambda x: rank(np.eye(2), x), "rel_tol must be positive and finite, got {}"),
    (lambda x: analyze(TABLE, 1.0, pd_tol=x),
     "definiteness tolerance must be finite and nonnegative, got {}"),
    (lambda x: is_positive_definite(np.eye(2), x),
     "definiteness tolerance must be finite and nonnegative, got {}"),
    (lambda x: solve(np.eye(1), [x]), "right-hand side contains an entry past the float range"),
], ids=["expm-t", "zoh_discretize-dt", "Trace-t0", "Trace-dt", "simulate_free-dt",
        "analyze-horizon", "gramian_ode-horizon", "CardioParams-mass", "CardioParams-damping",
        "CardioParams-stiffness", "rank-rel_tol", "analyze-pd_tol", "is_positive_definite-tol",
        "solve-rhs"])
@pytest.mark.parametrize("sign", [1, -1], ids=["pos", "neg"])
def test_scalars_past_the_float_range_raise_the_sites_message(call, message, sign):
    inf = "inf" if sign > 0 else "-inf"
    with pytest.raises(ValueError, match="^" + re.escape(message.format(inf)) + "$"):
        call(sign * 10**400)


def test_square_rule_names_the_shape():
    for call in (expm, lambda m: solve(m, [1.0, 2.0]), is_positive_definite):
        with pytest.raises(ShapeMismatchError, match="^matrix must be square, got 2x3$"):
            call(np.ones((2, 3)))


def test_solve_rejects_a_ragged_right_hand_side():
    with pytest.raises(ShapeMismatchError, match="^right-hand side is ragged or non-numeric"):
        solve(np.eye(2), [[1.0, 2.0], [3.0]])


def test_as_count_accepts_whole_numbers_only():
    for value in (3, np.int64(3), 3.0, np.float32(3.0), -2, 0.0):
        got = as_count(value, "steps")
        assert type(got) is int and got == value
    for value in (2.9, -0.5, float("inf"), float("-inf"), float("nan"), True,
                  "3", None, np.array([3])):
        with pytest.raises(ValueError, match="^steps must be a whole number"):
            as_count(value, "steps")


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
        with pytest.raises(ValueError, match="tolerance must be finite and nonnegative"):
            definiteness(singular, tol)
        with pytest.raises(ValueError, match="tolerance must be finite and nonnegative"):
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
