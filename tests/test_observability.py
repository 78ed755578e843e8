import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (  # noqa: F401  (ode_calls is a fixture)
    check_record,
    ode_calls,
    oracle_gramian,
    random_observable_model,
    random_unobservable_model,
    unstable_saddle_model,
)
from observkit.cardio import CardioParams, build_cardio_model, certify_cardio
from observkit.linalg import (
    DEFAULT_PD_TOL,
    NonFiniteError,
    ShapeMismatchError,
    expm,
    is_positive_definite,
    rank,
)
from observkit.lti import Trace, make_model, simulate_forced, simulate_free
from observkit.observability import (
    GramianResult,
    ObservabilityReport,
    SingularGramianError,
    analyze,
    gramian_doubling,
    gramian_ode,
    gramian_quadrature,
    observability_matrix,
    rank_test,
    reconstruct_initial_state,
    reconstruct_with_condition,
    reconstruction_normal_equations,
)


def table_model(mass=1.0, damping=0.5, stiffness=2.0):
    return make_model(
        [[0.0, 1.0], [-stiffness / mass, -damping / mass]],
        [[0.0], [1.0]],
        [[0.0, 1.0]],
    )


HIDDEN_MODEL = make_model([[1.0, 0.0], [0.0, 2.0]], [[0.0], [1.0]], [[1.0, 0.0]])


def test_observability_matrix_table_literal():
    m = table_model(mass=1.0, damping=0.5, stiffness=2.0)
    np.testing.assert_array_equal(observability_matrix(m),
                                  [[0.0, -2.0], [1.0, -0.5]])


def test_observability_matrix_zero_dynamics():
    m = make_model(np.zeros((3, 3)), np.ones((3, 1)), np.eye(3))
    np.testing.assert_array_equal(observability_matrix(m),
                                  np.hstack([np.eye(3), np.zeros((3, 6))]))


def test_observability_matrix_hidden_mode():
    np.testing.assert_array_equal(observability_matrix(HIDDEN_MODEL),
                                  [[1.0, 1.0], [0.0, 0.0]])


def test_observability_matrix_shape_multiple_outputs():
    m = make_model(np.zeros((3, 3)), np.ones((3, 1)), np.ones((2, 3)))
    assert observability_matrix(m).shape == (3, 6)


def test_rank_test_table():
    for mass, stiffness in ((1.0, 2.0), (0.5, 0.1), (10.0, 100.0)):
        r, observable = rank_test(table_model(mass=mass, stiffness=stiffness))
        assert (r, observable) == (2, True)


def test_rank_test_hidden_mode():
    assert rank_test(HIDDEN_MODEL) == (1, False)


@pytest.mark.filterwarnings("error")
def test_a_rank_threshold_past_the_float_range_counts_no_singular_value():
    # 1e308 times the largest singular value overflows to inf, with no warning
    m = table_model()
    assert rank_test(m, 1e308) == (0, False)
    assert analyze(m, 1.0, rank_tol=1e308).kalman_rank == 0


def test_rank_test_full_output():
    rng = np.random.default_rng(51)
    m = make_model(rng.standard_normal((4, 4)), np.ones((4, 1)), np.eye(4))
    assert rank_test(m) == (4, True)


def test_gramian_quadrature_constant_integrand():
    m = make_model(np.zeros((2, 2)), np.ones((2, 1)), np.eye(2))
    g = gramian_quadrature(m, 3.0, 10)
    np.testing.assert_allclose(g.gramian, 3.0 * np.eye(2), rtol=0, atol=1e-13)
    assert g.positive_definite
    assert g.method == "quadrature"
    assert g.horizon == 3.0


def test_gramian_quadrature_semidefinite_case():
    m = make_model(np.zeros((2, 2)), np.ones((2, 1)), [[0.0, 1.0]])
    g = gramian_quadrature(m, 2.0, 10)
    np.testing.assert_allclose(g.gramian, [[0.0, 0.0], [0.0, 2.0]],
                               rtol=0, atol=1e-13)
    assert not g.positive_definite
    # matches the rank route: one visible state only
    assert rank_test(m)[0] == 1


def test_gramian_quadrature_scalar_closed_form():
    m = make_model([[-1.0]], [[1.0]], [[1.0]])
    g = gramian_quadrature(m, 1.0, 200)
    exact = (1.0 - np.exp(-2.0)) / 2.0
    assert abs(g.gramian[0, 0] - exact) <= 1e-9


def test_gramian_quadrature_rejects_bad_arguments():
    m = table_model()
    with pytest.raises(ValueError):
        gramian_quadrature(m, 0.0)
    with pytest.raises(ValueError):
        gramian_quadrature(m, -1.0)
    with pytest.raises(ValueError):
        gramian_quadrature(m, 1.0, intervals=7)
    for intervals in (2.9, float("inf")):
        with pytest.raises(ValueError, match="intervals must be a whole number"):
            gramian_quadrature(m, 1.0, intervals=intervals)
    with pytest.raises(ValueError, match="^intervals must be a whole number >= 2, got 0$"):
        gramian_quadrature(m, 1.0, intervals=0)
    with pytest.raises(ValueError, match="^intervals must be even, got 3$"):
        gramian_quadrature(m, 1.0, intervals=3.0)


def test_gramian_verdict_matches_is_positive_definite():
    rng = np.random.default_rng(59)
    models = [table_model(), HIDDEN_MODEL]
    for n in (2, 5, 8, 12, 16):
        models.append(random_observable_model(rng, n))
        models.append(random_unobservable_model(rng, n)[0])
        models.append(make_model(rng.uniform(-2.0, 2.0, (n, n)), np.ones((n, 1)),
                                 rng.standard_normal((1, n))))
    verdicts = set()
    for m in models:
        for tol in (1e-14, 1e-10, 1e-6):
            for g in (gramian_quadrature(m, 1.0, 200, tol), gramian_ode(m, 1.0, 200, tol),
                      gramian_doubling(m, 1.0, tol)):
                assert g.positive_definite == is_positive_definite(g.gramian, tol)
                assert g.min_pivot_or_eig == np.linalg.eigvalsh(g.gramian)[0]
                verdicts.add(g.positive_definite)
    assert verdicts == {True, False}


def test_overflow_names_the_stage():
    m, _ = unstable_saddle_model()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match=r"quadrature: .* step 14\d\d of 2000"):
            gramian_quadrature(m, 20.0, 2000)
        # finite row blocks whose squares overflow the sums
        with pytest.raises(NonFiniteError, match=r"quadrature: .*overflow over \[0, 10\]"):
            gramian_quadrature(m, 10.0, 1000)
        with pytest.raises(NonFiniteError, match=r"reconstruct: .* step 14\d\d of 2000"):
            reconstruct_initial_state(m, Trace(0.0, 0.01, np.zeros((2001, 1))))
        with pytest.raises(NonFiniteError, match="doubling"):
            analyze(m, 20.0)


def test_observability_matrix_overflow_names_the_stage():
    # (1e40)^8 overflows: the rank route fails first, naming itself
    m = make_model(-1e40 * np.eye(12), np.ones((12, 1)), np.ones((1, 12)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match=r"kalman-rank: .*\^8 C\^T overflows"):
            observability_matrix(m)
        with pytest.raises(NonFiniteError, match="kalman-rank"):
            analyze(m, 1.0)
        with pytest.raises(NonFiniteError, match="kalman-rank"):
            rank_test(m)


def test_gramian_doubling_matches_oracle():
    cases = [(build_cardio_model(CardioParams(*p)), horizon) for p, horizon in (
        ((0.5, 0.5, 100.0), 50.0), ((1.0, 0.5, 2.0), 1.0), ((0.5, 0.0, 0.1), 1.0),
        ((10.0, 5.0, 100.0), 1.0), ((0.5, 5.0, 100.0), 5.0))]
    rng = np.random.default_rng(61)
    for n in (4, 8, 12):
        m = make_model(rng.uniform(-2.0, 2.0, (n, n)), np.ones((n, 1)),
                       rng.standard_normal((2, n)))
        cases += [(m, 1.0), (m, 5.0)]
    for m, horizon in cases:
        g = gramian_doubling(m, horizon)
        assert (g.method, g.horizon) == ("doubling", horizon)
        want = oracle_gramian(m, horizon)
        assert np.linalg.norm(g.gramian - want) <= 1e-12 * np.linalg.norm(want)


def doubling_reference(m, horizon):
    """gramian_doubling spelled out with the public expm: k halvings of T
    bring ||A||_1 t to 1/2, the Van Loan block gives M(0, t), k doublings
    reach M(0, T), and the result is symmetrized as m/2 + m.T/2.  Returns
    (symmetrized Gramian, verdict, smallest eigenvalue), the verdict taken
    the textbook way against the largest diagonal magnitude."""
    scale = np.linalg.norm(m.a * horizon, 1) / 0.5
    k = int(np.ceil(np.log2(scale))) if scale > 1 else 0
    n = m.n
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n], block[:n, n:], block[n:, n:] = -m.a.T, m.c.T @ m.c, m.a
    f = expm(block, np.ldexp(horizon, -k))
    phi, gram = f[n:, n:], f[n:, n:].T @ f[:n, n:]
    for _ in range(k if gram.any() else 0):
        gram = gram + phi.T @ gram @ phi
        phi = phi @ phi
    sym = 0.5 * gram + 0.5 * gram.T
    smallest = float(np.linalg.eigvalsh(sym)[0])
    return sym, smallest > DEFAULT_PD_TOL * np.abs(np.diag(sym)).max(), smallest


def test_gramian_doubling_is_the_public_expm_then_doubling():
    # the doubling route hands its block to expm's kernel unchecked; its
    # Gramian, verdict and smallest eigenvalue keep the bits of the route
    # through the validating expm and the textbook definiteness test
    models = [build_cardio_model(CardioParams(mass, damping, stiffness))
              for mass in (0.5, 1.0, 10.0) for damping in (0.0, 0.5, 5.0)
              for stiffness in (0.0, 0.1, 1.0, 100.0)]
    rng = np.random.default_rng(27)
    for n in (2, 4, 8, 12, 16, 24):
        models += [random_observable_model(rng, n), random_unobservable_model(rng, n)[0]]
    assert len(models) == 48
    for m in models:
        for horizon in (1.0, 7.0):
            got = gramian_doubling(m, horizon)
            sym, positive_definite, smallest = doubling_reference(m, horizon)
            assert got.gramian.tobytes() == sym.tobytes()
            assert got.positive_definite == positive_definite
            assert got.min_pivot_or_eig.hex() == smallest.hex()


def test_gramian_doubling_keeps_invisible_directions_exactly_zero():
    # zero stiffness: the position never reaches the velocity output
    for mass, damping in ((1.0, 0.0), (0.5, 5.0)):
        m = build_cardio_model(CardioParams(mass, damping, 0.0))
        g = gramian_doubling(m, 7.0).gramian
        assert not g[0].any() and not g[:, 0].any()
        assert g[1, 1] > 0
    # a zero output map gives a zero Gramian even where Phi(T) overflows
    m = make_model([[3.0, 0.0], [0.0, -1.0]], [[1.0], [1.0]], [[0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(gramian_doubling(m, 800.0).gramian, np.zeros((2, 2)))


def test_gramian_doubling_overflow_names_the_route():
    m, _ = unstable_saddle_model()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match=r"doubling: .*overflows over \[0, 20\]"):
            gramian_doubling(m, 20.0)
        with pytest.raises(NonFiniteError, match="doubling: A t is too large"):
            gramian_doubling(m, 1e307)
    with pytest.raises(ValueError, match="horizon"):
        gramian_doubling(m, 0.0)


def test_an_overflowing_c_transpose_c_names_its_route():
    # every entry of C is finite, but 1e200 squared is not.  Off the
    # diagonal of the two-output C^T C, 1e200 * -1e200 + 1e200 * 1e200 is
    # inf - inf: NaN or an infinity, depending on how the BLAS accumulates
    table = [[0.0, 1.0], [-1.0, 0.0]], [[0.0], [1.0]]
    for c in ([[1e200, 0.0]], [[1e200, -1e200], [1e200, 1e200]]):
        m = make_model(*table, c)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for route in (analyze, gramian_doubling):
                with pytest.raises(NonFiniteError, match=r"^doubling: C\^T C overflows; C has "
                                                         r"an entry of magnitude 1e\+200$"):
                    route(m, 1.0)
            with pytest.raises(NonFiniteError, match="^lyapunov-ode:"):
                gramian_ode(m, 1.0)


def test_an_underflowing_c_transpose_c_names_its_route():
    # 1e-200 squared is 0 in floating point: the Gramian would be exactly 0
    # and read as unobservable though the rank test sees rank 2
    m = make_model([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [1.0]], [[1e-200, 0.0]])
    for route in (analyze, gramian_doubling):
        with pytest.raises(ValueError, match=r"^doubling: C\^T C underflows to 0; C has an "
                                             r"entry of magnitude 1e-200$"):
            route(m, 1.0)


def test_gramian_ode_constant_integrand():
    m = make_model(np.zeros((2, 2)), np.ones((2, 1)), np.eye(2))
    g = gramian_ode(m, 3.0, 30)
    np.testing.assert_allclose(g.gramian, 3.0 * np.eye(2), rtol=0, atol=1e-12)
    assert g.method == "lyapunov-ode"
    # C = 0: nothing drives W, which stays exactly 0
    m = make_model(np.random.default_rng(62).uniform(-2.0, 2.0, (5, 5)), np.ones((5, 1)),
                   np.zeros((2, 5)))
    np.testing.assert_array_equal(gramian_ode(m, 5.0).gramian, np.zeros((5, 5)))


def test_gramian_ode_scalar_closed_form():
    m = make_model([[-1.0]], [[1.0]], [[1.0]])
    g = gramian_ode(m, 1.0, 1000)
    exact = (1.0 - np.exp(-2.0)) / 2.0
    assert abs(g.gramian[0, 0] - exact) <= 1e-9


def test_gramian_ode_rejects_bad_arguments():
    m = table_model()
    with pytest.raises(ValueError):
        gramian_ode(m, 0.0)
    with pytest.raises(ValueError, match="^steps must be a whole number >= 1, got 0$"):
        gramian_ode(m, 1.0, steps=0)
    for steps in (2.9, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="steps must be a whole number"):
            gramian_ode(m, 1.0, steps=steps)
    np.testing.assert_array_equal(gramian_ode(m, 1.0, steps=np.float64(7.0)).gramian,
                                  gramian_ode(m, 1.0, steps=np.int32(7)).gramian)


def test_gramian_ode_instability_names_the_stage():
    # stable model, but 1000 RK4 steps of 0.2 leave RK4's stability region;
    # at T = 1, with ||hA||_1 = 0.2, the steps stay finite and silent
    m = table_model(mass=0.5, damping=0.5, stiffness=100.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, want = gramian_ode(m, 1.0).gramian, gramian_doubling(m, 1.0).gramian
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)
        with pytest.raises(NonFiniteError, match=r"lyapunov-ode: .*\[0, 200\] with 1000 RK4"):
            gramian_ode(m, 200.0)


def test_analyze_skips_an_overflowing_ode_cross_check(ode_calls):
    # the same RK4 overflow leaves the certificate to the rank test and
    # the doubling Gramian, which is the finite diag(100, 0.5); analyze
    # runs no RK4 step
    m = table_model(mass=0.5, damping=0.5, stiffness=100.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = analyze(m, 200.0)
    assert ode_calls == []
    assert report.observable and report.consistent
    np.testing.assert_allclose(report.gramian.gramian, np.diag([100.0, 0.5]), atol=1e-12)


@pytest.mark.parametrize("a,c", [
    ([[1.0]], [[0.0]]),  # C = 0: nothing drives W, which stays exactly 0
    ([[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0]]),  # the growing mode is unobservable
], ids=["zero-output", "unobservable-growth"])
def test_ode_cross_check_survives_powers_that_overflow_in_an_unexcited_mode(a, c):
    # over [0, 1000] the step map has the factor e4(2) = 7 in the mode of
    # A = 1, and its powers overflow; C^T C does not excite that mode, so
    # the RK4 steps stay finite and the cross-check is kept
    m = make_model(a, np.ones((len(a), 1)), c)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = analyze(m, 1000.0)
        ode, want = report.gramian_ode.gramian, report.gramian.gramian
        assert report.gramian_ode.method == "lyapunov-ode"
        assert np.linalg.norm(ode - want) <= 1e-12 * np.linalg.norm(want)


DOUBLING = GramianResult(np.eye(2), 1.0, "doubling", True, 1.0)


@pytest.mark.parametrize("cls, args, shown, hidden", [
    (GramianResult, (np.eye(2), 1.0, "doubling", True, 1.0),
     ("gramian", "horizon", "method", "positive_definite", "min_pivot_or_eig"), ()),
    (ObservabilityReport, (2, DOUBLING, HIDDEN_MODEL, DEFAULT_PD_TOL),
     ("kalman_rank", "gramian"), ("model", "pd_tol")),
], ids=["GramianResult", "ObservabilityReport"])
def test_record_contract(cls, args, shown, hidden):
    record = check_record(cls, args, shown, hidden)
    with pytest.raises(TypeError):
        hash(record)  # a Gramian is an array


def test_report_verdicts_follow_from_its_fields():
    # a rank short of n and a definite Gramian: two verdicts that disagree
    table = table_model()
    report = ObservabilityReport(1, DOUBLING, table, DEFAULT_PD_TOL)
    assert report.rank_required == 2
    assert report.kalman_observable is False and report.gramian_observable is True
    assert report.consistent is False and report.observable is False
    for verdict in ("rank_required", "kalman_observable", "gramian_observable",
                    "consistent", "observable"):
        with pytest.raises(AttributeError):
            setattr(report, verdict, True)
    report = analyze(table, 1.0, pd_tol=1e-6)
    assert report.model is table and report.pd_tol == 1e-6


def test_records_built_from_the_same_values_compare_equal():
    # arrays compare whole, so == never raises numpy's ambiguous truth value
    def build():
        m = table_model()
        return m, simulate_free(m, [1.0, -0.5], dt=0.1, steps=10)[1], analyze(m, 1.0)
    for one, two in zip(build(), build()):
        assert one == two and not one != two
        with pytest.raises(TypeError):
            hash(one)
    assert analyze(table_model(), 1.0) != analyze(table_model(stiffness=3.0), 1.0)


def test_report_computes_its_ode_cross_check_once(ode_calls):
    report = analyze(table_model(), 1.0)
    assert report.gramian_ode is report.gramian_ode
    assert len(ode_calls) == 1


def test_verdicts_run_no_rk4_cross_check(ode_calls):
    reports = [analyze(table_model(), 1.0), analyze(HIDDEN_MODEL, 2.0),
               certify_cardio(CardioParams(1.0, 0.5, 2.0), 1.0)]
    assert [(r.kalman_rank, r.observable, r.consistent) for r in reports] == [
        (2, True, True), (1, False, True), (2, True, True)]
    assert ode_calls == []


def test_cross_check_runs_once_on_first_read(ode_calls):
    report = analyze(table_model(), 1.0)
    assert ode_calls == []
    ode = report.gramian_ode
    assert len(ode_calls) == 1
    assert report.gramian_ode is ode
    assert len(ode_calls) == 1


@pytest.mark.parametrize("m, horizon, pd_tol", [
    (table_model(), 1.0, DEFAULT_PD_TOL),
    (random_observable_model(np.random.default_rng(8), 8), 1.5, DEFAULT_PD_TOL),
    (table_model(mass=0.5, damping=0.5, stiffness=100.0), 50.0, 1e-6),
], ids=["table", "random-n8", "stiff-pd-tol"])
def test_lazy_cross_check_is_the_eager_one(m, horizon, pd_tol):
    report = analyze(m, horizon, pd_tol=pd_tol)
    want = gramian_ode(m, horizon, pd_tol=pd_tol)
    got = report.gramian_ode
    assert got.gramian.tobytes() == want.gramian.tobytes()
    assert (got.horizon, got.method, got.positive_definite, got.min_pivot_or_eig) == (
        want.horizon, want.method, want.positive_definite, want.min_pivot_or_eig)


def test_overflowing_cross_check_raises_on_read_and_leaves_the_verdicts(ode_calls):
    # the RK4 steps of T/1000 overflow on the stiff table at T = 200.  The
    # certificate (the rank test and the finite doubling Gramian
    # diag(100, 0.5)) runs none of them; reading the cross-check raises,
    # and the verdicts stand
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = certify_cardio(CardioParams(0.5, 0.5, 100.0), 200.0)
        assert ode_calls == []
        verdicts = (report.kalman_rank, report.observable, report.consistent)
        assert verdicts == (2, True, True)
        np.testing.assert_allclose(report.gramian.gramian, np.diag([100.0, 0.5]), atol=1e-12)
        with pytest.raises(NonFiniteError, match=r"^lyapunov-ode: .*\[0, 200\]"):
            report.gramian_ode
    assert len(ode_calls) == 1
    assert (report.kalman_rank, report.observable, report.consistent) == verdicts


@pytest.mark.parametrize("m", [
    table_model(),
    make_model(np.random.default_rng(65).uniform(-2.0, 2.0, (4, 4)), np.ones((4, 1)),
               np.random.default_rng(66).standard_normal((2, 4))),
], ids=["table", "random-n4"])
def test_gramian_ode_is_fourth_order(m):
    # halving the step cuts RK4's global error by 2^4 = 16; the doubling
    # Gramian, exact to rounding, is the reference
    exact = gramian_doubling(m, 1.0).gramian
    errors = [np.linalg.norm(gramian_ode(m, 1.0, steps).gramian - exact)
              for steps in (25, 50, 100)]
    for coarse, fine in zip(errors, errors[1:]):
        assert 12.0 <= coarse / fine <= 20.0, errors


def test_gramian_ode_results_are_isolated():
    # a call at another size between two calls changes nothing, and no two
    # results share memory
    rng = np.random.default_rng(63)
    models = [make_model(rng.uniform(-2.0, 2.0, (n, n)), np.ones((n, 1)),
                         rng.standard_normal((1, n))) for n in (2, 24, 2)]
    results = [gramian_ode(m, 1.0).gramian for m in models]
    for m, got in zip(models, results):
        np.testing.assert_array_equal(got, gramian_ode(m, 1.0).gramian)
        assert not got.flags.writeable
    for i, first in enumerate(results):
        for second in results[i + 1:]:
            assert not np.shares_memory(first, second)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(1, 6), q=st.integers(1, 2),
       horizon=st.floats(0.1, 3.0))
def test_gramian_ode_agrees_with_doubling(data, n, q, horizon):
    entries = st.floats(-2.0, 2.0)
    a = np.array(data.draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n)
    c = np.array(data.draw(st.lists(entries, min_size=q * n, max_size=q * n))).reshape(q, n)
    m = make_model(a, np.ones((n, 1)), c)
    ode = gramian_ode(m, horizon).gramian
    try:
        exact = gramian_doubling(m, horizon).gramian
    except ValueError as exc:  # a nonzero C so small that C^T C underflows
        assert str(exc).startswith("doubling: C^T C underflows to 0"), exc
        assert np.abs(ode).max() < np.finfo(float).tiny
        return
    scale = np.linalg.norm(exact)
    assert np.abs(ode - ode.T).max() <= 1e-15 * scale
    # RK4's global error on a mode of the Lyapunov operator with rate mu is
    # about T mu (h mu)^4 / 120, with mu <= 2 ||A||_2 and h = T / 1000; the
    # tolerance allows twice that, since 1000 steps cannot reach 1e-8 on
    # this whole domain (A = 2 ones(6, 6), T = 3 is 1.5e-5 off).
    mu = 2.0 * np.linalg.norm(a, 2)
    tol = 1e-8 + horizon * mu * (horizon / 1000 * mu) ** 4 / 60
    assert np.linalg.norm(ode - exact) <= tol * scale


def test_gramian_routes_agree():
    rng = np.random.default_rng(52)
    for _ in range(5):
        a = rng.uniform(-2.0, 2.0, (4, 4))
        m = make_model(a, rng.standard_normal((4, 1)), rng.standard_normal((2, 4)))
        quad = gramian_quadrature(m, 1.0, 200).gramian
        ode = gramian_ode(m, 1.0, 1000).gramian
        rel = np.linalg.norm(quad - ode, "fro") / np.linalg.norm(quad, "fro")
        assert rel <= 1e-6


def test_gramian_positive_semidefinite_probes():
    rng = np.random.default_rng(53)
    for _ in range(5):
        m, _ = random_unobservable_model(rng, 4)
        g = gramian_quadrature(m, 1.0, 100)
        scale = max(np.linalg.norm(g.gramian), 1.0)
        for _ in range(20):
            x = rng.standard_normal(4)
            quad_form = x @ g.gramian @ x
            assert quad_form >= -1e-10 * scale * (x @ x)


def test_gramian_monotone_in_horizon():
    rng = np.random.default_rng(54)
    m = random_observable_model(rng, 3)
    g1 = gramian_quadrature(m, 0.5, 100).gramian
    g2 = gramian_quadrature(m, 1.5, 100).gramian
    diff_eigs = np.linalg.eigvalsh(g2 - g1)
    assert diff_eigs[0] >= -1e-10 * max(np.linalg.norm(g2), 1.0)


def test_three_way_equivalence_on_seeded_models():
    # rank condition <=> Gramian positive definite <=> Gramian invertible
    rng = np.random.default_rng(55)
    for i in range(40):
        n = int(rng.integers(2, 6))
        if i % 2 == 0:
            m = random_observable_model(rng, n)
        else:
            m, _ = random_unobservable_model(rng, n)
        _, by_rank = rank_test(m)
        g = gramian_quadrature(m, 1.0)
        by_pd = g.positive_definite
        by_inverse = rank(g.gramian) == n
        assert by_rank == by_pd == by_inverse


def test_distinguishability_observable_pair():
    rng = np.random.default_rng(56)
    m = random_observable_model(rng, 3)
    x0 = rng.standard_normal(3)
    x1 = x0 + rng.standard_normal(3)
    _, y0 = simulate_free(m, x0, 0.0, 0.01, 100)
    _, y1 = simulate_free(m, x1, 0.0, 0.01, 100)
    assert np.max(np.abs(y0.samples - y1.samples)) > 1e-8


def test_distinguishability_hidden_pair():
    # initial states differing along the invisible coordinate are
    # indistinguishable from the output
    x0 = np.array([0.7, -0.3])
    x1 = x0 + np.array([0.0, 1.0])
    _, y0 = simulate_free(HIDDEN_MODEL, x0, 0.0, 0.01, 100)
    _, y1 = simulate_free(HIDDEN_MODEL, x1, 0.0, 0.01, 100)
    assert np.max(np.abs(y0.samples - y1.samples)) <= 1e-8


def test_reconstruct_free_round_trip():
    m = table_model()
    x0 = np.array([1.0, -0.5])
    _, ys = simulate_free(m, x0, 0.0, 1e-3, 1000)
    got = reconstruct_initial_state(m, ys)
    assert np.linalg.norm(got - x0) / np.linalg.norm(x0) <= 1e-6


def test_reconstruct_forced_round_trip():
    rng = np.random.default_rng(57)
    m = table_model()
    x0 = np.array([0.3, 0.9])
    u = Trace(0.0, 1e-3, rng.standard_normal((1001, 1)))
    _, ys = simulate_forced(m, x0, u)
    got = reconstruct_initial_state(m, ys, u)
    assert np.linalg.norm(got - x0) / np.linalg.norm(x0) <= 1e-5


def test_reconstruct_handles_odd_interval_count():
    # the trapezoid weights take any interval count, odd ones included;
    # matched weights on both sides keep the round trip exact
    m = table_model()
    x0 = np.array([-0.4, 1.1])
    _, ys = simulate_free(m, x0, 0.0, 1e-3, 999)
    got = reconstruct_initial_state(m, ys)
    assert np.linalg.norm(got - x0) / np.linalg.norm(x0) <= 1e-6


def test_reconstruct_from_two_samples():
    # one interval weighs both samples dt/2 by the same trapezoid rule;
    # two output samples determine the planar state, if barely
    m = table_model()
    x0 = np.array([0.6, -0.2])
    _, ys = simulate_free(m, x0, 0.0, 1e-3, 1)
    got = reconstruct_initial_state(m, ys)
    assert np.linalg.norm(got - x0) / np.linalg.norm(x0) <= 1e-6


def test_reconstruct_gramian_near_the_float_limit():
    # the sampled Gramian reaches 1.1e308, so gram + gram.T would overflow;
    # the symmetrization halves first and the solve recovers x0
    m = make_model([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [1.0]], [[1.3e154, 0.0]])
    _, ys = simulate_free(m, [1.0, 0.5], 0.0, 1.0, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gram, _ = reconstruction_normal_equations(m, ys)
        x0, condition = reconstruct_with_condition(m, ys)
    assert gram[0, 0] > 1e308
    np.testing.assert_array_equal(gram, gram.T)
    np.testing.assert_allclose(x0, [1.0, 0.5], rtol=1e-12)
    assert 3.35 < condition < 3.36


@pytest.mark.parametrize("scale", [1e-160, 1e-162, 1e-200, 1e-300])
def test_reconstruct_a_tiny_output_map(scale):
    # unscaled, the sampled Gramian of C = [[0, 1e-160]] is subnormal (its
    # singular values 8e-321 and 1.5e-321), and below that it is 0;
    # reconstruct scales C by a power of two, so the output's units do not
    # matter
    m = make_model(table_model().a, [[0.0], [1.0]], [[0.0, scale]])
    _, ys = simulate_free(m, [1.0, -0.5], 0.0, 1e-3, 1000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x0, condition = reconstruct_with_condition(m, ys)
    np.testing.assert_allclose(x0, [1.0, -0.5], rtol=0, atol=1e-13)
    _, want = reconstruct_with_condition(table_model(), simulate_free(
        table_model(), [1.0, -0.5], 0.0, 1e-3, 1000)[1])
    assert condition == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_reconstruct_is_bit_invariant_under_power_of_two_output_scaling(seed):
    # C -> 2^j C scales every output sample by 2^j exactly, and reconstruct
    # scales both back by a power of two: x0 and the condition keep their bits
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    m = random_observable_model(rng, n)
    x0 = rng.standard_normal(n)
    u = Trace(0.0, 1e-2, rng.standard_normal((101, 1))) if seed % 2 else None
    _, ys = simulate_forced(m, x0, u) if u else simulate_free(m, x0, 0.0, 1e-2, 100)
    want_x0, want_condition = reconstruct_with_condition(m, ys, u)
    for j in range(-20, 21):
        scaled = make_model(m.a, m.b, np.ldexp(m.c, j))
        got_x0, got_condition = reconstruct_with_condition(
            scaled, Trace(ys.t0, ys.dt, np.ldexp(ys.samples, j)), u)
        np.testing.assert_array_equal(got_x0, want_x0)
        assert got_condition == want_condition


@pytest.mark.parametrize("j", [-500, 500])
def test_reconstruct_at_far_output_scales(j):
    m = make_model(table_model().a, [[0.0], [1.0]], [[0.0, math.ldexp(1.0, j)]])
    _, ys = simulate_free(m, [1.0, -0.5], 0.0, 1e-3, 1000)
    _, want = simulate_free(table_model(), [1.0, -0.5], 0.0, 1e-3, 1000)
    x0 = reconstruct_initial_state(m, ys)
    np.testing.assert_array_equal(x0, reconstruct_initial_state(table_model(), want))
    np.testing.assert_allclose(x0, [1.0, -0.5], rtol=0, atol=1e-13)


def test_reconstruct_names_a_scaled_sample_past_the_float_range():
    # C of 1e-300 scales the samples by 2^996; a sample of 1e10 then
    # passes the float range, which reconstruct names with no RuntimeWarning
    m = make_model(table_model().a, [[0.0], [1.0]], [[0.0, 1e-300]])
    ys = Trace(0.0, 1e-2, np.full((11, 1), 1e10))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError,
                           match=r"^reconstruct: an output sample times 2\^996 is past the float range$"):
            reconstruct_with_condition(m, ys)


def test_forced_reconstruction_names_a_free_output_past_the_float_range():
    # y - y_forced is -1.6e308 - 1.2e308 at the second sample: the
    # subtraction overflows with no RuntimeWarning, and the Gramian sums
    # name the overflow
    m = make_model([[0.0]], [[1.0]], [[0.75]])
    ys = Trace(0.0, 1.0, [[-1.6e308], [-1.6e308]])
    us = Trace(0.0, 1.0, [[1.6e308], [0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError,
                           match=r"^reconstruct: the Gramian sums overflow over \[0, 1\]$"):
            reconstruct_with_condition(m, ys, us)


def test_reconstruct_zero_trace_gives_zero_state():
    m = table_model()
    ys = Trace(0.0, 1e-2, np.zeros((101, 1)))
    got = reconstruct_initial_state(m, ys)
    np.testing.assert_array_equal(got, np.zeros(2))


def test_reconstruct_unobservable_raises():
    _, ys = simulate_free(HIDDEN_MODEL, [0.3, 0.7], 0.0, 1e-2, 100)
    with pytest.raises(SingularGramianError) as info:
        reconstruct_initial_state(HIDDEN_MODEL, ys)
    assert info.value.condition > 1e12


def test_reconstruct_horizon_mismatch():
    m = table_model()
    _, ys = simulate_free(m, [1.0, 0.0], 0.0, 1e-2, 100)
    with pytest.raises(ValueError, match="horizon"):
        reconstruct_initial_state(m, ys, horizon=2.0)
    # the matching horizon is accepted
    reconstruct_initial_state(m, ys, horizon=1.0)


def test_reconstruct_validates_traces():
    m = table_model()
    wide = Trace(0.0, 1e-2, np.zeros((50, 2)))
    with pytest.raises(ShapeMismatchError):
        reconstruct_initial_state(m, wide)
    ys = Trace(0.0, 1e-2, np.zeros((50, 1)))
    bad_dt = Trace(0.0, 2e-2, np.zeros((50, 1)))
    shifted = Trace(0.5, 1e-2, np.zeros((50, 1)))
    for u, grid in ((bad_dt, "t0 = 0.0 at dt = 0.02"), (shifted, "t0 = 0.5 at dt = 0.01")):
        with pytest.raises(ValueError, match=re.escape(
                f"must share a grid: 50 samples from {grid} against "
                "50 samples from t0 = 0.0 at dt = 0.01")):
            reconstruct_initial_state(m, ys, u)


def _trapezoid_stack(m, dt, samples):
    """Rows C expm(A k dt) of every sample k, each output row scaled by the
    square root of its trapezoid weight (dt, dt/2 at both ends)."""
    sla = pytest.importorskip("scipy.linalg")
    w = np.full(samples, dt)
    w[0] = w[-1] = dt / 2
    rows = np.stack([m.c @ sla.expm(m.a * (k * dt)) for k in range(samples)])
    return np.sqrt(w)[:, None, None] * rows, np.sqrt(w)[:, None]


def test_normal_equations_match_direct_gramian():
    # the Gramian assembled on the trace grid is the trapezoid sum of
    # R_k^T R_k over the samples, R_k = C e^{A k dt}
    m = table_model()
    _, ys = simulate_free(m, [1.0, 0.0], 0.0, 1e-2, 100)
    gram, _ = reconstruction_normal_equations(m, ys)
    rows, _ = _trapezoid_stack(m, 1e-2, 101)
    direct = np.einsum("kqi,kqj->ij", rows, rows)
    np.testing.assert_allclose(gram, direct, rtol=1e-12)


@pytest.mark.parametrize("intervals", [5, 7, 999])
def test_reconstruction_gramian_is_accurate_on_odd_grids(intervals):
    # every interval count gets the same rule, so odd grids are as close
    # to the exact Gramian as even ones: within the trapezoid error
    # (dt A)^2 / 12 ~ 1e-6 relative
    m = table_model()
    _, ys = simulate_free(m, [1.0, -0.5], 0.0, 1e-3, intervals)
    gram, _ = reconstruction_normal_equations(m, ys)
    exact = gramian_doubling(m, ys.duration).gramian
    assert np.linalg.norm(gram - exact) <= 1e-5 * np.linalg.norm(exact)


@pytest.mark.parametrize("forced", [False, True])
def test_reconstruct_is_trapezoid_weighted_least_squares(forced):
    # on a noisy trace x0 minimizes sum_k w_k |C e^{A t_k} x0 - y_k|^2
    # with the trapezoid weights w_k; the oracle solves that problem by
    # lstsq on the sqrt(w)-scaled stack
    rng = np.random.default_rng(60)
    m = table_model()
    dt, intervals = 1e-2, 151
    x0 = np.array([0.8, -0.3])
    if forced:
        u = Trace(0.0, dt, rng.standard_normal((intervals + 1, 1)))
        _, ys = simulate_forced(m, x0, u)
        free = ys.samples - simulate_forced(m, np.zeros(2), u)[1].samples
    else:
        u = None
        _, ys = simulate_free(m, x0, 0.0, dt, intervals)
        free = ys.samples
    noise = 0.01 * rng.standard_normal(ys.samples.shape)
    noisy = Trace(0.0, dt, ys.samples + noise)
    rows, sqrt_w = _trapezoid_stack(m, dt, intervals + 1)
    want = np.linalg.lstsq(rows.reshape(-1, 2), (sqrt_w * (free + noise)).ravel(),
                           rcond=None)[0]
    got = reconstruct_initial_state(m, noisy, u)
    assert np.linalg.norm(got - x0) > 1e-4  # the noise does move the estimate
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)


def test_reconstruct_with_condition_returns_the_solved_systems_condition(monkeypatch):
    m = table_model()
    u = Trace(0.0, 1e-2, np.sin(np.arange(101.0))[:, None])
    _, ys = simulate_forced(m, [0.3, -1.0], u)
    x0, condition = reconstruct_with_condition(m, ys, u, horizon=1.0)
    gram, moment = reconstruction_normal_equations(m, ys, u)
    assert type(condition) is float
    assert condition == np.linalg.cond(gram)
    # x0 alone takes no condition number
    monkeypatch.setattr(np.linalg, "cond", None)
    np.testing.assert_array_equal(x0, reconstruct_initial_state(m, ys, u))
    np.testing.assert_allclose(gram @ x0, moment, rtol=1e-12)


def test_analyze_table_certificate():
    report = analyze(table_model(), 5.0)
    assert report.kalman_rank == 2
    assert report.rank_required == 2
    assert report.kalman_observable
    assert report.gramian_observable
    assert report.consistent
    assert report.gramian.method == "doubling"
    assert report.gramian_ode.method == "lyapunov-ode"


def test_analyze_zero_output_map():
    m = make_model([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [1.0]], [[0.0, 0.0]])
    report = analyze(m, 1.0)
    assert report.kalman_rank == 0
    assert not report.kalman_observable
    assert not report.gramian_observable
    assert report.consistent
    np.testing.assert_array_equal(report.gramian.gramian, np.zeros((2, 2)))


def test_analyze_full_output_map():
    rng = np.random.default_rng(58)
    m = make_model(rng.standard_normal((3, 3)), np.ones((3, 1)), np.eye(3))
    report = analyze(m, 1.0)
    assert report.kalman_observable and report.gramian_observable


def test_analyze_takes_its_rank_from_rank_test_at_rank_tol():
    # the 1e-9 coupling lifts the rank to 2 at the default tolerance, not at 1e-6
    m = make_model([[0.0, 1e-9], [0.0, 0.0]], [[0.0], [1.0]], [[1.0, 0.0]])
    for rank_tol, want_rank, want_consistent in ((None, 2, False), (1e-6, 1, True)):
        report = analyze(m, 1.0, rank_tol=rank_tol)
        assert (report.kalman_rank, report.kalman_observable) == rank_test(m, rank_tol)
        assert report.kalman_rank == want_rank
        assert report.consistent is want_consistent
        assert not report.gramian_observable


def test_analyze_rejects_degenerate_horizon():
    with pytest.raises(ValueError):
        analyze(table_model(), 0.0)
    with pytest.raises(ValueError):
        analyze(table_model(), -2.0)
