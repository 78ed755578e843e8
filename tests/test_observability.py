import warnings

import numpy as np
import pytest

from helpers import random_observable_model, random_unobservable_model, unstable_saddle_model
from observkit.linalg import NonFiniteError, ShapeMismatchError, is_positive_definite, rank
from observkit.lti import Trace, make_model, simulate_forced, simulate_free
from observkit.observability import (
    SingularGramianError,
    analyze,
    gramian_ode,
    gramian_quadrature,
    observability_matrix,
    rank_test,
    reconstruct_initial_state,
    reconstruct_with_gramian,
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
    with pytest.raises(ValueError):
        gramian_quadrature(m, 1.0, intervals=0)


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
            for g in (gramian_quadrature(m, 1.0, 200, tol), gramian_ode(m, 1.0, 200, tol)):
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
        with pytest.raises(NonFiniteError, match="quadrature"):
            analyze(m, 20.0)


def test_gramian_ode_constant_integrand():
    m = make_model(np.zeros((2, 2)), np.ones((2, 1)), np.eye(2))
    g = gramian_ode(m, 3.0, 30)
    np.testing.assert_allclose(g.gramian, 3.0 * np.eye(2), rtol=0, atol=1e-12)
    assert g.method == "lyapunov-ode"


def test_gramian_ode_scalar_closed_form():
    m = make_model([[-1.0]], [[1.0]], [[1.0]])
    g = gramian_ode(m, 1.0, 1000)
    exact = (1.0 - np.exp(-2.0)) / 2.0
    assert abs(g.gramian[0, 0] - exact) <= 1e-9


def test_gramian_ode_rejects_bad_arguments():
    m = table_model()
    with pytest.raises(ValueError):
        gramian_ode(m, 0.0)
    with pytest.raises(ValueError):
        gramian_ode(m, 1.0, steps=0)


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
    # 999 intervals closes with the 3/8 rule; matched weights keep the
    # round trip exact regardless
    m = table_model()
    x0 = np.array([-0.4, 1.1])
    _, ys = simulate_free(m, x0, 0.0, 1e-3, 999)
    got = reconstruct_initial_state(m, ys)
    assert np.linalg.norm(got - x0) / np.linalg.norm(x0) <= 1e-6


def test_reconstruct_from_two_samples():
    # a single interval falls back to the trapezoid rule; two output
    # samples determine the planar state, if barely
    m = table_model()
    x0 = np.array([0.6, -0.2])
    _, ys = simulate_free(m, x0, 0.0, 1e-3, 1)
    got = reconstruct_initial_state(m, ys)
    assert np.linalg.norm(got - x0) / np.linalg.norm(x0) <= 1e-6


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
    single = Trace(0.0, 1e-2, np.zeros((1, 1)))
    with pytest.raises(ValueError, match="two samples"):
        reconstruct_initial_state(m, single)
    ys = Trace(0.0, 1e-2, np.zeros((50, 1)))
    bad_grid = Trace(0.0, 2e-2, np.zeros((50, 1)))
    with pytest.raises(ValueError, match="grid"):
        reconstruct_initial_state(m, ys, bad_grid)


def test_normal_equations_match_direct_gramian():
    # same weights on both sides is what makes the solve exact; the
    # Gramian assembled on the trace grid should agree with the
    # standalone quadrature at matching resolution
    m = table_model()
    _, ys = simulate_free(m, [1.0, 0.0], 0.0, 1e-2, 100)
    gram, _ = reconstruction_normal_equations(m, ys)
    direct = gramian_quadrature(m, 1.0, 100).gramian
    np.testing.assert_allclose(gram, direct, rtol=1e-12)


def test_reconstruct_with_gramian_returns_the_solved_system():
    m = table_model()
    u = Trace(0.0, 1e-2, np.sin(np.arange(101.0))[:, None])
    _, ys = simulate_forced(m, [0.3, -1.0], u)
    x0, gram = reconstruct_with_gramian(m, ys, u, horizon=1.0)
    want_gram, moment = reconstruction_normal_equations(m, ys, u)
    np.testing.assert_array_equal(gram, want_gram)
    np.testing.assert_array_equal(x0, reconstruct_initial_state(m, ys, u))
    np.testing.assert_allclose(gram @ x0, moment, rtol=1e-12)


def test_analyze_table_certificate():
    report = analyze(table_model(), 5.0)
    assert report.kalman_rank == 2
    assert report.rank_required == 2
    assert report.kalman_observable
    assert report.gramian_observable
    assert report.consistent
    assert report.gramian.method == "quadrature"
    assert report.gramian_ode.method == "lyapunov-ode"
    assert report.observability_matrix.shape == (2, 2)


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


def test_analyze_rejects_degenerate_horizon():
    with pytest.raises(ValueError):
        analyze(table_model(), 0.0)
    with pytest.raises(ValueError):
        analyze(table_model(), -2.0)
