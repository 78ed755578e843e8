"""Observability certificates and initial-state reconstruction.

Three routes to the same verdict:

* Kalman rank test: the block matrix [C^T, A^T C^T, ..., (A^T)^(n-1) C^T]
  has rank n exactly when the model is completely observable.
* Observability Gramian M(0,T) = integral over [0,T] of
  e^{A^T s} C^T C e^{A s} ds, positive definite exactly when observable.
  Computed two independent ways: composite Simpson quadrature and RK4
  integration of the differential Lyapunov equation
  dW/dt = A^T W + W A + C^T C, W(0) = 0.

When the Gramian is invertible the initial state is recoverable from an
output trace:  x0 = M(0,T)^{-1} * integral of e^{A^T t} C^T y(t) dt,
since substituting y(t) = C e^{At} x0 turns the integral into M x0.
Forced traces are handled by subtracting the zero-initial-state forced
response first, which leaves the free output of x0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from observkit.linalg import (
    NonFiniteError,
    ShapeMismatchError,
    SingularMatrixError,
    expm,
    is_positive_definite,  # noqa: F401  (perfbench/spans.py wraps it on this module)
    rank,
    solve,
)
from observkit.lti import StateSpaceModel, Trace, propagate, simulate_forced

__all__ = [
    "GramianResult",
    "ObservabilityReport",
    "SingularGramianError",
    "analyze",
    "gramian_ode",
    "gramian_quadrature",
    "observability_matrix",
    "rank_test",
    "reconstruct_initial_state",
    "reconstruct_with_gramian",
    "reconstruction_normal_equations",
]

DEFAULT_PD_TOL = 1e-10
ANALYSIS_INTERVALS = 200
RECONSTRUCTION_INTERVALS = 1000
ODE_STEPS = 1000


class SingularGramianError(SingularMatrixError):
    """The observability Gramian is numerically singular, so the initial
    state is not recoverable at this horizon (the model is not
    completely observable)."""


@dataclass(frozen=True)
class GramianResult:
    """Observability Gramian over [0, horizon] with its definiteness verdict.

    ``min_pivot_or_eig`` is the smallest eigenvalue of the symmetrized
    Gramian, the quantity the verdict thresholds on.
    """

    gramian: np.ndarray
    horizon: float
    method: str
    positive_definite: bool
    min_pivot_or_eig: float


@dataclass(frozen=True)
class ObservabilityReport:
    """Full certificate: rank route, Gramian route, and their agreement.

    ``gramian`` holds the quadrature result (the verdict-bearing route);
    ``gramian_ode`` holds the independent Lyapunov-ODE cross-check.
    ``consistent`` is false when the rank and Gramian verdicts disagree,
    which signals a tolerance problem rather than a property of the model.
    """

    kalman_rank: int
    rank_required: int
    kalman_observable: bool
    gramian_observable: bool
    consistent: bool
    observability_matrix: np.ndarray
    gramian: GramianResult
    gramian_ode: GramianResult


def observability_matrix(m: StateSpaceModel) -> np.ndarray:
    """Horizontal stack of C^T, A^T C^T, ..., (A^T)^(n-1) C^T, shape n x (n q)."""
    at = m.a.T
    block = m.c.T
    blocks = [block]
    for _ in range(m.n - 1):
        block = at @ block
        blocks.append(block)
    return np.hstack(blocks)


def rank_test(m: StateSpaceModel, rel_tol: float | None = None) -> tuple[int, bool]:
    """Numerical rank of the observability matrix and whether it equals n."""
    r = rank(observability_matrix(m), rel_tol)
    return r, r == m.n


def _check_horizon(horizon: float) -> float:
    horizon = float(horizon)
    if not np.isfinite(horizon) or horizon <= 0:
        raise ValueError(f"horizon must be a positive time, got {horizon}")
    return horizon


def _finish_gramian(gram: np.ndarray, horizon: float, method: str,
                    pd_tol: float) -> GramianResult:
    sym = 0.5 * (gram + gram.T)
    sym.setflags(write=False)
    smallest = float(np.linalg.eigvalsh(sym)[0])
    scale = float(np.max(np.abs(np.diag(sym))))  # as in linalg.is_positive_definite
    return GramianResult(gramian=sym, horizon=horizon, method=method,
                         positive_definite=smallest > pd_tol * scale,
                         min_pivot_or_eig=smallest)


def _simpson_weights(intervals: int, h: float) -> np.ndarray:
    """Composite Simpson weights for an even interval count.

    An odd count >= 3 is handled by closing with the 3/8 rule on the
    last three intervals; a single interval falls back to the trapezoid
    rule.  Both keep the weights usable on whatever grid a measured
    trace provides.
    """
    w = np.zeros(intervals + 1)
    if intervals == 1:
        w[:] = 0.5
    elif intervals % 2 == 0:
        w[0] = w[-1] = 1.0 / 3.0
        w[1:-1:2] = 4.0 / 3.0
        w[2:-1:2] = 2.0 / 3.0
    else:
        head = intervals - 3
        if head:
            w[0] = 1.0 / 3.0
            w[1:head:2] = 4.0 / 3.0
            w[2:head:2] = 2.0 / 3.0
        w[head] += 3.0 / 8.0
        w[head + 1] = w[head + 2] = 9.0 / 8.0
        w[head + 3] = 3.0 / 8.0
    return w * h


def _weighted_sums(m: StateSpaceModel, h: float, weights: np.ndarray, stage: str,
                   samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sums over grid nodes k of w_k R_k^T R_k and of w_k R_k^T y_k, one
    product each, with every R_k = C Phi(h)^k from one :func:`propagate`."""
    v = np.zeros((weights.size, m.n, m.q))
    v[0] = m.c.T
    rows = np.moveaxis(propagate(expm(m.a, h).T, v, stage), 1, -1).reshape(-1, m.n)
    w = np.repeat(weights, m.q)
    with np.errstate(over="ignore", invalid="ignore"):
        gram, moment = rows.T @ (w[:, None] * rows), rows.T @ (w * samples.ravel())
    if not (np.isfinite(gram).all() and np.isfinite(moment).all()):
        raise NonFiniteError(f"{stage}: the Gramian sums overflow over "
                             f"[0, {h * (weights.size - 1):.6g}]")
    return gram, moment


def gramian_quadrature(m: StateSpaceModel, horizon: float,
                       intervals: int = ANALYSIS_INTERVALS,
                       pd_tol: float = DEFAULT_PD_TOL) -> GramianResult:
    """Gramian by composite Simpson quadrature on an even grid.

    The integrand e^{A^T s} C^T C e^{A s} at node k is R_k^T R_k with
    R_k = C Phi(h)^k, so the whole integral needs one matrix exponential.

    Args:
        m: the model.
        horizon: T > 0.
        intervals: even Simpson interval count, at least 2.
        pd_tol: relative eigenvalue threshold for the definiteness verdict.

    Raises:
        ValueError: nonpositive horizon or odd/low interval count.
    """
    horizon = _check_horizon(horizon)
    intervals = int(intervals)
    if intervals < 2 or intervals % 2:
        raise ValueError(f"intervals must be even and >= 2, got {intervals}")
    h = horizon / intervals
    gram, _ = _weighted_sums(m, h, _simpson_weights(intervals, h), "quadrature",
                             np.zeros((intervals + 1, m.q)))
    return _finish_gramian(gram, horizon, "quadrature", pd_tol)


def gramian_ode(m: StateSpaceModel, horizon: float, steps: int = ODE_STEPS,
                pd_tol: float = DEFAULT_PD_TOL) -> GramianResult:
    """Gramian by RK4 integration of dW/dt = A^T W + W A + C^T C from W(0) = 0.

    This route shares no quadrature machinery with
    :func:`gramian_quadrature`, so agreement between the two is a real
    cross-check.
    """
    horizon = _check_horizon(horizon)
    steps = int(steps)
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    at = m.a.T
    ctc = m.c.T @ m.c
    h = horizon / steps

    def rhs(w):
        return at @ w + w @ m.a + ctc

    w = np.zeros((m.n, m.n))
    for _ in range(steps):
        k1 = rhs(w)
        k2 = rhs(w + 0.5 * h * k1)
        k3 = rhs(w + 0.5 * h * k2)
        k4 = rhs(w + h * k3)
        w = w + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return _finish_gramian(w, horizon, "lyapunov-ode", pd_tol)


def _free_output(m: StateSpaceModel, y: Trace, u: Trace | None) -> np.ndarray:
    """Output samples with any forced contribution removed."""
    if y.width != m.q:
        raise ShapeMismatchError(f"output trace must have width {m.q}, got {y.width}")
    if y.samples.shape[0] < 2:
        raise ValueError("output trace needs at least two samples to span a window")
    if u is None:
        return y.samples
    if u.width != m.p:
        raise ShapeMismatchError(f"input trace must have width {m.p}, got {u.width}")
    if u.samples.shape[0] != y.samples.shape[0]:
        raise ValueError(
            f"input and output traces must share a grid: {u.samples.shape[0]} vs "
            f"{y.samples.shape[0]} samples")
    if abs(u.dt - y.dt) > 1e-9 * max(u.dt, y.dt) or u.t0 != y.t0:
        raise ValueError("input and output traces must share a grid (t0 and dt)")
    _, y_forced = simulate_forced(m, np.zeros(m.n), u)
    return y.samples - y_forced.samples


def reconstruction_normal_equations(
        m: StateSpaceModel, y: Trace, u: Trace | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Gramian and moment vector for initial-state recovery, on the trace's grid.

    With R_k = C Phi(dt)^k and w_k the Simpson weights, gram sums
    w_k R_k^T R_k and moment sums w_k R_k^T y_k.  Both sides use the same
    weights, so for noiseless data the solve returns x0 up to rounding
    regardless of quadrature error: the weighted sums satisfy
    gram @ x0 = moment identically when y(t_k) = C e^{A t_k} x0.

    Returns:
        (gram, moment) with gram symmetric n x n and moment length n.
    """
    samples = _free_output(m, y, u)
    weights = _simpson_weights(samples.shape[0] - 1, y.dt)
    gram, moment = _weighted_sums(m, y.dt, weights, "reconstruct", samples)
    return 0.5 * (gram + gram.T), moment


def reconstruct_initial_state(m: StateSpaceModel, y: Trace,
                              u: Trace | None = None,
                              horizon: float | None = None) -> np.ndarray:
    """Recover x0 from an output trace over [0, T].

    Args:
        m: the model the trace came from.
        y: output trace, width q, at least two samples.
        u: input trace on the same grid, if the response was forced.
        horizon: expected window length; checked against the trace's
            span when given (relative tolerance 1e-9).

    Returns:
        The initial state, exact to rounding for noiseless traces of an
        observable model.

    Raises:
        SingularGramianError: the Gramian is not invertible at this
            horizon, i.e. the model is not completely observable.
        ValueError: trace/horizon mismatch or a degenerate trace.
    """
    return reconstruct_with_gramian(m, y, u, horizon)[0]


def reconstruct_with_gramian(m: StateSpaceModel, y: Trace, u: Trace | None = None,
                             horizon: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """:func:`reconstruct_initial_state`, also returning the symmetric
    Gramian of the normal equations it solved, as (x0, gram)."""
    if horizon is not None:
        horizon = _check_horizon(horizon)
        span = y.duration
        if abs(span - horizon) > 1e-9 * max(abs(span), horizon):
            raise ValueError(
                f"trace spans {span:.12g} but horizon {horizon:.12g} was requested")
    gram, moment = reconstruction_normal_equations(m, y, u)
    try:
        return solve(gram, moment), gram
    except SingularMatrixError as exc:
        raise SingularGramianError(
            f"observability Gramian is singular over [0, {y.duration:.6g}]: "
            f"the model is not completely observable at this horizon "
            f"(condition estimate {exc.condition:.3e})",
            condition=exc.condition,
            min_singular_value=exc.min_singular_value) from None


def analyze(m: StateSpaceModel, horizon: float,
            rank_tol: float | None = None,
            pd_tol: float = DEFAULT_PD_TOL,
            intervals: int = ANALYSIS_INTERVALS,
            ode_steps: int = ODE_STEPS) -> ObservabilityReport:
    """Run the rank test and both Gramian routes; return the full certificate.

    The Gramian verdict carried in ``gramian_observable`` comes from the
    quadrature route; the Lyapunov-ODE result rides along for
    cross-checking.  ``consistent`` compares the rank verdict with the
    Gramian verdict.
    """
    horizon = _check_horizon(horizon)
    obs = observability_matrix(m)
    r = rank(obs, rank_tol)
    kalman_observable = r == m.n
    quad = gramian_quadrature(m, horizon, intervals, pd_tol)
    ode = gramian_ode(m, horizon, ode_steps, pd_tol)
    gramian_observable = quad.positive_definite
    return ObservabilityReport(
        kalman_rank=r,
        rank_required=m.n,
        kalman_observable=kalman_observable,
        gramian_observable=gramian_observable,
        consistent=kalman_observable == gramian_observable,
        observability_matrix=obs,
        gramian=quad,
        gramian_ode=ode,
    )
