"""Observability certificates and initial-state reconstruction.

Two tests of the same property:

* Kalman rank test: the block matrix [C^T, A^T C^T, ..., (A^T)^(n-1) C^T]
  has rank n exactly when the model is completely observable.
* Observability Gramian M(0,T) = integral over [0,T] of
  e^{A^T s} C^T C e^{A s} ds, positive definite exactly when observable.
  :func:`analyze` decides on the Gramian from :func:`gramian_doubling`
  (one Van Loan block exponential, then doubling up to T), which has no
  discretisation.  :func:`gramian_ode`, RK4 integration of the
  differential Lyapunov equation dW/dt = A^T W + W A + C^T C, W(0) = 0,
  is the independent cross-check that rides along in the report.
  Composite Simpson quadrature (:func:`gramian_quadrature`) is a third
  route, on a grid the caller picks.

When the Gramian is invertible the initial state is recoverable from an
output trace:  x0 = M(0,T)^{-1} * integral of e^{A^T t} C^T y(t) dt,
since substituting y(t) = C e^{At} x0 turns the integral into M x0.
On a sampled trace both integrals are trapezoid sums with the same
weights, so the identity, and with it x0, holds exactly on any grid.
Forced traces are handled by subtracting the zero-initial-state forced
response first, which leaves the free output of x0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from observkit.linalg import (
    DEFAULT_PD_TOL,
    NonFiniteError,
    ShapeMismatchError,
    SingularMatrixError,
    as_count,
    definiteness,
    expm,
    expm_squarings,
    is_positive_definite,  # noqa: F401  (perfbench/spans.py wraps it on this module)
    rank,
    solve,
)
from observkit.lti import StateSpaceModel, Trace, propagate, simulate_forced, times_agree

__all__ = [
    "GramianResult",
    "ObservabilityReport",
    "SingularGramianError",
    "analyze",
    "gramian_doubling",
    "gramian_ode",
    "gramian_quadrature",
    "observability_matrix",
    "rank_test",
    "reconstruct_initial_state",
]

class SingularGramianError(SingularMatrixError):
    """The observability Gramian is numerically singular, so the initial
    state is not recoverable at this horizon (the model is not
    completely observable)."""


@dataclass(frozen=True)
class GramianResult:
    """Observability Gramian over [0, horizon] with its definiteness verdict.

    ``method`` names the route: ``"doubling"``, ``"lyapunov-ode"`` or
    ``"quadrature"``.  ``min_pivot_or_eig`` is the smallest eigenvalue of
    the symmetrized Gramian, the quantity the verdict thresholds on.
    """

    gramian: np.ndarray
    horizon: float
    method: str
    positive_definite: bool
    min_pivot_or_eig: float


@dataclass(frozen=True)
class ObservabilityReport:
    """Full certificate: rank route, Gramian route, and their agreement.

    ``kalman_rank`` and ``kalman_observable`` are what :func:`rank_test`
    returns; the observability matrix itself is not kept, since no verdict
    reads it (call :func:`observability_matrix` to see it).  ``gramian``
    holds the doubling result (the verdict-bearing route); ``gramian_ode``
    holds the independent Lyapunov-ODE cross-check, or None when its RK4
    integration overflowed, which no verdict depends on.  ``consistent`` is
    false when the rank and Gramian verdicts disagree, which signals a
    tolerance problem rather than a property of the model.
    """

    kalman_rank: int
    rank_required: int
    kalman_observable: bool
    gramian_observable: bool
    consistent: bool
    gramian: GramianResult
    gramian_ode: GramianResult | None

    @property
    def observable(self) -> bool:
        """The overall verdict: both the rank and the Gramian route say observable."""
        return self.kalman_observable and self.gramian_observable


def observability_matrix(m: StateSpaceModel) -> np.ndarray:
    """Horizontal stack of C^T, A^T C^T, ..., (A^T)^(n-1) C^T, shape n x (n q).

    Raises:
        NonFiniteError: a block overflows; the message names the power.
    """
    blocks = [m.c.T]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(m.n - 1):
            blocks.append(m.a.T @ blocks[-1])
    obs = np.hstack(blocks)
    if not np.isfinite(obs).all():
        k = int(np.flatnonzero(~np.isfinite(obs).all(axis=0))[0]) // m.q
        raise NonFiniteError(f"kalman-rank: the block (A^T)^{k} C^T overflows; "
                             f"the rank test needs powers up to {m.n - 1}")
    return obs


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
    sym, positive_definite, smallest = definiteness(gram, pd_tol)
    sym.setflags(write=False)
    return GramianResult(gramian=sym, horizon=horizon, method=method,
                         positive_definite=positive_definite, min_pivot_or_eig=smallest)


def _weighted_sums(m: StateSpaceModel, h: float, weights: np.ndarray,
                   samples: np.ndarray, stage: str) -> tuple[np.ndarray, np.ndarray]:
    """Sums over grid nodes k of w_k R_k^T R_k and of w_k R_k^T y_k, one
    product each, for the caller's weights w_k (already scaled by the step
    h) on the samples y_k, with every R_k = C Phi(h)^k from one
    :func:`propagate`.

    :func:`gramian_quadrature` passes Simpson weights and reconstruction
    the trapezoid rule.  For reconstruction any positive weights recover a
    noiseless x0 exactly: both sums carry the same w_k, so
    y_k = R_k x0 makes the second sum the first times x0.
    """
    v = np.zeros((weights.size, m.q, m.n))
    v[0] = m.c
    rows = propagate(expm(m.a, h).T, v, stage).reshape(-1, m.n)
    w = np.repeat(weights, m.q)
    with np.errstate(over="ignore", invalid="ignore"):
        gram, moment = rows.T @ (w[:, None] * rows), rows.T @ (w * samples.ravel())
    if not (np.isfinite(gram).all() and np.isfinite(moment).all()):
        raise NonFiniteError(f"{stage}: the Gramian sums overflow over "
                             f"[0, {h * (weights.size - 1):.6g}]")
    return gram, moment


def gramian_quadrature(m: StateSpaceModel, horizon: float,
                       intervals: int = 200,
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
    intervals = as_count(intervals, "intervals")
    if intervals < 2 or intervals % 2:
        raise ValueError(f"intervals must be even and >= 2, got {intervals}")
    h = horizon / intervals
    weights = np.full(intervals + 1, 2.0 / 3.0)
    weights[1::2] = 4.0 / 3.0
    weights[0] = weights[-1] = 1.0 / 3.0
    gram, _ = _weighted_sums(m, h, weights * h, np.zeros((intervals + 1, m.q)),
                             "quadrature")
    return _finish_gramian(gram, horizon, "quadrature", pd_tol)


def gramian_doubling(m: StateSpaceModel, horizon: float,
                     pd_tol: float = DEFAULT_PD_TOL) -> GramianResult:
    """Gramian by one Van Loan block exponential on a short step, then doubling.

    With t = T / 2^k, exp([[-A^T, C^T C], [0, A]] t) has blocks
    [[e^{-A^T t}, F], [0, Phi(t)]] with Phi(t)^T F = M(0, t) (Van Loan,
    1978).  Since M(0, 2t) = M(0, t) + Phi(t)^T M(0, t) Phi(t) and
    Phi(2t) = Phi(t)^2, k doublings reach M(0, T) (Smith, 1968).  k is the
    smallest count with ||A||_1 t <= 1/2, the scaling :func:`expm` uses,
    so the work follows from (A, T) and no grid is chosen.

    Raises:
        ValueError: nonpositive horizon.
        NonFiniteError: the Gramian overflows over [0, T].
    """
    horizon = _check_horizon(horizon)
    k = expm_squarings(m.a, horizon, "doubling")
    block = np.block([[-m.a.T, m.c.T @ m.c], [np.zeros((m.n, m.n)), m.a]])
    f = expm(block, np.ldexp(horizon, -k))
    phi = f[m.n:, m.n:]
    gram = phi.T @ f[:m.n, m.n:]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(k if gram.any() else 0):  # C = 0: stays 0; inf * 0 would be NaN
            gram = gram + phi.T @ gram @ phi
            phi = phi @ phi
    if not np.isfinite(gram).all():
        raise NonFiniteError(f"doubling: the Gramian overflows over [0, {horizon:.6g}] "
                             f"after {k} doublings")
    return _finish_gramian(gram, horizon, "doubling", pd_tol)


def gramian_ode(m: StateSpaceModel, horizon: float, steps: int = 1000,
                pd_tol: float = DEFAULT_PD_TOL) -> GramianResult:
    """Gramian by RK4 integration of dW/dt = A^T W + W A + C^T C from W(0) = 0.

    This route shares no machinery with :func:`gramian_doubling` or
    :func:`gramian_quadrature`, so agreement with either is a real
    cross-check.

    Each of the ``steps`` steps is one classical RK4 step of size
    h = T/steps, applied as the polynomial it equals.  For a linear
    right-hand side L(W) + Q, RK4 maps W to sum_{k<=4} (hL)^k W / k! + G
    with G = h sum_{j<=3} (hL)^j Q / (j+1)!.  Here L(W) = A^T W + W A is a
    left plus a right multiplication, which commute, so the binomial
    theorem splits (hL)^k / k! into sum_{i+l=k} P_i^T W P_l with
    P_i = (hA)^i / i!: one step is W -> sum_{i+l<=4} P_i^T W P_l + G, the
    same map as the four stages, in another rounding order.  W stays
    symmetric, so the (i, l) and (l, i) terms pair up and the step is
    Y + Y^T + G with Y = W R_0 + P_1^T W R_1 + P_2^T W R_2,
    R_0 = I/2 + P_1 + P_2 + P_3 + P_4, R_1 = P_1/2 + P_2 + P_3, R_2 = P_2/2.

    The factors are laid out as two n x 3n matrices, right = [R_0 R_1 R_2]
    and left with left[c, 3a + j] = (P_j^T)[c, a].  Row a of W @ right
    holds the rows a of W R_0, W R_1 and W R_2 side by side, so the same
    buffer read as 3n x n has row 3a + j equal to row a of W R_j, and
    left times it is Y.  The buffers for W @ right (n x 3n) and Y (n x n)
    are allocated once per call; each step is the two 2-D products into
    them, then W = Y^T + Y + G by a transposed copy and two in-place
    additions, and allocates nothing.
    """
    horizon = _check_horizon(horizon)
    steps = as_count(steps, "steps")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    ctc = m.c.T @ m.c
    h = horizon / steps
    eye = np.eye(m.n)
    w = np.zeros((m.n, m.n))
    with np.errstate(over="ignore", invalid="ignore"):
        p = [eye, h * m.a]
        for i in (2, 3, 4):
            p.append(p[-1] @ p[1] / i)
        g = ctc
        for j in (4, 3, 2):  # Horner: G = h (Q + hL/2 (Q + hL/3 (Q + hL/4 Q)))
            g = ctc + (h / j) * (m.a.T @ g + g @ m.a)
        g = h * g
        left = np.stack([eye, p[1].T, p[2].T], axis=2).reshape(m.n, 3 * m.n)
        right = np.hstack([0.5 * eye + p[1] + p[2] + p[3] + p[4],
                           0.5 * p[1] + p[2] + p[3], 0.5 * p[2]])
        wr = np.empty((m.n, 3 * m.n))
        stack = wr.reshape(3 * m.n, m.n)
        y = np.empty((m.n, m.n))
        for _ in range(steps):  # stack is wr read as 3n x n, so left @ stack = Y
            np.dot(w, right, out=wr)
            np.dot(left, stack, out=y)
            w[...] = y.T  # a copy; an add with a transposed operand is slower
            w += y
            w += g
    if not np.isfinite(w).all():  # a non-finite W stays non-finite
        raise NonFiniteError(f"lyapunov-ode: the Gramian is no longer finite over "
                             f"[0, {horizon:.6g}] with {steps} RK4 steps; the steps are "
                             f"too long for this model or it grows too fast")
    return _finish_gramian(w, horizon, "lyapunov-ode", pd_tol)


def _free_output(m: StateSpaceModel, y: Trace, u: Trace | None) -> np.ndarray:
    """Output samples with any forced contribution removed."""
    if y.width != m.q:
        raise ShapeMismatchError(f"output trace must have width {m.q}, got {y.width}")
    if y.samples.shape[0] < 2:
        raise ValueError("output trace needs at least two samples to span a window")
    if u is None:
        return y.samples
    if u.samples.shape[0] != y.samples.shape[0]:
        raise ValueError(
            f"input and output traces must share a grid: {u.samples.shape[0]} vs "
            f"{y.samples.shape[0]} samples")
    if not times_agree([u.t0, u.duration], [y.t0, y.duration], y.duration,
                       u.t0, y.t0, u.t0 + u.duration, y.t0 + y.duration).all():
        raise ValueError("input and output traces must share a grid (t0 and dt)")
    _, y_forced = simulate_forced(m, np.zeros(m.n), u)
    return y.samples - y_forced.samples


def reconstruction_normal_equations(
        m: StateSpaceModel, y: Trace, u: Trace | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Gramian and moment vector for initial-state recovery, on the trace's grid.

    With R_k = C Phi(dt)^k and w_k the trapezoid weights (dt at every
    sample, dt/2 at the first and the last), gram sums w_k R_k^T R_k and
    moment sums w_k R_k^T y_k; one rule serves every trace of two or more
    samples.  Both sides use the same weights, so for noiseless data the
    solve returns x0 up to rounding whatever the quadrature error: the
    weighted sums satisfy gram @ x0 = moment identically when
    y(t_k) = C e^{A t_k} x0, for any positive weights.  The weights do
    shape the answer on noisy data, which the solve fits in the weighted
    least-squares sense; near-equal weights keep its variance low.

    Returns:
        (gram, moment) with gram symmetric n x n and moment length n.
    """
    samples = _free_output(m, y, u)
    weights = np.full(samples.shape[0], y.dt)
    weights[0] = weights[-1] = 0.5 * y.dt
    gram, moment = _weighted_sums(m, y.dt, weights, samples, "reconstruct")
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
            span when given, by :func:`~observkit.lti.times_agree`.

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
        if not times_agree(span, horizon, max(span, horizon), y.t0, y.t0 + span):
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
            pd_tol: float = DEFAULT_PD_TOL) -> ObservabilityReport:
    """Run the rank test and two Gramian routes; return the full certificate.

    The rank verdict comes from :func:`rank_test` at ``rank_tol``.  The
    Gramian verdict carried in ``gramian_observable`` comes from
    :func:`gramian_doubling`, which has no discretisation to tune; the
    :func:`gramian_ode` result rides along for cross-checking, or is None
    when its RK4 steps overflow, since neither verdict rests on it.
    ``consistent`` compares the rank verdict with the Gramian verdict.
    """
    r, kalman_observable = rank_test(m, rank_tol)
    gram = gramian_doubling(m, horizon, pd_tol)
    try:
        ode = gramian_ode(m, horizon, pd_tol=pd_tol)
    except NonFiniteError:
        ode = None
    return ObservabilityReport(
        kalman_rank=r,
        rank_required=m.n,
        kalman_observable=kalman_observable,
        gramian_observable=gram.positive_definite,
        consistent=kalman_observable == gram.positive_definite,
        gramian=gram,
        gramian_ode=ode,
    )
