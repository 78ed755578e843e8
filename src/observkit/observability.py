"""Observability certificates and initial-state reconstruction.

Two tests of the same property:

* Kalman rank test: the block matrix [C^T, A^T C^T, ..., (A^T)^(n-1) C^T]
  has rank n exactly when the model is completely observable.
* Observability Gramian M(0,T) = integral over [0,T] of
  e^{A^T s} C^T C e^{A s} ds, positive definite exactly when observable.
  :func:`analyze` decides on the Gramian from :func:`gramian_doubling`
  (one Van Loan block exponential, then doubling up to T), which has no
  discretisation.  :func:`gramian_ode`, classical RK4 integration of the
  differential Lyapunov equation dW/dt = A^T W + W A + C^T C, W(0) = 0,
  is an independent reference that no verdict and no CLI certificate
  reads; a report computes it only when a caller reads its
  ``gramian_ode``.
  Composite Simpson quadrature (:func:`gramian_quadrature`) is a third
  route, on a grid the caller picks.

An :class:`ObservabilityReport` stores what :func:`analyze` measured,
the Kalman rank and the doubling Gramian, with the model and tolerance
it measured them for; every verdict it gives is derived from those.

When the Gramian is invertible the initial state is recoverable from an
output trace:  x0 = M(0,T)^{-1} * integral of e^{A^T t} C^T y(t) dt,
since substituting y(t) = C e^{At} x0 turns the integral into M x0.
On a sampled trace both integrals are trapezoid sums with the same
weights, so the identity, and with it x0, holds exactly on any grid.
Forced traces are handled by subtracting the zero-initial-state forced
response first, which leaves the free output of x0.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from observkit.linalg import (
    DEFAULT_PD_TOL,
    NonFiniteError,
    ShapeMismatchError,
    SingularMatrixError,
    as_count,
    as_float,
    definiteness,
    expm,
    expm_kernel,
    expm_squarings,
    is_positive_definite,  # noqa: F401  (perfbench/spans.py wraps it on this module)
    rank,
    solve,
    symmetrize,
)
from observkit.lti import Record, StateSpaceModel, Trace, propagate, simulate_forced, times_agree

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
    """The sampled observability Gramian of a trace's grid is numerically
    singular, so the initial state is not recoverable from those samples.
    The model may be unobservable, or only the sampling period pathological
    (two eigenvalues of A a multiple of 2 pi i / dt apart)."""


class GramianResult(Record):
    """Observability Gramian over [0, horizon] with its definiteness verdict.

    ``method`` names the route: ``"doubling"``, ``"lyapunov-ode"`` or
    ``"quadrature"``.  ``min_pivot_or_eig`` is the smallest eigenvalue of
    the symmetrized Gramian, the quantity the verdict thresholds on.
    """

    _fields = ("gramian", "horizon", "method", "positive_definite", "min_pivot_or_eig")

    def __init__(self, gramian: np.ndarray, horizon: float, method: str,
                 positive_definite: bool, min_pivot_or_eig: float):
        self._set(gramian=gramian, horizon=horizon, method=method,
                  positive_definite=positive_definite, min_pivot_or_eig=min_pivot_or_eig)


class ObservabilityReport(Record):
    """Full certificate: what :func:`analyze` measured, and for what.

    The report stores four things: ``kalman_rank``, the numerical rank
    from :func:`rank_test`; ``gramian``, the doubling result (the
    verdict-bearing route); and the ``model`` and ``pd_tol`` they were
    measured for.  Every verdict is a read-only property over them:
    ``rank_required`` is ``model.n``, ``kalman_observable`` is the rank
    reaching it, ``gramian_observable`` the Gramian's definiteness,
    ``consistent`` whether those two agree (false signals a tolerance
    problem rather than a property of the model), and ``observable``
    whether both hold.  The observability matrix itself is not kept, since
    no verdict reads it (call :func:`observability_matrix` to see it).
    ``repr``, ``==`` and ``hash`` read ``kalman_rank`` and ``gramian``.

    ``gramian_ode`` is the independent Lyapunov-ODE cross-check, which no
    verdict depends on: :func:`gramian_ode` of ``model`` over the same
    horizon at ``pd_tol``, computed on the first read and kept.  Reading it
    raises that routine's ``NonFiniteError`` when the RK4 steps overflow;
    the verdicts stand either way.  A caller that reads only the verdicts
    never runs RK4, and neither does the CLI.
    """

    _fields = ("kalman_rank", "gramian")

    def __init__(self, kalman_rank: int, gramian: GramianResult,
                 model: StateSpaceModel, pd_tol: float):
        self._set(kalman_rank=kalman_rank, gramian=gramian, model=model, pd_tol=pd_tol)

    @property
    def rank_required(self) -> int:
        """The rank an observable model reaches: its state dimension."""
        return self.model.n

    @property
    def kalman_observable(self) -> bool:
        """The rank verdict: ``kalman_rank`` reaches ``rank_required``."""
        return self.kalman_rank == self.rank_required

    @property
    def gramian_observable(self) -> bool:
        """The Gramian verdict: the doubling Gramian is positive definite."""
        return self.gramian.positive_definite

    @property
    def consistent(self) -> bool:
        """The rank and the Gramian verdicts agree."""
        return self.kalman_observable == self.gramian_observable

    @property
    def observable(self) -> bool:
        """The overall verdict: both the rank and the Gramian route say observable."""
        return self.kalman_observable and self.gramian_observable

    # cached_property stores into the instance __dict__ directly, which
    # Record's __setattr__ does not guard
    @functools.cached_property
    def gramian_ode(self) -> GramianResult:
        """:func:`gramian_ode` at the report's horizon and ``pd_tol``; raises
        its ``NonFiniteError`` when the RK4 steps overflow."""
        return gramian_ode(self.model, self.gramian.horizon, pd_tol=self.pd_tol)


def observability_matrix(m: StateSpaceModel) -> np.ndarray:
    """Horizontal stack of C^T, A^T C^T, ..., (A^T)^(n-1) C^T, shape n x (n q).

    Raises:
        NonFiniteError: a block overflows; the message names the power.
    """
    blocks = [m.c.T]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(m.n - 1):
            blocks.append(m.a.T @ blocks[-1])
    obs = np.concatenate(blocks, axis=1)
    if not np.isfinite(obs).all():
        k = int(np.flatnonzero(~np.isfinite(obs).all(axis=0))[0]) // m.q
        raise NonFiniteError(f"kalman-rank: the block (A^T)^{k} C^T overflows; "
                             f"the rank test needs powers up to {m.n - 1}")
    return obs


def rank_test(m: StateSpaceModel, rel_tol: float | None = None) -> tuple[int, bool]:
    """Numerical rank of the observability matrix and whether it equals n."""
    r = rank(observability_matrix(m), rel_tol)
    return r, r == m.n


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
    :func:`propagate`.  Phi(h) comes from the validating
    :func:`~observkit.linalg.expm`, which copies A and scans it again.

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
    horizon = as_float(horizon, "horizon", "positive")
    intervals = as_count(intervals, "intervals", 2)
    if intervals % 2:
        raise ValueError(f"intervals must be even, got {intervals}")
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
    so the work follows from (A, T) and no grid is chosen.  The block is
    built from the validated model and a checked C^T C, so it goes to
    :func:`~observkit.linalg.expm_kernel` directly, with no second copy
    or finiteness scan.

    Raises:
        ValueError: nonpositive horizon, or a nonzero C whose Gramian
            underflows to 0 (C^T C is 0 when every entry of C is below
            about 1e-162).
        NonFiniteError: C^T C or the Gramian overflows over [0, T].
    """
    horizon = as_float(horizon, "horizon", "positive")
    with np.errstate(over="ignore", invalid="ignore"):
        k = expm_squarings(m.a, horizon, "doubling")
        ctc = m.c.T @ m.c
        if not np.isfinite(ctc).all():
            raise NonFiniteError(f"doubling: C^T C overflows; C has an entry of magnitude "
                                 f"{np.abs(m.c).max():.6g}")
        n = m.n
        block = np.zeros((2 * n, 2 * n))
        block[:n, :n], block[:n, n:], block[n:, n:] = -m.a.T, ctc, m.a
        t = math.ldexp(horizon, -k)
        f = expm_kernel(block, t, expm_squarings(block, t, "expm"))
        phi = f[n:, n:]
        gram = phi.T @ f[:n, n:]
        if gram.any():  # C = 0: stays 0; inf * 0 would be NaN
            for i in range(k):
                if i:  # Phi(2t) only when a doubling reads it, so never after the last
                    phi = phi @ phi
                gram = gram + phi.T @ gram @ phi
        elif m.c.any():  # a nonzero C whose Gramian underflowed must not read as C = 0
            raise ValueError(f"doubling: C^T C underflows to 0; C has an entry of magnitude "
                             f"{np.abs(m.c).max():.6g}")
    if not np.isfinite(gram).all():
        raise NonFiniteError(f"doubling: the Gramian overflows over [0, {horizon:.6g}] "
                             f"after {k} doublings")
    return _finish_gramian(gram, horizon, "doubling", pd_tol)


def gramian_ode(m: StateSpaceModel, horizon: float, steps: int = 1000,
                pd_tol: float = DEFAULT_PD_TOL) -> GramianResult:
    """Gramian by ``steps`` classical four-stage RK4 steps of h = T/steps on
    dW/dt = A^T W + W A + C^T C from W(0) = 0.

    This route shares no machinery with :func:`gramian_doubling` or
    :func:`gramian_quadrature`, so agreement with either is a real
    cross-check.  It is a reference, not a fast path: each step is four
    n x n products and about twenty-five numpy calls.
    """
    horizon = as_float(horizon, "horizon", "positive")
    steps = as_count(steps, "steps", 1)
    h = horizon / steps
    w = np.zeros((m.n, m.n))
    with np.errstate(over="ignore", invalid="ignore"):
        ha, hq = h * m.a, h * (m.c.T @ m.c)

        def rate(v):  # h (A^T v + v A + C^T C), with A^T v = (v A)^T as v is symmetric
            va = v @ ha
            return va + va.T + hq

        for _ in range(steps):
            k1 = rate(w)
            k2 = rate(w + 0.5 * k1)
            k3 = rate(w + 0.5 * k2)
            k4 = rate(w + k3)
            w = w + (k1 + 2.0 * (k2 + k3) + k4) / 6.0
            if not np.isfinite(w).all():
                raise NonFiniteError(f"lyapunov-ode: the Gramian is no longer finite over "
                                     f"[0, {horizon:.6g}] with {steps} RK4 steps; the steps "
                                     f"are too long for this model or it grows too fast")
    return _finish_gramian(w, horizon, "lyapunov-ode", pd_tol)


def _free_output(m: StateSpaceModel, y: Trace, u: Trace | None) -> np.ndarray:
    """Output samples with any forced contribution removed."""
    if y.width != m.q:
        raise ShapeMismatchError(f"output trace must have width {m.q}, got {y.width}")
    if u is None:
        return y.samples
    if u.samples.shape[0] != y.samples.shape[0] or not times_agree(
            [u.t0, u.duration], [y.t0, y.duration], y.duration,
            u.t0, y.t0, u.t0 + u.duration, y.t0 + y.duration).all():
        grids = [f"{len(t.samples)} samples from t0 = {t.t0!r} at dt = {t.dt!r}" for t in (u, y)]
        raise ValueError(f"input and output traces must share a grid: {' against '.join(grids)}")
    _, y_forced = simulate_forced(m, np.zeros(m.n), u)
    with np.errstate(over="ignore", invalid="ignore"):  # _weighted_sums names an overflow
        return y.samples - y_forced.samples


def reconstruction_normal_equations(
        m: StateSpaceModel, y: Trace, u: Trace | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Gramian and moment vector for initial-state recovery, on the trace's grid.

    With R_k = C Phi(dt)^k and w_k the trapezoid weights (dt at every
    sample, dt/2 at the first and the last), gram sums w_k R_k^T R_k and
    moment sums w_k R_k^T y_k; one rule serves every trace.  Both sides
    use the same weights, so for noiseless data the solve returns x0 up
    to rounding whatever the quadrature error: the weighted sums satisfy
    gram @ x0 = moment identically when y(t_k) = C e^{A t_k} x0, for any
    positive weights.  The weights do
    shape the answer on noisy data, which the solve fits in the weighted
    least-squares sense; near-equal weights keep its variance low.

    Returns:
        (gram, moment) with gram symmetric n x n and moment length n.
    """
    samples = _free_output(m, y, u)
    weights = np.full(samples.shape[0], y.dt)
    weights[0] = weights[-1] = 0.5 * y.dt
    gram, moment = _weighted_sums(m, y.dt, weights, samples, "reconstruct")
    return symmetrize(gram), moment


def reconstruct_initial_state(m: StateSpaceModel, y: Trace,
                              u: Trace | None = None,
                              horizon: float | None = None) -> np.ndarray:
    """Recover x0 from an output trace over [0, T].

    Args:
        m: the model the trace came from.
        y: output trace, width q.
        u: input trace on the same grid, if the response was forced.
        horizon: expected window length; checked against the trace's
            span when given, by :func:`~observkit.lti.times_agree`.

    Returns:
        The initial state, exact to rounding for noiseless traces of an
        observable model.

    Raises:
        SingularGramianError: the sampled Gramian on the trace's grid is
            not invertible, so these samples do not determine x0.
        ValueError: trace/horizon mismatch, a trace whose width does not
            fit the model, or input and output traces off a shared grid.
    """
    return reconstruct_with_condition(m, y, u, horizon)[0]


def reconstruct_with_condition(m: StateSpaceModel, y: Trace, u: Trace | None = None,
                               horizon: float | None = None) -> tuple[np.ndarray, float]:
    """:func:`reconstruct_initial_state`, also returning the 2-norm condition
    number of the symmetric Gramian of the normal equations it solved, as
    (x0, condition).  The condition comes from the singular values that
    :func:`~observkit.linalg.solve` takes to check the Gramian, so it costs
    nothing more.

    The normal equations are formed with C and the output samples scaled
    by 2^-e, where 2^(e-1) <= max|C| < 2^e.  The scaling is exact; it
    scales the Gramian and the moment by the same 2^-2e, so x0 and the
    condition do not change, and the Gramian stays in the normal float
    range whatever the output's units.  A :class:`SingularGramianError`
    carries the smallest singular value of that scaled Gramian.

    Raises:
        NonFiniteError: a scaled output sample is past the float range.
    """
    if horizon is not None:
        horizon = as_float(horizon, "horizon", "positive")
        span = y.duration
        if not times_agree(span, horizon, max(span, horizon), y.t0, y.t0 + span):
            raise ValueError(
                f"trace spans {span:.12g} but horizon {horizon:.12g} was requested")
    e = math.frexp(float(np.abs(m.c).max()))[1]
    with np.errstate(over="ignore"):
        samples = np.ldexp(y.samples, -e)
    if not np.isfinite(samples).all():
        raise NonFiniteError(f"reconstruct: an output sample times 2^{-e} is past the float range")
    gram, moment = reconstruction_normal_equations(
        StateSpaceModel(m.a, m.b, np.ldexp(m.c, -e)), Trace(y.t0, y.dt, samples), u)
    try:
        return solve(gram, moment)
    except SingularMatrixError as exc:
        raise SingularGramianError(
            f"the sampled Gramian on this trace's grid (dt = {y.dt:.6g} over "
            f"[0, {y.duration:.6g}]) is singular: x0 is not recoverable from these "
            f"samples (condition estimate {exc.condition:.3e})",
            condition=exc.condition,
            min_singular_value=exc.min_singular_value) from None


def analyze(m: StateSpaceModel, horizon: float,
            rank_tol: float | None = None,
            pd_tol: float = DEFAULT_PD_TOL) -> ObservabilityReport:
    """Run the rank test and the doubling Gramian; return the full certificate.

    The report holds the rank from :func:`rank_test` at ``rank_tol`` and
    the :func:`gramian_doubling` result at ``pd_tol``, which has no
    discretisation to tune, together with ``m`` and ``pd_tol``; its
    verdicts are read off those.  ``pd_tol`` also serves its
    :func:`gramian_ode` cross-check, computed only when ``gramian_ode`` is
    first read.
    """
    return ObservabilityReport(rank_test(m, rank_tol)[0], gramian_doubling(m, horizon, pd_tol),
                               m, pd_tol)
