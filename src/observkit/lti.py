"""Linear time-invariant state-space models and trajectory simulation.

A model is the constant-coefficient triple (A, B, C) for

    dx/dt = A x + B u,        y = C x,

with n states, p inputs, and q outputs.  Simulation samples the exact
solution x(t) = e^{At} x(0) + integral of e^{A(t-s)} B u(s) ds on a
uniform grid; sampled inputs are interpreted as zero-order hold
(constant between samples), which makes the per-step update exact up
to matrix-exponential accuracy: each step applies Phi(dt) = e^{A dt} to
the state and the input matrix B_d of :func:`zoh_discretize` to the held
input.  Every grid recurrence runs on :func:`propagate`.

:func:`make_model` alone decides whether (A, B, C) is a model, and
:func:`simulate_forced` alone whether an initial state fits one; the
functions that take a model do not convert its arrays or check their
shapes again.  Those that exponentiate (:func:`transition_matrix`,
:func:`simulate_forced`, :func:`zoh_discretize`) do so through the
validating :func:`~observkit.linalg.expm`, which copies its argument and
scans it for non-finite entries once more.
"""

from __future__ import annotations

import numpy as np

from observkit.linalg import (NonFiniteError, ShapeMismatchError, as_count, as_float,
                              as_matrix, as_square, as_vector, expm)

__all__ = [
    "StateSpaceModel",
    "Trace",
    "make_model",
    "simulate_forced",
    "simulate_free",
    "transition_matrix",
]


class Record:
    """Base of the package's immutable records.

    ``__init__`` stores the attributes once with :meth:`_set`; setting or
    deleting one afterwards raises ``AttributeError``.  ``repr``, ``==``
    and ``hash`` read the attributes named in ``_fields``, in order: two
    records are equal when they are of the same class and those values
    are, compared by ``np.array_equal``, and a record that holds an array
    is unhashable.
    """

    _fields: tuple[str, ...] = ()

    def _set(self, **values) -> None:
        self.__dict__.update(values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(map(np.array_equal, self._key(), other._key()))

    def __hash__(self):
        return hash(self._key())


class StateSpaceModel(Record):
    """Validated (A, B, C) triple.  Use :func:`make_model` to construct."""

    _fields = ("a", "b", "c", "name")

    def __init__(self, a: np.ndarray, b: np.ndarray, c: np.ndarray, name: str = ""):
        self._set(a=a, b=b, c=c, name=name)

    @property
    def n(self) -> int:
        """State dimension."""
        return self.a.shape[0]

    @property
    def p(self) -> int:
        """Input dimension."""
        return self.b.shape[1]

    @property
    def q(self) -> int:
        """Output dimension."""
        return self.c.shape[0]


# Relative part of :func:`times_agree`, the one rule for comparing times.
GRID_RTOL = 1e-9


def times_agree(a, b, length, *times):
    """Whether ``a`` and ``b``, two lengths or two instants of time on a
    sampled grid, agree: they may differ by ``GRID_RTOL`` of ``length``
    plus eight units in the last place (``np.spacing``) of the largest |t|
    among ``times``.  The ulps cover the rounding that the times
    t0 + k dt, as computed and written, leave in a step or a span taken
    from them, which exceeds ``GRID_RTOL`` of it when |t| >> dt.
    Elementwise on arrays.

    One rule serves every time comparison: ``fileio.load_trace``'s uniform
    step, the shared grid of an input and an output trace, and a trace's
    span against a requested horizon.
    """
    return np.abs(np.subtract(a, b)) <= GRID_RTOL * length + 8 * np.spacing(np.max(np.abs(times)))


class Trace(Record):
    """Uniformly sampled vector signal.

    Row ``k`` of ``samples`` is the signal value at time ``t0 + k*dt``.
    This class owns a trace's shape and grid: at least two samples and at
    least one value column, t0 finite, dt finite and positive, and the
    sample times t0 + k*dt, as computed in double precision, finite and
    strictly increasing.  So dt may not fall far below the spacing of
    floats at t0 (at t0 = 1e17, where floats are 16 apart, dt = 10 repeats
    a time), and every trace that constructs survives a CSV round trip
    and spans a window to reconstruct from.

    Raises:
        NonFiniteError: t0 or dt is not finite (:func:`~observkit.linalg.as_float`).
        ShapeMismatchError: fewer than two samples or no value column;
            the message names the shape.
        ValueError: dt is not positive (``as_float``), or a sample time
            breaks the rule; that message names t0, dt and the first such
            sample k with its time.
    """

    _fields = ("t0", "dt", "samples")

    def __init__(self, t0: float, dt: float, samples: np.ndarray):
        t0, dt = as_float(t0, "t0"), as_float(dt, "dt", "positive")
        samples = as_matrix(samples, "samples")
        if samples.shape[0] < 2 or samples.shape[1] < 1:
            raise ShapeMismatchError("a trace needs at least two samples and one value column, "
                                     f"got {samples.shape[0]}x{samples.shape[1]}")
        samples.setflags(write=False)
        self._set(t0=t0, dt=dt, samples=samples)
        with np.errstate(over="ignore"):  # an infinite time is reported below
            times = self.times
        ok = np.isfinite(times)  # neighbours are compared, never subtracted: inf - inf warns
        ok[1:] &= times[1:] > times[:-1]
        if not ok.all():
            k = int(np.argmin(ok))
            rule = "strictly increasing" if np.isfinite(times[k]) else "finite"
            raise ValueError(f"t0 = {t0!r} and dt = {dt!r} give sample {k} at "
                             f"t = {float(times[k])!r}: time column must be {rule}")

    @property
    def width(self) -> int:
        return self.samples.shape[1]

    @property
    def times(self) -> np.ndarray:
        """The sample instants t0, t0 + dt, ..."""
        return self.t0 + self.dt * np.arange(self.samples.shape[0])

    @property
    def duration(self) -> float:
        """Length of the covered interval, (len - 1) * dt."""
        return self.dt * (self.samples.shape[0] - 1)


def make_model(a, b, c, name: str = "") -> StateSpaceModel:
    """Validate shapes and build a model.

    This is the one owner of a model's shape rules: the arrays it stores
    are finite, read-only float arrays, and no function that takes the
    model checks their shapes again.

    Args:
        a: system matrix, n x n.
        b: input matrix, n x p with p >= 1.
        c: output matrix, q x n with q >= 1.
        name: optional label carried through to reports.

    Raises:
        ShapeMismatchError: naming the offending matrix and the
            expected shape.
    """
    a = as_square(a, "a")
    b = as_matrix(b, "b")
    c = as_matrix(c, "c")
    n = a.shape[0]
    if n == 0:
        raise ShapeMismatchError("a must be at least 1x1")
    if b.shape[0] != n or b.shape[1] < 1:
        raise ShapeMismatchError(
            f"b must be {n}xp with p >= 1 to match a, got {b.shape[0]}x{b.shape[1]}")
    if c.shape[1] != n or c.shape[0] < 1:
        raise ShapeMismatchError(
            f"c must be qx{n} with q >= 1 to match a, got {c.shape[0]}x{c.shape[1]}")
    for m in (a, b, c):
        m.setflags(write=False)
    return StateSpaceModel(a=a, b=b, c=c, name=str(name))


def transition_matrix(m: StateSpaceModel, t: float) -> np.ndarray:
    """State transition matrix Phi(t) = exp(A t), so x(t) = Phi(t) x(0)
    for the free system.  Phi(0) is the identity."""
    return expm(m.a, t)


def propagate(phi, v, stage: str) -> np.ndarray:
    """Every state of x_{k+1} = Phi x_k + v_{k+1}, with x_0 = v_0.

    The N terms are stacked along the first axis of ``v``, with the state
    on the last axis: shape (N, n), or (N, q, n) for q states at once.
    A Hillis-Steele scan adds Phi^s x_{k-s} to every x_k for
    s = 1, 2, 4, ..., in ceil(log2 N) vectorised passes.  A state that
    overflows raises NonFiniteError naming ``stage`` and the step.

    States before the first nonzero term are exactly zero, so the scan
    starts there: on a long grid Phi^s may overflow, and inf * 0 would
    turn a zero state into NaN.
    """
    x = np.array(v, dtype=float)
    nonzero = x.reshape(-1) != 0
    tail = x[nonzero.argmax() // x[0].size if nonzero.any() else len(x):]
    power, s = phi.T, 1
    with np.errstate(over="ignore", invalid="ignore"):
        while s < len(tail):
            tail[s:] += (tail[:-s].reshape(-1, len(phi)) @ power).reshape(tail[:-s].shape)
            s *= 2
            if s < len(tail):
                power = power @ power
    finite = np.isfinite(x.reshape(len(x), -1)).all(axis=1)
    if not finite.all():
        raise NonFiniteError(f"{stage}: the state is no longer finite at step {np.argmin(finite)} "
                             f"of {len(x) - 1}; the model grows too fast for this grid")
    return x


def simulate_free(m: StateSpaceModel, x0, t0: float = 0.0, dt: float = 1e-3,
                  steps: int = 1000) -> tuple[Trace, Trace]:
    """Free response (no input) on a uniform grid: :func:`simulate_forced`
    under an identically zero input of steps + 1 samples.

    Sample k is Phi(dt)^k x0 from :func:`propagate`, so it equals
    exp(A k dt) x0 up to exponential accuracy.  ``steps`` is at least 1,
    as a trace has at least two samples, and the grid is checked by
    :class:`Trace` before any work is done.

    Returns:
        (x trace, y trace), each with steps + 1 samples.
    """
    steps = as_count(steps, "steps", 1)
    return simulate_forced(m, x0, Trace(t0, dt, np.zeros((steps + 1, m.p))))


def zoh_discretize(m: StateSpaceModel, dt: float) -> np.ndarray:
    """Exact zero-order-hold input matrix of the model at step dt.

    Returns B_d such that x(t + dt) = e^{A dt} x(t) + B_d u when u is held
    constant over the step: the top-right block of one
    :func:`~observkit.linalg.expm` of the augmented block matrix
    [[A, B], [0, 0]] * dt, which copies that block and scans it for
    non-finite entries.
    """
    big = expm(np.block([[m.a, m.b], [np.zeros((m.p, m.n + m.p))]]), dt)
    return big[:m.n, m.n:]


def simulate_forced(m: StateSpaceModel, x0, u: Trace) -> tuple[Trace, Trace]:
    """Forced response under a sampled input, zero-order-hold semantics.

    The input is held constant on each [t_k, t_{k+1}), which admits the
    exact per-step update x_{k+1} = A_d x_k + B_d u_k, run by
    :func:`propagate`.  A_d is ``expm(A, dt)``, so an identically zero
    input gives exactly the samples of Phi(dt)^k x0, with no rounding from
    B_d; :func:`simulate_free` is that case.  B_d comes from
    :func:`zoh_discretize` only when a held sample u_0 ... u_{N-2} is
    nonzero, so a response without input never exponentiates B (whose
    block may be too large to scale).  The returned traces share the
    input's grid.  This function alone decides whether x0 fits the model:
    it is converted by :func:`~observkit.linalg.as_vector` and must have
    n entries.
    """
    x0 = as_vector(x0, "x0")
    if x0.size != m.n:
        raise ShapeMismatchError(f"x0 must have width {m.n}, got {x0.size}")
    if u.width != m.p:
        raise ShapeMismatchError(f"input trace must have width {m.p}, got {u.width}")
    v = np.zeros((u.samples.shape[0], m.n))
    v[0] = x0
    if u.samples[:-1].any():
        v[1:] = u.samples[:-1] @ zoh_discretize(m, u.dt).T
    xs = propagate(expm(m.a, u.dt), v, "simulate")
    return Trace(u.t0, u.dt, xs), Trace(u.t0, u.dt, xs @ m.c.T)
