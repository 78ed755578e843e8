"""Seeded model generators and checks shared by the unit and acceptance tests."""

import numpy as np
import pytest

from observkit import observability
from observkit.lti import StateSpaceModel, make_model


def oracle_gramian(m: StateSpaceModel, horizon: float) -> np.ndarray:
    """Reference Gramian: scipy's adaptive ``quad_vec`` of
    e^{A^T s} C^T C e^{A s} over [0, horizon] at relative tolerance 1e-13.
    Skips the calling test where scipy is missing."""
    integrate = pytest.importorskip("scipy.integrate")
    sla = pytest.importorskip("scipy.linalg")

    def integrand(s):
        r = m.c @ sla.expm(m.a * s)
        return r.T @ r

    return integrate.quad_vec(integrand, 0.0, horizon, epsrel=1e-13, epsabs=0.0,
                              limit=2000)[0]


def random_observable_model(rng: np.random.Generator, n: int) -> StateSpaceModel:
    """Random dynamics with an output map of full column rank, which makes
    the model observable regardless of A (the first observability block
    C^T already has rank n)."""
    a = rng.uniform(-2.0, 2.0, (n, n))
    kind = int(rng.integers(3))
    if kind == 0:
        c = np.eye(n)
    elif kind == 1:
        c, _ = np.linalg.qr(rng.standard_normal((n, n)))
        c = c.T
    else:
        # stack random rows past square until comfortably full rank
        while True:
            c = rng.standard_normal((n + 1, n))
            if np.linalg.svd(c, compute_uv=False)[-1] > 0.2:
                break
    b = rng.standard_normal((n, 1))
    return make_model(a, b, c)


def random_unobservable_model(
        rng: np.random.Generator, n: int) -> tuple[StateSpaceModel, int]:
    """Random dynamics with an A-invariant subspace the output cannot see.

    States r..n-1 span an invariant subspace (the top-right block of A is
    zero) and C ignores them, so the Kalman rank is at most r < n.  The
    zero blocks are exact, which keeps the rank deficiency exact in
    floating point.  Returns (model, r).
    """
    if n < 2:
        raise ValueError("need n >= 2 to hide a subspace")
    r = int(rng.integers(1, n))
    a = rng.uniform(-2.0, 2.0, (n, n))
    a[:r, r:] = 0.0
    c = np.hstack([rng.uniform(-2.0, 2.0, (r, r)), np.zeros((r, n - r))])
    b = rng.standard_normal((n, 1))
    return make_model(a, b, c), r


def unstable_saddle_model() -> tuple[StateSpaceModel, np.ndarray]:
    """A = Q diag(50, -1) Q^T with Q a rotation: one mode grows as e^{50t}
    and one decays as e^{-t}, so long grids overflow.  Returns (model, Q),
    whose columns are the growing and the decaying eigenvector."""
    c, s = np.cos(0.3), np.sin(0.3)
    q = np.array([[c, -s], [s, c]])
    return make_model(q @ np.diag([50.0, -1.0]) @ q.T, [[0.0], [1.0]], [[1.0, 0.0]]), q


@pytest.fixture
def ode_calls(monkeypatch):
    """Every call made to ``observability.gramian_ode`` through the module
    name, as the report's cross-check makes it."""
    calls, gramian_ode = [], observability.gramian_ode

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return gramian_ode(*args, **kwargs)

    monkeypatch.setattr(observability, "gramian_ode", counted)
    return calls


def check_record(cls, args: tuple, shown: tuple[str, ...], hidden: tuple[str, ...] = ()):
    """The contract of the package's immutable records (``lti.Record``):
    ``cls(*args)`` and the same values by keyword build the same record;
    setting or deleting any attribute raises ``AttributeError``; ``repr``
    reads ``Name(field=value, ...)`` over the ``shown`` fields in order
    and names no ``hidden`` one; a rebuilt record compares equal, and one
    whose first field is changed (by adding 1) does not.  Returns the
    record."""
    record = cls(*args)
    assert cls(*args) == record and not cls(*args) != record
    changed = cls(args[0] + 1, *args[1:])
    assert changed != record and not changed == record
    assert repr(cls(**dict(zip(shown + hidden, args)))) == repr(record)
    text = repr(record)
    assert text.startswith(f"{cls.__name__}(")
    at = [text.index(f"{name}=") for name in shown]
    assert at == sorted(at)
    assert not any(name in text for name in hidden)
    for name in (*shown, *hidden, "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    return record
