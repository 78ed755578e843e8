"""Seeded model generators shared by the unit and acceptance tests."""

import numpy as np

from observkit.lti import StateSpaceModel, make_model


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
