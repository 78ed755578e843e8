"""Dense real-matrix kernels used by the rest of the package.

All matrices are plain 2-D ``numpy.float64`` arrays.  One conversion body
turns a caller's values into a finite float array or a named error;
:func:`as_matrix`, :func:`as_vector` and :func:`solve`'s right-hand side
go through it, and :func:`as_square` is the one square rule.  A float
parameter has one rule too, :func:`as_float`: finite, and by its sign word
positive, nonnegative or of any sign, or a named error; and a count has
one, :func:`as_count`: a whole number of at least its ``least`` bound, or
a named error.  The matrix
exponential has one body, :func:`expm_kernel`: :func:`expm` validates its
arguments and calls it, and so does ``observability.gramian_doubling`` on
a block it has built from a validated model.
Everything here is a pure function, so the module is safe to use from
multiple threads.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "NonFiniteError",
    "ShapeMismatchError",
    "SingularMatrixError",
    "expm",
    "is_positive_definite",
    "rank",
    "solve",
]

EPS = float(np.finfo(float).eps)
DEFAULT_PD_TOL = 1e-10


class ShapeMismatchError(ValueError):
    """Operands have incompatible or invalid shapes."""


class NonFiniteError(ValueError):
    """Input contains NaN or infinite entries."""


class SingularMatrixError(ValueError):
    """Matrix is numerically singular at the working tolerance."""

    def __init__(self, message: str, condition: float = float("inf"),
                 min_singular_value: float = 0.0):
        super().__init__(message)
        self.condition = condition
        self.min_singular_value = min_singular_value


def _as_array(values, name: str) -> np.ndarray:
    """Copy ``values`` into a finite float array, or raise an error naming ``name``."""
    try:
        arr = np.array(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ShapeMismatchError(f"{name} is ragged or non-numeric: {exc}") from None
    except OverflowError:  # a Python int past the float range
        raise NonFiniteError(f"{name} contains an entry past the float range") from None
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{name} contains non-finite entries")
    return arr


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Copy ``values`` into a validated 2-D float array."""
    arr = _as_array(values, name)
    if arr.ndim != 2:
        raise ShapeMismatchError(f"{name} must be 2-D, got shape {arr.shape}")
    return arr


def as_square(values, name: str = "matrix") -> np.ndarray:
    """:func:`as_matrix` of a square matrix."""
    arr = as_matrix(values, name)
    if arr.shape[0] != arr.shape[1]:
        raise ShapeMismatchError(f"{name} must be square, got {arr.shape[0]}x{arr.shape[1]}")
    return arr


def as_vector(values, name: str = "vector") -> np.ndarray:
    """Copy ``values`` into a validated 1-D float array."""
    return _as_array(values, name).ravel()


def as_float(value, name: str, sign: str = "") -> float:
    """The one scalar rule: ``float(value)``, finite and, as ``sign`` asks,
    ``"positive"``, ``"nonnegative"`` or of any sign (``""``).

    Raises:
        NonFiniteError: the value is NaN, an infinity or an int past the
            float range (shown as the infinity of its sign).
        ValueError: the value is finite with the wrong sign.  Both errors
            read "{name} must be [{sign} and ]finite, got {x}".  A value
            ``float()`` cannot take raises ValueError too, as "{name} must
            be a number, got {value!r}".
    """
    try:
        x = float(value)
    except OverflowError:  # an int past the float range
        x = math.inf if value > 0 else -math.inf
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number, got {value!r}") from None
    finite = math.isfinite(x)
    if finite and (x > 0 if sign == "positive" else x >= 0 if sign == "nonnegative" else True):
        return x
    rule = f"{sign} and finite" if sign else "finite"
    raise (ValueError if finite else NonFiniteError)(f"{name} must be {rule}, got {x}")


def as_count(value, name: str, least: int) -> int:
    """The one count rule: ``value`` as a Python int of at least ``least``.

    Ints, numpy integers and floats with an integral value are whole
    numbers; anything else (a fraction, NaN, an infinity, a bool or a
    string) raises ``ValueError`` "{name} must be a whole number, got
    {value!r}", and a whole number below ``least`` raises ``ValueError``
    "{name} must be a whole number >= {least}, got {n}".
    """
    if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            or isinstance(value, (float, np.floating)) and float(value).is_integer()):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    if int(value) < least:
        raise ValueError(f"{name} must be a whole number >= {least}, got {int(value)}")
    return int(value)


# Degree-6 diagonal Pade coefficients for exp(x), scaled to integers.
_PADE6 = (479001600.0, 239500800.0, 54432000.0, 7257600.0,
          604800.0, 30240.0, 720.0)


def expm_squarings(a: np.ndarray, t: float, stage: str) -> int:
    """Smallest s >= 0 with ||a t||_1 / 2^s <= 1/2, the scaling at which
    :func:`expm` evaluates its Pade approximant.  The caller runs it under
    ``np.errstate(over="ignore", invalid="ignore")``; the norm is the
    expression ``np.linalg.norm(a * t, 1)`` evaluates, to the bit.

    Raises:
        NonFiniteError: ||a t||_1 overflows; the message names ``stage``.
    """
    scale = float(np.abs(a * t).sum(axis=0).max()) / 0.5 if a.size else 0.0
    if not math.isfinite(scale):
        raise NonFiniteError(f"{stage}: A t is too large to scale at t = {t:.6g}")
    return math.ceil(np.log2(scale)) if scale > 1 else 0


def expm(a, t: float = 1.0) -> np.ndarray:
    """Matrix exponential ``exp(a*t)`` by scaling-and-squaring.

    The argument is scaled so its 1-norm is at most 0.5, where the degree-6
    Pade approximant is accurate to rounding level, then the scaling is
    undone by repeated squaring.  The result is always nonsingular since
    det(exp(At)) = exp(t*trace(A)) > 0.
    """
    a = as_square(a)
    t = as_float(t, "time")
    with np.errstate(over="ignore", invalid="ignore"):
        return expm_kernel(a, t, expm_squarings(a, t, "expm"))


def expm_kernel(a: np.ndarray, t: float, squarings: int) -> np.ndarray:
    """The kernel of :func:`expm` on a square float array and a finite
    ``t`` already checked: the Pade approximant of exp(a t / 2^squarings),
    squared ``squarings`` times.  The caller runs it under
    ``np.errstate(over="ignore", invalid="ignore")``.

    Raises:
        NonFiniteError: the result is not finite.
    """
    x = np.ldexp(a * t, -squarings) if squarings else a * t
    eye = np.eye(x.shape[0])
    c = _PADE6
    x2 = x @ x
    x4 = x2 @ x2
    even = c[0] * eye + c[2] * x2 + c[4] * x4 + c[6] * (x2 @ x4)
    odd = x @ (c[1] * eye + c[3] * x2 + c[5] * x4)
    f = np.linalg.solve(even - odd, even + odd)
    for _ in range(squarings):
        f = f @ f
    if not np.isfinite(f).all():
        raise NonFiniteError(f"expm: exp(A t) is not finite at t = {t:.6g} "
                             f"after {squarings} squarings")
    return f


def _singular_values(m: np.ndarray, rel_tol: float | None) -> tuple[np.ndarray, float]:
    """Singular values of ``m``, largest first, and the relative threshold
    they are judged by: ``rel_tol``, by default machine epsilon times the
    larger dimension (at least 1), which must be positive and finite."""
    rel_tol = (EPS * max(*m.shape, 1) if rel_tol is None
               else as_float(rel_tol, "rel_tol", "positive"))
    return (np.linalg.svd(m, compute_uv=False) if m.size else np.zeros(0)), rel_tol


def rank(m, rel_tol: float | None = None) -> int:
    """Numerical rank: singular values above ``rel_tol`` times the largest.

    The default tolerance is machine epsilon times the larger dimension.
    """
    s, rel_tol = _singular_values(as_matrix(m), rel_tol)
    if s.size == 0 or s[0] == 0.0:
        return 0
    # a Python float product: a threshold past the float range is inf, with no warning
    return int(np.count_nonzero(s > rel_tol * float(s[0])))


def symmetrize(m: np.ndarray) -> np.ndarray:
    """The symmetric part of a square matrix, as m/2 + m.T/2.

    Halving is exact unless the half is subnormal, so this gives the bits
    of (m + m.T)/2 wherever that sum is finite and no half is subnormal,
    and no finite m overflows.
    """
    h = 0.5 * m
    return h + h.T


def definiteness(m: np.ndarray, tol: float) -> tuple[np.ndarray, bool, float]:
    """Symmetrize a nonempty square matrix by :func:`symmetrize` and test it.

    Returns (symmetrized matrix, verdict, smallest eigenvalue); the verdict
    is true iff the smallest eigenvalue exceeds ``tol`` times the largest
    diagonal magnitude.  ``tol`` must be finite and nonnegative.
    """
    tol = as_float(tol, "definiteness tolerance", "nonnegative")
    sym = symmetrize(m)
    smallest = float(np.linalg.eigvalsh(sym)[0])
    return sym, smallest > tol * max(map(abs, sym.diagonal().tolist())), smallest


def is_positive_definite(m, tol: float = DEFAULT_PD_TOL) -> bool:
    """Whether the symmetrized input is positive definite, by :func:`definiteness`.

    Symmetrizing first matters since matrices that are symmetric only to
    rounding are the common case.
    """
    m = as_square(m)
    return m.size > 0 and definiteness(m, tol)[1]


def solve(m, rhs) -> tuple[np.ndarray, float]:
    """Solve ``m @ x = rhs`` after checking numerical nonsingularity.

    Returns (x, condition): the condition is the 2-norm condition number
    s_max / s_min of the singular values the check takes, which is what
    ``np.linalg.cond(m)`` computes, to the bit.

    Raises :class:`SingularMatrixError` (carrying that condition number)
    when the smallest singular value is at most the largest times the
    default tolerance of :func:`rank`, machine epsilon times the dimension.
    """
    m = as_square(m)
    rhs_arr = _as_array(rhs, "right-hand side")
    if rhs_arr.ndim not in (1, 2):
        raise ShapeMismatchError(f"right-hand side must be 1-D or 2-D, got shape {rhs_arr.shape}")
    if rhs_arr.shape[0] != m.shape[0]:
        raise ShapeMismatchError(
            f"right-hand side has {rhs_arr.shape[0]} rows, matrix is {m.shape[0]}x{m.shape[1]}")
    s, rel_tol = _singular_values(m, None)
    smax = float(s[0]) if s.size else 0.0
    smin = float(s[-1]) if s.size else 0.0
    cond = float("inf") if smin == 0.0 else smax / smin
    if smax == 0.0 or smin <= rel_tol * smax:
        raise SingularMatrixError(
            f"matrix is singular at relative tolerance {rel_tol:.3e} "
            f"(condition estimate {cond:.3e}, smallest singular value {smin:.3e})",
            condition=cond, min_singular_value=smin)
    return np.linalg.solve(m, rhs_arr), cond
