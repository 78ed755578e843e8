"""Ballistocardiograph table model: a damped mass-spring system whose
velocity is the measured output.

A person lies on a platform of combined mass M (kg) suspended by a
spring of stiffness gamma (N/m) with viscous damping beta (N s/m);
heartbeat recoil forces drive it.  With displacement y,

    M y'' + beta y' + gamma y = u(t),

and state x = (position, velocity) this is

    A = [[0, 1], [-gamma/M, -beta/M]],   B = [0, 1]^T,   C = [0, 1],

so the instrument records velocity only.  The model is completely
observable exactly when gamma != 0: the 2x2 observability matrix
[[0, -gamma/M], [1, -beta/M]] has determinant gamma/M.

Note the input enters the velocity equation with unit weight here (B is
literally [0, 1]^T rather than [0, 1/M]^T); the observability verdict
does not involve B either way.
"""

from __future__ import annotations

import math

from observkit.linalg import as_float
from observkit.lti import Record, StateSpaceModel, make_model
from observkit.observability import ObservabilityReport, analyze

__all__ = ["CardioParams", "build_cardio_model", "certify_cardio"]


class CardioParams(Record):
    """Physical parameters of the table.

    Attributes:
        mass: combined person + platform mass M in kg, positive and finite.
        damping: viscous damping beta in N s/m, nonnegative and finite.
        stiffness: spring stiffness gamma in N/m, finite.

    gamma/M and beta/M, the entries of A, must be finite too.
    """

    _fields = ("mass", "damping", "stiffness")

    def __init__(self, mass: float, damping: float, stiffness: float):
        # an infinite mass would zero -gamma/M and so certify the wrong table
        self._set(mass=as_float(mass, "mass", "positive"),
                  damping=as_float(damping, "damping", "nonnegative"),
                  stiffness=as_float(stiffness, "stiffness"))
        for name, value in (("stiffness", self.stiffness), ("damping", self.damping)):
            if not math.isfinite(value / self.mass):
                raise ValueError(f"{name} / mass must be finite, got {value} / {self.mass}")


def build_cardio_model(p: CardioParams) -> StateSpaceModel:
    """State-space form of the table with velocity output."""
    a = [[0.0, 1.0], [-p.stiffness / p.mass, -p.damping / p.mass]]
    b = [[0.0], [1.0]]
    c = [[0.0, 1.0]]
    return make_model(a, b, c, name="cardio-table")


def certify_cardio(p: CardioParams, horizon: float) -> ObservabilityReport:
    """Observability certificate for the table over [0, horizon].

    Rank 2 (observable) whenever stiffness is nonzero; stiffness zero
    collapses the rank to 1 and the Gramian to singular, because a
    constant position offset is invisible to a velocity sensor.
    """
    return analyze(build_cardio_model(p), horizon)
