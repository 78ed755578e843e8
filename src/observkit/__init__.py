"""Observability certificates, simulation, and initial-state reconstruction
for linear time-invariant state-space models.

The package exports each module's ``__all__``; other public helpers are
imported from their module.
"""

from observkit import cardio, linalg, lti, observability
from observkit.linalg import *  # noqa: F401,F403
from observkit.lti import *  # noqa: F401,F403
from observkit.observability import *  # noqa: F401,F403
from observkit.cardio import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = sorted(linalg.__all__ + lti.__all__ + observability.__all__ + cardio.__all__)
