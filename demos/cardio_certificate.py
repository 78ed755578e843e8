"""Observability certificate for the ballistocardiograph table.

A subject lies on a sprung, damped platform; heartbeat recoil shakes it
and the instrument records platform velocity.  Can the full mechanical
state (position AND velocity) be recovered from the velocity record
alone?  The certificate below says yes whenever the spring is real
(stiffness != 0), and shows exactly how the answer degrades when the
spring is removed.

Run:  python3 demos/cardio_certificate.py
"""

import numpy as np

from observkit import (
    CardioParams,
    build_cardio_model,
    certify_cardio,
    gramian_ode,
    observability_matrix,
)

print("=== the model ===")
params = CardioParams(mass=1.0, damping=0.5, stiffness=2.0)
model = build_cardio_model(params)
print(f"mass {params.mass} kg, damping {params.damping} N s/m, "
      f"stiffness {params.stiffness} N/m")
print("A =", np.array2string(np.asarray(model.a), prefix="A = "))
print("C =", np.asarray(model.c), " (velocity sensor)")

print()
print("=== certificate at T = 1 s ===")
report = certify_cardio(params, 1.0)
print(f"observability matrix:\n{observability_matrix(model)}")
print(f"Kalman rank: {report.kalman_rank} of {report.rank_required} required")
print(f"Gramian positive definite: {report.gramian.positive_definite} "
      f"(smallest eigenvalue {report.gramian.min_pivot_or_eig:.6f})")
print(f"independent ODE route agrees: min eig "
      f"{gramian_ode(model, 1.0).min_pivot_or_eig:.6f}")
print(f"verdicts consistent: {report.consistent}")

print()
print("=== a parameter sweep ===")
print(f"{'mass':>6} {'damping':>8} {'stiffness':>10} {'rank':>5} "
      f"{'PD':>6} {'min eig':>12}")
for mass in (0.5, 1.0, 10.0):
    for damping in (0.0, 0.5, 5.0):
        for stiffness in (0.1, 1.0, 100.0):
            r = certify_cardio(CardioParams(mass, damping, stiffness), 1.0)
            print(f"{mass:>6} {damping:>8} {stiffness:>10} "
                  f"{r.kalman_rank:>5} {str(r.gramian.positive_definite):>6} "
                  f"{r.gramian.min_pivot_or_eig:>12.3e}")

print()
print("=== removing the spring ===")
degenerate = certify_cardio(CardioParams(mass=1.0, damping=1.0, stiffness=0.0), 1.0)
print(f"stiffness 0: rank {degenerate.kalman_rank}, "
      f"Gramian PD {degenerate.gramian.positive_definite}")
print("With no spring the dynamics never feed position back into velocity,")
print("so a constant position offset is invisible to the sensor: one state")
print("direction is lost and the certificate correctly refuses.")
