"""Terrain and flight phases: stairs and a jump in place.

Stairs constrain each foothold to its step patch; the jump has a 0.3 s window
with no contacts at all, during which the optimized momentum must follow
ballistics exactly (it is a hard constraint, not a preference).
"""

import numpy as np

from centroidal_bcd.bcd import optimize
from centroidal_bcd.gaits import make_gait
from centroidal_bcd.scenarios import materialize

plan, refs, settings, weights = materialize(make_gait("stairs_up"))
result = optimize(plan, refs, settings, weights)
heights = sorted({round(float(c[e].p[2]), 3) for c in result.contacts for e in c})
print(f"stairs_up: converged={result.converged} in {len(result.records)} iterations, "
      f"feasible={result.residuals.feasible}")
print(f"  foothold heights visited: {heights}")
print(f"  CoM climbs from {result.states[0].r[2]:.3f} m to {result.states[-1].r[2]:.3f} m")

plan, refs, settings, weights = materialize(make_gait("jump_in_place", flight_time=0.3))
result = optimize(plan, refs, settings, weights)
flight = [t for t in range(plan.horizon) if not plan.active_contacts(t)]
print(f"\njump_in_place: converged={result.converged}, flight steps {flight[0]}..{flight[-1]}")
m, g, dt = plan.mass, plan.gravity[2], plan.dt
drops = [result.states[t].l[2] - result.states[t - 1].l[2] for t in flight[1:]]
print(f"  per-step momentum change in flight: {np.mean(drops):.6f} kg m/s "
      f"(ballistic m*g*dt = {m * g * dt:.6f})")
apex = max(s.r[2] for s in result.states)
print(f"  CoM apex {apex:.3f} m above ground (standing height {plan.h0[2]:.2f} m)")
print(f"  takeoff vertical momentum {max(s.l[2] for s in result.states):.3f} kg m/s")
