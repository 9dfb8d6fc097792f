"""A quadruped standing still: the smallest end-to-end problem.

Builds a four-foot stance plan by hand, runs the block descent, and checks
the physics you can verify on paper: the vertical forces sum to the robot's
weight, every foot carries a quarter of it, and the recovered lever arms are
the nominal stance offsets.
"""

import numpy as np

from centroidal_bcd import ContactPhase, ContactPlan, Polytope
from centroidal_bcd.bcd import BcdSettings, optimize

OFFSETS = {
    "FL": np.array([0.19, 0.11, -0.22]),
    "FR": np.array([0.19, -0.11, -0.22]),
    "HL": np.array([-0.19, 0.11, -0.22]),
    "HR": np.array([-0.19, -0.11, -0.22]),
}
MASS = 2.5
N = 20


def ground_patch(cx, cy, half=0.25):
    A = np.array([[0, 0, 1.0], [0, 0, -1.0], [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]])
    b = np.array([0.0, 0.0, cx + half, -(cx - half), cy + half, -(cy - half)])
    return Polytope(A, b)


r0 = np.array([0.0, 0.0, 0.22])
h0 = np.concatenate([r0, np.zeros(6)])  # the stacked initial (r, l, k): at rest
phases = [
    ContactPhase(eff, 0, N, ground_patch(off[0], off[1]), friction_coeff=0.7,
                 foothold_hint=np.array([off[0], off[1], 0.0]))
    for eff, off in OFFSETS.items()
]
plan = ContactPlan(
    effector_ids=tuple(OFFSETS), phases=tuple(phases), horizon=N, dt=0.01, mass=MASS,
    h0=h0,
    kinematic_limit=0.35, nominal_offsets=OFFSETS)

# Track the initial state: one stacked (r, l, k) row per timestep.
references = np.tile(h0, (N, 1))

result = optimize(plan, references, BcdSettings())

print(f"converged in {len(result.records)} outer iteration(s), "
      f"feasible: {result.residuals.feasible}")
mg = MASS * 9.81
mid = result.contacts[N // 2]
print(f"\nweight to support: {mg:.4f} N")
print(f"sum of vertical forces: {sum(c.f[2] for c in mid.values()):.6f} N")
for eff in OFFSETS:
    print(f"  {eff}: fz = {mid[eff].f[2]:.6f} N (mg/4 = {mg / 4:.6f})")

print("\nlever arms vs nominal offsets:")
for eff, off in OFFSETS.items():
    print(f"  {eff}: {np.round(mid[eff].ell, 4)} vs {off}")
