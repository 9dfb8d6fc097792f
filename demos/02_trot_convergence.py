"""Trot over three seconds: watch the block descent reach consensus.

Generates the trot scenario at the full N=300 horizon, solves it, and prints
the per-iteration record: the consensus metric collapses by orders of
magnitude per iteration while the tracking cost settles, and the force side
dominates the solve time.
"""

from centroidal_bcd.bcd import optimize
from centroidal_bcd.gaits import make_gait
from centroidal_bcd.scenarios import materialize

plan, references, settings, weights = materialize(make_gait("trot", N=300))
print(f"trot: N={plan.horizon}, dt={plan.dt}, "
      f"{len(plan.phases)} contact phases, {len(plan.active_pairs())} active pairs")

result = optimize(plan, references, settings, weights)

print(f"\n{'iter':>4} {'eps_f':>12} {'original cost':>14} {'force iters':>12} "
      f"{'contact passes':>14}")
for rec in result.records:
    print(f"{rec.iteration:>4} {rec.eps_f_value:>12.3e} {rec.original_cost:>14.6f} "
          f"{rec.force_solver_iterations:>12} {rec.contact_solver_iterations:>14}")
print(f"{'fin':>4} {'':>12} {result.final_record.original_cost:>14.6f} "
      f"{result.final_record.force_solver_iterations:>12}")

print(f"\nconverged: {result.converged}")
print(f"residuals: {result.residuals.as_dict()}")
print(f"solve time {result.solve_time:.2f} s "
      f"(force share {result.force_time_share * 100:.1f}%), "
      f"setup/assembly {result.setup_time:.2f} s")
