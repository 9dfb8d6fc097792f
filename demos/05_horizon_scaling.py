"""Horizon scaling: solve time grows roughly linearly with N.

The trajectory QPs are block banded (each timestep's rows touch only the
neighboring timestep), so the sparse factorization and the per-iteration
solves scale close to linearly. This script fits the log-log slope over a
range of horizons for the trot scenario, and the cost of one force-block
interior-point iteration as a + b n over the force QP's n columns: each
force solve's time divided by its iterations (its polish included). The
fixed part a is what pulls the log-log slope below 1. Each horizon's line
also gives the iterations of its cold force solve (the run's first, which
starts from the force QP's start point); the warm ones follow it.
"""

import numpy as np

from centroidal_bcd.bcd import optimize
from centroidal_bcd.contact_qp import nominal_footholds
from centroidal_bcd.force_qp import ForceQpInputs, build_force_qp
from centroidal_bcd.gaits import make_gait
from centroidal_bcd.scenarios import materialize

rows, per_iteration = [], []
for N in (75, 150, 300, 600):
    plan, refs, settings, weights = materialize(make_gait("trot", N=N))
    result = optimize(plan, refs, settings, weights)
    rows.append((N, result.solve_time, result.force_time_share, len(result.records)))
    cold = [r.force_solver_iterations for r in (*result.records, result.final_record)
            if not r.force_warm_started]
    # The force QP's column count, from the first QP optimize() builds.
    p = nominal_footholds(plan, refs)
    n = build_force_qp(ForceQpInputs(plan=plan, ell_fixed=p - refs.stacked[plan.pair_table.t, 0:3],
                                     p_fixed=p, references=refs, weights=weights)).n
    per_iteration += [(n, r.force_qp_time / r.force_solver_iterations)
                      for r in (*result.records, result.final_record)]
    print(f"N={N:4d}: solve {result.solve_time:6.2f} s, "
          f"force share {result.force_time_share * 100:5.1f}%, "
          f"{len(result.records)} outer iterations, force QP n = {n}, "
          f"cold force solve {'+'.join(map(str, cold))} iterations")

logs = np.log([[N, t] for N, t, _, _ in rows])
slope = np.polyfit(logs[:, 0], logs[:, 1], 1)[0]
print(f"\nfitted solve-time exponent vs horizon: {slope:.2f} (1.0 would be exactly linear)")
b, a = np.polyfit(*np.array(per_iteration).T, 1)
print(f"force-block cost per interior-point iteration: {a * 1e3:.3f} ms + {b * 1e6:.3f} us * n "
      f"(fit over {len(per_iteration)} force solves)")
