"""Horizon scaling: solve time grows roughly linearly with N.

The trajectory QPs are block banded (each timestep's rows touch only the
neighboring timestep), so the sparse factorization and the per-iteration
solves scale close to linearly. This script fits the log-log slope of the
solve time over a range of horizons for the trot scenario. Each horizon runs
three times and keeps the best time of each solve. Its line also gives the
force QP's column count n; the median, over the warm force solves (those
that start from the force handle's last solved iterate), of a solve's time
divided by its interior-point iterations; the cold force solve (the run's
first, which starts from the force QP's start point): its iterations, and
its time beyond them at that warm rate; and the polish factorizations of
all force solves (a force handle stops polishing after its first rejected
polish).
"""

import numpy as np

from centroidal_bcd.bcd import optimize
from centroidal_bcd.contact_qp import nominal_footholds
from centroidal_bcd.force_qp import ForceQpInputs, build_force_qp
from centroidal_bcd.gaits import make_gait
from centroidal_bcd.scenarios import materialize

REPEATS = 3

rows = []
for N in (75, 150, 300, 600):
    plan, refs, settings, weights = materialize(make_gait("trot", N=N))
    results = [optimize(plan, refs, settings, weights) for _ in range(REPEATS)]
    result = min(results, key=lambda r: r.solve_time)
    # Every repetition takes the same steps; keep each force solve's best time.
    records = (*result.records, result.final_record)
    best = np.min([[r.force_qp_time for r in (*res.records, res.final_record)]
                   for res in results], axis=0)
    rows.append((N, result.solve_time))
    warm = [t / r.force_solver_iterations for r, t in zip(records, best) if r.force_warm_started]
    (cold, cold_time), = ((r, t) for r, t in zip(records, best) if not r.force_warm_started)
    per_iteration = float(np.median(warm))
    polishes = sum(r.force_factorizations - r.force_solver_iterations for r in records)
    # The force QP's column count, from the first QP optimize() builds.
    p = nominal_footholds(plan, refs)
    n = build_force_qp(ForceQpInputs(plan=plan, ell_fixed=p - refs[plan.pair_table.t, 0:3],
                                     p_fixed=p, references=refs, weights=weights)).n
    print(f"N={N:4d}: solve {result.solve_time * 1e3:7.1f} ms, "
          f"force share {result.force_time_share * 100:5.1f}%, "
          f"{len(result.records)} outer iterations, force QP n = {n}, "
          f"warm force solves {per_iteration * 1e3:.3f} ms per iteration "
          f"(median of {len(warm)}), cold force solve {cold.force_solver_iterations} "
          f"iterations + {(cold_time - cold.force_solver_iterations * per_iteration) * 1e3:.3f} ms, "
          f"{polishes} polish factorizations in {len(records)} force solves")

logs = np.log(rows)
slope = np.polyfit(logs[:, 0], logs[:, 1], 1)[0]
print(f"\nfitted solve-time exponent vs horizon: {slope:.2f} (1.0 would be exactly linear)")
