"""Horizon scaling: solve time grows roughly linearly with N.

The trajectory QPs are block banded (each timestep's rows touch only the
neighboring timestep), so the sparse factorization and the per-iteration
solves scale close to linearly. This script fits the log-log slope over a
range of horizons for the trot scenario. It also splits each force solve's
time, over the force QP's n columns, by least squares into a per-solve part
and a per-iteration part: (c + d n) + iterations (a + b n). The per-solve
part holds the polish, the one factorization a solve makes beyond its
interior-point iterations, where a solve runs one: a force handle stops
polishing after its first rejected polish. The fixed part a is what pulls
the log-log slope below 1. Each horizon runs three times and keeps the best
time of each solve. Its line also gives the iterations of its cold force
solve (the run's first, which starts from the force QP's start point); the
warm ones follow it.
"""

import numpy as np

from centroidal_bcd.bcd import optimize
from centroidal_bcd.contact_qp import nominal_footholds
from centroidal_bcd.force_qp import ForceQpInputs, build_force_qp
from centroidal_bcd.gaits import make_gait
from centroidal_bcd.scenarios import materialize

REPEATS = 3

rows, force_solves = [], []
for N in (75, 150, 300, 600):
    plan, refs, settings, weights = materialize(make_gait("trot", N=N))
    results = [optimize(plan, refs, settings, weights) for _ in range(REPEATS)]
    result = min(results, key=lambda r: r.solve_time)
    # Every repetition takes the same steps; keep each force solve's best time.
    records = (*result.records, result.final_record)
    best = np.min([[r.force_qp_time for r in (*res.records, res.final_record)]
                   for res in results], axis=0)
    rows.append((N, result.solve_time))
    cold = [r.force_solver_iterations for r in records if not r.force_warm_started]
    polishes = sum(r.force_factorizations - r.force_solver_iterations for r in records)
    # The force QP's column count, from the first QP optimize() builds.
    p = nominal_footholds(plan, refs)
    n = build_force_qp(ForceQpInputs(plan=plan, ell_fixed=p - refs.stacked[plan.pair_table.t, 0:3],
                                     p_fixed=p, references=refs, weights=weights)).n
    force_solves += [(n, r.force_solver_iterations, t) for r, t in zip(records, best)]
    print(f"N={N:4d}: solve {result.solve_time * 1e3:7.1f} ms, "
          f"force share {result.force_time_share * 100:5.1f}%, "
          f"{len(result.records)} outer iterations, force QP n = {n}, "
          f"cold force solve {'+'.join(map(str, cold))} iterations, "
          f"{polishes} polish factorizations in {len(records)} force solves")

logs = np.log(rows)
slope = np.polyfit(logs[:, 0], logs[:, 1], 1)[0]
print(f"\nfitted solve-time exponent vs horizon: {slope:.2f} (1.0 would be exactly linear)")
n, iterations, seconds = np.array(force_solves).T
X = np.column_stack([np.ones_like(n), n, iterations, iterations * n])
c, d, a, b = np.linalg.lstsq(X, seconds * 1e3, rcond=None)[0]
print(f"force solve: {c:.3f} ms + {d * 1e3:.3f} us * n per solve, plus "
      f"{a:.3f} ms + {b * 1e3:.3f} us * n per interior-point iteration "
      f"(fit over {len(force_solves)} force solves)")
