"""The sparse QP backend on its own.

A random strictly convex QP is solved by the interior-point backend and
cross-checked against the dense active-set reference. Its first solve starts
cold, at x = 0 with zero multipliers and the slacks measured there, floored
as a warm start's are, and the polish holds the detected active set.
Then the handle is reused: value updates factor nothing, and every re-solve
first tries the last accepted polish's held set. Here that set is still the
active set after both updates, so each re-solve is that one held-set pass:
no iteration and one factorization. A re-solve whose set misses factors the
Newton matrix once per iteration (and once more for its polish), starting
warm from the handle's last interior-point iterate. A fresh handle of the
updated QP starts cold, for comparison.

Last, the contact QP of the trot's first outer iteration is solved by the
direct active-set solve the contact block uses, which holds the equality
rows (plane pins included) and factors once per pass, and, as a
cross-check, by the interior-point method.
"""

from dataclasses import replace

import numpy as np
import scipy.sparse as sp

from centroidal_bcd.contact_qp import ContactQpInputs, build_contact_qp, nominal_footholds
from centroidal_bcd.force_qp import ForceQpInputs, build_force_qp, extract_force_iterate
from centroidal_bcd.gaits import shipped_scenarios
from centroidal_bcd.qp import BandedActiveSetSolver, InteriorPointSolver, SolverSettings, \
    SparseQP, kkt_residuals
from centroidal_bcd.qp.active_set import solve_active_set
from centroidal_bcd.scenarios import materialize

rng = np.random.default_rng(0)
n, m = 25, 35
B = rng.normal(size=(n, n))
P = B.T @ B + 0.1 * np.eye(n)
q = rng.normal(size=n)
A = rng.normal(size=(m, n))
x_feas = rng.normal(size=n)
lo = A @ x_feas - rng.uniform(0.1, 1.5, size=m)
hi = A @ x_feas + rng.uniform(0.1, 1.5, size=m)

qp = SparseQP(n=n, m_c=m, P=sp.csc_matrix(P), q=q, A=sp.csc_matrix(A), lo=lo, hi=hi)
handle = InteriorPointSolver(qp, SolverSettings())
sol = handle.solve()
x_ref, y_ref, obj_ref = solve_active_set(qp, x0=x_feas)

print(f"status: {sol.status} in {sol.iterations} iterations (cold), "
      f"{sol.factorizations} factorizations, {sol.solve_time * 1e3:.1f} ms "
      f"(polished: {sol.polished})")
print(f"objective {sol.objective:.8f} vs active-set reference {obj_ref:.8f}")
print(f"max primal gap to reference: {np.max(np.abs(sol.x - x_ref)):.2e}")
print(f"KKT residuals (primal, dual, complementarity): "
      f"{', '.join(f'{r:.2e}' for r in kkt_residuals(qp, sol.x, sol.y))}")

newP = qp.P.copy()
newP.data = newP.data * 2.0
current = qp
for label, values in (("cost-only update", {"q": 0.5 * q}), ("matrix update", {"P": newP})):
    current = replace(current, **values)
    before = handle.kkt_refactorizations + handle.polish_factorizations
    handle.update_values(current)
    factored = handle.kkt_refactorizations + handle.polish_factorizations - before
    again = handle.solve()
    cold = InteriorPointSolver(current).solve()
    how = ("on the last polish's held set" if again.iterations == 0
           else "warm" if again.warm_started else "cold")
    print(f"{label}: {factored} factorizations; re-solve {again.status} "
          f"({how}) in {again.iterations} iterations, "
          f"{again.factorizations} factorizations; a fresh handle takes "
          f"{cold.iterations} (cold), max |x gap| {np.max(np.abs(again.x - cold.x)):.1e}")

plan, refs, settings, weights = materialize(shipped_scenarios()["trot"])
p_nom = nominal_footholds(plan, refs)
force_qp = build_force_qp(ForceQpInputs(
    plan=plan, ell_fixed=p_nom - refs[plan.pair_table.t, 0:3], p_fixed=p_nom,
    references=refs, weights=weights))
force_sol = InteriorPointSolver(force_qp).solve()
print(f"\ntrot force QP: n={force_qp.n}, cold solve {force_sol.status} in "
      f"{force_sol.iterations} predictor-corrector iterations from its start point")
force = extract_force_iterate(force_sol, plan)
contact_qp = build_contact_qp(ContactQpInputs(
    plan=plan, f_fixed=force.f, h_reg=force.h, references=refs, weights=weights,
    tau_fixed=force.tau, l_prox=settings.L0))
print(f"trot contact QP: n={contact_qp.n}, {contact_qp.m_c} rows, "
      f"{int(np.sum(contact_qp.lo == contact_qp.hi))} of them equality rows")
for name, solver in (("direct", BandedActiveSetSolver), ("IPM", InteriorPointSolver)):
    handle = solver(contact_qp)
    sol = handle.solve()
    steps = "iterations" if solver is InteriorPointSolver else "active-set pass(es)"
    work = f"{sol.iterations} {steps}, {sol.factorizations} factorization(s)"
    print(f"{name:>6}: {sol.status}, {work}, solve {sol.solve_time * 1e3:.1f} ms, "
          f"objective {sol.objective:.9f}")
