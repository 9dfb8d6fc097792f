"""The sparse QP backend on its own.

A random strictly convex QP is solved by the operator-splitting backend and
cross-checked against the dense active-set reference; then the handle is
reused: a cost-vector update keeps the cached factorization, a matrix
update refactorizes exactly once, and warm starting finishes within one
termination-check window.
"""

import numpy as np
import scipy.sparse as sp

from centroidal_bcd.qp import SolverSettings, SparseQP, kkt_residuals, setup
from centroidal_bcd.qp.active_set import solve_active_set

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
handle = setup(qp, SolverSettings())
sol = handle.solve()
x_ref, y_ref, obj_ref = solve_active_set(qp, x0=x_feas)

print(f"status: {sol.status} in {sol.iterations} iterations (polished: {sol.polished})")
print(f"objective {sol.objective:.8f} vs active-set reference {obj_ref:.8f}")
print(f"max primal gap to reference: {np.max(np.abs(sol.x - x_ref)):.2e}")
print(f"KKT residuals (primal, dual, complementarity): "
      f"{', '.join(f'{r:.2e}' for r in kkt_residuals(qp, sol.x, sol.y))}")

before = handle.kkt_refactorizations
handle.update_values(new_q=0.5 * q)
sol2 = handle.solve(warm_start=(sol.x, sol.y))
print(f"\ncost-only update: solved in {sol2.iterations} iterations, "
      f"refactorizations {handle.kkt_refactorizations - before} (cached factor reused)")

newP = qp.P.copy()
newP.data = newP.data * 2.0
handle.update_values(new_P_values=newP)
print(f"matrix update: refactorizations {handle.kkt_refactorizations - before} "
      f"(exactly one for the new values)")
sol3 = handle.solve(warm_start=handle.warm_start_point())
print(f"re-solve after matrix update: {sol3.status} in {sol3.iterations} iterations")
