"""Random low-friction and tight-reach plans (see ``random_plans.py``) end
converged and feasible, or with a ``BlockSolveError`` naming the block, the
outer iteration and the status."""

from centroidal_bcd.bcd import BlockSolveError, optimize
from centroidal_bcd.scenarios import materialize

from random_plans import random_plan

STATUSES = ("max_iter", "primal_infeasible", "not_positive_definite", "stalled")


def test_random_plans_end_feasible_or_with_a_named_block_failure():
    ends = []
    for i in range(15):
        try:
            result = optimize(*materialize(random_plan(61, i)))
        except BlockSolveError as exc:
            assert exc.block in ("force", "contact") and exc.status in STATUSES, i
            assert str(exc) == f"{exc.block} QP failed at outer iteration {exc.iteration}: " \
                               f"{exc.status}"
            ends.append(exc.block)
        else:
            assert result.converged and result.residuals.feasible, i
            ends.append("ok")
    # Both ends are reached: plans 11 and 12 (stairs_up N=60, trot N=67) are
    # certified primal infeasible at the first force solve, the rest solve.
    assert "ok" in ends and "force" in ends


def test_plan_31_at_seed_61_converges_under_the_proximal_cap():
    # Walk N=86. With the proximal cap at 1e12 its force solve at outer
    # iteration 5 (weight 1e10) spent its iteration budget and the run ended
    # "force: max_iter"; at 1e6 it converges.
    doc = random_plan(61, 31)
    assert (doc["gait"]["kind"], doc["horizon"]["N"]) == ("walk", 86)
    result = optimize(*materialize(doc))
    assert result.converged and result.residuals.feasible
