"""Random low-friction and tight-reach contact plans, and their outcomes.

Plan ``i`` of a search at ``seed`` is drawn from ``default_rng([seed, i])``:
a kind uniform over the moving gaits, the terrain scenarios and stand, a
horizon uniform in 30-90, with probability 1/2 a friction coefficient
log-uniform in 1e-6-1, and with probability 1/2 a kinematic limit scaled by
0.7-1.0. Each plan ends in one outcome class: ``ok`` (converged and
feasible), ``infeasible`` (converged, the returned trajectory infeasible),
``not_converged``, or ``<block>: <status>`` for a ``BlockSolveError``.

Run as a script to count the classes of a search, and the force block's
interior-point iterations and factorizations summed over the plans that end
``ok``, a work count that no host speed moves; one BLAS thread advised:

    PYTHONPATH=src python tests/random_plans.py --seed 61 --count 400
"""

from __future__ import annotations

import argparse
import collections

import numpy as np

from centroidal_bcd.bcd import BlockSolveError, optimize
from centroidal_bcd.gaits import make_gait
from centroidal_bcd.scenarios import materialize

KINDS = ("walk", "trot", "bound", "stairs_up", "stairs_down", "incline_stones", "stand")


def random_plan(seed: int, i: int) -> dict:
    """The scenario document of plan ``i`` of the search at ``seed``."""
    rng = np.random.default_rng([seed, i])
    kind = KINDS[rng.integers(len(KINDS))]
    params = {"N": int(rng.integers(30, 91))}
    if rng.random() < 0.5:
        params["mu"] = float(10.0 ** rng.uniform(-6.0, 0.0))
    doc = make_gait(kind, **params)
    if rng.random() < 0.5:
        robot = doc["robot"]
        doc = {**doc, "robot": {**robot, "L_max": robot["L_max"] * float(rng.uniform(0.7, 1.0))}}
    return doc


def outcome(doc: dict) -> tuple[str, int | None, tuple[int, int]]:
    """The outcome class of solving ``doc``, the outer iteration of a block
    failure (None otherwise), and the interior-point iterations and
    factorizations of the run's force solves ((0, 0) after a block
    failure)."""
    try:
        result = optimize(*materialize(doc))
    except BlockSolveError as exc:
        return f"{exc.block}: {exc.status}", exc.iteration, (0, 0)
    force = (*result.records, result.final_record)
    work = (sum(r.force_solver_iterations for r in force),
            sum(r.force_factorizations for r in force))
    if not result.converged:
        return "not_converged", None, work
    return ("ok" if result.residuals.feasible else "infeasible"), None, work


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=61)
    parser.add_argument("--count", type=int, default=400)
    parser.add_argument("--list", action="store_true", help="print each plan that does not end ok")
    cfg = parser.parse_args(argv)
    classes = collections.Counter()
    iterations = factorizations = 0
    for i in range(cfg.count):
        doc = random_plan(cfg.seed, i)
        name, iteration, work = outcome(doc)
        classes[name] += 1
        if name == "ok":
            iterations += work[0]
            factorizations += work[1]
        if cfg.list and name != "ok":
            print(f"plan {i}: {doc['gait']['kind']} N={doc['horizon']['N']} -> {name}"
                  + ("" if iteration is None else f" at outer iteration {iteration}"))
    for name, count in sorted(classes.items()):
        print(f"{name}: {count}")
    print(f"force solves of the ok plans: {iterations} interior-point iterations, "
          f"{factorizations} factorizations")


if __name__ == "__main__":
    main()
