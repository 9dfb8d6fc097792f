"""Random low-friction and tight-reach contact plans, and their outcomes.

Plan ``i`` of a search at ``seed`` is drawn from ``default_rng([seed, i])``:
a kind uniform over the moving gaits, the terrain scenarios and stand, a
horizon uniform in 30-90, with probability 1/2 a friction coefficient
log-uniform in 1e-6-1, and with probability 1/2 a kinematic limit scaled by
0.7-1.0. Each plan ends in one outcome class: ``ok`` (converged and
feasible), ``infeasible`` (converged, the returned trajectory infeasible),
``not_converged``, or ``<block>: <status>`` for a ``BlockSolveError``.

Run as a script to count the classes of a search, one BLAS thread advised:

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


def outcome(doc: dict) -> tuple[str, int | None]:
    """The outcome class of solving ``doc``, and the outer iteration of a
    block failure (None otherwise)."""
    try:
        result = optimize(*materialize(doc))
    except BlockSolveError as exc:
        return f"{exc.block}: {exc.status}", exc.iteration
    if not result.converged:
        return "not_converged", None
    return ("ok" if result.residuals.feasible else "infeasible"), None


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=61)
    parser.add_argument("--count", type=int, default=400)
    parser.add_argument("--list", action="store_true", help="print each plan that does not end ok")
    cfg = parser.parse_args(argv)
    classes = collections.Counter()
    for i in range(cfg.count):
        doc = random_plan(cfg.seed, i)
        name, iteration = outcome(doc)
        classes[name] += 1
        if cfg.list and name != "ok":
            print(f"plan {i}: {doc['gait']['kind']} N={doc['horizon']['N']} -> {name}"
                  + ("" if iteration is None else f" at outer iteration {iteration}"))
    for name, count in sorted(classes.items()):
        print(f"{name}: {count}")


if __name__ == "__main__":
    main()
