"""Command-line interface: solve scenarios, verify trajectories, benchmark
horizon scaling, and generate gait scenario files.

Exit codes for ``solve``: 0 converged and feasible, 1 scenario error,
2 subproblem infeasibility (block and iteration named), 3 non-convergence
(outputs are still written). ``verify`` returns 0 when feasible at the
tolerance, 1 when not, and 64 on malformed trajectory files.

All machine outputs are byte-reproducible for identical inputs; wall-clock
timings live in their own file (timing.csv).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .bcd import BcdSettings, BlockSolveError, optimize
from .gaits import GAIT_KINDS, make_gait
from .model import verify_trajectory
from .scenarios import ScenarioError, build_plan, emit_scenario, materialize, parse_scenario
from .trajectory_io import TrajectoryFormatError, read_trajectory_csv, \
    write_convergence_json, write_timing_csv, write_trajectory_csv

__all__ = ["run_solve", "run_verify", "run_bench", "run_gait", "main"]

log = logging.getLogger("centroidal_bcd.cli")

EXIT_OK = 0
EXIT_SCENARIO_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_FORMAT = 64


def _apply_overrides(settings: BcdSettings, cfg: argparse.Namespace) -> BcdSettings:
    updates = {}
    if cfg.eps_f is not None:
        updates["eps_f"] = cfg.eps_f
    if cfg.L0 is not None:
        updates["L0_force"] = cfg.L0
        updates["L0_contact"] = cfg.L0
    if cfg.alpha is not None:
        updates["alpha"] = cfg.alpha
    if cfg.max_iters is not None:
        updates["max_outer_iterations"] = cfg.max_iters
    return replace(settings, **updates) if updates else settings


def _load(cfg: argparse.Namespace):
    text = cfg.scenario.read_bytes()
    sf = parse_scenario(text)
    plan, refs, settings, weights = materialize(sf)
    return sf, plan, refs, _apply_overrides(settings, cfg), weights


def _summary_lines(name: str, result, tol: float) -> list[str]:
    lines = [f"scenario: {name}",
             f"converged: {result.converged}",
             f"outer iterations: {len(result.records)}"]
    for r in result.records:
        lines.append(f"  iteration {r.iteration}: eps_f={r.eps_f_value:.3e} "
                     f"original_cost={r.original_cost:.6f} "
                     f"qp_iterations={r.force_solver_iterations}+{r.contact_solver_iterations}")
    lines.append(f"final original cost: {result.final_record.original_cost:.6f}")
    rep = result.residuals
    lines.append(f"residuals: dynamics={rep.dynamics:.2e} friction={rep.friction:.2e} "
                 f"kinematic={rep.kinematic:.2e} surface={rep.surface:.2e} zmp={rep.zmp:.2e}")
    lines.append(f"feasible at {tol:g}: {rep.feasible}")
    lines.append("timing: see timing.csv (solve time excludes setup, reported there)")
    return lines


def run_solve(cfg: argparse.Namespace) -> int:
    try:
        sf, plan, refs, settings, weights = _load(cfg)
    except (ScenarioError, OSError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO_ERROR
    out = cfg.out or Path.cwd()
    out.mkdir(parents=True, exist_ok=True)

    def progress(record):
        if cfg.verbose:
            print(f"[iteration {record.iteration}] eps_f={record.eps_f_value:.3e} "
                  f"cost={record.original_cost:.6f} " + (
                      f"contact_fallback_iterations={record.contact_solver_iterations}"
                      if record.contact_fallback else
                      f"contact_passes={record.contact_solver_iterations}"))

    try:
        result = optimize(plan, refs, settings, weights, on_iteration=progress,
                          residual_tol=cfg.tol)
    except BlockSolveError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE

    with open(out / "trajectory.csv", "w", newline="") as fh:
        write_trajectory_csv(fh, result.states, result.contacts, plan)
    with open(out / "convergence.json", "w") as fh:
        write_convergence_json(fh, result, sf.name)
    with open(out / "timing.csv", "w", newline="") as fh:
        write_timing_csv(fh, result)
    summary = _summary_lines(sf.name, result, cfg.tol)
    (out / "summary.txt").write_text("\n".join(summary) + "\n")
    print("\n".join(summary))
    if not result.converged:
        return EXIT_NO_CONVERGENCE
    return EXIT_OK if result.residuals.feasible else EXIT_INFEASIBLE


def run_verify(cfg: argparse.Namespace) -> int:
    try:
        plan = build_plan(parse_scenario(cfg.scenario.read_bytes()))
    except (ScenarioError, OSError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO_ERROR
    path = cfg.trajectory or ((cfg.out or Path.cwd()) / "trajectory.csv")
    try:
        with open(path, newline="") as fh:
            traj = read_trajectory_csv(fh, plan)
        report = verify_trajectory(traj, plan, tol=cfg.tol)
    except (TrajectoryFormatError, OSError) as exc:
        print(f"trajectory format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except ValueError as exc:
        print(f"trajectory/plan mismatch: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    return EXIT_OK if report.feasible else 1


def run_bench(cfg: argparse.Namespace) -> int:
    try:
        sf = parse_scenario(cfg.scenario.read_bytes())
    except (ScenarioError, OSError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO_ERROR
    if sf.gait is None:
        print("bench needs a scenario with a 'gait' generator block", file=sys.stderr)
        return EXIT_SCENARIO_ERROR
    horizons = cfg.horizons or (int(sf.horizon["N"]),)
    out = cfg.out or Path.cwd()
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for N in horizons:
        doc = make_gait(sf.gait["kind"], N=N, **sf.gait.get("params", {}))
        plan, refs, settings, weights = materialize(doc)
        settings = _apply_overrides(settings, cfg)
        result = optimize(plan, refs, settings, weights)
        force, contact = result.force_time, result.contact_time
        rows.append((N, result.solve_time, force, contact, len(result.records),
                     result.converged))
        print(f"N={N}: solve={result.solve_time:.3f}s force={force:.3f}s "
              f"contact={contact:.3f}s iterations={len(result.records)}")
    with open(out / "bench.csv", "w", newline="") as fh:
        fh.write("N,total_solve_time_s,force_qp_time_s,contact_qp_time_s,"
                 "outer_iterations,converged,seed\n")
        for N, total, force, contact, iters, conv in rows:
            fh.write(f"{N},{total!r},{force!r},{contact!r},{iters},{conv},{cfg.seed}\n")
    if len(rows) >= 2:
        logs = np.log([[r[0], r[1]] for r in rows])
        exponent = float(np.polyfit(logs[:, 0], logs[:, 1], 1)[0])
        print(f"fitted solve-time exponent vs horizon: {exponent:.3f}")
    else:
        print("fitted solve-time exponent vs horizon: n/a (single horizon)")
    return EXIT_OK


def run_gait(cfg: argparse.Namespace) -> int:
    params = dict(cfg.param)
    if cfg.horizon is not None:
        params["N"] = cfg.horizon
    if cfg.dt is not None:
        params["dt"] = cfg.dt
    try:
        doc = make_gait(cfg.kind, **params)
    except (TypeError, ValueError) as exc:
        print(f"gait error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO_ERROR
    blob = emit_scenario(doc)
    if cfg.out is None:
        sys.stdout.write(blob.decode("utf-8"))
    else:
        cfg.out.write_bytes(blob)
        print(f"wrote {cfg.out}")
    return EXIT_OK


def _parse_param(text: str) -> tuple[str, object]:
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"expected key=value, got {text!r}")
    key, raw = text.split("=", 1)
    try:
        value: object = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def _parse_horizons(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="centroidal-bcd",
        description="Biconvex trajectory optimization for centroidal momentum dynamics")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, scenario_required=True):
        p.add_argument("--scenario", type=Path, required=scenario_required,
                       help="scenario document (.scn YAML)")
        p.add_argument("--out", type=Path, help="output directory (or file for gait)")
        p.add_argument("--eps-f", type=float, dest="eps_f", help="consensus threshold")
        p.add_argument("--L0", type=float, dest="L0", help="initial proximal weight (both blocks)")
        p.add_argument("--alpha", type=float, help="proximal growth factor")
        p.add_argument("--max-iters", type=int, dest="max_iters", help="outer iteration cap")
        p.add_argument("--tol", type=float, default=1e-5, help="feasibility tolerance")
        p.add_argument("--seed", type=int, default=0, help="seed recorded in outputs")
        p.add_argument("--verbose", action="store_true")

    common(sub.add_parser("solve", help="optimize a scenario"))
    p_verify = sub.add_parser("verify", help="check a trajectory against a scenario")
    common(p_verify)
    p_verify.add_argument("trajectory", type=Path, nargs="?",
                          help="trajectory CSV (default: <out>/trajectory.csv)")
    p_bench = sub.add_parser("bench", help="horizon scaling benchmark")
    common(p_bench)
    p_bench.add_argument("--horizons", type=_parse_horizons, default=(),
                         help="comma-separated horizon lengths")
    p_gait = sub.add_parser("gait", help="generate a gait scenario document")
    common(p_gait, scenario_required=False)
    p_gait.add_argument("--kind", required=True, choices=GAIT_KINDS)
    p_gait.add_argument("--horizon", type=int, help="horizon length N")
    p_gait.add_argument("--dt", type=float, help="timestep in seconds")
    p_gait.add_argument("--param", type=_parse_param, action="append", default=[],
                        help="generator parameter as key=value (repeatable)")
    return parser


def main(argv=None) -> int:
    cfg = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if cfg.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    runners = {"solve": run_solve, "verify": run_verify, "bench": run_bench, "gait": run_gait}
    return runners[cfg.subcommand](cfg)


if __name__ == "__main__":
    sys.exit(main())
