"""Command-line interface: solve scenarios, verify trajectories, benchmark
horizon scaling, and generate gait scenario files.

Exit codes for ``solve``: 0 converged and feasible, 1 scenario error or a
flag value the run cannot use (the flag named), 2 subproblem infeasibility
(block and iteration named), 3 non-convergence (outputs are still written).
``bench`` returns 1 and 2 as ``solve`` does, and 0 otherwise (converged or
not, as bench.csv records). ``verify`` returns 0 when feasible at the
tolerance, 1 when not or on an unusable flag value, and 64 on malformed
trajectory files.

All machine outputs are byte-reproducible for identical inputs; wall-clock
timings live in their own file (timing.csv).
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .bcd import BcdSettings, BlockSolveError, optimize
from .gaits import GAIT_KINDS, make_gait
from .model import _tolerance as _check_tolerance, verify_trajectory
from .scenarios import ScenarioError, _integer, build_plan, emit_scenario, materialize, \
    parse_scenario
from .trajectory_io import TrajectoryFormatError, read_trajectory_csv, \
    write_convergence_json, write_timing_csv, write_trajectory_csv

__all__ = ["run_solve", "run_verify", "run_bench", "run_gait", "main"]

log = logging.getLogger("centroidal_bcd.cli")

EXIT_OK = 0
EXIT_SCENARIO_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_FORMAT = 64


class FlagError(ValueError):
    """A flag value the run cannot use; the message names the flag."""


def _apply_overrides(settings: BcdSettings, cfg: argparse.Namespace) -> BcdSettings:
    """``settings`` with the given flags applied; a value the settings reject
    raises ``FlagError``."""
    for flag, names in (("--eps-f", ("eps_f",)), ("--L0", ("L0_force", "L0_contact")),
                        ("--alpha", ("alpha",)), ("--max-iters", ("max_outer_iterations",))):
        value = getattr(cfg, flag[2:].replace("-", "_"))
        if value is not None:
            try:
                settings = replace(settings, **dict.fromkeys(names, value))
            except ValueError as exc:
                raise FlagError(f"{flag}: {exc}") from None
    return settings


def _tolerance(cfg: argparse.Namespace) -> float:
    try:
        return _check_tolerance(cfg.tol, "--tol")
    except ValueError as exc:
        raise FlagError(str(exc)) from None


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
    tol = _tolerance(cfg)
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
                          residual_tol=tol)
    except BlockSolveError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE

    with open(out / "trajectory.csv", "w", newline="") as fh:
        write_trajectory_csv(fh, result.states, result.contacts, plan)
    with open(out / "convergence.json", "w") as fh:
        write_convergence_json(fh, result, sf.name)
    with open(out / "timing.csv", "w", newline="") as fh:
        write_timing_csv(fh, result)
    summary = _summary_lines(sf.name, result, tol)
    (out / "summary.txt").write_text("\n".join(summary) + "\n")
    print("\n".join(summary))
    if not result.converged:
        return EXIT_NO_CONVERGENCE
    return EXIT_OK if result.residuals.feasible else EXIT_INFEASIBLE


def run_verify(cfg: argparse.Namespace) -> int:
    tol = _tolerance(cfg)
    try:
        plan = build_plan(parse_scenario(cfg.scenario.read_bytes()))
    except (ScenarioError, OSError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO_ERROR
    path = cfg.trajectory or ((cfg.out or Path.cwd()) / "trajectory.csv")
    try:
        with open(path, newline="") as fh:
            traj = read_trajectory_csv(fh, plan)
        report = verify_trajectory(traj, plan, tol=tol)
    except (TrajectoryFormatError, OSError) as exc:
        print(f"trajectory format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except ValueError as exc:
        print(f"trajectory/plan mismatch: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    return EXIT_OK if report.feasible else 1


def _regenerated(gait: dict, N: int):
    """The document the ``gait`` block generates at horizon ``N``; a block
    the generator cannot use raises ``ScenarioError`` naming its field."""
    kind, params = gait.get("kind"), gait.get("params", {})
    if kind not in GAIT_KINDS:
        raise ScenarioError("gait.kind", f"expected one of {', '.join(GAIT_KINDS)}, got {kind!r}")
    if not isinstance(params, dict):
        raise ScenarioError("gait.params", f"expected a mapping, got {type(params).__name__}")
    try:
        return make_gait(kind, N=N, **params)
    except (TypeError, ValueError) as exc:
        raise ScenarioError("gait.params", str(exc)) from None


def run_bench(cfg: argparse.Namespace) -> int:
    try:
        sf = parse_scenario(cfg.scenario.read_bytes())
        if sf.gait is None:
            raise ScenarioError("gait", "bench needs a scenario with a generator block")
        horizons = cfg.horizons or (_integer(sf.horizon.get("N"), "horizon.N"),)
        problems = [(N, materialize(_regenerated(sf.gait, N))) for N in horizons]
    except (ScenarioError, OSError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO_ERROR
    out = cfg.out or Path.cwd()
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for N, (plan, refs, settings, weights) in problems:
        settings = _apply_overrides(settings, cfg)
        try:
            result = optimize(plan, refs, settings, weights)
        except BlockSolveError as exc:
            print(f"solver failure: {exc}", file=sys.stderr)
            return EXIT_INFEASIBLE
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``parse_args``
    leaves it as it is, so every ``main`` call shares it."""
    parser = argparse.ArgumentParser(
        prog="centroidal-bcd",
        description="Biconvex trajectory optimization for centroidal momentum dynamics")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # Each subcommand takes only the arguments it reads.
    arguments = {
        "--scenario": dict(type=Path, required=True,
                           help="scenario document (.scn, JSON or YAML)"),
        "--out": dict(type=Path, help="output directory (or file for gait)"),
        "--eps-f": dict(type=float, help="consensus threshold"),
        "--L0": dict(type=float, help="initial proximal weight (both blocks)"),
        "--alpha": dict(type=float, help="proximal growth factor"),
        "--max-iters": dict(type=int, help="outer iteration cap"),
        "--tol": dict(type=float, default=1e-5, help="feasibility tolerance"),
        "--seed": dict(type=int, default=0, help="seed recorded in bench.csv"),
        "--verbose": dict(action="store_true"),
        "trajectory": dict(type=Path, nargs="?",
                           help="trajectory CSV (default: <out>/trajectory.csv)"),
        "--horizons": dict(type=_parse_horizons, default=(),
                           help="comma-separated horizon lengths"),
        "--kind": dict(required=True, choices=GAIT_KINDS),
        "--horizon": dict(type=int, help="horizon length N"),
        "--dt": dict(type=float, help="timestep in seconds"),
        "--param": dict(type=_parse_param, action="append", default=[],
                        help="generator parameter as key=value (repeatable)"),
    }
    overrides = ("--eps-f", "--L0", "--alpha", "--max-iters")
    for name, summary, names in (
            ("solve", "optimize a scenario", ("--scenario", "--out", *overrides, "--tol")),
            ("verify", "check a trajectory against a scenario",
             ("--scenario", "--out", "--tol", "trajectory")),
            ("bench", "horizon scaling benchmark",
             ("--scenario", "--out", *overrides, "--seed", "--horizons")),
            ("gait", "generate a gait scenario document",
             ("--out", "--kind", "--horizon", "--dt", "--param"))):
        p = sub.add_parser(name, help=summary)
        for argument in (*names, "--verbose"):
            p.add_argument(argument, **arguments[argument])
    return parser


def main(argv=None) -> int:
    cfg = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if cfg.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    runners = {"solve": run_solve, "verify": run_verify, "bench": run_bench, "gait": run_gait}
    try:
        return runners[cfg.subcommand](cfg)
    except FlagError as exc:
        print(f"flag error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO_ERROR


if __name__ == "__main__":
    sys.exit(main())
