"""Benchmark of centroidal-bcd's ``optimize()`` on three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload long_horizon --seed 0 --seconds 20 --trace 0

It imports the package from ``src/`` of the checkout it sits in, generates
the workload's scenarios from ``--seed`` (seed 0 is the generators' shipped
defaults), solves them one at a time in this process for at least
``--seconds`` seconds, checks every output, and prints one JSON object as
the last line of standard output. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` reports the per-layer metrics of ``spans.py`` and the
tracing overhead. Workloads and metrics are explained in NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# The benchmark's own process environment. One BLAS thread, set before numpy
# loads (the package is imported only in main), so timings do not depend on
# how many cores the host lends. A fixed hash seed, because the order of
# set and dict entries shapes the heap: with random seeds the peak memory of
# one bound solve ranged over 108-122 MB, with seed 0 it stayed at 116.0-116.1 MB.
BENCH_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "PYTHONHASHSEED": "0"}

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

TOL = 1e-5
# Lever gaps and derived-lever residuals below this are float round-off of
# the horizon recursion (jumps and stand sit near 1e-11); they are reported
# at this floor so that noise-level values do not read as changes.
QUALITY_FLOOR = 1e-9
# Relative perturbation of one generator parameter per scenario for seed != 0.
# ADMM iteration counts jump between levels under larger changes (trot N=300:
# 2450..3250 force iterations for +-1% stride, 3150 for +-0.1%).
PERTURBATION = 1e-3
SETUP_SAMPLES = 5

# name -> (mode, copies, [(gait kind, fixed params, perturbed param, default)]).
# Each pass solves `copies` independently perturbed instances of every
# scenario (all equal to the defaults at seed 0).
WORKLOADS = {
    # ROADMAP item 1: QP structure building and active_contacts scans grow
    # with N; at N=300 building is close to half the wall time.
    "long_horizon": ("api", 1, [("trot", {"N": 300}, "stride", 0.06)]),
    # ROADMAP items 3 and 4: ADMM iterations dominate, and bound has the
    # largest lever gap and derived-lever residual of the shipped suite.
    # incline_stones' iteration count changes by up to 40% under any
    # perturbation, even 1e-6, so two copies halve the seed-to-seed spread.
    "incline_bound": ("api", 2, [("incline_stones", {}, "stride", 0.08),
                                 ("bound", {}, "stride", 0.04)]),
    # Fixed per-solve costs through the CLI: solver setup, YAML, CSV.
    "short_cli": ("cli", 1, [("stand", {}, "mu", 0.7),
                             ("jump_in_place", {}, "mu", 0.8),
                             ("jump_forward", {}, "forward", 0.12),
                             ("jump_twist", {}, "twist_deg", 20.0)]),
}

# Times package import plus document generation in a fresh interpreter.
SETUP_PROBE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from centroidal_bcd import bcd, cli, gaits, model, scenarios, trajectory_io
for kind, params in json.loads(sys.argv[2]):
    scenarios.emit_scenario(gaits.make_gait(kind, **params))
print(repr(time.perf_counter() - t0))
"""


def gait_params(workload: str, seed: int) -> list[tuple[str, dict]]:
    """(gait kind, make_gait parameters) of every solve in one pass."""
    rng = random.Random(seed)
    _, copies, scenarios = WORKLOADS[workload]
    out = []
    for _ in range(copies):
        for kind, fixed, key, default in scenarios:
            params = dict(fixed)
            if seed:
                params[key] = default * (1.0 + PERTURBATION * rng.uniform(-1.0, 1.0))
            out.append((kind, params))
    return out


def import_package():
    """Import the checkout's own package; refuse an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        import centroidal_bcd
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import centroidal_bcd from {SRC}: {exc}")
    if Path(centroidal_bcd.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: imported centroidal_bcd from {centroidal_bcd.__file__}, "
                 f"not from {SRC}")


def setup_seconds(params, speed) -> float:
    """Set-up time in a fresh interpreter, corrected for the host's speed by
    probe bursts just before and after it."""
    before = speed.burst()
    out = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC), json.dumps(params)],
                         capture_output=True, text=True, timeout=120, check=True,
                         cwd=ROOT)
    return speed.corrected(float(out.stdout.strip().splitlines()[-1]),
                           (before + speed.burst()) / 2.0)


@dataclass
class Solve:
    """Outcome of one scenario solve within a pass."""

    name: str
    seconds: float  # host-speed-corrected when a SpeedClock runs
    raw_seconds: float  # wall time without the probes
    problems: list
    final_cost: float = math.nan
    lever_gap: float = math.nan
    derived_residual: float = math.nan
    # Counts that must repeat exactly between passes of one run.
    signature: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.problems


def residuals_agree(a: dict, b: dict) -> bool:
    keys = ("dynamics", "friction", "kinematic", "surface", "zmp", "lever_consistency")
    return all(math.isclose(a[k], b[k], rel_tol=1e-9, abs_tol=1e-15) for k in keys)


@dataclass
class Scenario:
    name: str
    kind: str
    params: dict
    doc: object  # the ScenarioFile make_gait returned
    blob: bytes  # the same document as the CLI reads it
    scn: Path  # where that document is written
    out: Path  # output directory of the trajectory files
    plan: object = None  # materialized on first use, for checking outputs


def cli_call(argv: list[str]) -> tuple[int, str]:
    """Run ``centroidal-bcd <argv>`` in this process; return exit code and stdout."""
    from centroidal_bcd import cli
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    return code, stdout.getvalue()


class Workload:
    """The scenarios of one workload and how a pass solves them."""

    def __init__(self, name: str, seed: int, work: Path):
        from centroidal_bcd import gaits, scenarios
        self.mode = WORKLOADS[name][0]
        self.speed = None  # a hostspeed.SpeedClock while one runs
        self.scenarios = []
        work.mkdir(parents=True, exist_ok=True)
        for i, (kind, params) in enumerate(gait_params(name, seed)):
            doc = gaits.make_gait(kind, **params)
            sc = Scenario(f"{kind}-{i}", kind, params, doc, scenarios.emit_scenario(doc),
                          work / f"{kind}-{i}.scn", work / f"{kind}-{i}")
            sc.scn.write_bytes(sc.blob)
            self.scenarios.append(sc)

    def run_pass(self) -> list[Solve]:
        solve = self._api_solve if self.mode == "api" else self._cli_solve
        out = []
        for sc in self.scenarios:
            t0 = self._start()
            try:
                out.append(solve(sc))
            except Exception:  # noqa: BLE001 -- a failed solve is counted, not fatal
                traceback.print_exc()
                out.append(Solve(sc.name, *self._elapsed(t0), ["raised, see stderr"]))
        return out

    def _start(self) -> tuple[float, float]:
        """Start of a timed region: (corrected clock, raw clock)."""
        if self.speed is None:
            t = time.perf_counter()
            return t, t
        return self.speed.now(), time.perf_counter() - self.speed.probe_seconds

    def _elapsed(self, start: tuple[float, float]) -> tuple[float, float]:
        """(corrected, raw) seconds since ``start``."""
        now = self._start()
        return now[0] - start[0], now[1] - start[1]

    @staticmethod
    def _check_outputs(solve: Solve, sc: Scenario, verify_stdout: str,
                       expected: dict) -> None:
        """Compare what ``verify`` reports for the written trajectory with the
        solver's own residuals, then rebuild the lever arms from the
        footholds and CoM read back and measure the dynamics against them."""
        from centroidal_bcd import model, scenarios, trajectory_io
        verified = json.loads(verify_stdout)
        if not residuals_agree(verified, expected):
            solve.problems.append(f"verify {verified} != solver residuals {expected}")
        if sc.plan is None:
            sc.plan = scenarios.materialize(sc.doc)[0]
        with open(sc.out / "trajectory.csv", newline="") as fh:
            traj = trajectory_io.read_trajectory_csv(fh, sc.plan)
        derived = [(state, {e: model.EffectorContact(f=c.f, p=c.p, z=c.z, tau=c.tau)
                            for e, c in contacts.items()}) for state, contacts in traj]
        solve.derived_residual = model.verify_trajectory(derived, sc.plan, tol=TOL).dynamics
        solve.lever_gap = expected["lever_consistency"]

    # -- library API: materialize + optimize is timed -----------------------------

    def _api_solve(self, sc: Scenario) -> Solve:
        from centroidal_bcd import bcd, scenarios, trajectory_io
        t0 = self._start()
        try:
            plan, refs, settings, weights = scenarios.materialize(sc.doc)
            result = bcd.optimize(plan, refs, settings, weights, residual_tol=TOL)
        except bcd.BlockSolveError as exc:
            return Solve(sc.name, *self._elapsed(t0), [f"block solve failed: {exc}"])
        solve = Solve(sc.name, *self._elapsed(t0), [])
        if not result.converged:
            solve.problems.append("not converged")
        if not result.residuals.feasible:
            solve.problems.append(f"infeasible: {result.residuals.worst()}")
        sc.out.mkdir(exist_ok=True)
        with open(sc.out / "trajectory.csv", "w", newline="") as fh:
            trajectory_io.write_trajectory_csv(fh, result.states, result.contacts, plan)
        code, stdout = cli_call(["verify", "--scenario", str(sc.scn), "--out", str(sc.out)])
        if code != 0:
            solve.problems.append(f"verify exit code {code}")
            return solve
        self._check_outputs(solve, sc, stdout, result.residuals.as_dict())
        solve.final_cost = result.final_record.original_cost
        solve.signature = (
            tuple((r.force_solver_iterations, r.contact_solver_iterations)
                  for r in result.records),
            result.final_record.force_solver_iterations, solve.final_cost)
        return solve

    # -- command line: gait, solve and verify are timed ---------------------------

    def _cli_solve(self, sc: Scenario) -> Solve:
        steps = [
            ["gait", "--kind", sc.kind, "--out", str(sc.scn)]
            + [f"--param={k}={json.dumps(v)}" for k, v in sc.params.items()],
            ["solve", "--scenario", str(sc.scn), "--out", str(sc.out)],
            ["verify", "--scenario", str(sc.scn), "--out", str(sc.out)],
        ]
        t0 = self._start()
        calls = [cli_call(argv) for argv in steps]
        solve = Solve(sc.name, *self._elapsed(t0), [])
        codes = [code for code, _ in calls]
        if codes != [0, 0, 0]:
            solve.problems.append(f"exit codes (gait, solve, verify) = {codes}")
            return solve
        if sc.scn.read_bytes() != sc.blob:
            solve.problems.append("gait output differs from make_gait + emit_scenario")
        conv = json.loads((sc.out / "convergence.json").read_text())
        self._check_outputs(solve, sc, calls[2][1], conv["residuals"])
        solve.final_cost = conv["final_original_cost"]
        solve.signature = (
            tuple((r["force_solver_iterations"], r["contact_solver_iterations"])
                  for r in conv["records"]),
            conv["final_record"]["force_solver_iterations"], solve.final_cost)
        return solve


@dataclass
class Pass:
    solves: list
    # Peak resident memory of the process so far, read as the pass ends.
    peak_rss_mb: float

    @property
    def seconds(self) -> float:
        return sum(s.seconds for s in self.solves)

    @property
    def raw_seconds(self) -> float:
        return sum(s.raw_seconds for s in self.solves)


def run_passes(workload: Workload, seconds: float) -> list[Pass]:
    """Closed loop: one solve at a time, passes until ``seconds`` elapse."""
    passes: list[Pass] = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        solves = workload.run_pass()
        passes.append(Pass(solves, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0))
    return passes


def deterministic_mismatches(passes: list[Pass]) -> list[str]:
    out = []
    for i, first in enumerate(passes[0].solves):
        seen = {p.solves[i].signature for p in passes}
        if len(seen) > 1:
            out.append(f"{first.name}: counts differ between passes: {sorted(map(str, seen))}")
    return out


def end_to_end(passes: list[Pass], setup: list[float]) -> dict:
    solves = [s for p in passes for s in p.solves]
    ok = [s for s in solves if s.ok]
    attempted, failed = len(solves), len(solves) - len(ok)
    first_ok = [s for s in passes[0].solves if s.ok]
    return {
        "wall_s": (statistics.median(p.seconds for p in passes), "s"),
        "setup_s": (statistics.median(setup), "s"),
        # After the first pass: later passes add a few MB of heap growth, and
        # how many passes fit in a run depends on the host's speed.
        "peak_rss_mb": (passes[0].peak_rss_mb, "MB"),
        "solved_frac": ((attempted - failed) / attempted, "ratio"),
        "final_cost": (sum(s.final_cost for s in first_ok), "cost"),
        "lever_gap_m": (max([s.lever_gap for s in ok] + [QUALITY_FLOOR]), "m"),
        "derived_dyn_residual": (max([s.derived_residual for s in ok] + [QUALITY_FLOOR]),
                                 "residual"),
    }


def per_layer(spans: list, passes: list[Pass], untraced: list[Pass]) -> dict:
    """Layer metrics per traced pass; the traced set-up (document
    generation) is spread over the passes."""
    n = len(passes)

    def chosen(name, block=None):
        return [s for s in spans if s.name == name
                and (block is None or s.info.get("block") == block)]

    def self_s(name, block=None):
        return sum(s.self_time for s in chosen(name, block)) / n

    def calls(name, block=None):
        return len(chosen(name, block)) / n

    def total(name, key, block=None):
        return sum(s.info.get(key, 0) for s in chosen(name, block)) / n

    def largest(name, key):
        return max((s.info[key] for s in chosen(name)), default=0)

    solves = chosen("qp.solve")
    solved = [s for s in solves if s.info.get("status") == "solved"]
    m = {}
    for layer in ("force_qp", "contact_qp"):
        m[f"{layer}.build_s"] = (self_s(f"{layer}.build"), "s")
        m[f"{layer}.build_calls"] = (calls(f"{layer}.build"), "count")
        m[f"{layer}.extract_s"] = (self_s(f"{layer}.extract"), "s")
        m[f"{layer}.n"] = (largest(f"{layer}.build", "n"), "count")
        m[f"{layer}.nnz"] = (largest(f"{layer}.build", "nnz"), "count")
    m["model.active_contacts_calls"] = (calls("model.active_contacts"), "count")
    m["model.active_contacts_s"] = (self_s("model.active_contacts"), "s")
    m["model.verify_s"] = (self_s("model.verify"), "s")
    for block in ("force", "contact"):
        its = total("qp.solve", "iterations", block)
        solve_s = self_s("qp.solve", block)
        m[f"qp.{block}.solve_s"] = (solve_s, "s")
        m[f"qp.{block}.admm_iterations"] = (its, "count")
        m[f"qp.{block}.s_per_iteration"] = (solve_s / its if its else 0.0, "s")
    m["qp.first_force_iterations"] = (total("bcd.optimize", "first_force_iterations"), "count")
    m["qp.setup_s"] = (self_s("qp.setup"), "s")
    m["qp.update_s"] = (self_s("qp.update"), "s")
    m["qp.kkt_refactorizations"] = (total("bcd.optimize", "kkt_refactorizations"), "count")
    m["qp.polish_factorizations"] = (total("bcd.optimize", "polish_factorizations"), "count")
    m["qp.solves"] = (len(solves) / n, "count")
    m["qp.polish_accept_ratio"] = (
        sum(bool(s.info.get("polished")) for s in solved) / len(solved) if solved else 0.0,
        "ratio")
    m["qp.retries"] = (sum(s.info.get("status") == "max_iter" for s in solves) / n, "count")
    m["bcd.outer_iterations"] = (total("bcd.optimize", "outer_iterations"), "count")
    m["bcd.self_s"] = (self_s("bcd.optimize"), "s")
    m["bcd.consensus_final"] = (max((s.info["consensus_final"] for s in chosen("bcd.optimize")),
                                    default=0.0), "m2")
    m["scenarios.parse_s"] = (self_s("scenarios.parse"), "s")
    m["scenarios.materialize_s"] = (self_s("scenarios.materialize"), "s")
    m["gaits.make_gait_s"] = (self_s("gaits.make_gait"), "s")
    m["trajectory_io.write_s"] = (self_s("trajectory_io.write"), "s")
    m["trajectory_io.read_s"] = (self_s("trajectory_io.read"), "s")
    m["trajectory_io.bytes_written"] = (total("trajectory_io.write", "bytes"), "B")
    m["cli.self_s"] = (self_s("cli.main"), "s")
    m["trace.spans"] = (len(spans) / n, "count")
    m["trace.overhead_s"] = (statistics.median(p.seconds for p in passes)
                             - statistics.median(p.seconds for p in untraced), "s")
    return m


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy
    import scipy
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": git_commit(),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "hash_seed": os.environ["PYTHONHASHSEED"]}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if any(os.environ.get(k) != v for k, v in BENCH_ENV.items()):
        # The hash seed is read only at interpreter start-up: restart this
        # process (same pid, nothing left running) with the environment set.
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **BENCH_ENV})
    import_package()
    import hostspeed
    import spans

    env = environment(args)
    speed = hostspeed.SpeedClock()
    setup = [] if args.trace else [setup_seconds(gait_params(args.workload, args.seed), speed)
                                   for _ in range(SETUP_SAMPLES)]
    recorder = spans.Recorder() if args.trace else None
    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        with spans.traced(recorder) if recorder else contextlib.nullcontext():
            workload = Workload(args.workload, args.seed, work)
        # A traced run spends half its time untraced, as the baseline of the
        # tracing overhead, and half traced.
        seconds = args.seconds / 2 if recorder else args.seconds
        if recorder:
            passes = run_passes(workload, seconds)
        else:
            # End-to-end times are corrected for the host's speed.
            workload.speed = speed
            with speed:
                passes = run_passes(workload, seconds)
            env["median_probe_s"] = speed.median_probe()
        traced_passes = []
        if recorder:
            with spans.traced(recorder):
                traced_passes = run_passes(workload, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    measured = passes + traced_passes
    solves = [s for p in measured for s in p.solves]
    failed = [s for s in solves if not s.ok]
    flags = deterministic_mismatches(measured)
    for s in failed:
        print(f"FAILED {s.name}: {'; '.join(s.problems)}", file=sys.stderr)
    for flag in flags:
        print(f"FLAGGED {flag}", file=sys.stderr)

    print("env " + json.dumps(env, sort_keys=True))
    if recorder:
        print("pass seconds: " + json.dumps([p.seconds for p in passes]) + " untraced, "
              + json.dumps([p.seconds for p in traced_passes]) + " traced")
    else:
        print("pass seconds: " + json.dumps([p.seconds for p in passes])
              + " corrected for host speed, " + json.dumps([p.raw_seconds for p in passes])
              + " raw")
    print(f"passes: {len(measured)}; solves attempted {len(solves)}, failed {len(failed)} "
          f"(fail_frac = {len(failed) / len(solves)!r} ratio)")
    if recorder:
        metrics = per_layer(recorder.spans, traced_passes, passes)
    else:
        metrics = end_to_end(passes, setup)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": not failed and not flags,
        "attempted": len(solves),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
