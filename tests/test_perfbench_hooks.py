"""The benchmark's span recorder swaps package functions by name, and its
passes call the package the way a user does; these tests fail when a
refactor removes or renames one of them, or stops calling a layer the
benchmark reports. They only read ``perfbench/``."""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_traced_cli_solve_and_verify_record_the_layer_spans(tmp_path):
    spans = _load("spans")
    from centroidal_bcd import cli

    scn, out = tmp_path / "stand.scn", tmp_path / "run"
    assert cli.main(["gait", "--kind", "stand", "--out", str(scn)]) == 0
    recorder = spans.Recorder()
    # Entering raises KeyError if any function it swaps is gone.
    with spans.traced(recorder):
        assert cli.main(["solve", "--scenario", str(scn), "--out", str(out)]) == 0
        assert cli.main(["verify", "--scenario", str(scn), "--out", str(out)]) == 0
    names = {span.name for span in recorder.spans}
    # Every solve of either block goes through the wrappers: the driver looks
    # the builders and extractors up when it calls them.
    assert {"bcd.optimize", "force_qp.build", "contact_qp.build", "force_qp.extract",
            "contact_qp.extract", "qp.setup", "qp.update", "qp.solve", "model.verify",
            "trajectory_io.read"} <= names
    # Leaving the context restores the package's own functions.
    assert not hasattr(cli.main, "__wrapped__")


@pytest.mark.parametrize("workload", ["long_horizon", "incline_bound", "short_cli"])
def test_one_benchmark_pass_solves_every_scenario(workload, tmp_path):
    # One untimed pass at seed 0: every call the benchmark makes into the
    # package (generation, materialize, optimize or the CLI, the CSV files
    # and the checks on them) must still work and every solve come out ok.
    run = _load("run")
    solves = run.Workload(workload, 0, tmp_path).run_pass()
    assert solves and all(solve.ok for solve in solves), [s.problems for s in solves]
