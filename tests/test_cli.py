import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from conftest import WRONG_TYPE_BLOCKS

import centroidal_bcd.cli as cli_module
import centroidal_bcd.qp.banded as banded_module
from centroidal_bcd.cli import main
from centroidal_bcd.gaits import make_gait
from centroidal_bcd.model import CentroidalState, EffectorContact
from centroidal_bcd.scenarios import ScenarioFile, emit_scenario, materialize, parse_scenario

EXIT_FORMAT = 64


@pytest.fixture(scope="module")
def trot_scenario(tmp_path_factory):
    path = tmp_path_factory.mktemp("scn") / "trot.scn"
    assert main(["gait", "--kind", "trot", "--horizon", "60", "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def solved(tmp_path_factory, trot_scenario):
    out = tmp_path_factory.mktemp("run")
    code = main(["solve", "--scenario", str(trot_scenario), "--out", str(out)])
    assert code == 0
    return out


def test_solve_writes_all_outputs(solved):
    for name in ("trajectory.csv", "convergence.json", "timing.csv", "summary.txt"):
        assert (solved / name).exists(), name
    report = json.loads((solved / "convergence.json").read_text())
    assert report["converged"] is True
    assert report["residuals"]["feasible"] is True
    assert "force_qp_time" not in json.dumps(report)  # timing lives in timing.csv
    for record in report["records"]:
        for block in ("force", "contact"):
            assert record[f"{block}_primal_residual"] >= 0.0
            assert record[f"{block}_dual_residual"] >= 0.0
            assert record[f"{block}_factorizations"] >= 1
            assert record[f"{block}_band_solves"] >= record[f"{block}_factorizations"]
    assert report["final_record"]["force_factorizations"] >= 1
    assert report["final_record"]["force_band_solves"] >= 1


def test_verify_accepts_solve_output(trot_scenario, solved, capsys):
    code = main(["verify", "--scenario", str(trot_scenario),
                 str(solved / "trajectory.csv")])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["feasible"] is True


def test_verify_detects_single_force_perturbation(trot_scenario, solved, tmp_path, capsys):
    lines = (solved / "trajectory.csv").read_text().splitlines()
    header = lines[0].split(",")
    col = header.index("f_FL_z")
    row = 5 + 1
    fields = lines[row].split(",")
    fields[col] = repr(float(fields[col]) + 1.0)
    lines[row] = ",".join(fields)
    bad = tmp_path / "perturbed.csv"
    bad.write_text("\n".join(lines) + "\n")
    code = main(["verify", "--scenario", str(trot_scenario), str(bad)])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    # A 1 N force error shows up as a dt-scaled momentum defect.
    assert report["dynamics"] == pytest.approx(0.01, rel=1e-6)
    assert report["feasible"] is False


def test_verify_rejects_truncated_csv(trot_scenario, solved, tmp_path):
    lines = (solved / "trajectory.csv").read_text().splitlines()
    bad = tmp_path / "truncated.csv"
    bad.write_text("\n".join(lines[:-10]) + "\n")
    assert main(["verify", "--scenario", str(trot_scenario), str(bad)]) == EXIT_FORMAT


def test_solve_outputs_are_reproducible(tmp_path, trot_scenario):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["solve", "--scenario", str(trot_scenario), "--out", str(out)]) == 0
        outs.append(out)
    for fname in ("trajectory.csv", "convergence.json", "summary.txt"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes(), fname


def test_forced_non_convergence_exits_3_but_writes(tmp_path, trot_scenario):
    out = tmp_path / "nc"
    code = main(["solve", "--scenario", str(trot_scenario), "--out", str(out),
                 "--eps-f", "0", "--max-iters", "2"])
    assert code == 3
    assert (out / "trajectory.csv").exists()
    report = json.loads((out / "convergence.json").read_text())
    assert report["converged"] is False
    assert report["outer_iterations"] == 2


def test_missing_scenario_exits_1(tmp_path):
    assert main(["solve", "--scenario", str(tmp_path / "nope.scn"),
                 "--out", str(tmp_path)]) == 1


def test_invalid_scenario_exits_1(tmp_path):
    bad = tmp_path / "bad.scn"
    bad.write_text("schema_version: 1\nname: broken\n")
    assert main(["solve", "--scenario", str(bad), "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("field, value", [
    ("robot.mass", math.nan),
    ("robot.mass", -1),
    ("robot.L_max", math.inf),
    ("horizon.dt", math.inf),
])
def test_unusable_robot_and_horizon_values_exit_1_naming_the_field(tmp_path, capsys,
                                                                   field, value):
    section, key = field.split(".")
    doc = make_gait("stand", N=20).to_mapping()
    doc[section] = {**doc[section], key: value}
    scn = tmp_path / "bad.scn"
    scn.write_bytes(emit_scenario(ScenarioFile.from_mapping(doc)))
    for subcommand in ("solve", "verify"):
        assert main([subcommand, "--scenario", str(scn), "--out", str(tmp_path)]) == 1
        assert f"scenario error: {field}: " in capsys.readouterr().err


def test_non_finite_reference_waypoint_exits_1_naming_it(tmp_path, capsys):
    doc = make_gait("stand", N=20).to_mapping()
    waypoints = [list(wp) for wp in doc["references"]["com_waypoints"]]
    waypoints[0][3] = math.nan
    doc["references"] = {**doc["references"], "com_waypoints": waypoints}
    scn = tmp_path / "bad.scn"
    scn.write_bytes(emit_scenario(ScenarioFile.from_mapping(doc)))
    assert main(["solve", "--scenario", str(scn), "--out", str(tmp_path)]) == 1
    assert "references.com_waypoints[0]: must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("block, value, expected", WRONG_TYPE_BLOCKS)
def test_a_block_of_the_wrong_type_exits_1_naming_it(tmp_path, capsys, block, value,
                                                     expected):
    doc = make_gait("stand", N=20).to_mapping()
    doc[block] = value
    scn = tmp_path / "bad.scn"
    scn.write_text(json.dumps(doc))
    for subcommand in ("solve", "verify"):
        assert main([subcommand, "--scenario", str(scn), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"scenario error: {block}: expected a {expected}"), err
        assert "Traceback" not in err


def test_text_that_is_neither_json_nor_yaml_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("{unbalanced")
    assert main(["solve", "--scenario", str(bad), "--out", str(tmp_path)]) == 1
    assert "YAML" in capsys.readouterr().err


def test_gait_calls_in_one_process_each_parse_their_own_arguments(tmp_path):
    # The parser is built once per process and shared by every call.
    with_param, without = tmp_path / "mu.scn", tmp_path / "default.scn"
    assert main(["gait", "--kind", "stand", "--param", "mu=0.5", "--out", str(with_param)]) == 0
    assert main(["gait", "--kind", "stand", "--out", str(without)]) == 0
    assert with_param.read_bytes() == emit_scenario(make_gait("stand", mu=0.5))
    assert without.read_bytes() == emit_scenario(make_gait("stand"))
    assert cli_module.build_parser() is cli_module.build_parser()


def _fresh_interpreter(script: str, *argv) -> list[str]:
    """Run ``script`` in a new interpreter that imports this checkout's
    package; return its stdout's lines."""
    src = str(Path(cli_module.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script), *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_gait_solve_verify_on_an_emitted_document_never_imports_yaml(tmp_path):
    lines = _fresh_interpreter("""
        import sys
        from centroidal_bcd.cli import main
        scn, out = sys.argv[1:]
        assert main(["gait", "--kind", "stand", "--horizon", "20", "--out", scn]) == 0
        assert main(["solve", "--scenario", scn, "--out", out]) == 0
        assert main(["verify", "--scenario", scn, "--out", out]) == 0
        print("yaml" in sys.modules)
    """, tmp_path / "stand.scn", tmp_path / "run")
    assert lines[-1] == "False"


def test_only_solving_imports_scipy(tmp_path, trot_scenario, solved):
    # Generating, parsing and materializing scenarios, reading and verifying
    # trajectories, and the gait and verify subcommands run on numpy alone;
    # scipy loads with the first QP a solve builds.
    lines = _fresh_interpreter("""
        import json, sys
        import centroidal_bcd, centroidal_bcd.cli
        from centroidal_bcd import gaits, model, scenarios, trajectory_io

        def scipy_modules():
            return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

        scn, run, fresh_scn, fresh_run = sys.argv[1:]
        for doc in gaits.shipped_scenarios().values():
            scenarios.materialize(scenarios.parse_scenario(scenarios.emit_scenario(doc)))
        plan = scenarios.materialize(scenarios.parse_scenario(open(scn, "rb").read()))[0]
        with open(run + "/trajectory.csv", newline="") as fh:
            assert model.verify_trajectory(trajectory_io.read_trajectory_csv(fh, plan),
                                           plan).feasible
        main = centroidal_bcd.cli.main
        assert main(["gait", "--kind", "trot", "--horizon", "60", "--out", fresh_scn]) == 0
        assert main(["verify", "--scenario", scn, "--out", run]) == 0
        print("loaded", json.dumps(scipy_modules()))
        assert main(["solve", "--scenario", fresh_scn, "--out", fresh_run]) == 0
        print("loaded", json.dumps(scipy_modules()))
    """, trot_scenario, solved, tmp_path / "trot.scn", tmp_path / "run")
    before, after = (json.loads(line.removeprefix("loaded ")) for line in lines
                     if line.startswith("loaded "))
    assert before == []
    assert {"scipy.sparse", "scipy.linalg"} <= set(after)


def test_bench_reports_scaling(tmp_path, trot_scenario, capsys):
    out = tmp_path / "bench"
    code = main(["bench", "--scenario", str(trot_scenario),
                 "--horizons", "40,80", "--out", str(out), "--seed", "7"])
    assert code == 0
    text = capsys.readouterr().out
    assert "fitted solve-time exponent" in text
    lines = (out / "bench.csv").read_text().splitlines()
    assert lines[0].startswith("N,")
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "40"


@pytest.fixture(scope="module")
def stand_scenario(tmp_path_factory):
    path = tmp_path_factory.mktemp("scn") / "stand.scn"
    assert main(["gait", "--kind", "stand", "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("subcommand, flag, value, message", [
    ("solve", "--L0", "nan", "L0_force must be finite"),
    ("solve", "--eps-f", "nan", "eps_f must be finite"),
    ("solve", "--alpha", "inf", "alpha must be finite"),
    ("solve", "--alpha", "1", "alpha must be > 1"),
    ("solve", "--tol", "nan", "must be finite and >= 0"),
    ("solve", "--tol", "-1e-5", "must be finite and >= 0"),
    ("verify", "--tol", "nan", "must be finite and >= 0"),
    ("bench", "--L0", "inf", "L0_force must be finite"),
    ("bench", "--eps-f", "nan", "eps_f must be finite"),
    ("bench", "--max-iters", "0", "at least one outer iteration"),
])
def test_unusable_flag_values_exit_1_naming_the_flag(stand_scenario, tmp_path, capsys,
                                                      subcommand, flag, value, message):
    # Before, --L0 nan died in the solver with a traceback, --eps-f nan ran to
    # the iteration cap and --tol nan reported a feasible trajectory
    # infeasible.
    assert main([subcommand, "--scenario", str(stand_scenario), "--out", str(tmp_path),
                 f"{flag}={value}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"flag error: {flag}: ") and message in err, err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["gait", "--kind", "stand", "--eps-f", "1"],
    ["gait", "--kind", "stand", "--scenario", "stand.scn"],
    ["gait", "--kind", "stand", "--seed", "1"],
    ["verify", "--scenario", "stand.scn", "--L0", "1"],
    ["verify", "--scenario", "stand.scn", "--max-iters", "1"],
    ["solve", "--scenario", "stand.scn", "--seed", "1"],
    ["bench", "--scenario", "stand.scn", "--tol", "1e-5"],
])
def test_subcommands_reject_flags_they_do_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


def test_bench_single_horizon_reports_na(tmp_path, trot_scenario, capsys):
    out = tmp_path / "bench1"
    assert main(["bench", "--scenario", str(trot_scenario),
                 "--horizons", "40", "--out", str(out)]) == 0
    assert "n/a" in capsys.readouterr().out


def test_bench_names_a_failed_block_and_exits_2(tmp_path, capsys):
    # A friction coefficient of 1e-6 leaves no force that carries the weight:
    # the first force solve is infeasible, and bench reports it as solve does.
    scn, out = tmp_path / "slippery.scn", tmp_path / "out"
    assert main(["gait", "--kind", "trot", "--horizon", "100", "--param", "mu=1e-6",
                 "--out", str(scn)]) == 0
    capsys.readouterr()
    assert main(["bench", "--scenario", str(scn), "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("solver failure: force QP failed at outer iteration 1: "
                                       "primal_infeasible\n")
    assert not (out / "bench.csv").exists()


@pytest.mark.parametrize("gait, horizon, message", [
    ({"params": {}}, {}, "gait.kind: expected one of stand, walk, "),
    ({"kind": "gallop"}, {}, "gait.kind: expected one of stand, walk, "),
    ({"kind": "stand", "params": {"stride": 0.1}}, {}, "gait.params: "),
    ({"kind": "stand", "params": [0.1]}, {}, "gait.params: expected a mapping"),
    ({"kind": "stand"}, {"N": None}, "horizon.N: expected an integer"),
])
def test_bench_names_a_generator_block_it_cannot_use(tmp_path, capsys, gait, horizon, message):
    # Each used to end in a KeyError, ValueError or TypeError traceback.
    doc = make_gait("stand", N=20).to_mapping()
    doc["gait"] = gait
    doc["horizon"] = {key: value for key, value in {**doc["horizon"], **horizon}.items()
                      if value is not None}
    scn = tmp_path / "bad.scn"
    scn.write_text(json.dumps(doc))
    assert main(["bench", "--scenario", str(scn), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"scenario error: {message}"), err
    assert not (tmp_path / "out").exists()


def test_gait_rejects_bad_params(tmp_path):
    assert main(["gait", "--kind", "walk", "--out", str(tmp_path / "w.scn"),
                 "--param", "stride=2.0"]) == 1


@pytest.mark.parametrize("kind, args, message", [
    ("stand", ["--horizon", "0"], "N must be an integer >= 1, got 0"),
    ("stand", ["--dt", "0"], "dt must be positive, got 0.0"),
    ("stand", ["--dt", "-0.01"], "dt must be positive, got -0.01"),
    ("stand", ["--dt", "nan"], "dt must be finite, got nan"),
    ("stand", ["--param", "mu=0"], "mu must be positive, got 0"),
    ("trot", ["--param", "stance_steps=0"], "stance_steps must be an integer >= 1, got 0"),
    ("walk", ["--param", "swing_steps=0"], "swing_steps must be an integer >= 1, got 0"),
    ("bound", ["--param", "pair_steps=2.5"], "pair_steps must be an integer >= 1, got 2.5"),
    ("walk", ["--param", "lead_steps=-1"], "lead_steps must be an integer >= 0, got -1"),
    ("walk", ["--param", "stride=NaN"], "stride must be finite, got nan"),
    # walk's internal hooks are not parameters.
    ("walk", ["--param", "name=crawl"], "unexpected keyword argument 'name'"),
    ("walk", ["--param", "patch_fn=3"], "unexpected keyword argument 'patch_fn'"),
    ("stairs_up", ["--param", "direction=-1"], "multiple values for argument 'direction'"),
])
def test_gait_names_a_parameter_it_cannot_use(tmp_path, capsys, kind, args, message):
    out = tmp_path / "g.scn"
    assert main(["gait", "--kind", kind, "--out", str(out), *args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("gait error: ") and message in err, err
    assert not out.exists()


@pytest.fixture(scope="module")
def jump_scenario(tmp_path_factory):
    path = tmp_path_factory.mktemp("scn") / "jump.scn"
    assert main(["gait", "--kind", "jump_in_place", "--out", str(path)]) == 0
    return path


def test_verify_rejects_force_on_a_foot_in_the_air(jump_scenario, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["solve", "--scenario", str(jump_scenario), "--out", str(out)]) == 0
    t = 60
    plan = materialize(parse_scenario(jump_scenario.read_bytes()))[0]
    assert plan.phase_at(t, "FL") is None  # flight
    lines = (out / "trajectory.csv").read_text().splitlines()
    col = lines[0].split(",").index("f_FL_z")
    fields = lines[t + 1].split(",")
    fields[col] = "500.0"
    lines[t + 1] = ",".join(fields)
    bad = tmp_path / "airborne.csv"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", "--scenario", str(jump_scenario), str(bad)]) == EXIT_FORMAT
    assert "f_FL_z" in capsys.readouterr().err


def test_solve_and_verify_build_no_per_timestep_objects(tmp_path, monkeypatch):
    # The problem and the trajectory travel as arrays, from the scenario's
    # initial state and references through the QP solutions to the CSV and
    # back into verification: no state or contact object is built.
    scn, out = tmp_path / "twist.scn", tmp_path / "run"
    assert main(["gait", "--kind", "jump_twist", "--out", str(scn)]) == 0
    built = {"CentroidalState": 0, "EffectorContact": 0}

    def count(cls):
        real_post_init = cls.__post_init__

        def counting_post_init(self):
            built[cls.__name__] += 1
            real_post_init(self)

        monkeypatch.setattr(cls, "__post_init__", counting_post_init)

    count(CentroidalState)
    count(EffectorContact)
    assert main(["solve", "--scenario", str(scn), "--out", str(out)]) == 0
    assert main(["verify", "--scenario", str(scn), "--out", str(out)]) == 0
    assert built == {"CentroidalState": 0, "EffectorContact": 0}


@pytest.fixture(scope="module")
def solved_twist(tmp_path_factory):
    scn, out = tmp_path_factory.mktemp("scn") / "twist.scn", tmp_path_factory.mktemp("run")
    assert main(["gait", "--kind", "jump_twist", "--out", str(scn)]) == 0
    assert main(["solve", "--scenario", str(scn), "--out", str(out)]) == 0
    return scn, out / "trajectory.csv"


def test_verify_rejects_a_fractional_timestep(solved_twist, tmp_path, capsys):
    scn, csv = solved_twist
    lines = csv.read_text().splitlines()
    fields = lines[3 + 1].split(",")
    assert fields[0] == "3"
    fields[0] = "3.9"
    lines[3 + 1] = ",".join(fields)
    bad = tmp_path / "fractional.csv"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", "--scenario", str(scn), str(bad)]) == EXIT_FORMAT
    assert "timestep column says 3.9" in capsys.readouterr().err


def test_verify_builds_the_plan_only(solved_twist, monkeypatch, capsys):
    # verify reads the contact plan; the references, weights and settings
    # that materialize builds are never needed.
    scn, csv = solved_twist
    built = []
    monkeypatch.setattr(cli_module, "materialize", built.append)
    capsys.readouterr()
    assert main(["verify", "--scenario", str(scn), str(csv)]) == 0
    assert json.loads(capsys.readouterr().out)["feasible"] is True
    assert built == []


def _verbose_progress_matches_records(scenario, out, capsys, fallback: bool):
    code = main(["solve", "--scenario", str(scenario), "--out", str(out), "--verbose"])
    assert code == 0
    progress = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("[iteration ")]
    report = json.loads((out / "convergence.json").read_text())
    records = report["records"] + [report["final_record"]]
    assert len(progress) == len(records)
    assert [r["contact_fallback"] for r in report["records"]] == [fallback] * len(report["records"])
    for line, record in zip(progress, records):
        contact = (f"contact_fallback_iterations={record['contact_solver_iterations']}"
                   if record["contact_fallback"] else
                   f"contact_passes={record['contact_solver_iterations']}")
        assert line.endswith(f"cost={record['original_cost']:.6f} {contact}")


def test_verbose_progress_reports_the_contact_passes(trot_scenario, tmp_path, capsys):
    # The contact block's direct active-set passes.
    _verbose_progress_matches_records(trot_scenario, tmp_path, capsys, fallback=False)


def test_verbose_progress_reports_the_contact_fallback(trot_scenario, tmp_path, capsys,
                                                      monkeypatch):
    # With no pass allowed the direct solve is never accepted, and the line
    # reports the iterations of the interior-point fallback instead.
    monkeypatch.setattr(banded_module, "_MAX_PASSES", 0)
    _verbose_progress_matches_records(trot_scenario, tmp_path, capsys, fallback=True)
