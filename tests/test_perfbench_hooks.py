"""The benchmark's span recorder swaps package functions by name; these
tests fail when a refactor removes or renames one of them, or stops calling
a layer the benchmark reports. They only read ``perfbench/``."""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_traced_cli_solve_and_verify_record_the_layer_spans(tmp_path):
    spans = _spans_module()
    from centroidal_bcd import cli

    scn, out = tmp_path / "stand.scn", tmp_path / "run"
    assert cli.main(["gait", "--kind", "stand", "--out", str(scn)]) == 0
    recorder = spans.Recorder()
    # Entering raises KeyError if any function it swaps is gone.
    with spans.traced(recorder):
        assert cli.main(["solve", "--scenario", str(scn), "--out", str(out)]) == 0
        assert cli.main(["verify", "--scenario", str(scn), "--out", str(out)]) == 0
    names = {span.name for span in recorder.spans}
    assert {"force_qp.build", "qp.solve", "model.verify", "trajectory_io.read"} <= names
    # Leaving the context restores the package's own functions.
    assert not hasattr(cli.main, "__wrapped__")
