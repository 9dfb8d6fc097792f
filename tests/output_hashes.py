"""SHA-256 of the byte-reproducible outputs of the shipped scenarios and
trot N=300.

For each scenario the script runs ``gait``, ``solve`` and ``verify`` through
``cli.main`` in a temporary directory and prints one ``<scenario> <file>
<sha256>`` line for each of ``trajectory.csv``, ``convergence.json``,
``summary.txt`` and the ``verify`` stdout (``verify.stdout``).
``timing.csv`` holds wall-clock times and is left out. Two trees that print
the same lines write the same bytes. One BLAS thread advised:

    PYTHONPATH=src python tests/output_hashes.py [scenario ...]

Without arguments it covers the ten ``GAIT_KINDS`` and ``trot_N300``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

from centroidal_bcd.cli import main as cli_main
from centroidal_bcd.gaits import GAIT_KINDS

# Each scenario's ``gait`` arguments.
SCENARIOS = {**{kind: ["--kind", kind] for kind in GAIT_KINDS},
             "trot_N300": ["--kind", "trot", "--horizon", "300"]}
# The files ``solve`` writes that hold no wall-clock time.
OUTPUTS = ("trajectory.csv", "convergence.json", "summary.txt")


def _run(argv: list[str]) -> str:
    """``cli.main(argv)``'s stdout; a nonzero exit raises ``RuntimeError``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    if code:
        raise RuntimeError(f"{argv[0]} exited {code}: {out.getvalue()}")
    return out.getvalue()


def output_hashes(name: str) -> list[tuple[str, str, str]]:
    """(scenario, file, sha256) of each of ``OUTPUTS`` and of the ``verify``
    stdout (``verify.stdout``) for scenario ``name``."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        scenario = str(work / f"{name}.scn")
        _run(["gait", *SCENARIOS[name], "--out", scenario])
        _run(["solve", "--scenario", scenario, "--out", tmp])
        blobs = {file: (work / file).read_bytes() for file in OUTPUTS}
        blobs["verify.stdout"] = _run(["verify", "--scenario", scenario, "--out", tmp]).encode()
    return [(name, file, hashlib.sha256(blob).hexdigest()) for file, blob in blobs.items()]


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("scenarios", nargs="*", metavar="scenario",
                        help=f"any of {', '.join(SCENARIOS)} (default: all)")
    cfg = parser.parse_args(argv)
    unknown = sorted(set(cfg.scenarios) - set(SCENARIOS))
    if unknown:
        parser.error(f"unknown scenario {unknown[0]!r}")
    for name in cfg.scenarios or SCENARIOS:
        for line in output_hashes(name):
            print(*line)


if __name__ == "__main__":
    main()
